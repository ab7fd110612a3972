"""Witness variants returned by the trichotomy run, plus their JSON documents.

Every non-Stuck witness is a machine-checkable certificate; the checking
itself lives in catspire.oracles.verify_witness so that the verifier stays
independent of the engine that produced the witness.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Dict, List, Optional, Tuple, Union

from .graphs import Graph, VertexSet, neighbours


@dataclass(frozen=True)
class HighMassVertex:
    vertex: int


@dataclass(frozen=True)
class HighMassNeighbourhood:
    vertex: int


@dataclass(frozen=True)
class AnticompletePair:
    a: VertexSet
    b: VertexSet


@dataclass(frozen=True)
class InducedCopy:
    """mapping[i] is the host vertex for target-tree vertex i."""

    mapping: Tuple[int, ...]


@dataclass(frozen=True)
class Stuck:
    """Off-guarantee dead end; never a certificate, always carries diagnostics."""

    stage: str
    diagnostics: Tuple[Tuple[str, object], ...] = ()

    @classmethod
    def make(cls, stage: str, diagnostics: Optional[Dict[str, object]] = None) -> "Stuck":
        items = tuple(sorted((diagnostics or {}).items()))
        return cls(stage, items)

    def diag_dict(self) -> Dict[str, object]:
        return dict(self.diagnostics)


Witness = Union[HighMassVertex, HighMassNeighbourhood, AnticompletePair, InducedCopy, Stuck]


def variant_tag(w: Witness) -> str:
    return {
        HighMassVertex: "high-mass-vertex",
        HighMassNeighbourhood: "high-mass-neighbourhood",
        AnticompletePair: "anticomplete-pair",
        InducedCopy: "induced-copy",
        Stuck: "stuck",
    }[type(w)]


def format_rational(q: Fraction) -> str:
    """Exact decimal-free rational string, e.g. '3/20' (integers print bare).

    Decimal prints integers of any size, past str()'s digit limit.
    """
    text = str(Decimal(q.numerator))
    return text if q.denominator == 1 else f"{text}/{Decimal(q.denominator)}"


_RATIONAL = re.compile(r"([-+]?\d+(?:_\d+)*)(?:/(\d+(?:_\d+)*))?")


def parse_rational(text: str) -> Fraction:
    """Parse a 'p/q' or integer string of any size; decimals are rejected."""
    if not isinstance(text, str):
        raise TypeError(f"rationals must be 'p/q' or integer strings, got {text!r}")
    s = text.strip()
    if "." in s or "e" in s.lower():
        raise ValueError(f"rationals must be 'p/q' or integer strings, got {text!r}")
    match = _RATIONAL.fullmatch(s)
    if match is None:
        raise ValueError(f"bad rational {text!r}: Invalid literal for Fraction: {s!r}")
    num, den = match.groups()
    try:
        return Fraction(int(Decimal(num)), int(Decimal(den or 1)))
    except ZeroDivisionError as exc:
        raise ValueError(f"bad rational {text!r}: {exc}") from None


def parameters_document(params) -> dict:
    """The {tau, epsilon, p} document of a parameter set."""
    return {"tau": params.tau, "epsilon": format_rational(params.epsilon), "p": params.p}


def witness_document(
    g: Graph,
    m,
    witness: Witness,
    params,
    verdict: str,
    trace: Optional[List[dict]] = None,
) -> dict:
    """Build the JSON-compatible witness document."""
    doc: dict = {"variant": variant_tag(witness)}
    if isinstance(witness, HighMassVertex):
        doc["vertex"] = witness.vertex
        doc["masses"] = {"vertex": format_rational(m.mass(VertexSet([witness.vertex])))}
    elif isinstance(witness, HighMassNeighbourhood):
        doc["vertex"] = witness.vertex
        doc["masses"] = {"neighbourhood": format_rational(m.mass(neighbours(g, witness.vertex)))}
    elif isinstance(witness, AnticompletePair):
        doc["a"] = list(witness.a)
        doc["b"] = list(witness.b)
        doc["masses"] = {
            "a": format_rational(m.mass(witness.a)),
            "b": format_rational(m.mass(witness.b)),
        }
    elif isinstance(witness, InducedCopy):
        doc["mapping"] = list(witness.mapping)
    elif isinstance(witness, Stuck):
        doc["stage"] = witness.stage
        doc["diagnostics"] = {k: str(v) for k, v in witness.diagnostics}
    doc["parameters"] = {**parameters_document(params), "guarantee": params.guarantee}
    doc["verdict"] = verdict
    if trace is not None:
        doc["trace"] = trace
    return doc


def witness_from_document(doc: dict) -> Witness:
    """Rebuild a witness value from its document (used by the verify command)."""
    if not isinstance(doc, dict):
        raise TypeError("a witness document must be a JSON object")
    tag = doc.get("variant")
    if tag == "high-mass-vertex":
        return HighMassVertex(int(doc["vertex"]))
    if tag == "high-mass-neighbourhood":
        return HighMassNeighbourhood(int(doc["vertex"]))
    if tag == "anticomplete-pair":
        return AnticompletePair(VertexSet(int(v) for v in doc["a"]), VertexSet(int(v) for v in doc["b"]))
    if tag == "induced-copy":
        return InducedCopy(tuple(int(v) for v in doc["mapping"]))
    if tag == "stuck":
        diagnostics = doc.get("diagnostics", {})
        if not isinstance(diagnostics, dict):
            raise TypeError("stuck diagnostics must be a JSON object")
        return Stuck.make(str(doc.get("stage", "")), diagnostics)
    raise ValueError(f"unknown witness variant {tag!r}")
