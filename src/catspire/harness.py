"""Instance generators and the batch experiment runner.

Generators are deterministic functions of (model, parameters, seed): the
generator family is numpy's PCG64, seeded explicitly, with edge decisions
made by exact integer draws so that a rational edge probability is honored
exactly.  Same spec, same graph, on any platform.

run_batch drives run_trichotomy over a spec list, re-verifies every witness
against the oracle checker, and reports each trial's variant and time; the
report derives variant counts, the stuck rate and timing percentiles from
those results.  A theorem violation, raised by the engine or by a failed
re-verification, aborts the batch and carries a replay document naming the
exact instance.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .engine import EngineParams, TheoremViolation, run_trichotomy
from .graphs import Graph
from .mass import CardinalityMass
from .oracles import verify_witness
from .trees import CaterpillarTree
from .witnesses import (
    Stuck,
    format_rational,
    parameters_document,
    parse_rational,
    variant_tag,
    witness_document,
)

MODELS = ("gnp", "regular", "high_girth", "caterpillar_subdivision")

_SEED_SPAN = 1 << 64
_PAIRING_RETRIES = 1000


@dataclass(frozen=True)
class GenSpec:
    """One reproducible instance: model, parameters, 64-bit seed.

    gnp needs probability; regular needs degree (n*degree even); high_girth
    needs probability and girth; caterpillar_subdivision needs spine and
    legs, where each leg is (position, length) with 1-based spine positions,
    and n must be 0 (meaning derived) or the exact vertex count.
    """

    model: str
    n: int = 0
    probability: Optional[Fraction] = None
    degree: Optional[int] = None
    girth: Optional[int] = None
    spine: Optional[int] = None
    legs: Tuple[Tuple[int, int], ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}")
        if not 0 <= self.seed < _SEED_SPAN:
            raise ValueError("seed must fit in 64 bits")
        if self.probability is not None:
            object.__setattr__(self, "probability", Fraction(self.probability))
        object.__setattr__(
            self, "legs", tuple((int(a), int(b)) for a, b in self.legs)
        )
        if self.model in ("gnp", "high_girth"):
            if self.n < 1:
                raise ValueError(f"{self.model} needs n >= 1")
            p = self.probability
            if p is None or not 0 <= p <= 1:
                raise ValueError(f"{self.model} needs an edge probability in [0, 1]")
            if p.denominator >= 1 << 63:
                raise ValueError("edge probability denominator does not fit in 63 bits")
        if self.model == "high_girth":
            if self.girth is None or self.girth < 3:
                raise ValueError("high_girth needs a girth target >= 3")
        if self.model == "regular":
            d = self.degree
            if self.n < 1 or d is None or not 0 <= d < self.n:
                raise ValueError("regular needs n >= 1 and 0 <= degree < n")
            if self.n * d % 2 != 0:
                raise ValueError("regular needs n*degree even")
        if self.model == "caterpillar_subdivision":
            if self.spine is None or self.spine < 1:
                raise ValueError("caterpillar_subdivision needs spine >= 1")
            for pos, length in self.legs:
                if not 1 <= pos <= self.spine:
                    raise ValueError(f"leg position {pos} outside 1..{self.spine}")
                if length < 1:
                    raise ValueError("leg lengths must be >= 1")
            expected = self.spine + sum(length for _, length in self.legs)
            if self.n not in (0, expected):
                raise ValueError(
                    f"n={self.n} does not match the tree's {expected} vertices"
                )

    def to_document(self) -> dict:
        doc: dict = {"model": self.model, "n": self.n, "seed": self.seed}
        if self.probability is not None:
            doc["probability"] = format_rational(self.probability)
        if self.degree is not None:
            doc["degree"] = self.degree
        if self.girth is not None:
            doc["girth"] = self.girth
        if self.spine is not None:
            doc["spine"] = self.spine
        if self.legs:
            doc["legs"] = [[pos, length] for pos, length in self.legs]
        return doc

    @staticmethod
    def from_document(doc: dict) -> "GenSpec":
        if not isinstance(doc, dict):
            raise TypeError(f"a generator spec must be a JSON object, got {doc!r}")
        prob = doc.get("probability")
        return GenSpec(
            model=doc["model"],
            n=int(doc.get("n", 0)),
            probability=parse_rational(prob) if prob is not None else None,
            degree=doc.get("degree"),
            girth=doc.get("girth"),
            spine=doc.get("spine"),
            legs=tuple((int(a), int(b)) for a, b in doc.get("legs", [])),
            seed=int(doc.get("seed", 0)),
        )


def _gnp_edges(rng: np.random.Generator, n: int, prob: Fraction) -> np.ndarray:
    """The (m, 2) array of G(n, prob) edges (u, w), u < w, in ascending order."""
    # one exact draw per vertex pair, row by row to bound memory; the draw
    # count per row is fixed, so edges depend only on the seed
    num, den = prob.numerator, prob.denominator
    heads = [
        u + 1 + np.flatnonzero(rng.integers(0, den, size=n - 1 - u) < num) for u in range(n - 1)
    ]
    tails = np.repeat(np.arange(len(heads)), np.array([len(h) for h in heads], np.int64))
    return np.column_stack((tails, np.concatenate(heads or [np.empty(0, np.int64)])))


def _generate_regular(rng: np.random.Generator, n: int, d: int) -> Graph:
    if d == 0:
        return Graph(n)
    stubs = np.repeat(np.arange(n), d)
    for _ in range(_PAIRING_RETRIES):
        pairs = np.sort(stubs[rng.permutation(n * d)].reshape(-1, 2), axis=1)
        # simple exactly when no pair is a loop and no two pairs coincide
        keys = np.sort(pairs[:, 0] * n + pairs[:, 1])
        if (pairs[:, 0] < pairs[:, 1]).all() and (keys[1:] > keys[:-1]).all():
            return Graph(n, pairs)
    raise ValueError(
        f"pairing model failed to produce a simple {d}-regular graph on {n} "
        f"vertices after {_PAIRING_RETRIES} attempts"
    )


def _closing_edge(adj: List[List[int]], root: int, length: int) -> Optional[Tuple[int, int]]:
    """The first edge (u, w) with dist(u) + dist(w) + 1 == length, breadth
    first from root with neighbours by ascending id.  With no cycle shorter
    than length, that is the first closing edge of a length-cycle through
    root.  A tree edge gives 2*depth < length, so no parent map is needed.
    It keeps its own walk rather than graphs._flood: it runs on id lists
    that lose edges as they drop, and the rescan reference test and the
    frozen generator outputs pin its discovery-order tie rule."""
    dist = {root: 0}
    frontier = [root]
    for depth in range((length + 1) // 2):
        nxt: List[int] = []
        for u in frontier:
            for w in adj[u]:
                if w not in dist:
                    dist[w] = depth + 1
                    nxt.append(w)
                elif depth + dist[w] + 1 == length:
                    return u, w
        frontier = nxt
    return None


def _generate_high_girth(
    rng: np.random.Generator, n: int, prob: Fraction, girth: int
) -> Graph:
    # shortest cycles first, least root first, first closing edge first.
    # Dropping edges lowers no girth and puts no root on a new cycle, so one
    # ascending sweep of the roots per length finds every edge to drop.
    edges = _gnp_edges(rng, n, prob)
    g = Graph(n, edges)
    adj = [list(row) for row in g.rows]
    for length in range(3, girth):
        for root in range(n):
            while (hit := _closing_edge(adj, root, length)) is not None:
                u, w = hit
                adj[u].remove(w)
                adj[w].remove(u)
    return Graph(n, [(u, w) for u, w in edges.tolist() if w in adj[u]])


def _generate_caterpillar(spine: int, legs: Sequence[Tuple[int, int]]) -> Graph:
    edges = [(i, i + 1) for i in range(spine - 1)]
    nxt = spine
    for pos, length in legs:
        prev = pos - 1
        for _ in range(length):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return Graph(nxt, edges)


def generate(spec: GenSpec) -> Graph:
    """The deterministic graph for (model, parameters, seed)."""
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    if spec.model == "gnp":
        return Graph(spec.n, _gnp_edges(rng, spec.n, spec.probability))
    if spec.model == "regular":
        return _generate_regular(rng, spec.n, spec.degree)
    if spec.model == "high_girth":
        return _generate_high_girth(rng, spec.n, spec.probability, spec.girth)
    return _generate_caterpillar(spec.spine, spec.legs)


@dataclass(frozen=True)
class TrialResult:
    trial: int
    spec: GenSpec
    variant: str
    seconds: float


@dataclass(frozen=True)
class BatchReport:
    results: Tuple[TrialResult, ...] = ()
    total_seconds: float = 0.0

    @property
    def trials(self) -> int:
        return len(self.results)

    @property
    def counts(self) -> Counter[str]:
        return Counter(r.variant for r in self.results)

    @property
    def stuck_rate(self) -> Fraction:
        return Fraction(self.counts["stuck"], self.trials) if self.trials else Fraction(0)

    def percentile(self, q: int) -> float:
        xs = sorted(r.seconds for r in self.results)
        if not xs:
            return 0.0
        rank = max(1, math.ceil(q * len(xs) / 100))
        return xs[rank - 1]

    def to_document(self) -> dict:
        return {
            "trials": self.trials,
            "counts": dict(sorted(self.counts.items())),
            "stuck_rate": format_rational(self.stuck_rate),
            "timings_seconds": {
                "p50": self.percentile(50),
                "p90": self.percentile(90),
                "p99": self.percentile(99),
            },
            "total_seconds": self.total_seconds,
            "results": [
                {
                    "trial": r.trial,
                    "spec": r.spec.to_document(),
                    "variant": r.variant,
                    "seconds": r.seconds,
                }
                for r in self.results
            ],
        }

    def format_table(self) -> str:
        lines = [f"trials: {self.trials}"]
        counts = self.counts
        width = max((len(tag) for tag in counts), default=0)
        for tag in sorted(counts):
            lines.append(f"  {tag.ljust(width)}  {counts[tag]}")
        lines.append(f"stuck rate: {format_rational(self.stuck_rate)}")
        lines.append(
            "timing seconds: "
            f"p50={self.percentile(50):.3f} "
            f"p90={self.percentile(90):.3f} "
            f"p99={self.percentile(99):.3f} "
            f"total={self.total_seconds:.3f}"
        )
        return "\n".join(lines)


def run_batch(
    specs: Sequence[GenSpec],
    t: CaterpillarTree,
    params: EngineParams,
    trials: int,
) -> BatchReport:
    """trials sequential runs; trial k uses specs[k % len(specs)] reseeded
    with spec.seed + k, so a single spec fans out into distinct instances."""
    if trials < 0:
        raise ValueError("trials must be >= 0")
    if trials > 0 and not specs:
        raise ValueError("trials > 0 needs at least one spec")
    results: List[TrialResult] = []
    started = time.perf_counter()
    for k in range(trials):
        spec = replace(
            specs[k % len(specs)], seed=(specs[k % len(specs)].seed + k) % _SEED_SPAN
        )
        g = generate(spec)
        m = CardinalityMass(g.n)

        def _replay(witness_doc: Optional[dict], problems: List[str]) -> dict:
            return {
                "trial": k,
                "spec": spec.to_document(),
                "params": parameters_document(params),
                "witness": witness_doc,
                "problems": problems,
            }

        begun = time.perf_counter()
        try:
            w = run_trichotomy(g, m, t, params)
        except TheoremViolation as ex:
            ex.replay = _replay(None, [str(ex)])
            raise
        seconds = time.perf_counter() - begun
        if not isinstance(w, Stuck):
            report = verify_witness(g, m, t, params.epsilon, w)
            if not report.ok:
                violation = TheoremViolation(f"trial {k}: witness failed verification")
                violation.replay = _replay(witness_document(g, m, w, params, report.verdict),
                                           list(report.problems))
                raise violation
        results.append(TrialResult(k, spec, variant_tag(w), seconds))
    return BatchReport(tuple(results), time.perf_counter() - started)
