"""Span tracing of catspire from outside the package.

While a Tracer is active it replaces the package's public layer functions
with wrappers, at every module attribute through which the package itself
calls them, and wraps the `mass` method of every mass provider class.  A
wrapper records one span (name, start, end, parent); a mass call records no
span of its own but adds its count and duration to the innermost open span.
So `X.self_s` is X's duration minus its child spans and the mass calls made
directly inside it, and the mass time appears once, as `mass.self_s`.

Nothing under src/ changes; every replaced attribute is restored on exit.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from catspire import cli, engine, harness, mass

# span name -> the (module, attribute) pairs the package calls it through
LAYERS: Dict[str, Sequence[Tuple[object, str]]] = {
    "cli.main": [(cli, "main")],
    "harness.run_batch": [(cli, "run_batch"), (harness, "run_batch")],
    "harness.generate": [(cli, "generate"), (harness, "generate")],
    "engine.run_trichotomy": [(engine, "run_trichotomy"), (harness, "run_trichotomy")],
    "engine.initial_blocks": [(engine, "initial_blocks")],
    "engine.check_realization": [(engine, "check_realization")],
    "engine.improve": [(engine, "improve")],
    "engine.grow_spire": [(engine, "grow_spire")],
    "engine.big_piece": [(engine, "big_piece")],
    "engine.extract_copy": [(engine, "extract_copy")],
    "graphs.components": [(engine, "components")],
    "graphs.connected_order": [(engine, "connected_order")],
    "oracles.brute_induced_embedding": [(engine, "brute_induced_embedding")],
    "oracles.verify_witness": [(engine, "verify_witness"), (harness, "verify_witness")],
}

MASS_CLASSES = (mass.CardinalityMass, mass.WeightedMass, mass.ChromaticMass)

SELF_TIMED = (
    "engine.run_trichotomy",
    "engine.initial_blocks",
    "engine.check_realization",
    "engine.improve",
    "engine.big_piece",
    "engine.grow_spire",
    "graphs.components",
    "graphs.connected_order",
    "engine.extract_copy",
    "oracles.brute_induced_embedding",
    "harness.generate",
    "oracles.verify_witness",
    "harness.run_batch",
    "cli.main",
)
MASS_COUNTED = (
    "engine.run_trichotomy",
    "engine.initial_blocks",
    "engine.check_realization",
    "engine.improve",
    "engine.big_piece",
)

# span record fields
NAME, START, END, PARENT, MASS_N, MASS_NS = range(6)


def adjacency_bytes(g) -> int:
    """Bytes held by a graph's per-vertex adjacency masks (sys.getsizeof)."""
    return sum(sys.getsizeof(g.adj(v)) for v in range(g.n))


class Tracer:
    """Spans and counters kept in memory; use as a context manager."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counters: Counter = Counter()
        self.loose_mass = [0, 0]  # mass calls made outside every span
        self.op_adjacency: List[int] = []
        self._op_graphs: Optional[list] = None
        self._stack: List[int] = []
        self._saved: List[Tuple[object, str, object]] = []

    # -- patching -----------------------------------------------------------

    def __enter__(self) -> "Tracer":
        for name, sites in LAYERS.items():
            original = getattr(*sites[0])
            wrapper = self._wrap(name, original)
            for module, attr in sites:
                self._saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, wrapper)
        for cls in MASS_CLASSES:
            self._saved.append((cls, "mass", cls.__dict__["mass"]))
            cls.mass = self._wrap_mass(cls.__dict__["mass"])
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0, 0, stack[-1] if stack else -1, 0, 0]
            spans.append(rec)
            stack.append(idx)
            rec[START] = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter_ns()
                stack.pop()
            self._after(name, out)
            return out

        return traced

    def _wrap_mass(self, fn: Callable) -> Callable:
        spans, stack, loose = self.spans, self._stack, self.loose_mass

        def traced_mass(provider, x):
            start = perf_counter_ns()
            try:
                return fn(provider, x)
            finally:
                took = perf_counter_ns() - start
                rec = spans[stack[-1]] if stack else None
                if rec is None:
                    loose[0] += 1
                    loose[1] += took
                else:
                    rec[MASS_N] += 1
                    rec[MASS_NS] += took

        return traced_mass

    def _after(self, name: str, out: object) -> None:
        if name == "engine.improve" and isinstance(out, tuple):
            self.counters["engine.improve.merges"] += 1
        elif name == "harness.generate" and self._op_graphs is not None:
            self._op_graphs.append(out)

    # -- per-op records -----------------------------------------------------

    def begin_op(self, graph=None) -> None:
        """Start collecting the graphs of one op: its host, if it has one,
        and every graph generated while the op runs."""
        self._op_graphs = [] if graph is None else [graph]

    def end_op(self) -> None:
        """Record the largest adjacency among the op's graphs, in bytes."""
        graphs, self._op_graphs = self._op_graphs or [], None
        self.op_adjacency.append(max((adjacency_bytes(g) for g in graphs), default=0))

    # -- derived figures ----------------------------------------------------

    def self_ns(self) -> Dict[str, int]:
        covered = [0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                covered[rec[PARENT]] += rec[END] - rec[START]
        out: Dict[str, int] = Counter()
        for rec, child in zip(self.spans, covered):
            out[rec[NAME]] += rec[END] - rec[START] - child - rec[MASS_NS]
        return out

    def per_layer(self, ops: int) -> Dict[str, Tuple[float, str]]:
        """Every per-layer metric, as (value per op, unit)."""
        selfs = self.self_ns()
        evals: Counter = Counter()
        calls: Counter = Counter()
        mass_ns = self.loose_mass[1]
        mass_n = self.loose_mass[0]
        for rec in self.spans:
            evals[rec[NAME]] += rec[MASS_N]
            calls[rec[NAME]] += 1
            mass_ns += rec[MASS_NS]
            mass_n += rec[MASS_N]
        out: Dict[str, Tuple[float, str]] = {}
        for name in SELF_TIMED:
            out[f"{name}.self_s"] = (selfs.get(name, 0) / 1e9 / ops, "s")
        for name in MASS_COUNTED:
            out[f"{name}.mass_evals"] = (evals[name] / ops, "count")
        out["engine.improve.merges"] = (self.counters["engine.improve.merges"] / ops, "count")
        out["mass.self_s"] = (mass_ns / 1e9 / ops, "s")
        out["mass.evals"] = (mass_n / ops, "count")
        out["oracles.verify_witness.calls"] = (calls["oracles.verify_witness"] / ops, "count")
        adj = self.op_adjacency
        out["graphs.adjacency_mib"] = (sum(adj) / len(adj) / 2**20 if adj else 0.0, "MiB")
        return out

    def document(self) -> dict:
        """The raw trace: spans with parent links, plus the counters."""
        return {
            "fields": ["name", "start_ns", "end_ns", "parent", "mass_evals", "mass_ns"],
            "spans": self.spans,
            "counters": dict(self.counters),
            "mass_outside_spans": {"evals": self.loose_mass[0], "ns": self.loose_mass[1]},
            "op_adjacency_bytes": self.op_adjacency,
        }
