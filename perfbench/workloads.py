"""The four workloads: how each builds its inputs and what one op is.

A workload turns one instance seed from its fixed pool into a round: the
round's inputs are built (that time is set-up) and it yields the round's
ops.  An op has a `run` that calls the package's public functions (timed)
and a `check` that tests the output with perfbench.checks (not timed).
The package is always reached through its module attributes, so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import networkx as nx

from catspire import cli, engine, graphs, harness, mass, trees, witnesses

import checks

HOOK_EDGES = [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)]


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], List[str]]
    graph: Optional[graphs.Graph] = None  # host whose adjacency the trace sizes


@dataclass
class Workload:
    """A named workload; its reason to exist is in BENCHMARK.json."""

    name: str
    pool: Sequence[int]
    build: Callable[[int], List[Op]]
    traced_rounds: int


def _hook() -> trees.CaterpillarTree:
    return trees.CaterpillarTree(graphs.Graph(6, HOOK_EDGES))


# -- certify workloads -------------------------------------------------------


def _certify_op(
    g: graphs.Graph,
    m: mass.MassProvider,
    weights: Sequence[int],
    params: engine.EngineParams,
) -> Op:
    t = _hook()

    def run():
        return engine.run_trichotomy(g, m, t, params)

    def check(w) -> List[str]:
        eps = params.epsilon
        edges = g.edges()
        problems = checks.regular_host_problems(g.n, edges, 3)
        problems += checks.axiom_problems(checks.adjacency_lists(g.n, edges), weights, eps)
        if isinstance(w, witnesses.AnticompletePair):
            a, b = checks.mask_members(w.a.mask), checks.mask_members(w.b.mask)
            problems += checks.pair_problems(edges, a, b, weights, eps)
        elif isinstance(w, witnesses.InducedCopy):
            problems += checks.image_problems(edges, w.mapping, HOOK_EDGES, 6)
        else:
            problems.append(f"witness {type(w).__name__} is not structural")
        return problems

    return Op("certify", run, check, g)


FRONTIER_N = 40960
# The seeds below 84 whose pairing succeeds at the first attempt.  Seeds
# 0..15 need 1 to 18 attempts, which spreads a host's generation from 0.1 to
# 1.5 s; a pool of first-attempt seeds makes set-up time measure one pairing
# and the graph build rather than which seeds a run happened to draw.
FRONTIER_SEEDS = (0, 2, 8, 9, 14, 24, 25, 27, 34, 35, 41, 42, 66, 74, 78, 83)
FRONTIER_PARAMS = engine.EngineParams(3, Fraction(1, 12288), 8)


def _frontier_round(seed: int) -> List[Op]:
    g = harness.generate(harness.GenSpec("regular", n=FRONTIER_N, degree=3, seed=seed))
    return [_certify_op(g, mass.CardinalityMass(g.n), [1] * g.n, FRONTIER_PARAMS)]


WEIGHTED_N = 4096
WEIGHTED_PARAMS = engine.EngineParams(3, Fraction(1, 384), 4)
WEIGHT_MAX = 4


def _weighted_round(seed: int) -> List[Op]:
    g = harness.generate(harness.GenSpec("regular", n=WEIGHTED_N, degree=3, seed=seed))
    rng = random.Random(seed)
    weights = [rng.randint(0, WEIGHT_MAX) for _ in range(g.n)]
    return [_certify_op(g, mass.WeightedMass(weights), weights, WEIGHTED_PARAMS)]


# -- merge-extract -----------------------------------------------------------


def _blob_merge_op(rng: random.Random) -> Op:
    """Path blobs as singleton head classes under weighted mass, wired so the
    reservoir walk from the first blob covers the second one vertex a step
    (the pattern of tests/test_acceptance._blob_instance, scaled up)."""
    tau = rng.choice((3, 4))
    a = rng.randint(450, 550)
    b = rng.randint(350, a - 40)
    sizes = [a, b, rng.randint(b, a)]
    edges: List[Tuple[int, int]] = []
    offsets: List[int] = []
    off = 0
    for s in sizes:
        offsets.append(off)
        edges += [(off + i, off + i + 1) for i in range(s - 1)]
        off += s
    edges += [(offsets[1] + t, tau - 1 + t) for t in range(b)]
    weights = [rng.randint(1, WEIGHT_MAX) for _ in range(off)]
    total = sum(weights)
    g = graphs.Graph(off, edges)
    m = mass.WeightedMass(weights)
    heads = [offsets[q] for q in range(len(sizes))]
    nursery = trees.Nursery(
        tau, [trees.Chrysalis(tau, h, {}) for h in heads], range(len(sizes))
    )
    blobs = {h: range(h, h + s) for h, s in zip(heads, sizes)}
    assignment = {h: graphs.VertexSet(blobs[h]) for h in heads}
    kappa = min(Fraction(sum(weights[v] for v in blobs[h]), total) for h in heads)
    eps = Fraction(4 * WEIGHT_MAX, total)
    kappa_next = (kappa - (tau + 2) * eps) / 2
    r = engine.Realization(nursery, assignment, {}, kappa)
    adj = checks.adjacency_lists(off, edges)

    def run():
        out = engine.improve(g, m, r, kappa_next, eps)
        if not isinstance(out, tuple):
            return out, None
        return out, engine.check_realization(g, m, out[1])

    def check(result) -> List[str]:
        out, realization_problems = result
        if not isinstance(out, tuple):
            return [f"improve returned {type(out).__name__}, not a merge"]
        problems = [f"check_realization: {p}" for p in realization_problems]
        new_nursery, r2 = out
        merged_comps = [c for c in new_nursery.components if c.parent]
        if len(merged_comps) != 1 or len(merged_comps[0].parent) != 1:
            return problems + ["expected exactly one component with one merged vertex"]
        (child, head), = merged_comps[0].parent.items()
        classes = {v: checks.mask_members(s.mask) for v, s in r2.assignment.items()}
        problems += checks.merge_problems(
            adj,
            weights,
            len(nursery.components),
            len(new_nursery.components),
            classes,
            [c.head for c in new_nursery.components],
            child,
            head,
            kappa_next,
        )
        return problems

    return Op("merge", run, check, g)


def fitting_trees(tau: int) -> List[Tuple[trees.CaterpillarTree, List[Tuple[int, int]], int]]:
    """Every caterpillar subdivision on 1..10 vertices that fits tau, up to
    isomorphism, with its edge list and order."""
    out = []
    for k in range(1, 11):
        shapes = [nx.empty_graph(1)] if k == 1 else nx.nonisomorphic_trees(k)
        for shape in shapes:
            edges = sorted((min(u, v), max(u, v)) for u, v in shape.edges())
            g = graphs.Graph(k, edges)
            if trees.is_caterpillar_subdivision(g) and trees.fit_tau(g) <= tau:
                out.append((trees.CaterpillarTree(g), edges, k))
    return out


def _butterfly_extract_op(rng: random.Random, tau: int) -> Op:
    """A butterfly(tau) realization in the style of tests/helpers.butterfly_host,
    with seeded reservoir chain lengths.  The host keeps that helper's vertex
    numbering: the embedding search tries candidates by ascending id, and a
    random relabelling spreads its time over a factor of eight."""
    comp = trees.butterfly(tau)
    edges = [(i, i + 1) for i in range(tau)]
    classes: Dict[int, List[int]] = {v: [v] for v in range(tau + 1)}
    spire_parts: Dict[int, Tuple[List[int], List[int]]] = {}
    nxt = tau + 1
    for u in sorted(comp.leaves()):
        xs = list(range(nxt, nxt + tau))
        nxt += tau
        chain = list(range(nxt, nxt + rng.randint(1, 2 * tau)))
        nxt += len(chain)
        edges += list(zip(xs, xs[1:])) + list(zip([xs[-1]] + chain, chain))
        edges.append((chain[-1], comp.parent[u]))
        classes[u] = xs + chain
        spire_parts[u] = (xs, [xs[-1]] + chain)
    g = graphs.Graph(nxt, edges)
    assignment = {v: graphs.VertexSet(cls) for v, cls in classes.items()}
    spires = {u: engine.Spire(tuple(xs), graphs.VertexSet(z)) for u, (xs, z) in spire_parts.items()}
    r = engine.Realization(trees.Nursery(tau, [comp]), assignment, spires, Fraction(1, nxt))
    targets = fitting_trees(tau)

    def run():
        return [engine.extract_copy(g, r, t) for t, _, _ in targets]

    def check(images) -> List[str]:
        problems = []
        for image, (_, t_edges, k) in zip(images, targets):
            problems += checks.image_problems(edges, image, t_edges, k)
        if len(images) != len(targets):
            problems.append(f"{len(images)} images for {len(targets)} trees")
        return problems

    return Op(f"extract-tau{tau}", run, check, g)


MERGES_PER_ROUND = 4


def _merge_extract_round(seed: int) -> List[Op]:
    rng = random.Random(seed)
    ops = [_blob_merge_op(rng) for _ in range(MERGES_PER_ROUND)]
    ops += [_butterfly_extract_op(rng, 3), _butterfly_extract_op(rng, 4)]
    rng.shuffle(ops)
    return ops


# -- batch-mix ---------------------------------------------------------------

BATCH_TRIALS = 12
BATCH_EPSILON = Fraction(1, 48)
BATCH_MODELS = (
    {"model": "gnp", "n": 800, "probability": "1/40"},
    {"model": "regular", "n": 192, "degree": 4},
    {"model": "high_girth", "n": 60, "probability": "1/10", "girth": 4},
)
SPEC_DIR = Path(__file__).resolve().parent / "results"


def _batch_round(seed: int) -> List[Op]:
    doc = {
        "trials": BATCH_TRIALS,
        "tree": {"spine": 5, "legs": [[3, 1]]},
        "params": {"tau": 3, "epsilon": witnesses.format_rational(BATCH_EPSILON), "p": 2},
        "specs": [
            {**model, "seed": seed * 64 + 16 * k} for k, model in enumerate(BATCH_MODELS)
        ],
    }
    # a new file every round: rewriting a file in place costs ext4 a flush,
    # which would make set-up time depend on what earlier rounds left behind
    path = SPEC_DIR / "batch-spec.json"
    path.unlink(missing_ok=True)
    path.write_text(json.dumps(doc))

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["batch", "--spec", str(path)])
        return code, out.getvalue()

    def check(result) -> List[str]:
        code, text = result
        report = json.loads(text) if code == 0 else {}
        degrees = {}
        for r in report.get("results", []):
            g = harness.generate(harness.GenSpec.from_document(r["spec"]))
            adj = checks.adjacency_lists(g.n, g.edges())
            degrees[r["trial"]] = (g.n, max(map(len, adj), default=0))
        return checks.batch_problems(code, report, BATCH_TRIALS, BATCH_EPSILON, degrees)

    return [Op("batch", run, check)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "frontier-cardinality",
            pool=FRONTIER_SEEDS,
            build=_frontier_round,
            traced_rounds=3,
        ),
        Workload(
            "weighted-blocks",
            pool=range(64),
            build=_weighted_round,
            traced_rounds=6,
        ),
        Workload(
            "merge-extract",
            pool=range(256),
            build=_merge_extract_round,
            traced_rounds=2,
        ),
        Workload(
            "batch-mix",
            pool=range(256),
            build=_batch_round,
            traced_rounds=6,
        ),
    )
}
