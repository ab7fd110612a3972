"""Instance generators and the batch runner."""

import hashlib
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest

from catspire.engine import EngineParams, TheoremViolation
from catspire.graphs import Graph
from catspire.harness import (
    BatchReport,
    GenSpec,
    TrialResult,
    generate,
    run_batch,
)
from catspire.oracles import VerificationReport
from catspire.trees import CaterpillarTree
from helpers import hook_graph


def test_genspec_validation():
    with pytest.raises(ValueError, match="unknown model 'grid'"):
        GenSpec("grid")
    with pytest.raises(ValueError, match="seed must fit in 64 bits"):
        GenSpec("gnp", n=5, probability=Fraction(1, 2), seed=1 << 64)
    with pytest.raises(ValueError, match="gnp needs n >= 1"):
        GenSpec("gnp", n=0, probability=Fraction(1, 2))
    with pytest.raises(ValueError, match="edge probability in"):
        GenSpec("gnp", n=5, probability=Fraction(3, 2))
    with pytest.raises(ValueError, match="does not fit in 63 bits"):
        GenSpec("gnp", n=5, probability=Fraction(1, 1 << 63))
    with pytest.raises(ValueError, match="girth target >= 3"):
        GenSpec("high_girth", n=5, probability=Fraction(1, 2), girth=2)
    with pytest.raises(ValueError, match="0 <= degree < n"):
        GenSpec("regular", n=4, degree=4)
    with pytest.raises(ValueError, match="n\\*degree even"):
        GenSpec("regular", n=9, degree=3)
    with pytest.raises(ValueError, match="needs spine >= 1"):
        GenSpec("caterpillar_subdivision", spine=0)
    with pytest.raises(ValueError, match="leg position 7 outside 1..5"):
        GenSpec("caterpillar_subdivision", spine=5, legs=((7, 1),))
    with pytest.raises(ValueError, match="leg lengths must be >= 1"):
        GenSpec("caterpillar_subdivision", spine=5, legs=((3, 0),))
    with pytest.raises(ValueError, match="does not match the tree's 6 vertices"):
        GenSpec("caterpillar_subdivision", n=7, spine=5, legs=((3, 1),))


def test_genspec_document_round_trip():
    specs = [
        GenSpec("gnp", n=30, probability=Fraction(1, 10), seed=7),
        GenSpec("regular", n=10, degree=3, seed=1),
        GenSpec("high_girth", n=20, probability=Fraction(1, 5), girth=5, seed=2),
        GenSpec("caterpillar_subdivision", spine=5, legs=((3, 1),)),
    ]
    for spec in specs:
        assert GenSpec.from_document(spec.to_document()) == spec


def test_gnp_extremes_and_determinism():
    empty = generate(GenSpec("gnp", n=12, probability=Fraction(0), seed=3))
    assert empty.edge_count == 0
    full = generate(GenSpec("gnp", n=12, probability=Fraction(1), seed=3))
    assert full.edge_count == 66
    spec = GenSpec("gnp", n=30, probability=Fraction(1, 2), seed=99)
    assert generate(spec) == generate(spec)
    other = generate(GenSpec("gnp", n=30, probability=Fraction(1, 2), seed=100))
    assert generate(spec) != other


def test_regular_degrees():
    g = generate(GenSpec("regular", n=10, degree=3, seed=5))
    assert g.n == 10
    degs = [g.adj(v).bit_count() for v in range(10)]
    assert degs == [3] * 10
    assert generate(GenSpec("regular", n=6, degree=0, seed=0)).edge_count == 0


def _edge_digest(g):
    return hashlib.sha256(" ".join(f"{u}-{v}" for u, v in g.edges()).encode()).hexdigest()


def test_generator_output_frozen():
    # regular seed 7 is accepted at the 18th pairing, seed 5 at the first
    assert generate(GenSpec("regular", n=10, degree=3, seed=5)).edges() == [
        (0, 2), (0, 7), (0, 8), (1, 6), (1, 7), (1, 9), (2, 3), (2, 4),
        (3, 4), (3, 6), (4, 5), (5, 8), (5, 9), (6, 9), (7, 8),
    ]
    assert generate(GenSpec("regular", n=10, degree=3, seed=7)).edges() == [
        (0, 4), (0, 5), (0, 7), (1, 4), (1, 8), (1, 9), (2, 3), (2, 8),
        (2, 9), (3, 5), (3, 6), (4, 7), (5, 8), (6, 7), (6, 9),
    ]
    girth5 = GenSpec("high_girth", n=20, probability=Fraction(1, 5), girth=5, seed=2)
    assert generate(girth5).edges() == [
        (0, 3), (0, 8), (0, 14), (0, 16), (1, 6), (2, 4), (2, 5), (3, 7),
        (3, 9), (4, 19), (5, 9), (5, 15), (5, 18), (6, 7), (7, 10), (7, 15),
        (7, 17), (7, 19), (8, 11), (8, 12), (8, 13), (8, 18), (10, 12),
        (10, 16), (11, 19), (13, 15), (14, 17), (17, 18),
    ]
    assert generate(GenSpec("gnp", n=12, probability=Fraction(1, 3), seed=4)).edges() == [
        (0, 8), (0, 11), (1, 6), (1, 9), (2, 4), (2, 8), (3, 11), (4, 7),
        (4, 11), (5, 7), (5, 8), (7, 10), (7, 11), (8, 9),
    ]
    larger = {
        GenSpec("high_girth", n=60, probability=Fraction(1, 10), girth=4, seed=0):
            (141, "a27a41e5e196b710a56d32e4c4f29137fd3208eba9939dad180ddc92e1480fdd"),
        GenSpec("regular", n=192, degree=4, seed=0):
            (384, "e86acbb8fb6b2cda368d456c4acc05fc020d7ca95ad7f4baa8fa3b0d82c34b0d"),
        GenSpec("gnp", n=800, probability=Fraction(1, 40), seed=0):
            (7973, "cc87faad5124fa04c98a28a8a56371d5087ea137c79ba2819f4b154bbbb9fd81"),
    }
    for spec, (m, digest) in larger.items():
        g = generate(spec)
        assert (g.edge_count, _edge_digest(g)) == (m, digest), spec


def _loop_regular(n, d, seed, retries=1000):
    """The pairing model checked pair by pair: the reference for the vector check."""
    rng = np.random.Generator(np.random.PCG64(seed))
    stubs = np.repeat(np.arange(n), d)
    for _ in range(retries):
        seen = set()
        for a, b in stubs[rng.permutation(n * d)].reshape(-1, 2).tolist():
            if a == b or (min(a, b), max(a, b)) in seen:
                break
            seen.add((min(a, b), max(a, b)))
        else:
            return sorted(seen)
    return None


def test_regular_matches_the_pair_by_pair_check():
    for n, d in ((4, 3), (6, 2), (8, 5), (10, 3), (13, 4), (30, 7)):
        for seed in range(12):
            spec = GenSpec("regular", n=n, degree=d, seed=seed)
            expected = _loop_regular(n, d, seed)
            if expected is None:
                with pytest.raises(ValueError, match="pairing model failed"):
                    generate(spec)
            else:
                assert generate(spec).edges() == expected, spec


def _short_cycle_edge(g, bound):
    """(length, u, w) for a shortest cycle when below bound, scanning roots
    ascending; (u, w) is the closing edge found first at that length."""
    best = None
    radius = (bound - 1) // 2 + 1
    for root in range(g.n):
        dist = {root: 0}
        parent = {root: root}
        frontier = [root]
        depth = 0
        while frontier and depth < radius:
            nxt = []
            for u in frontier:
                scan = g.adj(u)
                while scan:
                    low = scan & -scan
                    w = low.bit_length() - 1
                    scan ^= low
                    if w == parent[u]:
                        continue
                    if w in dist:
                        length = dist[u] + dist[w] + 1
                        if length < bound and (best is None or length < best[0]):
                            best = (length, u, w)
                    else:
                        dist[w] = dist[u] + 1
                        parent[w] = u
                        nxt.append(w)
            frontier = nxt
            depth += 1
    return best


def _rescan_high_girth(n, prob, girth, seed):
    """Rebuild the graph and rescan every root after each dropped edge: the
    reference for the one-sweep-per-length generator."""
    edges = set(generate(GenSpec("gnp", n=n, probability=prob, seed=seed)).edges())
    while True:
        g = Graph(n, edges)
        hit = _short_cycle_edge(g, girth)
        if hit is None:
            return g
        _, u, w = hit
        edges.remove((min(u, w), max(u, w)))


def test_high_girth_matches_the_rescan_loop():
    for n in (1, 2, 5, 9, 14, 20):
        for prob in (Fraction(1, 10), Fraction(1, 4), Fraction(1, 2), Fraction(1)):
            for girth in range(3, 8):
                seed = n * 1000 + girth
                spec = GenSpec("high_girth", n=n, probability=prob, girth=girth, seed=seed)
                assert generate(spec) == _rescan_high_girth(n, prob, girth, seed), spec


def test_high_girth_has_no_short_cycles():
    for n, prob, girth, seed in (
        (40, Fraction(1, 8), 5, 11), (60, Fraction(1, 10), 4, 0), (250, Fraction(1, 125), 5, 33)
    ):
        g = generate(GenSpec("high_girth", n=n, probability=prob, girth=girth, seed=seed))
        assert nx.girth(nx.Graph(g.edges())) >= girth


def test_caterpillar_generator_matches_hook():
    g = generate(GenSpec("caterpillar_subdivision", spine=5, legs=((3, 1),)))
    assert g == hook_graph()


def test_run_batch_neighbourhood_heavy():
    spec = GenSpec("gnp", n=12, probability=Fraction(1), seed=0)
    hook = CaterpillarTree(hook_graph())
    params = EngineParams(3, Fraction(1, 10), 2)
    report = run_batch([spec], hook, params, trials=5)
    assert report.trials == 5
    assert report.counts == {"high-mass-neighbourhood": 5}
    assert report.stuck_rate == 0
    assert len(report.results) == 5
    # trial k reseeds the spec with seed + k
    assert [r.spec.seed for r in report.results] == [0, 1, 2, 3, 4]


def test_run_batch_anticomplete_on_edgeless():
    spec = GenSpec("gnp", n=201, probability=Fraction(0), seed=0)
    hook = CaterpillarTree(hook_graph())
    params = EngineParams(3, Fraction(1, 100), 2)
    report = run_batch([spec], hook, params, trials=3)
    assert report.counts == {"anticomplete-pair": 3}
    assert report.stuck_rate == 0


def test_run_batch_cycles_specs_and_counts_sum():
    specs = [
        GenSpec("gnp", n=12, probability=Fraction(1), seed=0),
        GenSpec("gnp", n=201, probability=Fraction(0), seed=0),
    ]
    hook = CaterpillarTree(hook_graph())
    params = EngineParams(3, Fraction(1, 100), 2)
    report = run_batch(specs, hook, params, trials=6)
    assert sum(report.counts.values()) == 6
    assert report.counts == {"high-mass-vertex": 3, "anticomplete-pair": 3}


def test_run_batch_argument_errors():
    hook = CaterpillarTree(hook_graph())
    params = EngineParams(3, Fraction(1, 100), 2)
    with pytest.raises(ValueError, match="trials must be >= 0"):
        run_batch([], hook, params, trials=-1)
    with pytest.raises(ValueError, match="needs at least one spec"):
        run_batch([], hook, params, trials=1)
    empty = run_batch([], hook, params, trials=0)
    assert empty.trials == 0
    assert empty.counts == {}
    assert empty.percentile(50) == 0.0


def test_run_batch_verification_failure_carries_replay(monkeypatch):
    spec = GenSpec("gnp", n=12, probability=Fraction(1), seed=4)
    hook = CaterpillarTree(hook_graph())
    params = EngineParams(3, Fraction(1, 10), 2)

    def always_fail(g, m, t, epsilon, w):
        return VerificationReport("fail", ("forced failure",))

    monkeypatch.setattr("catspire.harness.verify_witness", always_fail)
    with pytest.raises(TheoremViolation, match="trial 0") as exc:
        run_batch([spec], hook, params, trials=2)
    replay = exc.value.replay
    assert replay["trial"] == 0
    assert replay["spec"] == spec.to_document()
    assert replay["problems"] == ["forced failure"]
    assert replay["witness"]["variant"] == "high-mass-neighbourhood"
    assert replay["params"] == {"tau": 3, "epsilon": "1/10", "p": 2}


def test_run_batch_engine_violation_carries_replay(monkeypatch):
    spec = GenSpec("gnp", n=12, probability=Fraction(1), seed=4)
    hook = CaterpillarTree(hook_graph())
    params = EngineParams(3, Fraction(1, 10), 2)

    def explode(g, m, t, params):
        raise TheoremViolation("fabricated failure")

    monkeypatch.setattr("catspire.harness.run_trichotomy", explode)
    with pytest.raises(TheoremViolation, match="fabricated failure") as exc:
        run_batch([spec], hook, params, trials=2)
    assert exc.value.replay == {
        "trial": 0,
        "spec": spec.to_document(),
        "params": {"tau": 3, "epsilon": "1/10", "p": 2},
        "witness": None,
        "problems": ["fabricated failure"],
    }


def _report_with_seconds(seconds):
    spec = GenSpec("gnp", n=1, probability=Fraction(0))
    results = tuple(
        TrialResult(i, spec, "anticomplete-pair", s) for i, s in enumerate(seconds)
    )
    return BatchReport(results=results, total_seconds=sum(seconds))


def test_percentile_nearest_rank():
    report = _report_with_seconds([0.1 * k for k in range(1, 11)])
    assert report.percentile(50) == pytest.approx(0.5)
    assert report.percentile(90) == pytest.approx(0.9)
    assert report.percentile(99) == pytest.approx(1.0)
    assert report.percentile(1) == pytest.approx(0.1)


def test_report_table_and_document():
    spec = GenSpec("gnp", n=1, probability=Fraction(0))
    report = BatchReport(
        total_seconds=0.5,
        results=(
            TrialResult(0, spec, "anticomplete-pair", 0.1),
            TrialResult(1, spec, "stuck", 0.3),
        ),
    )
    assert report.format_table().splitlines() == [
        "trials: 2",
        "  anticomplete-pair  1",
        "  stuck              1",
        "stuck rate: 1/2",
        "timing seconds: p50=0.100 p90=0.300 p99=0.300 total=0.500",
    ]
    doc = report.to_document()
    assert doc["trials"] == 2
    assert doc["counts"] == {"anticomplete-pair": 1, "stuck": 1}
    assert doc["stuck_rate"] == "1/2"
    assert doc["timings_seconds"]["p50"] == pytest.approx(0.1)
    assert [r["trial"] for r in doc["results"]] == [0, 1]
