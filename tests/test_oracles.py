"""Brute-force baselines and the independent witness checker."""

import random
from fractions import Fraction
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catspire.graphs import Graph, VertexSet
from catspire.mass import CardinalityMass, WeightedMass
from catspire.oracles import (
    NodeLimitExceeded,
    brute_best_anticomplete,
    brute_induced_embedding,
    exact_chromatic_number,
    verify_witness,
)
from catspire.trees import CaterpillarTree
from catspire.witnesses import (
    AnticompletePair,
    HighMassNeighbourhood,
    HighMassVertex,
    InducedCopy,
    Stuck,
)
from helpers import (
    complete_graph,
    cycle_graph,
    disjoint_union,
    hook_graph,
    path_graph,
    petersen_graph,
    star_graph,
)


def test_embedding_frozen():
    assert brute_induced_embedding(path_graph(5), path_graph(3)) == (0, 1, 2)
    assert brute_induced_embedding(complete_graph(3), path_graph(3)) is None
    assert brute_induced_embedding(path_graph(3), path_graph(3)) == (0, 1, 2)
    assert brute_induced_embedding(petersen_graph(), star_graph(3)) == (0, 1, 4, 5)
    assert brute_induced_embedding(cycle_graph(6), hook_graph()) is None


def test_embedding_within_and_edges():
    r = brute_induced_embedding(path_graph(5), path_graph(3), within=VertexSet([2, 3, 4]))
    assert r == (2, 3, 4)
    # Empty target embeds trivially; an oversized one cannot.
    assert brute_induced_embedding(path_graph(2), Graph(0, [])) == ()
    assert brute_induced_embedding(path_graph(2), path_graph(3)) is None


def test_embedding_node_limit(monkeypatch):
    monkeypatch.setattr("catspire.oracles.NODE_LIMIT", 3)
    with pytest.raises(NodeLimitExceeded, match="exceeded 3 search nodes"):
        brute_induced_embedding(path_graph(30), path_graph(5))


def test_anticomplete_frozen():
    assert brute_best_anticomplete(complete_graph(3)) == (VertexSet([]), VertexSet([]))
    assert brute_best_anticomplete(cycle_graph(5)) == (VertexSet([0]), VertexSet([2, 3]))
    two_edges = Graph(4, [(0, 1), (2, 3)])
    assert brute_best_anticomplete(two_edges) == (VertexSet([0, 1]), VertexSet([2, 3]))
    with pytest.raises(ValueError, match="limited to n <= 16, got 17"):
        brute_best_anticomplete(Graph(17, []))


def test_chromatic_frozen():
    assert exact_chromatic_number(complete_graph(4)) == 4
    assert exact_chromatic_number(cycle_graph(5)) == 3
    assert exact_chromatic_number(petersen_graph()) == 3
    assert exact_chromatic_number(Graph(6, [])) == 1
    assert exact_chromatic_number(path_graph(6)) == 2
    assert exact_chromatic_number(cycle_graph(5), within=VertexSet([0, 1, 2])) == 2
    with pytest.raises(ValueError, match="exact coloring limited to 64"):
        exact_chromatic_number(Graph(65, []))


def brute_chromatic_number(g, members):
    """The least k such that g[members] has a proper k-colouring, found by
    trying every colour for each vertex in turn."""
    members = list(members)
    colour = {}

    def colourable(i, k):
        if i == len(members):
            return True
        v = members[i]
        for c in range(k):
            if all(colour[u] != c for u in members[:i] if g.has_edge(u, v)):
                colour[v] = c
                if colourable(i + 1, k):
                    return True
        return False

    k = 0
    while not colourable(0, k):
        k += 1
    return k


def _graph_from_bits(n, bits):
    """The graph on n vertices with the i-th vertex pair an edge when bit i is set."""
    pairs = combinations(range(n), 2)
    return Graph(n, [e for b, e in enumerate(pairs) if bits >> b & 1])


def test_chromatic_matches_brute_force_on_every_small_graph():
    for n in range(6):
        for bits in range(1 << (n * (n - 1) // 2)):
            g = _graph_from_bits(n, bits)
            assert exact_chromatic_number(g) == brute_chromatic_number(g, range(n)), (n, bits)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_chromatic_matches_brute_force_on_random_graphs(data):
    n = data.draw(st.integers(1, 9))
    g = _graph_from_bits(n, data.draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1)))
    within = data.draw(st.one_of(st.none(), st.integers(0, (1 << n) - 1).map(VertexSet.from_mask)))
    members = range(n) if within is None else within
    assert exact_chromatic_number(g, within=within) == brute_chromatic_number(g, members)


def _check(g, w, epsilon):
    m = CardinalityMass(g.n)
    t = CaterpillarTree(path_graph(3))
    return verify_witness(g, m, t, epsilon, w)


def test_verify_high_mass_vertex():
    g = path_graph(4)
    assert _check(g, HighMassVertex(1), Fraction(1, 4)).ok  # equality passes
    r = _check(g, HighMassVertex(1), Fraction(1, 3))
    assert r.verdict == "fail"
    assert r.problems == ("mass of vertex 1 is below epsilon",)
    assert _check(g, HighMassVertex(9), Fraction(1, 4)).problems == (
        "vertex 9 out of range",
    )


def test_verify_high_mass_neighbourhood():
    g = star_graph(4)
    assert _check(g, HighMassNeighbourhood(0), Fraction(4, 5)).ok
    r = _check(g, HighMassNeighbourhood(1), Fraction(1, 2))
    assert r.problems == ("neighbourhood mass of vertex 1 is below epsilon",)


def test_verify_anticomplete_pair():
    g = Graph(4, [(0, 1), (2, 3)])
    good = AnticompletePair(VertexSet([0, 1]), VertexSet([2, 3]))
    assert _check(g, good, Fraction(1, 2)).ok
    touching = AnticompletePair(VertexSet([0]), VertexSet([1]))
    assert _check(g, touching, Fraction(1, 4)).problems == (
        "an edge joins the two sides",
    )
    overlap = AnticompletePair(VertexSet([0, 2]), VertexSet([2]))
    assert "pair sides intersect" in _check(g, overlap, Fraction(1, 4)).problems
    empty = AnticompletePair(VertexSet([]), VertexSet([2]))
    assert "pair sides must be nonempty" in _check(g, empty, Fraction(1, 4)).problems
    light = AnticompletePair(VertexSet([0]), VertexSet([2, 3]))
    assert _check(g, light, Fraction(1, 2)).problems == (
        "mass of side a is below epsilon",
    )


def test_verify_anticomplete_pair_out_of_range():
    g = hook_graph()
    stray = AnticompletePair(VertexSet([0]), VertexSet([4, 9]))
    for m in (CardinalityMass(6), WeightedMass([1] * 6)):
        r = verify_witness(g, m, CaterpillarTree(g), Fraction(1, 6), stray)
        assert r.verdict == "fail"
        assert r.problems == ("pair vertex 9 out of range",)


def test_verify_induced_copy():
    g = path_graph(5)
    assert _check(g, InducedCopy((2, 3, 4)), Fraction(1, 5)).ok
    r = _check(g, InducedCopy((0, 1)), Fraction(1, 5))
    assert r.problems == ("mapping covers 2 vertices, target has 3",)
    r = _check(g, InducedCopy((0, 1, 1)), Fraction(1, 5))
    assert "mapping is not injective" in r.problems
    r = _check(g, InducedCopy((0, 1, 7)), Fraction(1, 5))
    assert "mapping image out of range" in r.problems
    r = _check(g, InducedCopy((0, 1, 3)), Fraction(1, 5))
    assert r.problems == ("missing edge between images of target vertices 1 and 2",)
    r = _check(disjoint_union(complete_graph(3), path_graph(2)), InducedCopy((0, 1, 2)), Fraction(1, 5))
    assert r.problems == ("extra edge between images of target vertices 0 and 2",)


def test_verify_stuck_is_unverified():
    g = path_graph(3)
    w = Stuck.make("spire-blocked", {"mass": "1/8"})
    r = _check(g, w, Fraction(1, 3))
    assert r.verdict == "unverified"
    assert not r.ok
    assert r.problems == ("stuck at spire-blocked: mass=1/8",)


# ------------------------------------------ the referee against networkx


@st.composite
def hosts(draw):
    """n <= 14 and a seeded random edge list, with the rng for tampering."""
    n = draw(st.integers(2, 14))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    p = draw(st.sampled_from([0.1, 0.3, 0.6]))
    return n, [e for e in combinations(range(n), 2) if rng.random() < p], rng


def _pair_holds(n, edges, a, b, eps):
    """The pair conditions read off networkx: sides nonempty, in range,
    disjoint, no edge between them, each of at least eps of n."""
    h = nx.Graph(edges)
    h.add_nodes_from(a | b)
    return bool(
        a and b and max(a | b) < n and not a & b
        and not any(True for _ in nx.edge_boundary(h, a, b))
        and len(a) >= eps * n and len(b) >= eps * n
    )


@settings(max_examples=200, deadline=None)
@given(hosts())
def test_referee_judges_pairs_as_networkx_does(case):
    n, edges, rng = case
    h = nx.Graph(edges)
    h.add_nodes_from(range(n))
    a = set(rng.sample(range(n), rng.randint(1, min(3, n - 1))))
    far = [v for v in range(n) if v not in a and not any(u in a for u in h[v])]
    b = set(rng.sample(far, rng.randint(1, len(far)))) if far else {max(set(range(n)) - a)}
    # each side at exactly eps when the pair is honest
    eps = Fraction(min(len(a), len(b)), n)
    small = a if len(a) <= len(b) else b
    moved = set(b)
    moved.remove(rng.choice(sorted(b)))
    moved.add(rng.randrange(n))
    cases = [
        ("honest", edges, a, b),
        ("moved vertex", edges, a, moved),
        ("added edge", edges + [(min(a), min(b))], a, b),
        ("taken from the smaller side", edges, a - {min(small)} if small is a else a,
         b - {min(small)} if small is b else b),
        ("out of range", edges, a, b | {n + rng.randrange(3)}),
    ]
    for label, es, x, y in cases:
        report = verify_witness(
            Graph(n, es), CardinalityMass(n), CaterpillarTree(path_graph(3)), eps,
            AnticompletePair(VertexSet(x), VertexSet(y)),
        )
        assert report.ok == _pair_holds(n, es, x, y, eps), (label, x, y, report)
        if label in ("added edge", "taken from the smaller side", "out of range"):
            assert not report.ok, label


def _copy_holds(edges, target, mapping, n):
    h = nx.Graph(edges)
    h.add_nodes_from(range(n))
    return len(set(mapping)) == len(mapping) and all(
        v < n for v in mapping
    ) and all(
        target.has_edge(i, j) == h.has_edge(mapping[i], mapping[j])
        for i, j in combinations(range(len(mapping)), 2)
    )


@settings(max_examples=200, deadline=None)
@given(hosts())
def test_referee_judges_mappings_as_networkx_does(case):
    n, edges, rng = case
    target = nx.Graph(hook_graph().edges())
    # plant an induced hook on six random vertices
    n = max(n, 6)
    mapping = tuple(rng.sample(range(n), 6))
    planted = set(mapping)
    edges = [e for e in edges if not (e[0] in planted and e[1] in planted)]
    edges += [(mapping[i], mapping[j]) for i, j in target.edges()]
    i, j = sorted(rng.sample(range(6), 2))
    swapped = list(mapping)
    swapped[i], swapped[j] = swapped[j], swapped[i]
    loose = next(
        (mapping[x], mapping[y]) for x, y in combinations(range(6), 2)
        if not target.has_edge(x, y)
    )
    cases = [
        ("honest", edges, mapping),
        ("two images swapped", edges, tuple(swapped)),
        ("added edge", edges + [loose], mapping),
        ("out of range", edges, mapping[:5] + (n + rng.randrange(3),)),
    ]
    t = CaterpillarTree(hook_graph())
    for label, es, images in cases:
        report = verify_witness(
            Graph(n, es), CardinalityMass(n), t, Fraction(1, n), InducedCopy(images)
        )
        assert report.ok == _copy_holds(es, target, images, n), (label, images, report)
        if label != "two images swapped":
            assert report.ok == (label == "honest"), label
