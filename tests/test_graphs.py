"""Bitmask vertex sets, graphs, and the elementary predicates."""

import random

import networkx as nx
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from catspire.engine import Spire, validate_spire
from catspire.graphs import (
    UNPACK_MIN_MEMBERS,
    Graph,
    VertexSet,
    bits,
    components,
    connected_order,
    is_anticomplete,
    is_connected,
    neighbours,
    shortest_path,
)
from helpers import complete_graph, cycle_graph, path_graph, star_graph


def test_vertex_set_basics():
    s = VertexSet([3, 1, 7, 1])
    assert list(s) == [1, 3, 7]
    assert s.members() == (1, 3, 7)
    assert len(s) == 3
    assert 3 in s and 2 not in s and -1 not in s
    assert s.least() == 1
    assert repr(s) == "VertexSet({1, 3, 7})"


def test_vertex_set_algebra():
    a = VertexSet([0, 1, 2])
    b = VertexSet([2, 3])
    assert (a | b) == VertexSet([0, 1, 2, 3])
    assert (a & b) == VertexSet([2])
    assert (a - b) == VertexSet([0, 1])
    assert a.isdisjoint(VertexSet([4, 5]))
    assert not a.isdisjoint(b)
    assert VertexSet([1, 2]).issubset(a)
    assert not a.issubset(b)
    assert bool(a) and not bool(VertexSet())
    assert hash(a) == hash(VertexSet([0, 1, 2]))


def test_vertex_set_errors():
    with pytest.raises(ValueError, match="negative vertex id"):
        VertexSet([-1])
    with pytest.raises(ValueError, match="negative mask"):
        VertexSet.from_mask(-2)
    with pytest.raises(ValueError, match="no least member"):
        VertexSet().least()


def test_graph_construction():
    g = Graph(4, [(0, 1), (2, 1)])
    assert g.n == 4
    assert g.edge_count == 2
    assert g.edges() == [(0, 1), (1, 2)]
    assert g.degree(1) == 2 and g.degree(3) == 0
    assert g.has_edge(1, 0) and not g.has_edge(0, 2)
    assert not g.has_edge(-1, 0) and not g.has_edge(9, 0)
    assert g.vertices() == VertexSet([0, 1, 2, 3])
    assert repr(g) == "Graph(n=4, m=2)"
    assert g == Graph(4, [(1, 0), (1, 2)])
    assert g != Graph(5, [(0, 1), (1, 2)])


def test_repeated_edge_counts_once():
    g = Graph(3, [(0, 1), (1, 0), (0, 1)])
    assert [g.degree(v) for v in range(3)] == [1, 1, 0]
    assert g.edge_count == 1
    assert g == Graph(3, [(0, 1)])


def test_has_edge_range_checks_both_ends():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert not g.has_edge(1, -1) and not g.has_edge(0, -3)
    assert not g.has_edge(1, 4) and not g.has_edge(-1, -1)
    # a negative path vertex reaches VertexSet's own check, not a shift error
    with pytest.raises(ValueError, match="negative vertex id -1"):
        validate_spire(g, Spire((1, -1, 2), VertexSet([2, 3])))


def test_graph_errors():
    with pytest.raises(ValueError, match="nonnegative"):
        Graph(-1)
    with pytest.raises(ValueError, match="out of range"):
        Graph(2, [(0, 2)])
    with pytest.raises(ValueError, match="self-loop"):
        Graph(2, [(1, 1)])


def test_neighbours():
    g = path_graph(3)
    assert neighbours(g, 1) == VertexSet([0, 2])
    assert neighbours(Graph(1), 0) == VertexSet()
    assert neighbours(complete_graph(4), 0) == VertexSet([1, 2, 3])
    with pytest.raises(ValueError, match="out of range"):
        neighbours(g, 3)


def test_components_order():
    # descending size, ties by least member
    g = Graph(9, [(0, 1), (2, 3), (2, 4), (5, 6), (5, 7), (5, 8)])
    got = components(g, g.vertices())
    assert got == [
        VertexSet([5, 6, 7, 8]),
        VertexSet([2, 3, 4]),
        VertexSet([0, 1]),
    ]
    assert components(g, VertexSet()) == []
    assert components(path_graph(4), VertexSet([0, 1, 2, 3])) == [VertexSet([0, 1, 2, 3])]


def test_components_tie_break():
    g = Graph(6, [(4, 5), (0, 2)])
    got = components(g, g.vertices())
    assert got == [VertexSet([0, 2]), VertexSet([4, 5]), VertexSet([1]), VertexSet([3])]


def test_components_partition_induced_subset():
    g = cycle_graph(6)
    x = VertexSet([0, 1, 3, 4])
    got = components(g, x)
    union = VertexSet()
    for piece in got:
        union = union | piece
    assert union == x
    for i, a in enumerate(got):
        for b in got[i + 1 :]:
            assert is_anticomplete(g, a, b)


def test_is_connected():
    g = path_graph(5)
    assert is_connected(g, g.vertices())
    assert is_connected(g, VertexSet())
    assert is_connected(g, VertexSet([2]))
    assert not is_connected(g, VertexSet([0, 2]))


def test_is_anticomplete():
    c5 = cycle_graph(5)
    assert is_anticomplete(c5, VertexSet([0]), VertexSet([2, 3]))
    assert not is_anticomplete(c5, VertexSet([0]), VertexSet([0]))
    assert not is_anticomplete(Graph(2, [(0, 1)]), VertexSet([0]), VertexSet([1]))


def test_connected_order():
    assert connected_order(path_graph(4), VertexSet(range(4)), 0) == [0, 1, 2, 3]
    star = star_graph(4)
    relabeled = Graph(5, [(4, i) for i in range(4)])
    assert connected_order(relabeled, relabeled.vertices(), 4) == [4, 0, 1, 2, 3]
    assert connected_order(star, VertexSet([2]), 2) == [2]
    # middle start on a path: breadth first, ties ascending
    assert connected_order(path_graph(5), VertexSet(range(5)), 2) == [2, 1, 3, 0, 4]


def test_connected_order_prefixes_stay_connected():
    g = cycle_graph(7)
    order = connected_order(g, g.vertices(), 3)
    for m in range(1, len(order) + 1):
        assert is_connected(g, VertexSet(order[:m]))


def test_connected_order_errors():
    g = path_graph(4)
    with pytest.raises(ValueError, match="start vertex 3 not in the set"):
        connected_order(g, VertexSet([0, 1]), 3)
    with pytest.raises(ValueError, match="disconnected"):
        connected_order(g, VertexSet([0, 1, 3]), 0)


def test_shortest_path_frozen():
    every = (1 << 5) - 1
    assert shortest_path(path_graph(5), 0, 4, every) == (0, 1, 2, 3, 4)
    assert shortest_path(path_graph(5), 3, 3, every) == (3,)
    forest = Graph(4, [(0, 1), (2, 3)])
    assert shortest_path(forest, 0, 3, (1 << 4) - 1) is None
    # two shortest paths: each step back from 7 takes the least-id neighbour
    g = Graph(10, [(0, 1), (0, 2), (1, 9), (2, 3), (3, 7), (7, 9)])
    assert shortest_path(g, 0, 7, (1 << 10) - 1) == (0, 2, 3, 7)


# ------------------------------------------------- networkx cross-check


@st.composite
def masks(draw):
    """A mask of 1 to 41000 bits whose popcount falls on either side of
    UNPACK_MIN_MEMBERS."""
    width = draw(st.one_of(st.integers(1, 100), st.integers(100, 41_000)))
    near = st.sampled_from([0, UNPACK_MIN_MEMBERS - 1, UNPACK_MIN_MEMBERS, UNPACK_MIN_MEMBERS + 1])
    count = min(width, draw(st.one_of(near, st.integers(0, width))))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return sum(1 << i for i in rng.sample(range(width), count))


@settings(max_examples=100, deadline=None)
@given(masks())
@example(0)
@example((1 << 31) - 1)
@example((1 << 32) - 1)
@example((1 << 33) - 1)
@example(1 << 40_960)
@example((1 << 40_961) - 1)
def test_bits_matches_a_per_bit_scan(mask):
    assert bits(mask) == [i for i in range(mask.bit_length()) if mask >> i & 1]


@st.composite
def graph_with_set(draw):
    """A seeded sparse graph on n <= 100 vertices and a vertex subset whose
    size falls on either side of 32 members."""
    n = draw(st.integers(1, 100))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    degree = draw(st.sampled_from([0.5, 1, 2, 4]))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < degree / n]
    small = st.integers(0, min(n, 31))
    size = draw(st.one_of(small, st.integers(32, n)) if n >= 32 else small)
    return n, edges, rng.sample(range(n), size)


def _nx_graph(n, edges):
    h = nx.Graph()
    h.add_nodes_from(range(n))
    h.add_edges_from(edges)
    return h


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(graph_with_set())
def test_graph_kernel_matches_networkx(case):
    n, edges, members = case
    g, h = Graph(n, edges), _nx_graph(n, edges)
    x = VertexSet(members)
    assert g.edges() == sorted(edges)
    assert list(x) == sorted(members) and len(x) == len(members)

    induced = h.subgraph(members)
    expected = sorted(nx.connected_components(induced), key=lambda c: (-len(c), min(c)))
    got = components(g, x)
    assert got == [VertexSet(c) for c in expected]

    for comp in got:
        start = max(comp)
        order = connected_order(g, comp, start)
        dist = nx.single_source_shortest_path_length(h.subgraph(comp.members()), start)
        assert order == sorted(comp, key=lambda v: (dist[v], v))
        for k in range(1, len(order) + 1):
            assert nx.is_connected(h.subgraph(order[:k]))

    for a, b in zip(members, reversed(members)):
        path = shortest_path(g, a, b, x.mask)
        if not nx.has_path(induced, a, b):
            assert path is None
            continue
        assert len(path) - 1 == nx.shortest_path_length(induced, a, b)
        assert (path[0], path[-1]) == (a, b) and set(path) <= set(members)
        assert all(g.has_edge(u, v) for u, v in zip(path, path[1:]))
        dist = nx.single_source_shortest_path_length(induced, a)
        assert all(
            path[i - 1] == min(u for u in induced[path[i]] if dist[u] == i - 1)
            for i in range(1, len(path))
        )
