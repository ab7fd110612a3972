"""Target-tree classification, fit numbers, chrysalises, and nursery potentials."""

from itertools import combinations

import networkx as nx
import pytest

from catspire.graphs import Graph
from catspire.trees import (
    CaterpillarTree,
    Chrysalis,
    Nursery,
    butterfly,
    fit_tau,
    is_caterpillar_subdivision,
    phi,
    is_improvement,
    validate_chrysalis,
)
from helpers import hook_graph, path_graph, star_graph


def test_caterpillar_classification():
    p = CaterpillarTree(path_graph(6))
    assert p.is_caterpillar and p.is_caterpillar_subdivision
    # Spider with three legs of length two: the degree->=2 vertices do not
    # fit on one path, but the single branch vertex does.
    spider = CaterpillarTree(
        Graph(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
    )
    assert spider.is_caterpillar_subdivision
    assert not spider.is_caterpillar
    assert fit_tau(spider) == 3


def test_caterpillar_flags_match_every_path():
    # both flags ask whether one path holds every vertex of degree >= 2 (>= 3
    # for subdivisions); check them against every path of every tree, up to
    # isomorphism, on 2 to 9 vertices
    for k in range(2, 10):
        for shape in nx.nonisomorphic_trees(k):
            g = Graph(k, list(shape.edges()))
            paths = [set(p) for a, b in combinations(range(k), 2) for p in nx.all_simple_paths(shape, a, b)]
            t = CaterpillarTree(g)
            for flag, threshold in ((t.is_caterpillar, 2), (t.is_caterpillar_subdivision, 3)):
                high = {v for v in range(k) if g.degree(v) >= threshold}
                assert flag == any(high <= p for p in paths), (g.edges(), threshold)


def test_non_subdivision_rejected():
    # Three branch vertices pairwise joined through vertex 0: no single path
    # can carry all three.
    edges = [(0, 1), (1, 2), (1, 3), (0, 4), (4, 5), (4, 6), (0, 7), (7, 8), (7, 9)]
    t = CaterpillarTree(Graph(10, edges))
    assert not t.is_caterpillar_subdivision
    with pytest.raises(ValueError, match="caterpillar subdivisions"):
        fit_tau(t)


def test_is_caterpillar_subdivision_requires_tree():
    with pytest.raises(ValueError, match="input graph is not a tree"):
        is_caterpillar_subdivision(Graph(3, [(0, 1), (1, 2), (0, 2)]))
    with pytest.raises(ValueError, match="target must be a tree"):
        CaterpillarTree(Graph(4, [(0, 1), (2, 3)]))


def test_fit_tau_frozen():
    assert fit_tau(CaterpillarTree(path_graph(5))) == 5
    assert fit_tau(CaterpillarTree(path_graph(4))) == 4
    assert fit_tau(CaterpillarTree(path_graph(2))) == 3
    assert fit_tau(CaterpillarTree(hook_graph())) == 3
    assert fit_tau(CaterpillarTree(star_graph(3))) == 3
    assert fit_tau(CaterpillarTree(star_graph(4))) == 4


def test_chrysalis_constructor_errors():
    with pytest.raises(ValueError, match="chrysalis needs tau >= 3"):
        Chrysalis(2, 0, {})
    with pytest.raises(ValueError, match="the head cannot have a parent"):
        Chrysalis(3, 0, {0: 1, 1: 0})
    with pytest.raises(ValueError, match="parent of 1 is not a vertex"):
        Chrysalis(3, 0, {1: 5})
    with pytest.raises(ValueError, match="does not reach the head"):
        Chrysalis(3, 0, {1: 2, 2: 1})


def test_chrysalis_spine_derivation_errors():
    # Two depth-1 branch vertices: no single deepest branch point.
    with pytest.raises(ValueError, match="spine tip is ambiguous"):
        Chrysalis(3, 0, {1: 0, 2: 0, 3: 1, 4: 1, 5: 2, 6: 2})
    # A degree->=2 vertex off the head-anchored path.
    with pytest.raises(ValueError, match="one head-anchored path"):
        Chrysalis(3, 0, {1: 0, 2: 1, 3: 2, 4: 0, 5: 4, 6: 4})


def test_chrysalis_accessors():
    c = Chrysalis(3, 4, {7: 4, 9: 7})
    assert c.spine == (4, 7)
    assert c.vertex_set() == frozenset({4, 7, 9})
    assert c.vertices() == (4, 7, 9)
    assert c.size == 3
    assert c.children(4) == (7,)
    assert c.degree(7) == 2
    assert c.depth(9) == 2
    assert c.leaves() == (9,)
    assert not c.is_butterfly


def test_validate_chrysalis_spine_problems():
    ok = Chrysalis(3, 0, {1: 0, 2: 1, 3: 1})
    assert ok.spine == (0, 1)
    assert validate_chrysalis(ok) == []
    # the spine is always derived, so a lone edge gets the minimal one
    edge = Chrysalis(3, 0, {1: 0})
    assert edge.spine == (0,)
    assert validate_chrysalis(edge) == []


def test_validate_chrysalis_length_and_degree():
    # Bare chain of six vertices: spine budget is tau+1 = 4 and the interior
    # spine vertices are all underweight for tau = 3.
    chain = Chrysalis(3, 0, {i: i - 1 for i in range(1, 6)})
    problems = validate_chrysalis(chain)
    assert "spine has 5 vertices, more than tau+1" in problems
    assert "spine vertex 1 has degree 2, not tau" in problems

    b = butterfly(3)
    fat_head = Chrysalis(3, 0, {**b.parent, 8: 0})
    assert validate_chrysalis(fat_head) == [
        "full spine requires head degree 1, found 2"
    ]


def test_butterfly_frozen():
    b = butterfly(3)
    assert b.parent == {1: 0, 2: 1, 3: 2, 4: 1, 5: 2, 6: 3, 7: 3}
    assert b.spine == (0, 1, 2, 3)
    assert b.leaves() == (4, 5, 6, 7)
    assert b.is_butterfly
    assert validate_chrysalis(b) == []
    assert butterfly(4).size == 14  # tau^2 - tau + 2
    assert validate_chrysalis(butterfly(4)) == []
    with pytest.raises(ValueError, match="butterfly needs tau >= 3"):
        butterfly(2)


def test_nursery_orders_components():
    small = Chrysalis(3, 9, {})
    late = Chrysalis(3, 5, {})
    big = Chrysalis(3, 0, {1: 0, 2: 1})
    n = Nursery(3, (big, small, late), (7, 3, 1))
    # Ascending size, then ascending creation stamp.
    assert n.heads() == (5, 9, 0)
    assert len(n) == 3
    assert n.vertices() == (0, 1, 2, 5, 9)
    assert n.creations == (1, 3, 7)


def test_nursery_errors():
    a = Chrysalis(3, 0, {})
    b = Chrysalis(3, 1, {})
    with pytest.raises(ValueError, match="one creation stamp per component"):
        Nursery(3, (a, b), (0,))
    with pytest.raises(ValueError, match="share the nursery's tau"):
        Nursery(4, (a, b), (0, 1))
    with pytest.raises(ValueError, match="disjoint vertex sets"):
        Nursery(3, (a, Chrysalis(3, 2, {0: 2})), (0, 1))


def test_phi_values():
    assert phi(Nursery(3, (), ())) == 0
    singles = tuple(Chrysalis(3, v, {}) for v in range(4))
    assert phi(Nursery(3, singles, tuple(range(4)))) == 8
    merged = Chrysalis(3, 0, {1: 0, 2: 1, 3: 1, 4: 2})
    assert phi(Nursery(3, (merged,), (0,))) == 32


def test_is_improvement():
    singles = tuple(Chrysalis(3, v, {}) for v in range(4))
    before = Nursery(3, singles, tuple(range(4)))
    merged = Nursery(
        3,
        (Chrysalis(3, 0, {1: 0}), Chrysalis(3, 2, {}), Chrysalis(3, 3, {})),
        (4, 2, 3),
    )
    assert is_improvement(merged, before)
    assert not is_improvement(before, before)
    # Fewer components but a strictly smaller potential does not count.
    shrunk = Nursery(3, (Chrysalis(3, 0, {}), Chrysalis(3, 2, {})), (0, 1))
    assert not is_improvement(shrunk, before)
    with pytest.raises(ValueError, match="different tau"):
        is_improvement(before, Nursery(4, (), ()))
