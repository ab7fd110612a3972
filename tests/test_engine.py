"""Engine stages: schedule, pieces, spires, realizations, merges, extraction."""

import random
import tracemalloc
from fractions import Fraction

import dataclasses
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catspire.engine import (
    EngineParams,
    Realization,
    Spire,
    TheoremViolation,
    big_piece,
    check_realization,
    extract_copy,
    grow_spire,
    improve,
    initial_blocks,
    max_feasible_epsilon,
    paper_epsilon,
    paper_p,
    run_trichotomy,
    validate_spire,
)
from catspire.graphs import Graph, VertexSet
from catspire.mass import CardinalityMass, MassProvider, WeightedMass
from catspire.oracles import verify_witness
from catspire.trees import CaterpillarTree, Chrysalis, Nursery, butterfly, phi
from catspire.witnesses import (
    AnticompletePair,
    HighMassNeighbourhood,
    HighMassVertex,
    InducedCopy,
    Stuck,
)
from helpers import (
    butterfly_host,
    complete_graph,
    disjoint_union,
    hook_graph,
    path_graph,
    star_graph,
)


class _PickLast:
    """Deterministic stand-in for random.Random in x1 selection."""

    def choice(self, seq):
        return seq[-1]


# ---------------------------------------------------------------- schedule


def test_paper_epsilon_frozen():
    assert paper_epsilon(3) == Fraction(1, 512 * (1 << 512) * 6)
    with pytest.raises(ValueError, match="tau must be at least 3"):
        paper_epsilon(2)


def test_max_feasible_epsilon():
    assert max_feasible_epsilon(2, 3) == Fraction(1, 48)
    assert max_feasible_epsilon(8, 3) == Fraction(1, 12288)


def test_kappa_schedule_frozen():
    eps = Fraction(1, 12288)
    params = EngineParams(3, eps, 8)
    assert params.kappa(0) == Fraction(1531, 12288)
    assert params.kappa(8) == eps
    for i in range(1, 9):
        assert params.kappa(i - 1) == 2 * params.kappa(i) + 5 * eps


def test_kappa_schedule_index_errors():
    params = EngineParams(3, Fraction(1, 12288), 8)
    with pytest.raises(IndexError, match="kappa index 9 outside 0..8"):
        params.kappa(9)
    with pytest.raises(IndexError):
        params.kappa(-10)
    with pytest.raises(IndexError, match="kappa index -1 outside 0..8"):
        params.kappa(-1)


def test_kappa_schedule_feasibility():
    # an infeasible epsilon is accepted here and caught by run_trichotomy
    assert EngineParams(3, Fraction(1, 10), 2).kappa(2) < Fraction(1, 10)
    # The max feasible epsilon sits exactly on the boundary.
    assert EngineParams(3, Fraction(1, 48), 2).kappa(2) == Fraction(1, 48)


def test_kappa_schedule_is_lazy_for_large_p():
    params = EngineParams(4)
    assert params.p == 1 << 16
    # kappa_p collapses to epsilon exactly at the proven constants.
    assert params.kappa(params.p) == params.epsilon


def test_engine_params_defaults_and_guarantee():
    params = EngineParams(3)
    assert params.epsilon == paper_epsilon(3)
    assert params.p == 512
    assert params.guarantee
    loose = EngineParams(3, Fraction(1, 12288), 8)
    assert not loose.guarantee
    with pytest.raises(dataclasses.FrozenInstanceError):
        params.tau = 4


def test_engine_params_errors():
    with pytest.raises(ValueError, match="tau must be at least 3"):
        EngineParams(2)
    with pytest.raises(ValueError, match="epsilon must be positive"):
        EngineParams(3, Fraction(-1, 4))
    with pytest.raises(ValueError, match="p must be at least 2"):
        EngineParams(3, Fraction(1, 48), 1)


def _searched_p(eps, tau):
    """The p rule as a walk: from 2 upward while the next p stays feasible."""
    p = 2
    while eps <= max_feasible_epsilon(p + 1, tau):
        p += 1
    return p


@settings(max_examples=120, deadline=None)
@given(
    tau=st.integers(3, 6),
    p=st.integers(2, 40),
    numerator=st.integers(1, 3),
    step=st.sampled_from([-1, 0, 1]),
)
def test_default_p_is_the_largest_feasible(tau, p, numerator, step):
    bound = max_feasible_epsilon(p, tau)
    eps = Fraction(numerator, numerator * bound.denominator + step)
    params = EngineParams(tau, eps)
    assert params.p == _searched_p(eps, tau)
    # a denominator one short of the bound's is infeasible at p
    assert params.p == max(2, p - (step < 0))


def test_default_p_at_the_proven_epsilon_and_above_every_bound():
    for tau in (3, 4):
        params = EngineParams(tau)
        assert (params.p, params.epsilon) == (paper_p(tau), paper_epsilon(tau))
        assert EngineParams(tau, paper_epsilon(tau)).p == paper_p(tau)
    assert EngineParams(3).p == 512 and EngineParams(4).p == 65536
    # no p is feasible: floored at 2 so that the run can report Stuck
    assert EngineParams(3, Fraction(1, 47)).p == 2
    assert EngineParams(3, Fraction(5, 2)).p == 2
    with pytest.raises(ValueError, match="epsilon must be positive"):
        EngineParams(3, Fraction(0))


def test_proven_constants_refused_above_tau_4():
    message = r"2\^25-bit denominator; give epsilon and p explicitly"
    with pytest.raises(ValueError, match=message):
        paper_epsilon(5)
    with pytest.raises(ValueError, match=message):
        EngineParams(5)
    with pytest.raises(ValueError, match=message):
        EngineParams(5, None, 8)
    explicit = EngineParams(5, Fraction(1, 10), 2)
    assert (explicit.p, explicit.kappa(2)) == (2, Fraction(1, 8) - Fraction(7, 10))
    proven_p = paper_p(5)
    tracemalloc.start()
    try:
        assert not explicit.guarantee
        assert not EngineParams(5, Fraction(1, 10), proven_p).guarantee
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()
    assert EngineParams(5, max_feasible_epsilon(proven_p, 5), proven_p).guarantee


def test_guarantee_builds_no_proven_p():
    # the proven p at tau = 10^5 would be a 2^(10^10)-bit integer
    tracemalloc.start()
    try:
        assert not EngineParams(10**5, Fraction(1, 100), 2).guarantee
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()


# ------------------------------------------------------------------ spires


def test_validate_spire_accepts_path_spire():
    g = path_graph(6)
    s = Spire((0, 1, 2), VertexSet([2, 3, 4, 5]))
    assert validate_spire(g, s) == []


def test_validate_spire_problems():
    g = path_graph(6)
    breaks = validate_spire(g, Spire((0, 2, 4), VertexSet([4, 5])))
    assert "path break: 0 and 2 are not adjacent" in breaks

    chordy = Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])
    assert validate_spire(chordy, Spire((0, 1, 2), VertexSet([2, 3, 4]))) == [
        "path chord: 0 and 2 are adjacent"
    ]

    dup = validate_spire(g, Spire((0, 1, 0), VertexSet([0])))
    assert "path vertices are not distinct" in dup
    assert "z meets x_1..x_(tau-1)" in dup

    assert validate_spire(g, Spire((0, 1, 2), VertexSet([3, 4, 5]))) == [
        "x_tau is not in z"
    ]

    noisy = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (2, 5)])
    assert validate_spire(noisy, Spire((2, 3, 4), VertexSet([4, 5]))) == [
        "2 has a neighbour in z beyond x_tau"
    ]

    assert validate_spire(g, Spire((0, 1, 2), VertexSet([2, 3, 5]))) == [
        "z is not connected"
    ]


# -------------------------------------------------------------- big pieces


def test_big_piece_precondition():
    g = path_graph(4)
    with pytest.raises(ValueError, match="needs mass"):
        big_piece(g, CardinalityMass(4), VertexSet([0, 1]), Fraction(1, 4))


def test_big_piece_single_component():
    g = path_graph(6)
    out = big_piece(g, CardinalityMass(6), VertexSet(range(6)), Fraction(1, 6))
    assert out == VertexSet(range(6))


def test_big_piece_absorbs_small_leftover():
    g = disjoint_union(path_graph(19), path_graph(1))
    out = big_piece(g, CardinalityMass(20), VertexSet(range(20)), Fraction(1, 4))
    assert out == VertexSet(range(19))


def test_big_piece_splits_halves():
    g = disjoint_union(complete_graph(4), complete_graph(4))
    out = big_piece(g, CardinalityMass(8), VertexSet(range(8)), Fraction(1, 4))
    assert out == AnticompletePair(VertexSet(range(4)), VertexSet(range(4, 8)))


def test_big_piece_pivot_against_rest():
    # Component masses 1/5, 3/5, 1/5: the prefix only clears epsilon once the
    # heavy middle component joins, and that pivot splits against the rest.
    g = Graph(10, [(0, 1), (1, 2), (2, 3), (3, 4), (5, 6), (6, 7), (8, 9)])
    w = [Fraction(4, 100)] * 5 + [Fraction(20, 100)] * 3 + [Fraction(10, 100)] * 2
    out = big_piece(g, WeightedMass(w), VertexSet(range(10)), Fraction(1, 4))
    assert out == AnticompletePair(VertexSet([5, 6, 7]), VertexSet([0, 1, 2, 3, 4, 8, 9]))


def test_big_piece_suffix_at_exactly_epsilon_splits():
    # components {0, 1}, {2}, {3}; the least prefix reaching 1/3 is {0, 1, 2}
    # and the suffix {3} has mass exactly 1/3
    g = Graph(4, [(0, 1)])
    out = big_piece(g, WeightedMass([0, 0, 2, 1]), VertexSet(range(4)), Fraction(1, 3))
    assert out == AnticompletePair(VertexSet([0, 1, 2]), VertexSet([3]))


def test_big_piece_rest_at_exactly_epsilon_splits():
    # components {0, 1, 2}, {3, 4}, {5}; the suffix {5} is light, and the rest
    # of the pivot {3, 4} has mass exactly 1/3
    g = Graph(6, [(0, 1), (1, 2), (3, 4)])
    out = big_piece(g, WeightedMass([1, 0, 0, 2, 2, 1]), VertexSet(range(6)), Fraction(1, 3))
    assert out == AnticompletePair(VertexSet([3, 4]), VertexSet([0, 1, 2, 5]))


# ------------------------------------------------------------- spire growth


def test_grow_spire_on_a_path():
    g = path_graph(20)
    m = CardinalityMass(20)
    s = grow_spire(g, m, VertexSet(range(20)), 3, Fraction(3, 20))
    assert s == Spire((0, 1, 2), VertexSet(range(2, 20)))
    assert validate_spire(g, s) == []
    assert m.mass(s.z) == Fraction(9, 10)


def test_grow_spire_seeded_start():
    g = path_graph(20)
    m = CardinalityMass(20)
    s = grow_spire(g, m, VertexSet(range(20)), 3, Fraction(3, 20), x1_rng=_PickLast())
    assert s == Spire((19, 18, 17), VertexSet(range(18)))
    assert validate_spire(g, s) == []


def test_grow_spire_precondition():
    with pytest.raises(ValueError, match="needs mass"):
        grow_spire(path_graph(4), CardinalityMass(4), VertexSet(range(4)), 3, Fraction(1, 4))
    with pytest.raises(ValueError, match="tau must be at least 3"):
        grow_spire(path_graph(4), CardinalityMass(4), VertexSet(range(4)), 2, Fraction(1, 100))


def test_grow_spire_stuck_on_clique():
    # One step of growth removes the whole clique; mass collapses below the
    # 3*epsilon floor and the engine must say so rather than guess.
    g = complete_graph(8)
    out = grow_spire(g, CardinalityMass(8), VertexSet(range(8)), 3, Fraction(1, 10))
    assert isinstance(out, Stuck)
    assert out.stage == "spire-blocked"
    assert out.diag_dict()["reason"] == "remaining mass below 3*epsilon"


def test_grow_spire_remaining_mass_at_exactly_three_epsilon_continues():
    # a star on 0..4 with a path 4..9: removing N(0) leaves mass 6/10 = 3*epsilon,
    # which is enough to go on; the second step then falls below it
    g = Graph(10, [(0, 1), (0, 2), (0, 3), (0, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 9)])
    out = grow_spire(g, CardinalityMass(10), VertexSet(range(10)), 3, Fraction(1, 5))
    assert out.stage == "spire-blocked"
    assert out.diag_dict() == {
        "reason": "remaining mass below 3*epsilon",
        "path_so_far": "[0, 4]",
        "remaining_mass": "2/5",
    }


def test_grow_spire_stuck_without_a_continuation_vertex():
    # the heavy vertex 0 is its own big piece twice over; its only neighbour,
    # 1, lies outside x, so no vertex can continue the path
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    out = grow_spire(g, WeightedMass([100, 1, 1, 1]), VertexSet([0, 2, 3]), 3, Fraction(1, 10))
    assert out.stage == "spire-blocked"
    assert out.diag_dict() == {
        "reason": "no continuation vertex into the next big piece",
        "path_so_far": "[0]",
    }


def test_grow_spire_takes_the_least_neighbour_that_sees_the_next_piece():
    # 0 sees the pendant 1 and the twins 2 and 3, which both see the path
    # 4..19; 1 cannot see the next big piece {4..19}, and 2 and 3 both can
    g = Graph(20, [(0, 1), (0, 2), (0, 3), (2, 4), (3, 4)] + [(v, v + 1) for v in range(4, 19)])
    s = grow_spire(g, CardinalityMass(20), VertexSet(range(20)), 3, Fraction(1, 10))
    assert s == Spire((0, 2, 4), VertexSet(range(4, 20)))
    assert validate_spire(g, s) == []


def test_grow_spire_surfaces_pair():
    g = disjoint_union(complete_graph(4), complete_graph(4))
    out = grow_spire(g, CardinalityMass(8), VertexSet(range(8)), 3, Fraction(1, 8))
    assert out == AnticompletePair(VertexSet(range(4)), VertexSet(range(4, 8)))


# ------------------------------------------------------------------ blocks


def test_initial_blocks_greedy_prefixes():
    g = Graph(100, [])
    blocks = initial_blocks(g, CardinalityMass(100), Fraction(13, 100), 7)
    assert len(blocks) == 7
    assert blocks[0] == VertexSet(range(13))
    assert all(len(b) == 13 for b in blocks)
    assert blocks[6] == VertexSet(range(78, 91))


def test_initial_blocks_stuck():
    g = Graph(100, [])
    out = initial_blocks(g, CardinalityMass(100), Fraction(13, 100), 8)
    assert isinstance(out, Stuck)
    assert out.stage == "insufficient-blocks"
    assert out.diag_dict() == {
        "blocks_found": "7",
        "blocks_needed": "8",
        "kappa0": "13/100",
    }


# -------------------------------------------------------------- realization


def test_butterfly_host_realization_is_valid():
    g, r = butterfly_host(3)
    assert g.n == 24
    assert check_realization(g, CardinalityMass(24), r) == []


def test_check_realization_key_mismatches():
    g, r = butterfly_host(3)
    m = CardinalityMass(24)
    broken = dict(r.assignment)
    del broken[4]
    out = check_realization(g, m, Realization(r.nursery, broken, r.spires, r.kappa))
    assert out == ["assignment keys do not match the nursery's vertices"]
    out = check_realization(g, m, Realization(r.nursery, r.assignment, {}, r.kappa))
    assert out == ["spire keys do not match the nursery's leaves"]


def test_check_realization_flags_light_head():
    g, r = butterfly_host(3)
    starved = dict(r.assignment)
    starved[0] = VertexSet([])
    out = check_realization(g, CardinalityMass(24), Realization(r.nursery, starved, r.spires, r.kappa))
    assert out == ["head 0 has mass 0, below kappa 1/24"]


def test_check_realization_flags_stray_edge():
    g, r = butterfly_host(3)
    noisy = Graph(24, list(g.edges()) + [(7, 12)])
    out = check_realization(noisy, CardinalityMass(24), r)
    assert out == ["stray edges between the classes of 4 and 5"]
    # head 0 against leaf 5, whose class holds 12
    noisy = Graph(24, list(g.edges()) + [(0, 12)])
    out = check_realization(noisy, CardinalityMass(24), r)
    assert out == ["stray edges between the classes of 0 and 5"]


def test_check_realization_flags_overlap():
    g, r = butterfly_host(3)
    clash = dict(r.assignment)
    clash[0] = clash[0] | VertexSet([9])  # 9 belongs to leaf 5's class
    out = check_realization(g, CardinalityMass(24), Realization(r.nursery, clash, r.spires, r.kappa))
    assert "classes of 0 and 5 intersect" in out


def test_check_realization_flags_a_class_that_does_not_cover():
    # vertex 24 is isolated, so leaf 1's class {1} misses part of head class {0, 24}
    host, r = butterfly_host(3)
    g = Graph(25, host.edges())
    assignment = {**r.assignment, 0: VertexSet([0, 24])}
    wide = Realization(r.nursery, assignment, r.spires, r.kappa)
    assert check_realization(g, CardinalityMass(25), wide) == [
        "class of 1 does not cover the class of 0"
    ]


def test_check_realization_flags_an_invalid_component():
    # leaf 7 moved from spine vertex 3 to 2: the spine degrees break, and the
    # classes no longer follow the nursery's edges
    g, r = butterfly_host(3)
    comp = r.nursery.components[0]
    moved = Nursery(3, [Chrysalis(3, comp.head, {**comp.parent, 7: 2})])
    out = check_realization(g, CardinalityMass(24), Realization(moved, r.assignment, r.spires, r.kappa))
    assert out[0] == (
        "component with head 0 invalid: spine vertex 2 has degree 4, not tau; "
        "spine vertex 3 has degree 2, not tau"
    )


def test_check_realization_flags_a_broken_spire():
    # 4 is x_1 of leaf 4's spire and 7 sits in its reservoir past the tip 6
    g, r = butterfly_host(3)
    noisy = Graph(24, list(g.edges()) + [(4, 7)])
    assert check_realization(noisy, CardinalityMass(24), r) == [
        "spire of leaf 4: 4 has a neighbour in z beyond x_tau"
    ]


def test_check_realization_flags_a_class_that_is_not_path_plus_reservoir():
    # leaf 4's reservoir loses its end 8, which its class still holds
    g, r = butterfly_host(3)
    cut = {**r.spires, 4: Spire((4, 5, 6), VertexSet([6, 7]))}
    out = check_realization(g, CardinalityMass(24), Realization(r.nursery, r.assignment, cut, r.kappa))
    assert out == ["class of leaf 4 is not its spire path plus reservoir"]


# ------------------------------------------------------------------- merge


def _two_blob_fixture(cover: bool):
    """Two path blobs of 50 vertices; optional cover edges from 49 into B."""
    edges = [(i, i + 1) for i in range(49)]
    edges += [(i, i + 1) for i in range(50, 99)]
    if cover:
        edges += [(49, b) for b in range(50, 100)]
    g = Graph(100, edges)
    nursery = Nursery(3, (Chrysalis(3, 0, {}), Chrysalis(3, 1, {})), (0, 1))
    r = Realization(
        nursery,
        {0: VertexSet(range(50)), 1: VertexSet(range(50, 100))},
        {},
        Fraction(2, 5),
    )
    return g, CardinalityMass(100), r


def test_improve_merges_two_blobs():
    g, m, r = _two_blob_fixture(cover=True)
    assert check_realization(g, m, r) == []
    out = improve(g, m, r, Fraction(3, 20), Fraction(1, 50))
    assert isinstance(out, tuple)
    nursery, r2 = out
    assert len(nursery) == 1
    merged = nursery.components[0]
    assert merged.head == 1
    assert merged.parent == {0: 1}
    assert r2.kappa == Fraction(3, 20)
    assert r2.assignment[0] == VertexSet(range(50))
    assert r2.assignment[1] == VertexSet(range(50, 100))
    assert r2.spires[0] == Spire((0, 1, 2), VertexSet(range(2, 50)))
    assert phi(nursery) == phi(r.nursery) == 4
    assert check_realization(g, m, r2) == []


def test_improve_returns_pair_without_cover():
    g, m, r = _two_blob_fixture(cover=False)
    out = improve(g, m, r, Fraction(3, 20), Fraction(1, 50))
    assert out == AnticompletePair(VertexSet(range(2, 50)), VertexSet(range(50, 100)))


def test_improve_preconditions():
    g, m, r = _two_blob_fixture(cover=True)
    single = Realization(
        Nursery(3, [Chrysalis(3, 0, {})]), {0: r.assignment[0]}, {}, r.kappa
    )
    with pytest.raises(ValueError, match="needs at least two components"):
        improve(g, m, single, Fraction(3, 20), Fraction(1, 50))
    with pytest.raises(ValueError, match="kappa step too steep"):
        improve(g, m, r, Fraction(1, 4), Fraction(1, 50))

    host, br = butterfly_host(3)
    padded = Nursery(3, list(br.nursery.components) + [Chrysalis(3, 30, {})], (0, 1))
    fake = Realization(padded, {}, {}, Fraction(1, 2))
    with pytest.raises(ValueError, match="must not run on a butterfly"):
        improve(host, CardinalityMass(31), fake, Fraction(1, 100), Fraction(1, 1000))


def test_improve_rejects_a_light_head():
    # a head class below (tau+2)*epsilon fails no valid realization's check
    # at kappa >= 2*kappa_next + (tau+2)*epsilon, so it is a precondition error
    g = path_graph(100)
    nursery = Nursery(3, (Chrysalis(3, 0, {}), Chrysalis(3, 1, {})), (0, 1))
    r = Realization(nursery, {0: VertexSet([0]), 1: VertexSet([1])}, {}, Fraction(1, 2))
    with pytest.raises(ValueError, match=r"grow_spire needs mass\(x\) >= \(tau\+2\)\*epsilon"):
        improve(g, CardinalityMass(100), r, Fraction(1, 5), Fraction(1, 50))


def test_improve_outside_the_neighbourhood_axiom_leaves_a_light_head():
    # vertex 0 sees all of head 1's class, whose neighbourhood weighs 21/60,
    # above epsilon: the spire path starts at 0, shaving leaves head 1 empty,
    # and the cover hits it at the first step
    g = Graph(60, [(v, v + 1) for v in range(39)] + [(0, v) for v in range(40, 60)])
    nursery = Nursery(3, (Chrysalis(3, 0, {}), Chrysalis(3, 1, {})), (0, 1))
    classes = {0: VertexSet(range(40)), 1: VertexSet(range(40, 60))}
    r = Realization(nursery, classes, {}, Fraction(1, 3))
    m = CardinalityMass(60)
    out = improve(g, m, r, Fraction(7, 60), Fraction(1, 50))
    assert isinstance(out, tuple)
    assert check_realization(g, m, out[1]) == ["head 1 has mass 0, below kappa 7/60"]


# -------------------------------------------------------------- extraction


def test_extract_copy_rejects_bad_inputs():
    g, r = butterfly_host(3)
    single = Realization(
        Nursery(3, [Chrysalis(3, 0, {})]), {0: VertexSet([0])}, {}, Fraction(1, 24)
    )
    with pytest.raises(ValueError, match="realization with a butterfly component"):
        extract_copy(g, single, CaterpillarTree(path_graph(3)))
    drained = Realization(r.nursery, r.assignment, r.spires, Fraction(0))
    with pytest.raises(ValueError, match="needs kappa > 0"):
        extract_copy(g, drained, CaterpillarTree(path_graph(3)))
    with pytest.raises(ValueError, match="tau does not fit"):
        extract_copy(g, r, CaterpillarTree(path_graph(5)))
    hook = CaterpillarTree(hook_graph())
    cut = Graph(24, [e for e in g.edges() if e != (0, 1)])
    with pytest.raises(ValueError, match="spine vertex 1 has no neighbour of the previous pick"):
        extract_copy(cut, r, hook)
    # (1, 8) joins leaf 4's reservoir end to its spine pick 1
    cut = Graph(24, [e for e in g.edges() if e != (1, 8)])
    with pytest.raises(ValueError, match="leaf 4: reservoir path from the spine pick is broken"):
        extract_copy(cut, r, hook)


def test_extract_copy_frozen_mappings():
    g, r = butterfly_host(3)
    assert extract_copy(g, r, CaterpillarTree(hook_graph())) == (0, 1, 2, 3, 18, 13)
    assert extract_copy(g, r, CaterpillarTree(path_graph(3))) == (0, 1, 2)
    assert extract_copy(g, r, CaterpillarTree(star_graph(3))) == (1, 0, 2, 8)


def test_extract_copy_picks_the_least_neighbour_in_each_spine_class():
    # 24 joins spine vertex 1's class as a second neighbour of the pick 0,
    # and sees 2 and 8 so that the children of 1 still cover the class; the
    # least, 1, stays the pick, so the hook lands where it does without 24
    g, r = butterfly_host(3)
    wide = Graph(25, g.edges() + [(0, 24), (2, 24), (8, 24)])
    r = Realization(r.nursery, {**r.assignment, 1: VertexSet([1, 24])}, r.spires, Fraction(1, 25))
    assert check_realization(wide, CardinalityMass(25), r) == []
    assert extract_copy(wide, r, CaterpillarTree(hook_graph())) == (0, 1, 2, 3, 18, 13)


def test_extract_copy_verifies_against_oracle():
    g, r = butterfly_host(3)
    m = CardinalityMass(g.n)
    for target in (hook_graph(), path_graph(3), star_graph(3)):
        t = CaterpillarTree(target)
        mapping = extract_copy(g, r, t)
        report = verify_witness(g, m, t, Fraction(1, g.n), InducedCopy(mapping))
        assert report.ok, report.problems


def test_extract_copy_short_reservoirs():
    # Leaves 5 and 11 get one-vertex reservoirs, so their host paths must be
    # completed backwards along the spire path.
    g, r = butterfly_host(4, short=(5, 11))
    assert g.n == 64
    m = CardinalityMass(64)
    assert check_realization(g, m, r) == []
    t = CaterpillarTree(star_graph(4))
    mapping = extract_copy(g, r, t)
    assert verify_witness(g, m, t, Fraction(1, 64), InducedCopy(mapping)).ok


# ------------------------------------------------------------- full engine


def test_run_trichotomy_axiom_witnesses():
    hook = CaterpillarTree(hook_graph())
    # Paper-level epsilon is tiny; a single vertex already clears it.
    out = run_trichotomy(path_graph(6), CardinalityMass(6), hook, EngineParams(3))
    assert out == HighMassVertex(0)
    # a bare Graph target is wrapped as a caterpillar
    assert run_trichotomy(path_graph(6), CardinalityMass(6), hook_graph(), EngineParams(3)) == out

    g = disjoint_union(complete_graph(50), complete_graph(50))
    params = EngineParams(3, Fraction(1, 10), 4)
    trace = []
    out = run_trichotomy(g, CardinalityMass(100), hook, params, trace=trace)
    assert out == HighMassNeighbourhood(0)
    assert [t["stage"] for t in trace] == ["axiom-2", "verified"]


def test_run_trichotomy_neighbourhood_at_exactly_epsilon():
    # every vertex has mass 1/10 < 1/5; the neighbourhood {0, 2} of vertex 1
    # is the first to reach 1/5, with equality
    hook = CaterpillarTree(hook_graph())
    params = EngineParams(3, Fraction(1, 5), 2)
    out = run_trichotomy(path_graph(10), CardinalityMass(10), hook, params)
    assert out == HighMassNeighbourhood(1)


def test_run_trichotomy_weighted_singletons_come_first():
    # vertex 5 alone weighs exactly epsilon, and so does the neighbourhood
    # {1, 2, 3, 4} of vertex 0, which comes earlier; every singleton is
    # tried before any neighbourhood
    g = Graph(7, [(0, 1), (0, 2), (0, 3), (0, 4), (5, 6)])
    m = WeightedMass([1, 1, 1, 1, 1, 4, 1])
    eps = Fraction(4, 10)
    assert m.mass(VertexSet([1, 2, 3, 4])) == eps
    trace = []
    out = run_trichotomy(g, m, CaterpillarTree(hook_graph()), EngineParams(3, eps, 2), trace=trace)
    assert out == HighMassVertex(5)
    assert trace == [
        {"stage": "axiom-1", "vertex": "5"},
        {"stage": "verified", "variant": "HighMassVertex"},
    ]


def test_run_trichotomy_weighted_neighbourhood_at_exactly_epsilon():
    # units 1, 3, 1, 3, 1, 1 on a path: every vertex is below 3/5, the
    # neighbourhoods of 0 and 1 weigh 3/10 and 1/5, and that of 2, {1, 3},
    # weighs 3/5, its degree times the top unit
    m = WeightedMass([Fraction(u, 2) for u in (1, 3, 1, 3, 1, 1)])
    eps = Fraction(3, 5)
    out = run_trichotomy(path_graph(6), m, CaterpillarTree(hook_graph()), EngineParams(3, eps, 2))
    assert out == HighMassNeighbourhood(2)
    assert m.axiom_hit(path_graph(6), eps - Fraction(1, 1 << 600)) == (2, 2)
    assert m.axiom_hit(path_graph(6), eps + Fraction(1, 1 << 600)) is None


class _Loop(MassProvider):
    """Another provider's mass behind the default axiom scan of MassProvider."""

    def __init__(self, inner: MassProvider) -> None:
        self.inner = inner

    def mass(self, x: VertexSet) -> Fraction:
        return self.inner.mass(x)


@st.composite
def axiom_cases(draw):
    """A seeded graph on 1 to 40 vertices, with isolated vertices and
    repeated edges, an additive mass on it (weights may be zero), and an
    epsilon that is one of its vertex or neighbourhood masses, a hair either
    side of one, or drawn freely with a denominator of 600 bits or more."""
    n = draw(st.integers(1, 40))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0, 0.5, 1, 3, 8]))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density / n]
    edges += rng.sample(edges, min(len(edges), draw(st.integers(0, 3))))
    edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
    rng.shuffle(edges)
    g = Graph(n, edges)
    if draw(st.booleans()):
        m = CardinalityMass(n)
    else:
        units = [rng.choice((0, 0, 1, 2, 3, rng.randint(0, 10**6))) for _ in range(n)]
        units[rng.randrange(n)] += 1
        m = WeightedMass([Fraction(u, rng.choice((1, 2, 3, 7))) for u in units])
    masses = [m.mass(VertexSet([v])) for v in range(n)]
    masses += [m.mass(VertexSet.from_mask(g.adj(v))) for v in range(n)]
    base = draw(st.sampled_from(sorted({x for x in masses if x > 0}) or [Fraction(1)]))
    hair = Fraction(1, draw(st.integers(1 << 600, 1 << 640)))
    free = Fraction(draw(st.integers(1, 1 << 64)), draw(st.integers(1 << 600, 1 << 640)))
    eps = draw(st.sampled_from([base, base + hair, max(base - hair, hair), free]))
    return g, m, eps


@settings(max_examples=150, deadline=None)
@given(axiom_cases())
def test_axiom_scan_matches_the_mass_loop(case):
    g, m, eps = case
    assert [g.degree(v) for v in range(g.n)] == [g.adj(v).bit_count() for v in range(g.n)]
    assert g.edge_count == len(g.edges())
    assert m.axiom_hit(g, eps) == MassProvider.axiom_hit(m, g, eps)
    hook = CaterpillarTree(hook_graph())
    params = EngineParams(3, eps, 2)
    fast, loop = [], []
    out = run_trichotomy(g, m, hook, params, trace=fast)
    assert out == run_trichotomy(g, _Loop(m), hook, params, trace=loop)
    assert fast == loop


def test_run_trichotomy_anticomplete_on_long_path():
    hook = CaterpillarTree(hook_graph())
    g = path_graph(200)
    params = EngineParams(3, Fraction(1, 48), 2)
    trace = []
    out = run_trichotomy(g, CardinalityMass(200), hook, params, trace=trace)
    assert out == AnticompletePair(VertexSet(range(2, 80)), VertexSet(range(81, 160)))
    assert trace == [
        {"stage": "blocks", "count": "2", "kappa0": "19/48"},
        {"stage": "anticomplete", "improvements": "0"},
        {"stage": "verified", "variant": "AnticompletePair"},
    ]
    again = run_trichotomy(g, CardinalityMass(200), hook, params)
    assert again == out


def test_run_trichotomy_merges_then_sticks_at_phi():
    # two 80-vertex paths become the p = 2 blocks; the second path's cover
    # edges let improve merge them, which leaves one component short of a
    # butterfly
    hook = CaterpillarTree(hook_graph())
    edges = [(i, i + 1) for i in range(79)]
    edges += [(i, i + 1) for i in range(80, 159)]
    edges += [(80 + t, 2 + t) for t in range(78)]
    edges += [(i, i + 1) for i in range(160, 199)]
    g = Graph(200, edges)
    params = EngineParams(3, Fraction(1, 48), 2)
    trace = []
    out = run_trichotomy(g, CardinalityMass(200), hook, params, trace=trace)
    assert out == Stuck.make(
        "phi-contradiction",
        {"components": "1", "floor": "4", "largest_size": "2", "phi": "4"},
    )
    assert trace == [
        {"stage": "blocks", "count": "2", "kappa0": "19/48"},
        {"stage": "improved", "improvement": "1", "kappa": "7/48", "components": "1"},
        {"stage": "stuck", "at": "phi-contradiction"},
    ]


def _merge_into(monkeypatch, r):
    """Make every improve step return the fixed realization r."""
    monkeypatch.setattr("catspire.engine.improve", lambda *args, **kwargs: (r.nursery, r))


_BUTTERFLY_TRACE = ["blocks", "improved", "butterfly", "verified"]


def test_run_trichotomy_extracts_from_a_butterfly(monkeypatch):
    host, br = butterfly_host(3)
    g = Graph(200, host.edges())
    r = Realization(br.nursery, br.assignment, br.spires, Fraction(1, 200))
    _merge_into(monkeypatch, r)
    trace = []
    hook = CaterpillarTree(hook_graph())
    out = run_trichotomy(g, CardinalityMass(200), hook, EngineParams(3, Fraction(1, 48), 2), trace=trace)
    assert out == InducedCopy((0, 1, 2, 3, 18, 13))
    assert [t["stage"] for t in trace] == _BUTTERFLY_TRACE


def test_run_trichotomy_extracts_beside_another_component(monkeypatch):
    # the single-vertex component sorts ahead of the butterfly
    host, br = butterfly_host(3)
    g = Graph(500, host.edges())
    nursery = Nursery(3, [butterfly(3), Chrysalis(3, 8, {})])
    assert nursery.components[1].is_butterfly
    assignment = {**br.assignment, 8: VertexSet([100])}
    r = Realization(nursery, assignment, br.spires, Fraction(1, 500))
    _merge_into(monkeypatch, r)
    trace = []
    hook = CaterpillarTree(hook_graph())
    out = run_trichotomy(g, CardinalityMass(500), hook, EngineParams(3, Fraction(1, 144), 3), trace=trace)
    assert out == InducedCopy((0, 1, 2, 3, 18, 13))
    assert [t["stage"] for t in trace] == _BUTTERFLY_TRACE


class _SmallSetsLight(MassProvider):
    """|X|/n from 38 members on and |X|/(10n) below: monotone, not subadditive."""

    def __init__(self, n: int) -> None:
        self.n = n

    def mass(self, x: VertexSet) -> Fraction:
        k = len(x)
        return Fraction(k, self.n) if k >= 38 else Fraction(k, 10 * self.n)


def test_run_trichotomy_stuck_inside_improve_names_the_improvement():
    # each block is a 38-vertex id prefix; the spire's first step takes 0's
    # neighbour 1 out of head block 0..37, and the 37 vertices left weigh
    # 37/960, below 3*epsilon
    hook = CaterpillarTree(hook_graph())
    params = EngineParams(3, Fraction(1, 48), 2)
    trace = []
    out = run_trichotomy(path_graph(96), _SmallSetsLight(96), hook, params, trace=trace)
    assert out == Stuck.make(
        "spire-blocked",
        {
            "improvement": "1",
            "path_so_far": "[0]",
            "reason": "remaining mass below 3*epsilon",
            "remaining_mass": "37/960",
        },
    )
    assert [t["stage"] for t in trace] == ["blocks", "stuck"]
    assert trace[-1] == {"stage": "stuck", "at": "spire-blocked"}


def test_run_trichotomy_seeded_start_still_verifies():
    hook = CaterpillarTree(hook_graph())
    g = path_graph(200)
    params = EngineParams(3, Fraction(1, 48), 2)
    out = run_trichotomy(g, CardinalityMass(200), hook, params, x1_rng=_PickLast())
    assert out == AnticompletePair(VertexSet(range(0, 78)), VertexSet(range(81, 160)))


def test_run_trichotomy_stuck_off_guarantee():
    hook = CaterpillarTree(hook_graph())
    params = EngineParams(3, Fraction(1, 10), 2)
    trace = []
    out = run_trichotomy(path_graph(50), CardinalityMass(50), hook, params, trace=trace)
    assert trace == [{"stage": "stuck", "at": "kappa-schedule-infeasible"}]
    assert isinstance(out, Stuck)
    assert out.stage == "kappa-schedule-infeasible"
    assert out.diag_dict() == {
        "epsilon": "1/10",
        "p": "2",
        "max_feasible_epsilon": "1/48",
    }


class _AllOrNothing(MassProvider):
    """Mass 1 on the whole vertex set and 0 on every proper subset, so no
    vertex or neighbourhood axiom fires on a path."""

    def __init__(self, n: int) -> None:
        self.full = (1 << n) - 1

    def mass(self, x: VertexSet) -> Fraction:
        return Fraction(1) if x.mask == self.full else Fraction(0)


def test_run_trichotomy_guarantee_never_stuck():
    hook = CaterpillarTree(hook_graph())
    with pytest.raises(TheoremViolation, match="despite guaranteed parameters"):
        run_trichotomy(path_graph(6), _AllOrNothing(6), hook, EngineParams(3))


def test_guarantee_reads_the_schedule_at_the_runs_own_p():
    # p = 513 is above the proven p = 512, but the proven epsilon is too big
    # for a schedule of 513 steps, so the run may stick honestly
    params = EngineParams(3, paper_epsilon(3), 513)
    assert not params.guarantee
    assert EngineParams(3).guarantee and EngineParams(4).guarantee
    hook = CaterpillarTree(hook_graph())
    out = run_trichotomy(path_graph(6), _AllOrNothing(6), hook, params)
    assert out.stage == "kappa-schedule-infeasible"


def test_explicit_p_past_epsilon_bit_length_names_the_bound():
    hook = CaterpillarTree(hook_graph())
    g, m = path_graph(200), CardinalityMass(200)
    out = run_trichotomy(g, m, hook, EngineParams(3, Fraction(1, 99), 10**6))
    assert out.stage == "kappa-schedule-infeasible"
    assert out.diag_dict() == {
        "epsilon": "1/99",
        "p": "1000000",
        "max_feasible_epsilon": "1/(1000000*2^1000000*6)",
    }
    tracemalloc.start()
    try:
        out = run_trichotomy(g, m, hook, EngineParams(3, Fraction(1, 99), 10**10))
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()
    assert out.diag_dict()["max_feasible_epsilon"] == "1/(10000000000*2^10000000000*6)"


@settings(max_examples=200, deadline=None)
@given(st.integers(3, 6), st.integers(2, 12), st.sampled_from([-1, 0, 1]))
def test_kappa_feasibility_boundary(tau, p, shift):
    # epsilon just above, at, or just below the largest feasible epsilon
    limit = max_feasible_epsilon(p, tau)
    eps = Fraction(1, limit.denominator + shift)
    kappa_p = Fraction(1, p * 2**p) - (tau + 2) * eps
    out = run_trichotomy(
        path_graph(6), _AllOrNothing(6), CaterpillarTree(hook_graph()), EngineParams(tau, eps, p)
    )
    assert isinstance(out, Stuck)
    if kappa_p < eps:
        assert out.stage == "kappa-schedule-infeasible"
        assert out.diag_dict()["max_feasible_epsilon"] == f"1/{limit.denominator}"
    else:
        assert out.stage == "insufficient-blocks"


def test_run_trichotomy_input_errors():
    hook = CaterpillarTree(hook_graph())
    with pytest.raises(ValueError, match="at least one vertex"):
        run_trichotomy(Graph(0, []), CardinalityMass(1), hook, EngineParams(3))
    with pytest.raises(ValueError, match="does not fit the target"):
        run_trichotomy(
            path_graph(6),
            CardinalityMass(6),
            CaterpillarTree(path_graph(5)),
            EngineParams(3),
        )
