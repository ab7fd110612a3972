"""Mass providers and the axiom checker."""

import random
from fractions import Fraction

import pytest

from catspire.graphs import UNPACK_MIN_MEMBERS, Graph, VertexSet
from catspire.mass import (
    CardinalityMass,
    ChromaticMass,
    MassProvider,
    WeightedMass,
    verify_mass_axioms,
)
from helpers import cycle_graph, disjoint_union, path_graph


def test_cardinality_mass():
    m = CardinalityMass(10)
    assert m.mass(VertexSet([1, 4, 7])) == Fraction(3, 10)
    assert m.mass(VertexSet()) == 0
    assert m.mass(VertexSet(range(10))) == 1
    with pytest.raises(ValueError, match="at least one vertex"):
        CardinalityMass(0)


def test_weighted_mass():
    m = WeightedMass([Fraction(1), Fraction(2), Fraction(3)])
    assert m.mass(VertexSet([0, 2])) == Fraction(2, 3)
    assert m.mass(VertexSet([1])) == Fraction(1, 3)
    assert m.mass(VertexSet([0, 1, 2])) == 1
    # fractional weights share a common denominator internally
    frac = WeightedMass([Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)])
    assert frac.mass(VertexSet([0])) == Fraction(1, 2)


def test_weighted_mass_errors():
    with pytest.raises(ValueError, match="at least one vertex"):
        WeightedMass([])
    with pytest.raises(ValueError, match="nonnegative"):
        WeightedMass([Fraction(1), Fraction(-1)])
    with pytest.raises(ValueError, match="total weight must be positive"):
        WeightedMass([Fraction(0), Fraction(0)])


def _member_walk(weights, members):
    return sum((Fraction(weights[v]) for v in members), Fraction(0)) / sum(weights)


def test_weighted_mass_vector_sum_matches_member_walk():
    rng = random.Random(11)
    n = 300
    weights = [Fraction(rng.randint(0, 9), rng.choice((1, 2, 3, 7))) for _ in range(n)]
    m = WeightedMass(weights)
    sizes = (0, 1, UNPACK_MIN_MEMBERS - 1, UNPACK_MIN_MEMBERS, UNPACK_MIN_MEMBERS + 1, n // 2, n)
    for size in sizes:
        for _ in range(20):
            members = rng.sample(range(n), size)
            assert m.mass(VertexSet(members)) == _member_walk(weights, members)


def test_weighted_mass_stays_exact_past_int64():
    # a unit total of exactly 2^63 - 1 still fits int64; 2^63 does not, and
    # an int64 sum of those units would wrap
    for total in ((1 << 63) - 1, 1 << 63, 1 << 70):
        n = 2 * UNPACK_MIN_MEMBERS
        weights = [total // n] * (n - 1)
        weights.append(total - sum(weights))
        m = WeightedMass(weights)
        for members in (range(n), range(0, n, 2), range(n - UNPACK_MIN_MEMBERS, n)):
            assert m.mass(VertexSet(members)) == _member_walk(weights, members)
        assert m.mass(VertexSet(range(n))) == 1


def test_all_ones_weighted_matches_cardinality():
    card = CardinalityMass(6)
    ones = WeightedMass([Fraction(1)] * 6)
    for mask in range(1 << 6):
        x = VertexSet.from_mask(mask)
        assert card.mass(x) == ones.mass(x)


def test_chromatic_mass_on_c5():
    g = cycle_graph(5)
    m = ChromaticMass(g)
    assert m.chi_total == 3
    assert m.mass(VertexSet([0])) == Fraction(1, 3)
    assert m.mass(VertexSet([0, 1])) == Fraction(2, 3)
    assert m.mass(g.vertices()) == 1
    assert m.mass(VertexSet()) == 0
    # memoized: the same subset twice costs one coloring
    m.mass(VertexSet([0, 1]))
    assert m._memo[VertexSet([0, 1]).mask] == 2


def test_chromatic_mass_limits():
    with pytest.raises(ValueError, match="at least one vertex"):
        ChromaticMass(Graph(0))
    with pytest.raises(ValueError, match="limited to 64 vertices, graph has 65"):
        ChromaticMass(Graph(65))


def test_axioms_pass_exhaustively():
    g = disjoint_union(cycle_graph(5), path_graph(3))
    for provider in (
        CardinalityMass(g.n),
        WeightedMass([Fraction(i + 1, 3) for i in range(g.n)]),
        ChromaticMass(g),
    ):
        report = verify_mass_axioms(provider, g)
        assert report.ok, report.failure
        assert report.checks > 2


def test_axioms_pass_sampled():
    g = path_graph(40)
    report = verify_mass_axioms(CardinalityMass(40), g, budget=500, seed=7)
    assert report.ok
    assert report.checks == 2 + 2 * 500


class _Squared(MassProvider):
    """Deliberately broken: |X|^2/n^2 is not subadditive."""

    def __init__(self, n: int) -> None:
        self.n = n

    def mass(self, x: VertexSet) -> Fraction:
        return Fraction(len(x) ** 2, self.n ** 2)


class _Shifted(MassProvider):
    def __init__(self, n: int) -> None:
        self.n = n

    def mass(self, x: VertexSet) -> Fraction:
        return Fraction(len(x) + 1, self.n + 1)


class _Parity(MassProvider):
    """Deliberately broken: proper nonempty subsets weigh 1/2 at odd size and
    1/4 at even size, so adding a vertex can make a set lighter."""

    def __init__(self, n: int) -> None:
        self.n = n

    def mass(self, x: VertexSet) -> Fraction:
        if len(x) in (0, self.n):
            return Fraction(len(x), self.n)
        return Fraction(1, 2) if len(x) % 2 else Fraction(1, 4)


def test_axioms_catch_broken_providers():
    g = path_graph(6)
    report = verify_mass_axioms(_Squared(6), g)
    assert not report.ok
    assert "subadditivity fails" in report.failure
    report = verify_mass_axioms(_Shifted(6), g)
    assert not report.ok
    assert report.failure == "mass of the empty set is not 0"
    report = verify_mass_axioms(CardinalityMass(7), g)
    assert (report.ok, report.checks) == (False, 2)
    assert report.failure == "mass of the full vertex set is not 1"
    report = verify_mass_axioms(_Parity(6), g)
    assert not report.ok
    assert report.failure == "monotonicity fails for 0x2 inside 0x3"
    big = path_graph(30)
    report = verify_mass_axioms(_Squared(30), big, budget=300, seed=1)
    assert not report.ok
    assert "subadditivity fails" in report.failure
    report = verify_mass_axioms(_Parity(30), big, budget=300, seed=1)
    assert not report.ok
    assert "monotonicity fails" in report.failure


def test_weighted_axiom_hit_at_exactly_the_bar_with_nothing_pruned():
    # units 1, 1, 1, 3, 1, 1 on the 6-cycle, total 8: at epsilon 1/2 the bar
    # is 4 units, every vertex has degree 2 and 2 * 3 >= 4, so the degree
    # bound prunes no vertex; the neighbourhoods of 0 and 1 weigh 2 units
    # and that of 2, {1, 3}, weighs exactly 4
    g = cycle_graph(6)
    m = WeightedMass([1, 1, 1, 3, 1, 1])
    eps = Fraction(1, 2)
    hair = Fraction(1, 1 << 600)
    assert m.axiom_hit(g, eps) == MassProvider.axiom_hit(m, g, eps) == (2, 2)
    assert m.axiom_hit(g, eps + hair) is MassProvider.axiom_hit(m, g, eps + hair) is None
