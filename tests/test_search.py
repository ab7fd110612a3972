"""The engine's monotone searches against the linear scans they replaced.

initial_blocks, big_piece and the reservoir walk of improve each look for
the least set of a nested chain whose mass crosses a bar.  The references
below are the step-by-step walks; the engine finds the same index by
exponential and binary search, which is exact for every monotone mass.
"""

import math
from fractions import Fraction

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from catspire.engine import _first_cover, big_piece, initial_blocks, least_reaching
from catspire.graphs import Graph, VertexSet, components
from catspire.mass import CardinalityMass, ChromaticMass, WeightedMass
from catspire.witnesses import AnticompletePair, Stuck

SEARCH_SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ------------------------------------------------------ linear references


def linear_initial_blocks(g, m, kappa0, p):
    blocks = []
    acc = 0
    for v in range(g.n):
        acc |= 1 << v
        if m.mass(VertexSet.from_mask(acc)) >= kappa0:
            blocks.append(VertexSet.from_mask(acc))
            acc = 0
            if len(blocks) == p:
                return blocks
    return ("stuck", "insufficient-blocks", str(len(blocks)))


def linear_big_piece(g, m, x, epsilon):
    comps = components(g, x)
    acc = 0
    for idx, comp in enumerate(comps):
        acc |= comp.mask
        if m.mass(VertexSet.from_mask(acc)) >= epsilon:
            break
    prefix = VertexSet.from_mask(acc)
    suffix = VertexSet.from_mask(x.mask & ~acc)
    if m.mass(suffix) >= epsilon:
        return AnticompletePair(prefix, suffix)
    pivot = comps[idx]
    rest = VertexSet.from_mask(x.mask & ~pivot.mask)
    if m.mass(rest) >= epsilon:
        return AnticompletePair(pivot, rest)
    return pivot


def linear_first_cover(g, m, order, shaved, bar):
    covered = 0
    for steps in range(1, len(order) + 1):
        covered |= g.adj(order[steps - 1])
        for j in sorted(shaved):
            if m.mass(VertexSet.from_mask(shaved[j] & ~covered)) < bar:
                return steps, j, covered
    return len(order), None, covered


def outcome(blocks):
    if isinstance(blocks, Stuck):
        return ("stuck", blocks.stage, blocks.diag_dict()["blocks_found"])
    return blocks


# ------------------------------------------------------------- instances


@st.composite
def hosts(draw):
    """A random graph with a cardinality, weighted or chromatic mass.

    Weights include zeros, so masses along a chain have plateaus; chromatic
    mass stays at n <= 12, where exact colouring is cheap.
    """
    kind = draw(st.sampled_from(["cardinality", "weighted", "chromatic"]))
    n = draw(st.integers(1, 12 if kind == "chromatic" else 80))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = [(u, v) for u, v in draw(st.lists(pairs, max_size=3 * n)) if u != v]
    g = Graph(n, edges)
    if kind == "cardinality":
        return g, CardinalityMass(n)
    if kind == "chromatic":
        return g, ChromaticMass(g)
    weights = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    assume(sum(weights) > 0)
    return g, WeightedMass(weights)


def masks(n):
    return st.integers(0, (1 << n) - 1)


def bars(m, n):
    """Bars that land exactly on masses the host takes, or anywhere in [0, 1]."""
    exact = masks(n).map(lambda mask: m.mass(VertexSet.from_mask(mask)))
    loose = st.fractions(min_value=0, max_value=1, max_denominator=97)
    return st.one_of(exact, loose)


# ----------------------------------------------------------------- tests


@given(st.integers(0, 300), st.data())
def test_least_reaching_finds_the_first_true_index(length, data):
    first = data.draw(st.one_of(st.none(), st.integers(0, max(length - 1, 0))))
    if length == 0:
        first = None
    calls = []

    def reach(i):
        assert 0 <= i < length
        calls.append(i)
        return first is not None and i >= first

    assert least_reaching(reach, length) == first
    if first is not None:
        assert len(calls) <= 2 * math.ceil(math.log2(first + 1)) + 1
        assert max(calls) <= 2 * first


@SEARCH_SETTINGS
@given(hosts(), st.data())
def test_initial_blocks_match_the_linear_scan(host, data):
    g, m = host
    kappa0 = data.draw(bars(m, g.n))
    p = data.draw(st.integers(1, 6))
    assert outcome(initial_blocks(g, m, kappa0, p)) == linear_initial_blocks(
        g, m, kappa0, p
    )


@SEARCH_SETTINGS
@given(hosts(), st.data())
def test_big_piece_matches_the_linear_scan(host, data):
    g, m = host
    x = VertexSet.from_mask(data.draw(masks(g.n)))
    total = m.mass(x)
    assume(total > 0)
    sub = data.draw(masks(g.n)) & x.mask
    share = data.draw(st.fractions(min_value=0, max_value=1, max_denominator=31))
    epsilon = data.draw(
        st.sampled_from([m.mass(VertexSet.from_mask(sub)), total * share / 3])
    )
    assume(0 < epsilon and 3 * epsilon <= total)
    assert big_piece(g, m, x, epsilon) == linear_big_piece(g, m, x, epsilon)


@SEARCH_SETTINGS
@given(hosts(), st.data())
def test_first_cover_matches_the_nested_walk(host, data):
    g, m = host
    order = data.draw(st.permutations(range(g.n)))[: data.draw(st.integers(1, g.n))]
    shaved = data.draw(st.dictionaries(st.integers(0, 6), masks(g.n), min_size=1, max_size=4))
    bar = data.draw(bars(m, g.n))
    assert _first_cover(g, m, order, shaved, bar) == linear_first_cover(g, m, order, shaved, bar)


class CountingMass(CardinalityMass):
    """Cardinality mass that counts its evaluations."""

    def __init__(self, n: int) -> None:
        super().__init__(n)
        self.calls = 0

    def mass(self, x: VertexSet) -> Fraction:
        self.calls += 1
        return super().mass(x)


def test_initial_blocks_makes_logarithmically_many_mass_calls():
    n, p = 4096, 8
    g = Graph(n)
    kappa0 = Fraction(1, p + 1)
    counted = CountingMass(n)
    blocks = initial_blocks(g, counted, kappa0, p)
    assert blocks == linear_initial_blocks(g, CardinalityMass(n), kappa0, p)
    assert counted.calls <= p * (2 * math.ceil(math.log2(n)) + 2)


def test_initial_blocks_count_a_prefix_at_exactly_kappa0():
    # zero weights put plateaus in the chain: prefixes 0..80 and 0..81 have
    # the same mass, and the least one is the block; 81 members take the
    # vector unit sum
    weights = [v % 3 for v in range(200)]
    m = WeightedMass(weights)
    kappa0 = Fraction(sum(weights[:81]), sum(weights))
    assert weights[80] > 0 and weights[81] == 0
    blocks = initial_blocks(Graph(200), m, kappa0, 2)
    assert blocks[0] == VertexSet(range(81))
    assert m.mass(blocks[0]) == kappa0
    assert blocks == linear_initial_blocks(Graph(200), m, kappa0, 2)
