"""Shared fixture builders: small named graphs and synthetic realizations."""

from fractions import Fraction
from typing import Iterable, List, Tuple

from catspire.engine import Realization, Spire
from catspire.graphs import Graph, VertexSet
from catspire.trees import Nursery, butterfly


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(k: int) -> Graph:
    """K_{1,k} with the center labelled 0."""
    return Graph(k + 1, [(0, i) for i in range(1, k + 1)])


def hook_graph() -> Graph:
    """Five-vertex path 0..4 plus a leaf 5 on vertex 2."""
    return Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)])


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5, 7), (7, 9), (9, 6), (6, 8), (8, 5)]
    return Graph(10, outer + spokes + inner)


def disjoint_union(*parts: Graph) -> Graph:
    edges = []
    offset = 0
    for g in parts:
        edges.extend((u + offset, v + offset) for u, v in g.edges())
        offset += g.n
    return Graph(offset, edges)


def butterfly_host(tau: int, short: Iterable[int] = ()) -> Tuple[Graph, Realization]:
    """A host graph with a valid butterfly(tau) realization at kappa 1/n.

    Spine classes are the single vertices 0..tau on a path.  Each leaf gets
    an induced tau-vertex path, a reservoir chain hanging off the path tip,
    and one cover edge from the chain's end to the parent's pick.  Leaves in
    `short` get a one-vertex reservoir, which for tau >= 4 forces extraction
    to extend backwards along the spire path.
    """
    comp = butterfly(tau)
    short = set(short)
    edges = [(i, i + 1) for i in range(tau)]
    assignment = {v: VertexSet([v]) for v in range(tau + 1)}
    spires = {}
    nxt = tau + 1
    for u in sorted(comp.leaves()):
        anchor = comp.parent[u]
        xs = list(range(nxt, nxt + tau))
        nxt += tau
        chain_len = 1 if u in short else tau - 1
        chain = list(range(nxt, nxt + chain_len))
        nxt += chain_len
        edges.extend(zip(xs, xs[1:]))
        edges.extend(zip([xs[-1]] + chain, chain))
        edges.append((chain[-1], anchor))
        assignment[u] = VertexSet(xs + chain)
        spires[u] = Spire(tuple(xs), VertexSet([xs[-1]] + chain))
    g = Graph(nxt, edges)
    r = Realization(Nursery(tau, [comp]), assignment, spires, Fraction(1, g.n))
    return g, r


def seven_merge_host(c: int) -> Tuple[int, List[Tuple[int, int]]]:
    """(n, edges) of a deterministic host on which run_trichotomy merges
    seven times.

    Made for the hook at tau = 3, p = 8 and epsilon = 1/12288 under
    CardinalityMass, on n = 12288*c vertices.  Blocks b0..b7 are consecutive
    id ranges of L = 1531*c vertices, the least prefix that reaches
    kappa0 = 1531/12288, and 40*c isolated vertices pad the tail.  Each
    block is a path in id order.  The matchings b0[k]-b1[k], b2[k]-b1[k],
    b4[k]-b3[k] and b6[k]-b5[k] and the fan-outs b1[k]-b3[4(k-3)+r],
    b3[k]-b5[4(k-12)+r] and b5[k]-b7[4(k-12)+r] for r < 4 wire the blocks
    together.  The maximum degree is 8, so for c > 8 no neighbourhood
    reaches epsilon and neither axiom fires.
    """
    size = 1531 * c

    def at(block: int, k: int) -> int:
        return block * size + k

    edges = [(at(b, k), at(b, k + 1)) for b in range(8) for k in range(size - 1)]
    for a, b in ((0, 1), (2, 1), (4, 3), (6, 5)):
        edges.extend((at(a, k), at(b, k)) for k in range(size))
    for a, b, shift in ((1, 3, 3), (3, 5, 12), (5, 7, 12)):
        edges.extend(
            (at(a, k), at(b, 4 * (k - shift) + r))
            for k in range(size)
            for r in range(4)
            if 0 <= 4 * (k - shift) + r < size
        )
    return 12288 * c, edges
