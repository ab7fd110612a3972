"""Immutable simple graphs over integer vertex ids, with bitmask adjacency.

Vertex sets are thin wrappers around Python ints used as bitmasks, so the
hot operations (intersection, difference, connectivity floods) are single
big-integer instructions.  Induced subgraphs are always represented as a
(graph, VertexSet) pair and never copied.  bits is the one walk that lists
the members of a mask, and _flood is the one breadth-first walk: components,
is_connected, connected_order and shortest_path all read it.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Tuple

import numpy as np

# Members from which unpacking the mask into a byte per bit beats walking
# its low bits.  The crossover measured 25 to 30 members at every n from
# 512 to 40960: unpacking costs O(n), and so does each low-bit step, which
# copies the n-bit mask.
UNPACK_MIN_MEMBERS = 32


def unpack(mask: int, n: int) -> np.ndarray:
    """The low n bits of a nonnegative mask as a uint8 array, bit i at index i."""
    packed = np.frombuffer(mask.to_bytes((n + 7) // 8, "little"), np.uint8)
    return np.unpackbits(packed, count=n, bitorder="little")


def bits(mask: int) -> List[int]:
    """The set bits of a nonnegative mask, in ascending order."""
    count = mask.bit_count()
    if count == 1:
        # the commonest mask in a flood of a path, or a singleton's mass
        return [mask.bit_length() - 1]
    if count >= UNPACK_MIN_MEMBERS:
        return np.flatnonzero(unpack(mask, mask.bit_length())).tolist()
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class VertexSet:
    """Immutable set of vertex ids backed by an int bitmask.

    Iteration is in ascending id order; every deterministic tie-break in
    the engine derives from that ordering.
    """

    __slots__ = ("mask",)

    def __init__(self, vertices: Iterable[int] = ()) -> None:
        mask = 0
        for v in vertices:
            if v < 0:
                raise ValueError(f"negative vertex id {v}")
            mask |= 1 << v
        self.mask = mask

    @classmethod
    def from_mask(cls, mask: int) -> "VertexSet":
        if mask < 0:
            raise ValueError("negative mask")
        s = cls.__new__(cls)
        s.mask = mask
        return s

    def __contains__(self, v: int) -> bool:
        return v >= 0 and (self.mask >> v) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        return iter(bits(self.mask))

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def __eq__(self, other: object) -> bool:
        return isinstance(other, VertexSet) and self.mask == other.mask

    def __hash__(self) -> int:
        return hash(self.mask)

    def __or__(self, other: "VertexSet") -> "VertexSet":
        return VertexSet.from_mask(self.mask | other.mask)

    def __and__(self, other: "VertexSet") -> "VertexSet":
        return VertexSet.from_mask(self.mask & other.mask)

    def __sub__(self, other: "VertexSet") -> "VertexSet":
        return VertexSet.from_mask(self.mask & ~other.mask)

    def isdisjoint(self, other: "VertexSet") -> bool:
        return self.mask & other.mask == 0

    def issubset(self, other: "VertexSet") -> bool:
        return self.mask & ~other.mask == 0

    def least(self) -> int:
        """Least member id; errors on the empty set."""
        if not self.mask:
            raise ValueError("empty vertex set has no least member")
        return (self.mask & -self.mask).bit_length() - 1

    def members(self) -> Tuple[int, ...]:
        return tuple(bits(self.mask))

    def __repr__(self) -> str:
        return f"VertexSet({{{', '.join(map(str, self))}}})"


class Graph:
    """Undirected simple graph on vertices 0..n-1.

    Adjacency is one int bitmask per vertex, and the degrees are counted
    as the masks are built, so reading one costs no popcount of an n-bit
    mask.  A repeated edge counts once.  Instances are immutable by
    convention: nothing in this package mutates a graph after construction.
    """

    __slots__ = ("n", "_adj", "_degree")

    def __init__(self, n: int, edges: Iterable[Tuple[int, int]] = ()) -> None:
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        adj = [0] * n
        degree = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            row = adj[u]
            grown = row | 1 << v
            if grown != row:
                adj[u] = grown
                adj[v] |= 1 << u
                degree[u] += 1
                degree[v] += 1
        self.n = n
        self._adj = adj
        self._degree = degree

    def adj(self, v: int) -> int:
        """Adjacency bitmask of v (fast path used throughout the engine)."""
        return self._adj[v]

    def degree(self, v: int) -> int:
        return self._degree[v]

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and 0 <= v < self.n and (self._adj[u] >> v) & 1 == 1

    def vertices(self) -> VertexSet:
        return VertexSet.from_mask((1 << self.n) - 1 if self.n else 0)

    def edges(self) -> List[Tuple[int, int]]:
        """All edges as (u, v) with u < v, in ascending order."""
        out = []
        for u in range(self.n):
            out.extend((u, u + 1 + w) for w in bits(self._adj[u] >> (u + 1)))
        return out

    @property
    def edge_count(self) -> int:
        return sum(self._degree) // 2

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self._adj == other._adj

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


def neighbours(g: Graph, v: int) -> VertexSet:
    """The set of neighbours of v."""
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range for n={g.n}")
    return VertexSet.from_mask(g.adj(v))


def neighbour_mask(g: Graph, mask: int) -> int:
    """Mask of every vertex adjacent to some member of `mask`."""
    adj = g._adj
    out = 0
    for v in bits(mask):
        out |= adj[v]
    return out


def _flood(g: Graph, seed: int, allowed: int, layers: Optional[List[List[int]]] = None) -> int:
    """Mask of the connected component of `seed` inside `allowed`.

    When `layers` is given, each breadth-first layer beyond the seed is
    appended to it as a list in ascending id order.
    """
    adj = g._adj
    comp = seed
    layer = bits(seed)
    while layer:
        reach = 0
        for v in layer:
            reach |= adj[v]
        frontier = reach & allowed & ~comp
        comp |= frontier
        layer = bits(frontier)
        if layers is not None:
            layers.append(layer)
    return comp


def shortest_path(g: Graph, a: int, b: int, allowed: int) -> Optional[Tuple[int, ...]]:
    """A shortest a-b path inside the `allowed` mask.

    Walks back from b through the breadth-first layers from a, each step
    taking the least-id neighbour in the layer before, so among shortest
    paths it follows ascending ids layer by layer, as connected_order does.
    Returns the path including both ends, or None when b is unreachable.
    """
    layers = [[a]]
    _flood(g, 1 << a, allowed, layers)
    adj = g._adj
    path = []
    # b alone until it turns up, then the row of the last vertex taken
    want = 1 << b
    for layer in reversed(layers):
        for u in layer:
            if want >> u & 1:
                path.append(u)
                want = adj[u]
                break
    path.reverse()
    return tuple(path) if path else None


def components(g: Graph, x: VertexSet) -> List[VertexSet]:
    """Connected components of the induced subgraph on x.

    Ordered by descending cardinality, ties broken by least member id.
    """
    remaining = x.mask
    pieces = []
    while remaining:
        comp = _flood(g, remaining & -remaining, remaining)
        pieces.append(comp)
        remaining &= ~comp
    # peeling from the least remaining bit makes the stable sort's ties
    # come out in least-member order automatically
    pieces.sort(key=lambda m: -m.bit_count())
    return [VertexSet.from_mask(m) for m in pieces]


def is_connected(g: Graph, x: VertexSet) -> bool:
    """True iff the induced subgraph on x is connected (empty counts as connected)."""
    if not x.mask:
        return True
    low = x.mask & -x.mask
    return _flood(g, low, x.mask) == x.mask


def is_anticomplete(g: Graph, a: VertexSet, b: VertexSet) -> bool:
    """True iff a and b are disjoint and no edge of g joins them."""
    small, other = (a, b) if len(a) <= len(b) else (b, a)
    return not a.mask & b.mask and not neighbour_mask(g, small.mask) & other.mask


def connected_order(g: Graph, z: VertexSet, z1: int) -> List[int]:
    """Order z as z_1, ..., z_n with z_1 = z1 and every prefix connected.

    Deterministic breadth-first order from z1, ties by ascending id.
    Errors if z1 is not in z or the induced subgraph on z is disconnected.
    """
    if z1 not in z:
        raise ValueError(f"start vertex {z1} not in the set")
    layers = [[z1]]
    if _flood(g, 1 << z1, z.mask, layers) != z.mask:
        raise ValueError("induced subgraph is disconnected")
    return [v for layer in layers for v in layer]
