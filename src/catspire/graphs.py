"""Immutable sparse simple graphs over integer vertex ids.

A Graph stores each vertex's neighbours as an ascending tuple of ids, its
row, so it holds O(n + m) words; it is built from edge pairs or a numpy
edge array, by one numpy sort from SORT_MIN_EDGES edges on.  Vertex sets
are thin wrappers around Python ints used as bitmasks, so set algebra
(intersection, difference) is one big-integer instruction.  Induced
subgraphs are always represented as a (graph, VertexSet) pair and never
copied.  bits is the one walk that lists the members of a mask, mask_of the
one builder of a mask from ids, and _flood the one breadth-first walk:
components, is_connected, connected_order and shortest_path all read it.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

# Members from which numpy beats a Python loop, both when listing the set
# bits of a mask and when building a mask from ids.  Listing crossed over at
# 25 to 30 members at every n from 512 to 40960: unpacking costs O(n), and so
# does each low-bit step, which copies the n-bit mask.  Building crossed over
# near 30 members at n = 40960 and 110592, and above 64 at n = 512.
UNPACK_MIN_MEMBERS = 32

# Edges from which one numpy sort builds a Graph's rows faster than adding
# the edges one at a time: the two crossed over between 64 and 128 edges on
# paths and random graphs of m + 1 vertices.
SORT_MIN_EDGES = 64


def unpack(mask: int, n: int) -> np.ndarray:
    """The low n bits of a nonnegative mask as a uint8 array, bit i at index i."""
    packed = np.frombuffer(mask.to_bytes((n + 7) // 8, "little"), np.uint8)
    return np.unpackbits(packed, count=n, bitorder="little")


def bits(mask: int) -> List[int]:
    """The set bits of a nonnegative mask, in ascending order."""
    if mask.bit_count() >= UNPACK_MIN_MEMBERS:
        return np.flatnonzero(unpack(mask, mask.bit_length())).tolist()
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def mask_of(ids: Sequence[int]) -> int:
    """The mask whose set bits are the nonnegative ids; repeats count once."""
    if len(ids) < UNPACK_MIN_MEMBERS:
        mask = 0
        for v in ids:
            mask |= 1 << v
        return mask
    at = np.fromiter(ids, np.int64, len(ids))
    flags = np.zeros(at.max() + 1, np.uint8)
    flags[at] = 1
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


class VertexSet:
    """Immutable set of vertex ids backed by an int bitmask.

    Iteration is in ascending id order; every deterministic tie-break in
    the engine derives from that ordering.
    """

    __slots__ = ("mask",)

    def __init__(self, vertices: Iterable[int] = ()) -> None:
        ids = list(vertices)
        for v in ids:
            if v < 0:
                raise ValueError(f"negative vertex id {v}")
        self.mask = mask_of(ids)

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


def _bad_edge(n: int, u: int, v: int) -> ValueError:
    if not (0 <= u < n and 0 <= v < n):
        return ValueError(f"edge ({u}, {v}) out of range for n={n}")
    return ValueError(f"self-loop at vertex {u}")


def _rows_by_loop(n: int, edges: Sequence[Sequence[int]]) -> Tuple[Tuple[int, ...], ...]:
    """Graph rows from edge pairs taken one at a time."""
    seen: dict = {}
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise _bad_edge(n, u, v)
        seen.setdefault(u, set()).add(v)
        seen.setdefault(v, set()).add(u)
    rows: List[Tuple[int, ...]] = [()] * n
    for v, row in seen.items():
        rows[v] = tuple(sorted(row))
    return tuple(rows)


def _rows_by_sort(
    n: int, edges: Union[Sequence[Sequence[int]], np.ndarray]
) -> Tuple[Tuple[int, ...], ...]:
    """Graph rows from edge pairs or an (m, 2) array, by one numpy sort."""
    if isinstance(edges, np.ndarray):
        flat = edges.astype(np.int64, copy=False)
    else:
        flat = np.fromiter(chain.from_iterable(edges), np.int64)
        if flat.size != 2 * len(edges):
            raise ValueError("every edge must be a (u, v) pair")
    pairs = flat.reshape(-1, 2)
    u, v = pairs[:, 0], pairs[:, 1]
    bad = (u < 0) | (u >= n) | (v < 0) | (v >= n) | (u == v)
    if bad.any():
        raise _bad_edge(n, *(int(x) for x in pairs[np.argmax(bad)]))
    # each edge in both orientations as the key src*n + dst: one sort
    # orders them by source, then by neighbour, with repeats side by side
    keys = np.concatenate((u * n + v, v * n + u))
    keys.sort()
    first = np.ones(keys.size, bool)
    first[1:] = keys[1:] != keys[:-1]
    src, dst = np.divmod(keys[first], n)
    ends = np.cumsum(np.bincount(src, minlength=n)).tolist()
    ids = dst.tolist()
    return tuple([tuple(ids[a:b]) for a, b in zip([0] + ends, ends)])


class Graph:
    """Undirected simple graph on vertices 0..n-1.

    rows[v] is the ascending tuple of v's neighbours, and rows is a tuple
    of n rows, so the graph holds O(n + m) words.  edges may be (u, v)
    pairs or an integer array of shape (m, 2); a repeated edge counts
    once, in either orientation.  adj(v) builds v's neighbour mask on
    demand.  Instances are immutable: nothing in this package rebinds n or
    rows after construction.
    """

    __slots__ = ("n", "rows")

    def __init__(
        self, n: int, edges: Union[Iterable[Tuple[int, int]], np.ndarray] = ()
    ) -> None:
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        if not isinstance(edges, np.ndarray):
            edges = list(edges)
        elif edges.size and (edges.shape[1:] != (2,) or edges.dtype.kind not in "iu"):
            raise ValueError(
                f"an edge array must be integers of shape (m, 2), not {edges.dtype} {edges.shape}"
            )
        elif len(edges) < SORT_MIN_EDGES:
            edges = edges.tolist()
        self.n = n
        self.rows: Tuple[Tuple[int, ...], ...] = (
            _rows_by_sort(n, edges) if len(edges) >= SORT_MIN_EDGES else _rows_by_loop(n, edges)
        )

    def adj(self, v: int) -> int:
        """Neighbour mask of v, built from its row on each call.

        The engine reads rows; neighbours, the tests and the benchmark
        tracer's adjacency_bytes call this.
        """
        return mask_of(self.rows[v])

    def degree(self, v: int) -> int:
        return len(self.rows[v])

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and 0 <= v < self.n and v in self.rows[u]

    def vertices(self) -> VertexSet:
        return VertexSet.from_mask((1 << self.n) - 1 if self.n else 0)

    def edges(self) -> List[Tuple[int, int]]:
        """All edges as (u, v) with u < v, in ascending order."""
        return [(u, w) for u, row in enumerate(self.rows) for w in row if w > u]

    @property
    def edge_count(self) -> int:
        return sum(map(len, self.rows)) // 2

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.rows == other.rows

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


def neighbours(g: Graph, v: int) -> VertexSet:
    """The set of neighbours of v."""
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range for n={g.n}")
    return VertexSet.from_mask(g.adj(v))


def neighbour_mask(g: Graph, vertices: Iterable[int]) -> int:
    """Mask of every vertex adjacent to some vertex of `vertices`."""
    rows = g.rows
    return mask_of([w for v in vertices for w in rows[v]])


def _marks(g: Graph, mask: int) -> bytearray:
    """One byte per vertex of g: 1 for the members of mask, else 0."""
    if mask >> g.n:
        raise ValueError(f"vertex set reaches beyond n={g.n}")
    return bytearray(unpack(mask, g.n))


def _flood(g: Graph, seed: int, free: bytearray) -> List[List[int]]:
    """The breadth-first layers of seed's component among the vertices
    marked in free, seed's own layer first and each in ascending id order.

    Every vertex reached, seed included, is unmarked in free, so floods
    from several seeds can share one array.
    """
    rows = g.rows
    free[seed] = 0
    layer = [seed]
    layers = []
    while layer:
        layers.append(layer)
        nxt = []
        for v in layer:
            for w in rows[v]:
                if free[w]:
                    free[w] = 0
                    nxt.append(w)
        nxt.sort()
        layer = nxt
    return layers


def shortest_path(g: Graph, a: int, b: int, allowed: int) -> Optional[Tuple[int, ...]]:
    """A shortest a-b path inside the `allowed` mask.

    Walks back from b through the breadth-first layers from a, each step
    taking the least-id neighbour in the layer before, so among shortest
    paths it follows ascending ids layer by layer, as connected_order does.
    Returns the path including both ends, or None when b is unreachable.
    """
    rows = g.rows
    path = []
    # b alone until it turns up, then the row of the last vertex taken
    want: Sequence[int] = (b,)
    for layer in reversed(_flood(g, a, _marks(g, allowed))):
        for u in layer:
            if u in want:
                path.append(u)
                want = rows[u]
                break
    path.reverse()
    return tuple(path) if path else None


def components(g: Graph, x: VertexSet) -> List[VertexSet]:
    """Connected components of the induced subgraph on x.

    Ordered by descending cardinality, ties broken by least member id.
    """
    free = _marks(g, x.mask)
    pieces = []
    for v in bits(x.mask):
        if free[v]:
            pieces.append([w for layer in _flood(g, v, free) for w in layer])
    # seeds ascend, so the stable sort leaves ties in least-member order
    pieces.sort(key=len, reverse=True)
    return [VertexSet.from_mask(mask_of(p)) for p in pieces]


def is_connected(g: Graph, x: VertexSet) -> bool:
    """True iff the induced subgraph on x is connected (empty counts as connected)."""
    if not x.mask:
        return True
    return sum(map(len, _flood(g, x.least(), _marks(g, x.mask)))) == len(x)


def is_anticomplete(g: Graph, a: VertexSet, b: VertexSet) -> bool:
    """True iff a and b are disjoint and no edge of g joins them."""
    small, other = (a, b) if len(a) <= len(b) else (b, a)
    return not a.mask & b.mask and not neighbour_mask(g, small) & other.mask


def connected_order(g: Graph, z: VertexSet, z1: int) -> List[int]:
    """Order z as z_1, ..., z_n with z_1 = z1 and every prefix connected.

    Deterministic breadth-first order from z1, ties by ascending id.
    Errors if z1 is not in z or the induced subgraph on z is disconnected.
    """
    if z1 not in z:
        raise ValueError(f"start vertex {z1} not in the set")
    order = [v for layer in _flood(g, z1, _marks(g, z.mask)) for v in layer]
    if len(order) != len(z):
        raise ValueError("induced subgraph is disconnected")
    return order
