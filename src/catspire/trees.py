"""Target trees and the rooted scaffolding the engine grows toward them.

Two worlds meet here.  The target side classifies an input tree (caterpillar,
caterpillar subdivision) and computes its fit number tau.  The scaffold side
has chrysalises (rooted caterpillars with degree budgets tied to tau),
nurseries (disjoint unions of chrysalises, kept sorted), the potential phi,
and the improvement relation that drives the engine's merge loop.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from .graphs import Graph, is_connected


def _is_tree(g: Graph) -> bool:
    if g.n == 0:
        return False
    return g.edge_count == g.n - 1 and is_connected(g, g.vertices())


def _hub(g: Graph, threshold: int) -> Optional[int]:
    """Fewest vertices on a path of the tree g through every vertex of degree
    >= threshold; None when no path goes through them all.

    Pruning, again and again, every leaf below the threshold leaves the
    least subtree that spans those vertices.  Every path through them all
    contains that subtree, so there is one exactly when the subtree is
    itself a path, and then it is the shortest.
    """
    degree = list(map(len, g.rows))
    hi = {v for v, d in enumerate(degree) if d >= threshold}
    if len(hi) <= 1:
        return len(hi)
    alive = set(range(g.n))
    leaves = [v for v in range(g.n) if degree[v] == 1 and v not in hi]
    while leaves:
        v = leaves.pop()
        alive.remove(v)
        for w in g.rows[v]:
            if w in alive:
                degree[w] -= 1
                if degree[w] == 1 and w not in hi:
                    leaves.append(w)
    if any(degree[v] > 2 for v in alive):
        return None
    return len(alive)


def is_caterpillar_subdivision(t: Graph) -> bool:
    """True iff some path of the tree t contains every vertex of degree >= 3."""
    if not _is_tree(t):
        raise ValueError("input graph is not a tree")
    return _hub(t, 3) is not None


class CaterpillarTree:
    """A target tree with its caterpillar-shape classification flags."""

    __slots__ = ("tree", "is_caterpillar", "is_caterpillar_subdivision")

    def __init__(self, tree: Graph) -> None:
        if not _is_tree(tree):
            raise ValueError("target must be a tree (connected and acyclic)")
        self.tree = tree
        self.is_caterpillar = _hub(tree, 2) is not None
        self.is_caterpillar_subdivision = _hub(tree, 3) is not None

    def __repr__(self) -> str:
        return f"CaterpillarTree(n={self.tree.n}, subdivision={self.is_caterpillar_subdivision})"


def fit_tau(t) -> int:
    """The minimum tau >= 3 fitting the tree t.

    tau fits t when: some path with <= tau vertices contains every vertex of
    degree >= 3; the maximum degree is <= tau; and every path whose internal
    vertices all have degree 2 has <= tau vertices.
    """
    if isinstance(t, Graph):
        t = CaterpillarTree(t)
    if not t.is_caterpillar_subdivision:
        raise ValueError("fit number is defined only for caterpillar subdivisions")
    g = t.tree
    hub = _hub(g, 3)
    degree = list(map(len, g.rows))
    max_degree = max(degree, default=0)

    # longest path all of whose internal vertices have degree exactly 2: from
    # each vertex, follow each neighbour on through degree-2 vertices only
    thread = 1
    for a, row in enumerate(g.rows):
        for b in row:
            prev, v, length = a, b, 2
            while degree[v] == 2:
                x, y = g.rows[v]
                prev, v = v, y if x == prev else x
                length += 1
            thread = max(thread, length)

    return max(3, hub, max_degree, thread)


class Chrysalis:
    """A rooted caterpillar the engine grows, one merge at a time.

    `parent` maps every non-head vertex to its neighbour one step closer to
    the head; the head has no entry.  The spine is derived as the minimal
    head-anchored path containing every vertex of degree >= 2; construction
    raises ValueError when there is no such path.
    """

    __slots__ = ("tau", "head", "parent", "spine")

    def __init__(self, tau: int, head: int, parent: Mapping[int, int]) -> None:
        if tau < 3:
            raise ValueError("chrysalis needs tau >= 3")
        self.tau = tau
        self.head = head
        self.parent = dict(parent)
        if head in self.parent:
            raise ValueError("the head cannot have a parent")
        vs = self.vertex_set()
        for v, p in self.parent.items():
            if p not in vs:
                raise ValueError(f"parent of {v} is not a vertex of the chrysalis")
        for v in self.parent:
            if self.depth(v) < 0:
                raise ValueError(f"vertex {v} does not reach the head")
        self.spine = self._derive_spine()

    def vertex_set(self) -> frozenset:
        return frozenset(self.parent) | {self.head}

    def vertices(self) -> Tuple[int, ...]:
        return tuple(sorted(self.vertex_set()))

    @property
    def size(self) -> int:
        return len(self.parent) + 1

    def children(self, v: int) -> Tuple[int, ...]:
        return tuple(sorted(u for u, p in self.parent.items() if p == v))

    def degree(self, v: int) -> int:
        d = len(self.children(v))
        if v != self.head:
            d += 1
        return d

    def depth(self, v: int) -> int:
        # -1 when the parent walk cycles instead of reaching the head
        d = 0
        seen = set()
        while v != self.head:
            if v in seen:
                return -1
            seen.add(v)
            v = self.parent[v]
            d += 1
        return d

    def leaves(self) -> Tuple[int, ...]:
        """Vertices off the spine.  In a valid chrysalis they all have degree 1."""
        on_spine = set(self.spine)
        return tuple(sorted(v for v in self.vertex_set() if v not in on_spine))

    @property
    def is_butterfly(self) -> bool:
        return len(self.spine) == self.tau + 1

    def _derive_spine(self) -> Tuple[int, ...]:
        branched = [v for v in sorted(self.vertex_set()) if self.degree(v) >= 2]
        if not branched:
            return (self.head,)
        depths = {v: self.depth(v) for v in branched}
        deepest = max(depths.values())
        tips = [v for v in branched if depths[v] == deepest]
        if len(tips) > 1:
            raise ValueError(
                f"spine tip is ambiguous: vertices {tips} share the deepest branch point"
            )
        path = [tips[0]]
        while path[-1] != self.head:
            path.append(self.parent[path[-1]])
        path.reverse()
        if not set(branched).issubset(path):
            raise ValueError("degree->=2 vertices do not lie on one head-anchored path")
        return tuple(path)

    def __repr__(self) -> str:
        return f"Chrysalis(tau={self.tau}, head={self.head}, size={self.size})"


def validate_chrysalis(c: Chrysalis) -> List[str]:
    """All violated chrysalis conditions, empty when valid."""
    problems: List[str] = []
    if len(c.spine) > c.tau + 1:
        problems.append(f"spine has {len(c.spine)} vertices, more than tau+1")
    for v in c.spine[1:]:
        if c.degree(v) != c.tau:
            problems.append(f"spine vertex {v} has degree {c.degree(v)}, not tau")
    head_deg = c.degree(c.head)
    if head_deg > c.tau - 1:
        problems.append(f"head degree {head_deg} exceeds tau-1")
    if len(c.spine) == c.tau + 1 and head_deg != 1:
        problems.append(f"full spine requires head degree 1, found {head_deg}")
    return problems


def butterfly(tau: int) -> Chrysalis:
    """The unique largest tau-chrysalis: tau^2 - tau + 2 vertices.

    Labels: head 0, spine 0..tau in order, then leaves numbered upward
    grouped by spine position ascending (tau-2 per interior spine vertex,
    tau-1 at the far end).
    """
    if tau < 3:
        raise ValueError("butterfly needs tau >= 3")
    parent: Dict[int, int] = {i: i - 1 for i in range(1, tau + 1)}
    nxt = tau + 1
    for k in range(1, tau + 1):
        fan = tau - 2 if k < tau else tau - 1
        for _ in range(fan):
            parent[nxt] = k
            nxt += 1
    return Chrysalis(tau, 0, parent)


class Nursery:
    """A disjoint union of chrysalises, sorted ascending by size.

    Size ties break by creation stamp (earlier first); the engine keeps a
    stamp per component so the order is total and runs are reproducible.
    """

    __slots__ = ("tau", "components", "creations")

    def __init__(
        self,
        tau: int,
        comps: Iterable[Chrysalis],
        creations: Optional[Iterable[int]] = None,
    ) -> None:
        comp_list = list(comps)
        stamps = list(creations) if creations is not None else list(range(len(comp_list)))
        if len(stamps) != len(comp_list):
            raise ValueError("one creation stamp per component required")
        for c in comp_list:
            if c.tau != tau:
                raise ValueError("all components must share the nursery's tau")
        seen: set = set()
        for c in comp_list:
            vs = c.vertex_set()
            if seen & vs:
                raise ValueError("components must have disjoint vertex sets")
            seen |= vs
        order = sorted(range(len(comp_list)), key=lambda i: (comp_list[i].size, stamps[i]))
        self.tau = tau
        self.components = tuple(comp_list[i] for i in order)
        self.creations = tuple(stamps[i] for i in order)

    def vertices(self) -> Tuple[int, ...]:
        out: List[int] = []
        for c in self.components:
            out.extend(c.vertex_set())
        return tuple(sorted(out))

    def heads(self) -> Tuple[int, ...]:
        return tuple(c.head for c in self.components)

    def __len__(self) -> int:
        return len(self.components)

    def __repr__(self) -> str:
        sizes = tuple(c.size for c in self.components)
        return f"Nursery(tau={self.tau}, sizes={sizes})"


def phi(n: Nursery) -> int:
    """Potential sum(2^|V(H)|) over components; exact arbitrary precision."""
    return sum(1 << c.size for c in n.components)


def is_improvement(m: Nursery, n: Nursery) -> bool:
    """True iff m has fewer components than n and no smaller potential."""
    if m.tau != n.tau:
        raise ValueError("nurseries with different tau are not comparable")
    return len(m.components) < len(n.components) and phi(m) >= phi(n)
