"""Independent brute-force ground truth: induced embeddings, best anticomplete
pairs, exact chromatic numbers, and the witness verifier.

These are the referees.  Of the package they use only the witness classes
and, from catspire.graphs, Graph (n, rows, has_edge), VertexSet, bits,
neighbours and neighbour_mask; the reference test
tests/test_graphs.py::test_bits_matches_a_per_bit_scan pins bits, the one
member walk, against a plain per-bit scan.  verify_witness checks pairs and
mappings in its own loops over Graph.n, Graph.has_edge and Graph.rows, so
it shares no code with the engine's neighbour_mask, is_anticomplete and
floods: it lists a side's members with bits, and only its neighbourhood
mass check calls neighbours.  All searches are deterministic and return
lexicographic extremes so their outputs can be frozen into tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Set, Tuple

from .graphs import Graph, VertexSet, bits, neighbour_mask, neighbours
from .witnesses import (
    AnticompletePair,
    HighMassNeighbourhood,
    HighMassVertex,
    InducedCopy,
    Stuck,
    Witness,
)

NODE_LIMIT = 10**6
DEFAULT_CHROMATIC_LIMIT = 64


class NodeLimitExceeded(RuntimeError):
    """The backtracking search ran out of its node budget (an error, not 'absent')."""


def brute_induced_embedding(
    g: Graph, t: Graph, within: Optional[VertexSet] = None
) -> Optional[Tuple[int, ...]]:
    """Lexicographically least induced embedding of t into g, by t's vertex order.

    Returns the images of t's vertices in order, or None when there is no
    embedding.  Candidates are tried in ascending id order, optionally
    restricted to the `within` set.  A node is one attempted (target vertex,
    candidate) assignment; exceeding NODE_LIMIT raises NodeLimitExceeded.
    """
    k = t.n
    allowed = within.mask if within is not None else (1 << g.n) - 1
    if k > allowed.bit_count():
        return None
    if k == 0:
        return ()

    host = bits(allowed)
    inside = set(host)
    rows = g.rows
    earlier = [[j for j in t.rows[i] if j < i] for i in range(k)]
    images: List[int] = []
    used: Set[int] = set()
    nodes = 0

    def candidates(i: int) -> List[int]:
        # required adjacency pattern against already-placed vertices; when
        # it is not empty, every candidate is in the ascending row of one
        # required image, so that row is scanned instead of the host
        req = {images[j] for j in earlier[i]}
        pool = rows[images[earlier[i][0]]] if req else host
        return [c for c in pool if c in inside and c not in used
                and used.intersection(rows[c]) == req]

    def search(i: int) -> bool:
        nonlocal nodes
        if i == k:
            return True
        for c in candidates(i):
            nodes += 1
            if nodes > NODE_LIMIT:
                raise NodeLimitExceeded(f"exceeded {NODE_LIMIT} search nodes")
            images.append(c)
            used.add(c)
            if search(i + 1):
                return True
            used.remove(c)
            images.pop()
        return False

    return tuple(images) if search(0) else None


def brute_best_anticomplete(g: Graph) -> Tuple[VertexSet, VertexSet]:
    """Best anticomplete pair on a small graph (n <= 16), exhaustively.

    Maximizes min(|a|, |b|), ties by max |a| + |b|, ties by lexicographically
    least (members(a), members(b)) with the pair ordered so a <= b.  Returns
    (empty, empty) when no nonempty anticomplete pair exists.

    For any a, the inclusion-maximal partner is V minus the closed
    neighbourhood of a; enumerating a over all subsets therefore covers every
    pair that can win under the size criteria.
    """
    n = g.n
    if n > 16:
        raise ValueError(f"exhaustive anticomplete search limited to n <= 16, got {n}")
    full = (1 << n) - 1
    best_size = None
    best_pair = None
    for a_mask in range(1, full + 1):
        b_mask = full & ~(a_mask | neighbour_mask(g, bits(a_mask)))
        if not b_mask:
            continue
        sa, sb = a_mask.bit_count(), b_mask.bit_count()
        size_key = (min(sa, sb), sa + sb)
        if best_size is not None and size_key < best_size:
            continue
        pair = tuple(sorted((VertexSet.from_mask(a_mask).members(),
                             VertexSet.from_mask(b_mask).members())))
        if best_size is None or size_key > best_size or pair < best_pair:
            best_size, best_pair = size_key, pair
    if best_pair is None:
        return (VertexSet(), VertexSet())
    return (VertexSet(best_pair[0]), VertexSet(best_pair[1]))


def exact_chromatic_number(g: Graph, within: Optional[VertexSet] = None) -> int:
    """Exact chromatic number by branch and bound with saturation ordering.

    Refuses more than DEFAULT_CHROMATIC_LIMIT vertices.  A greedy clique
    gives the lower bound.  The search's first descent takes the least free
    colour at every step, which is greedy DSATUR, so it finds the first
    upper bound itself.  `within` colors an induced subgraph without
    copying it.
    """
    mask = within.mask if within is not None else (1 << g.n) - 1
    verts = bits(mask)
    k = len(verts)
    if k > DEFAULT_CHROMATIC_LIMIT:
        raise ValueError(f"exact coloring limited to {DEFAULT_CHROMATIC_LIMIT} vertices, got {k}")
    if k == 0:
        return 0
    idx = {v: i for i, v in enumerate(verts)}
    # local adjacency over positions 0..k-1
    adj = [0] * k
    for i, v in enumerate(verts):
        for w in g.rows[v]:
            if w in idx:
                adj[i] |= 1 << idx[w]
    deg = [a.bit_count() for a in adj]

    full = (1 << k) - 1

    # greedy clique lower bound: extend by max degree inside the candidate set
    cand = full
    clique = 0
    while cand:
        pick, pick_deg = -1, -1
        for i in bits(cand):
            d = (adj[i] & cand).bit_count()
            if d > pick_deg:
                pick, pick_deg = i, d
        clique += 1
        cand &= adj[pick]
    lower = clique

    color = [-1] * k

    def taken_colours(i: int, colored_mask: int) -> int:
        # bit c is set when some coloured neighbour of i has colour c
        taken = 0
        for j in bits(adj[i] & colored_mask):
            taken |= 1 << color[j]
        return taken

    def dsatur_pick(colored_mask: int) -> int:
        best_i, best_key = -1, None
        for i in bits(full & ~colored_mask):
            key = (taken_colours(i, colored_mask).bit_count(), deg[i], -i)
            if best_key is None or key > best_key:
                best_i, best_key = i, key
        return best_i

    best = k + 1

    def solve(colored_mask: int, used: int) -> None:
        nonlocal best
        if used >= best:
            return
        if colored_mask == full:
            best = used
            return
        i = dsatur_pick(colored_mask)
        taken = taken_colours(i, colored_mask)
        top = min(used + 1, best - 1)
        for c in range(top):
            if (taken >> c) & 1:
                continue
            color[i] = c
            solve(colored_mask | (1 << i), max(used, c + 1))
            color[i] = -1
            if best == lower:
                return

    solve(0, 0)
    return best


@dataclass(frozen=True)
class VerificationReport:
    verdict: str  # "pass", "fail", or "unverified"
    problems: Tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.verdict == "pass"


def verify_witness(g: Graph, m, t, epsilon: Fraction, w: Witness) -> VerificationReport:
    """Independently check a witness against the graph, mass, and target tree.

    All mass comparisons are >= epsilon (equality passes).  Stuck is never a
    certificate and reports 'unverified' with its diagnostics echoed.
    """
    problems: List[str] = []
    if isinstance(w, HighMassVertex):
        v = w.vertex
        if not 0 <= v < g.n:
            problems.append(f"vertex {v} out of range")
        elif m.mass(VertexSet([v])) < epsilon:
            problems.append(f"mass of vertex {v} is below epsilon")
    elif isinstance(w, HighMassNeighbourhood):
        v = w.vertex
        if not 0 <= v < g.n:
            problems.append(f"vertex {v} out of range")
        elif m.mass(neighbours(g, v)) < epsilon:
            problems.append(f"neighbourhood mass of vertex {v} is below epsilon")
    elif isinstance(w, AnticompletePair):
        a, b = w.a.members(), w.b.members()
        stray = sorted({v for v in a + b if v >= g.n})
        if not a or not b:
            problems.append("pair sides must be nonempty")
        if stray:
            # the graph and the mass are only defined on 0..n-1
            problems.extend(f"pair vertex {v} out of range" for v in stray)
        else:
            small, large = (a, b) if len(a) <= len(b) else (b, a)
            far = set(large)
            if not far.isdisjoint(small):
                problems.append("pair sides intersect")
            elif any(u in far for v in small for u in g.rows[v]):
                problems.append("an edge joins the two sides")
            if w.a and m.mass(w.a) < epsilon:
                problems.append("mass of side a is below epsilon")
            if w.b and m.mass(w.b) < epsilon:
                problems.append("mass of side b is below epsilon")
    elif isinstance(w, InducedCopy):
        tg = t.tree if hasattr(t, "tree") else t
        mapping = w.mapping
        if len(mapping) != tg.n:
            problems.append(f"mapping covers {len(mapping)} vertices, target has {tg.n}")
        elif len(set(mapping)) != len(mapping):
            problems.append("mapping is not injective")
        elif any(not 0 <= x < g.n for x in mapping):
            problems.append("mapping image out of range")
        else:
            for i in range(tg.n):
                for j in range(i + 1, tg.n):
                    want = tg.has_edge(i, j)
                    got = g.has_edge(mapping[i], mapping[j])
                    if want != got:
                        kind = "missing" if want else "extra"
                        problems.append(
                            f"{kind} edge between images of target vertices {i} and {j}"
                        )
    elif isinstance(w, Stuck):
        detail = "; ".join(f"{k}={v}" for k, v in w.diagnostics)
        return VerificationReport("unverified", (f"stuck at {w.stage}" + (f": {detail}" if detail else ""),))
    else:
        problems.append(f"unknown witness type {type(w).__name__}")
    return VerificationReport("pass" if not problems else "fail", tuple(problems))
