"""Output checks computed apart from the catspire package.

Every function here takes plain Python data (ints, lists, sets, edge lists)
and returns a list of problems, empty when the output is right.  Nothing is
imported from catspire: graphs are rebuilt with networkx or with adjacency
lists made here from the edge list, and masses are exact integer weight
sums compared by cross-multiplication.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Sequence, Set, Tuple

import networkx as nx

Edge = Tuple[int, int]


def mask_members(mask: int) -> List[int]:
    """Ascending bit positions of a nonnegative int bitmask."""
    bits = bin(mask)[:1:-1]
    return [i for i, c in enumerate(bits) if c == "1"]


def adjacency_lists(n: int, edges: Iterable[Edge]) -> List[List[int]]:
    adj: List[List[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def reaches(weight: int, total: int, bar: Fraction) -> bool:
    """weight / total >= bar, exactly."""
    return weight * bar.denominator >= bar.numerator * total


def regular_host_problems(n: int, edges: Sequence[Edge], degree: int) -> List[str]:
    """The host is simple and degree-regular."""
    problems: List[str] = []
    seen: Set[Edge] = set()
    deg = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            problems.append(f"edge ({u}, {v}) out of range")
            continue
        if u == v:
            problems.append(f"self-loop at {u}")
            continue
        key = (u, v) if u < v else (v, u)
        if key in seen:
            problems.append(f"repeated edge {key}")
        seen.add(key)
        deg[u] += 1
        deg[v] += 1
    off = [v for v in range(n) if deg[v] != degree]
    if off:
        problems.append(f"{len(off)} vertices without degree {degree}, first {off[0]}")
    return problems


def axiom_problems(
    adj: Sequence[Sequence[int]], weights: Sequence[int], eps: Fraction
) -> List[str]:
    """No vertex and no open neighbourhood reaches eps of the total weight."""
    total = sum(weights)
    problems: List[str] = []
    for v, nbrs in enumerate(adj):
        if reaches(weights[v], total, eps):
            problems.append(f"vertex {v} reaches epsilon")
            break
        if reaches(sum(weights[u] for u in nbrs), total, eps):
            problems.append(f"neighbourhood of {v} reaches epsilon")
            break
    return problems


def pair_problems(
    edges: Iterable[Edge],
    a: Sequence[int],
    b: Sequence[int],
    weights: Sequence[int],
    eps: Fraction,
) -> List[str]:
    """Both sides nonempty and disjoint, no edge between them, each of mass >= eps."""
    problems: List[str] = []
    sa, sb = set(a), set(b)
    if not sa or not sb:
        problems.append("a side of the pair is empty")
    if sa & sb:
        problems.append("the sides of the pair intersect")
    both = sa | sb
    h = nx.Graph()
    h.add_nodes_from(both)
    h.add_edges_from(e for e in edges if e[0] in both and e[1] in both)
    crossing = next(iter(nx.edge_boundary(h, sa - sb, sb - sa)), None)
    if crossing is not None:
        problems.append(f"edge {crossing} joins the sides of the pair")
    total = sum(weights)
    for name, side in (("a", sa), ("b", sb)):
        if not reaches(sum(weights[v] for v in side), total, eps):
            problems.append(f"side {name} has mass below epsilon")
    return problems


def image_problems(
    edges: Iterable[Edge], image: Sequence[int], target_edges: Sequence[Edge], target_n: int
) -> List[str]:
    """The image lists distinct vertices that induce a copy of the target."""
    if len(image) != target_n:
        return [f"image has {len(image)} vertices, target has {target_n}"]
    if len(set(image)) != len(image):
        return ["image repeats a vertex"]
    chosen = set(image)
    induced = nx.Graph()
    induced.add_nodes_from(chosen)
    induced.add_edges_from(e for e in edges if e[0] in chosen and e[1] in chosen)
    target = nx.Graph()
    target.add_nodes_from(range(target_n))
    target.add_edges_from(target_edges)
    if not nx.is_isomorphic(induced, target):
        return ["the image does not induce a copy of the target"]
    return []


def merge_problems(
    adj: Sequence[Sequence[int]],
    weights: Sequence[int],
    components_before: int,
    components_after: int,
    classes: Dict[int, Sequence[int]],
    heads: Sequence[int],
    merged: int,
    merged_head: int,
    kappa_next: Fraction,
) -> List[str]:
    """One merge step: one fewer component, disjoint classes, heavy heads,
    and the merged vertex's class covering its head's class."""
    problems: List[str] = []
    if components_after != components_before - 1:
        problems.append(
            f"{components_after} components after the merge, expected {components_before - 1}"
        )
    owner: Dict[int, int] = {}
    for v, cls in classes.items():
        for x in cls:
            if x in owner:
                problems.append(f"classes of {owner[x]} and {v} overlap at {x}")
                break
            owner[x] = v
    total = sum(weights)
    for h in heads:
        if not reaches(sum(weights[x] for x in classes[h]), total, kappa_next):
            problems.append(f"head class of {h} has mass below kappa'")
    inside = set(classes[merged])
    for x in classes[merged_head]:
        if not any(y in inside for y in adj[x]):
            problems.append(
                f"vertex {x} of head {merged_head} has no neighbour in the merged class"
            )
            break
    return problems


def batch_problems(
    code: int,
    doc: dict,
    trials: int,
    eps: Fraction,
    max_degree_of: Dict[int, Tuple[int, int]],
) -> List[str]:
    """Exit code 0, nothing stuck, counts summing to the trials, and the
    neighbourhood exit exactly on the instances whose maximum degree is
    at least eps * n.  max_degree_of maps a trial to (n, maximum degree)."""
    if code != 0:
        return [f"batch exited with code {code}"]
    problems: List[str] = []
    counts = doc.get("counts", {})
    if sum(counts.values()) != trials:
        problems.append(f"counts sum to {sum(counts.values())}, not {trials}")
    if counts.get("stuck", 0):
        problems.append(f"{counts['stuck']} trials are stuck")
    results = doc.get("results", [])
    if len(results) != trials:
        problems.append(f"{len(results)} results for {trials} trials")
    for r in results:
        n, top = max_degree_of[r["trial"]]
        expect = top * eps.denominator >= eps.numerator * n
        if (r["variant"] == "high-mass-neighbourhood") != expect:
            problems.append(
                f"trial {r['trial']} is {r['variant']} with maximum degree {top} on n={n}"
            )
        if r["variant"] == "stuck":
            problems.append(f"trial {r['trial']} is stuck")
    return problems
