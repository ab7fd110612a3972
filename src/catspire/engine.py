"""The certifying trichotomy engine.

Given a graph, a mass, a target caterpillar subdivision, and parameters
(tau, epsilon, p), the engine returns one of five witnesses: a vertex of
mass >= epsilon, a neighbourhood of mass >= epsilon, an anticomplete pair
both of mass >= epsilon, an induced copy of the target, or (only when the
parameters fall short of the proven constants) an honest Stuck report.

The pipeline follows the constructive argument exactly: carve p disjoint
blocks, realize a nursery of p isolated heads, improve it p-1 times while
the kappa schedule decays, and extract the target from a butterfly
realization.  Anticomplete pairs fall out of the two places the argument
leans on the no-anticomplete-pair axiom: big-piece selection and the
connected-cover step inside improve.  Each stage returns either what it
builds or the outcome that ends the run there, an AnticompletePair or a
Stuck, and run_trichotomy verifies or reports that outcome.

Every mass comparison is exact rational arithmetic.  Masses of unions are
always recomputed from the set, never updated incrementally: subadditivity
is an inequality and incremental updates are wrong for masses like the
chromatic one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import or_
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from .graphs import (
    Graph,
    VertexSet,
    components,
    connected_order,
    is_connected,
    mask_of,
    neighbour_mask,
    shortest_path,
)
from .mass import MassProvider
from .oracles import brute_induced_embedding, verify_witness
from .trees import (
    CaterpillarTree,
    Chrysalis,
    Nursery,
    fit_tau,
    is_improvement,
    phi,
    validate_chrysalis,
)
from .witnesses import (
    AnticompletePair,
    HighMassNeighbourhood,
    HighMassVertex,
    InducedCopy,
    Stuck,
    Witness,
    format_rational,
)


class TheoremViolation(RuntimeError):
    """A step the proof guarantees has failed; the run is not trustworthy.

    replay is the document that reproduces the run; the caller that knows
    the instance fills it in.
    """

    replay: Optional[dict] = None


def paper_p(tau: int) -> int:
    """The proven nursery size p = 2^(tau^2)."""
    if tau < 3:
        raise ValueError("tau must be at least 3")
    return 1 << (tau * tau)


# The largest tau whose proven epsilon is built: at 5 its denominator has 2^25 bits.
PAPER_TAU_MAX = 4


def paper_epsilon(tau: int) -> Fraction:
    """The proven constant: the largest feasible epsilon at p = paper_p(tau)."""
    p = paper_p(tau)
    if tau > PAPER_TAU_MAX:
        raise ValueError(f"the proven epsilon at tau={tau} has a 2^{tau * tau}-bit "
                         "denominator; give epsilon and p explicitly")
    return max_feasible_epsilon(p, tau)


def max_feasible_epsilon(p: int, tau: int) -> Fraction:
    return Fraction(1, p * (1 << p) * (tau + 3))


def _feasible(epsilon: Fraction, p: int, tau: int) -> bool:
    """Whether the kappa schedule at p is feasible at epsilon.

    The bound's denominator has more than p bits, so an epsilon whose
    denominator has at most p bits is above it; that test settles every
    oversized p without building the p-bit bound.
    """
    return p < epsilon.denominator.bit_length() and epsilon <= max_feasible_epsilon(p, tau)


@dataclass(frozen=True)
class EngineParams:
    """tau, epsilon, p, with the kappa schedule and the guarantee flag.

    epsilon defaults to paper_epsilon(tau), up to tau = PAPER_TAU_MAX.  p
    defaults to the largest p >= 2 whose schedule is feasible at epsilon, or
    2 when none is, so that an oversized epsilon still runs and can report
    Stuck; at the proven epsilon that is the proven p = 2^(tau^2).
    kappa(i) is computed at the step that reads it: at the proven constants
    each entry carries a p-bit denominator.  kappa decreases in i, so the
    schedule is feasible exactly when kappa(p) >= epsilon, that is epsilon
    is at most 1/(p*2^p*(tau+3)).  Construction does not check that:
    run_trichotomy does, after the axiom scan, because several interesting
    oversized-epsilon runs have no feasible schedule at all yet still
    terminate at the axiom stage.
    """

    tau: int
    epsilon: Optional[Fraction] = None
    p: Optional[int] = None

    def __post_init__(self) -> None:
        if self.tau < 3:
            raise ValueError("tau must be at least 3")
        eps = paper_epsilon(self.tau) if self.epsilon is None else Fraction(self.epsilon)
        object.__setattr__(self, "epsilon", eps)
        if eps <= 0:
            raise ValueError("epsilon must be positive")
        if self.p is None:
            # the least infeasible p >= 3 lies within the denominator's bit length
            first = least_reaching(lambda i: not _feasible(eps, i + 3, self.tau),
                                   eps.denominator.bit_length())
            object.__setattr__(self, "p", first + 2)
        if self.p < 2:
            raise ValueError("p must be at least 2")

    def kappa(self, i: int) -> Fraction:
        """kappa_i = 2^(-i)/p - (tau+2)*epsilon, for i = 0..p."""
        if not 0 <= i <= self.p:
            raise IndexError(f"kappa index {i} outside 0..{self.p}")
        return Fraction(1, self.p << i) - (self.tau + 2) * self.epsilon

    @property
    def guarantee(self) -> bool:
        """p >= 2^(tau^2), the proven p, and the schedule is feasible at p."""
        proven = self.p.bit_length() > self.tau * self.tau
        return proven and _feasible(self.epsilon, self.p, self.tau)


@dataclass(frozen=True)
class Spire:
    """An induced path x_1..x_tau escaping into a connected reservoir z.

    x_tau belongs to z; the earlier path vertices have no neighbours in
    z minus x_tau, so anything anchored in z can only reach the path tip.
    """

    xs: Tuple[int, ...]
    z: VertexSet


def validate_spire(g: Graph, s: Spire) -> List[str]:
    """All violated spire conditions, empty when valid."""
    problems: List[str] = []
    xs = s.xs
    for a in range(len(xs)):
        for b in range(a + 1, len(xs)):
            adjacent = g.has_edge(xs[a], xs[b])
            if b == a + 1 and not adjacent:
                problems.append(f"path break: {xs[a]} and {xs[b]} are not adjacent")
            if b > a + 1 and adjacent:
                problems.append(f"path chord: {xs[a]} and {xs[b]} are adjacent")
    if len(set(xs)) != len(xs):
        problems.append("path vertices are not distinct")
    body = VertexSet(xs[:-1])
    if body.mask & s.z.mask:
        problems.append("z meets x_1..x_(tau-1)")
    if xs[-1] not in s.z:
        problems.append("x_tau is not in z")
    for v in xs[:-1]:
        if any(w in s.z and w != xs[-1] for w in g.rows[v]):
            problems.append(f"{v} has a neighbour in z beyond x_tau")
    if not is_connected(g, s.z):
        problems.append("z is not connected")
    return problems


def least_reaching(reach: Callable[[int], bool], length: int) -> Optional[int]:
    """The least i in range(length) with reach(i), or None when there is none.

    reach must be monotone: once true at some index, true at every larger
    one.  The search is unbounded, exponential and then binary (Bentley &
    Yao, "An almost optimal algorithm for unbounded searching", IPL 1976):
    it probes 0, 1, 3, 7, ... and then bisects, so it calls reach at most
    2*ceil(log2(i + 1)) + 1 times and never past index 2*i.
    """
    lo, hi = -1, 0  # reach is false at every index <= lo
    while True:
        hi = min(hi, length - 1)
        if hi <= lo:
            return None
        if reach(hi):
            break
        lo, hi = hi, 2 * hi + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if reach(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _prefix_unions(span: Callable[[int, int], int]) -> Callable[[int], int]:
    """i -> span(0, i + 1), built from checkpoints, where span(a, b) is the
    union of parts a..b-1 as a mask.

    Every union built is kept as a checkpoint, and the next one adds to the
    nearest checkpoint below it the span of the parts in between.  Under
    least_reaching the checkpoints are its probes, so O(log) masks are alive
    and all the unions together span each part O(1) times, as one linear
    walk does.
    """
    marks = {-1: 0}

    def union(i: int) -> int:
        base = max(k for k in marks if k <= i)
        marks[i] = marks[base] | span(base + 1, i + 1)
        return marks[i]

    return union


def big_piece(
    g: Graph, m: MassProvider, x: VertexSet, epsilon: Fraction
) -> Union[VertexSet, AnticompletePair]:
    """The unique component of mass > mass(x) - epsilon, or an anticomplete pair.

    Components are taken in the canonical order (descending size, ties by
    least member); the least prefix of mass >= epsilon, found by search,
    either splits off a heavy suffix (a pair), ends in a pivot component
    that splits against the rest (a pair), or pins the pivot as the big
    piece.  The whole order is x itself, so some prefix always qualifies.
    """
    if m.mass(x) < 3 * epsilon:
        raise ValueError("big_piece needs mass(x) >= 3*epsilon")
    comps = components(g, x)
    prefix_mask = _prefix_unions(lambda a, b: reduce(or_, (c.mask for c in comps[a:b]), 0))
    idx = least_reaching(
        lambda i: m.mass(VertexSet.from_mask(prefix_mask(i))) >= epsilon, len(comps)
    )
    acc = prefix_mask(idx)
    prefix = VertexSet.from_mask(acc)
    suffix = VertexSet.from_mask(x.mask & ~acc)
    if m.mass(suffix) >= epsilon:
        return AnticompletePair(prefix, suffix)
    pivot = comps[idx]
    rest = VertexSet.from_mask(x.mask & ~pivot.mask)
    if m.mass(rest) >= epsilon:
        return AnticompletePair(pivot, rest)
    return pivot


def grow_spire(
    g: Graph,
    m: MassProvider,
    x: VertexSet,
    tau: int,
    epsilon: Fraction,
    x1_rng=None,
) -> Union[Spire, AnticompletePair, Stuck]:
    """Grow a tau-spire in x, or surface an anticomplete pair while trying.

    x_1 is the least vertex of the first big piece (or a random member when
    x1_rng is given); each x_{i+1} is the least neighbour of x_i inside the
    current big piece that can see the next one.  Under the small-vertex and
    small-neighbourhood axioms the construction cannot get stuck and the
    final reservoir keeps mass >= mass(x) - tau*epsilon; without them it
    can, and returns a spire-blocked Stuck.
    """
    if tau < 3:
        raise ValueError("tau must be at least 3")
    if m.mass(x) < (tau + 2) * epsilon:
        raise ValueError("grow_spire needs mass(x) >= (tau+2)*epsilon")

    z_cur = big_piece(g, m, x, epsilon)
    if isinstance(z_cur, AnticompletePair):
        return z_cur
    if x1_rng is not None:
        x1 = x1_rng.choice(z_cur.members())
    else:
        x1 = z_cur.least()
    xs = [x1]

    rows = g.rows
    for _ in range(tau - 1):
        y = VertexSet.from_mask(x.mask & ~neighbour_mask(g, xs))
        if m.mass(y) < 3 * epsilon:
            return Stuck.make(
                "spire-blocked",
                {
                    "reason": "remaining mass below 3*epsilon",
                    "path_so_far": str(xs),
                    "remaining_mass": format_rational(m.mass(y)),
                },
            )
        z_next = big_piece(g, m, y, epsilon)
        if isinstance(z_next, AnticompletePair):
            return z_next
        # rows ascend, so the first fit is the least
        cand = next(
            (v for v in rows[xs[-1]] if v in z_cur and any(w in z_next for w in rows[v])), None
        )
        if cand is None:
            return Stuck.make(
                "spire-blocked",
                {
                    "reason": "no continuation vertex into the next big piece",
                    "path_so_far": str(xs),
                },
            )
        xs.append(cand)
        z_cur = z_next

    return Spire(tuple(xs), z_cur | VertexSet([xs[-1]]))


def initial_blocks(
    g: Graph, m: MassProvider, kappa0: Fraction, p: int
) -> Union[List[VertexSet], Stuck]:
    """Greedy p disjoint blocks, each the least id-prefix of mass >= kappa0
    among the ids left after the previous block, found by search, or an
    insufficient-blocks Stuck when the ids run out first.

    The caller has already ruled out vertices of mass >= epsilon, so each
    block's mass sits in [kappa0, kappa0 + epsilon) by subadditivity, the
    same minimal-set argument that makes maximal block families large.
    """
    blocks: List[VertexSet] = []
    start = 0

    def block(i: int) -> VertexSet:
        return VertexSet.from_mask(((2 << i) - 1) << start)

    while True:
        end = least_reaching(lambda i: m.mass(block(i)) >= kappa0, g.n - start)
        if end is None:
            break
        blocks.append(block(end))
        start += end + 1
        if len(blocks) == p:
            return blocks
    return Stuck.make(
        "insufficient-blocks",
        {
            "blocks_found": str(len(blocks)),
            "blocks_needed": str(p),
            "kappa0": format_rational(kappa0),
        },
    )


@dataclass
class Realization:
    """Disjoint vertex classes for every nursery vertex, spires for leaves.

    Valid when the six conditions checked by check_realization hold at
    self.kappa.  Treated as immutable; improvements build a new one.
    """

    nursery: Nursery
    assignment: Dict[int, VertexSet]
    spires: Dict[int, Spire]
    kappa: Fraction


def check_realization(g: Graph, m: MassProvider, r: Realization) -> List[str]:
    """Evaluate all six realization conditions literally; list every violation."""
    problems: List[str] = []
    nursery = r.nursery

    vs = nursery.vertices()
    if set(r.assignment) != set(vs):
        problems.append("assignment keys do not match the nursery's vertices")
        return problems
    leaves: List[int] = []
    for comp in nursery.components:
        bad = validate_chrysalis(comp)
        if bad:
            problems.append(f"component with head {comp.head} invalid: {'; '.join(bad)}")
        leaves.extend(comp.leaves())
    if set(r.spires) != set(leaves):
        problems.append("spire keys do not match the nursery's leaves")
        return problems

    heads = set(nursery.heads())
    # 1: pairwise disjoint classes
    union = 0
    for v in vs:
        x = r.assignment[v]
        if union & x.mask:
            for u in vs:
                if u != v and r.assignment[u].mask & x.mask:
                    problems.append(f"classes of {u} and {v} intersect")
                    break
        union |= x.mask

    # 2: each leaf decomposes into its spire
    for v in leaves:
        s = r.spires[v]
        for issue in validate_spire(g, s):
            problems.append(f"spire of leaf {v}: {issue}")
        if (VertexSet(s.xs) | s.z) != r.assignment[v]:
            problems.append(f"class of leaf {v} is not its spire path plus reservoir")

    # neighbour mask per non-head class, shared by conditions 4 and 5: both
    # test only pairs with a non-head side (a child is never a head), and
    # adjacency is symmetric, so such a pair is tested from that side
    reach = {v: neighbour_mask(g, r.assignment[v]) for v in vs if v not in heads}

    # 3: leaf path vertices see nothing outside their own class
    for v in leaves:
        path_reach = neighbour_mask(g, r.spires[v].xs)
        for u in vs:
            if u != v and path_reach & r.assignment[u].mask:
                problems.append(f"spire path of leaf {v} has edges to the class of {u}")

    # 4: class edges only along nursery edges or between heads
    allowed = set()
    for comp in nursery.components:
        for child, par in comp.parent.items():
            allowed.add((min(child, par), max(child, par)))
    for ai, v in enumerate(vs):
        for u in vs[ai + 1 :]:
            if (v, u) in allowed or (v in heads and u in heads):
                continue
            near, far = (u, v) if v in heads else (v, u)
            if reach[near] & r.assignment[far].mask:
                problems.append(f"stray edges between the classes of {v} and {u}")

    # 5: each directed edge child -> parent covers: every parent-class vertex
    # has a neighbour in the child's class
    for comp in nursery.components:
        for child, par in comp.parent.items():
            if r.assignment[par].mask & ~reach[child]:
                problems.append(f"class of {child} does not cover the class of {par}")

    # 6: head masses
    for h in sorted(heads):
        have = m.mass(r.assignment[h])
        if have < r.kappa:
            problems.append(
                f"head {h} has mass {format_rational(have)}, below kappa {format_rational(r.kappa)}"
            )
    return problems


def _first_cover(
    g: Graph,
    m: MassProvider,
    order: Sequence[int],
    shaved: Dict[int, int],
    bar: Fraction,
) -> Tuple[int, Optional[int], int]:
    """The reservoir walk of improve: (steps, j, covered).

    Walking order one vertex at a time, step s takes the neighbours of
    order[:s] out of every shaved class.  steps is the least s at which
    some class keeps mass below bar, j the least such class index, and
    covered the neighbour mask of order[:steps].  When no step gets there,
    j is None and steps covers the whole order.

    The classes only shrink as s grows, so by monotonicity of the mass the
    least s is found by search; j is the least index that hit at that s,
    which is the first hit of the step-by-step walk.  Each union gathers
    the neighbour rows of its span into one mask, so no step builds an
    n-bit mask of its own.
    """
    covered = _prefix_unions(lambda a, b: neighbour_mask(g, order[a:b]))
    indices = sorted(shaved)
    hits: Dict[int, int] = {}

    def some_class_left_light(i: int) -> bool:
        reach = covered(i)
        for j in indices:
            if m.mass(VertexSet.from_mask(shaved[j] & ~reach)) < bar:
                hits[i] = j
                return True
        return False

    last = least_reaching(some_class_left_light, len(order))
    if last is None:
        return len(order), None, covered(len(order) - 1)
    return last + 1, hits[last], covered(last)


def improve(
    g: Graph,
    m: MassProvider,
    r: Realization,
    kappa_next: Fraction,
    epsilon: Fraction,
    x1_rng=None,
) -> Union[Tuple[Nursery, Realization], AnticompletePair, Stuck]:
    """One merge step: components drop by one, potential does not drop.

    Grows a spire in the chosen head class, shaves every other head class
    down to the part that cannot see the spire path, then takes the least
    prefix of the spire reservoir in connected order, found by search
    (_first_cover), whose neighbours nearly cover some shaved class.  The
    covered class becomes the new head class; the spire path and the
    reservoir prefix become the class of the merged vertex.  Failure to
    cover anything is itself an anticomplete pair; a pair or Stuck from the
    spire is returned as it is.  Every head class of a valid realization
    weighs at least kappa > (tau+2)*epsilon, which grow_spire requires.

    Assumes every neighbourhood has mass below epsilon, as run_trichotomy's
    axiom scan ensures; without that a shaved class can start below the bar,
    and the merge can leave a head class below kappa_next.
    """
    nursery = r.nursery
    comps = nursery.components
    k = len(comps)
    tau = nursery.tau
    if k < 2:
        raise ValueError("improve needs at least two components")
    for c in comps:
        if c.is_butterfly:
            raise ValueError("improve must not run on a butterfly component")
    if r.kappa < 2 * kappa_next + (tau + 2) * epsilon:
        raise ValueError(
            "kappa step too steep: need kappa >= 2*kappa_next + (tau+2)*epsilon"
        )

    i = 0
    for idx in range(k):
        if comps[idx].degree(comps[idx].head) == tau - 1:
            i = idx
    heads = [c.head for c in comps]
    grown = grow_spire(g, m, r.assignment[heads[i]], tau, epsilon, x1_rng=x1_rng)
    if not isinstance(grown, Spire):
        return grown

    xs_reach = neighbour_mask(g, grown.xs)
    shaved: Dict[int, int] = {
        j: r.assignment[heads[j]].mask & ~xs_reach for j in range(k) if j != i
    }

    z_order = connected_order(g, grown.z, grown.xs[-1])
    steps, j, covered_reach = _first_cover(g, m, z_order, shaved, kappa_next + epsilon)
    if j is None:
        j = min(shaved)
        return AnticompletePair(grown.z, VertexSet.from_mask(shaved[j] & ~covered_reach))

    prefix = VertexSet(z_order[:steps])

    h_i, h_j = heads[i], heads[j]
    kept = comps[i] if j < i else comps[j]
    dropped = comps[j] if j < i else comps[i]
    merged = Chrysalis(tau, h_j, {**kept.parent, h_i: h_j})
    new_comps: List[Chrysalis] = [merged]
    new_creations: List[int] = [nursery.creations[max(i, j)]]
    for idx in range(k):
        if idx not in (i, j):
            new_comps.append(comps[idx])
            new_creations.append(nursery.creations[idx])
    new_nursery = Nursery(tau, new_comps, new_creations)

    gone = dropped.vertex_set() - {dropped.head}
    assignment = {
        v: s for v, s in r.assignment.items() if v not in gone and v not in set(heads)
    }
    spires = {v: s for v, s in r.spires.items() if v not in gone}
    assignment[h_i] = prefix | VertexSet(grown.xs)
    assignment[h_j] = VertexSet.from_mask(shaved[j] & covered_reach)
    for idx in range(k):
        if idx not in (i, j):
            assignment[heads[idx]] = VertexSet.from_mask(shaved[idx] & ~covered_reach)
    if j > i:
        spires[h_i] = Spire(grown.xs, prefix)

    return new_nursery, Realization(new_nursery, assignment, spires, kappa_next)


def _host_paths(g: Graph, r: Realization, comp: Chrysalis) -> VertexSet:
    """The host: spine picks plus one induced tau-vertex path per leaf."""
    tau = comp.tau
    spine = comp.spine
    picks: Dict[int, int] = {}
    prev = r.assignment[spine[0]].least()
    picks[spine[0]] = prev
    for v in spine[1:]:
        cls = r.assignment[v]
        # rows ascend, so the first member in the class is the least
        prev = next((w for w in g.rows[prev] if w in cls), None)
        if prev is None:
            raise ValueError(
                f"class of spine vertex {v} has no neighbour of the previous pick"
            )
        picks[v] = prev

    host = list(picks.values())
    for u in sorted(comp.leaves()):
        anchor = picks[comp.parent[u]]
        s = r.spires[u]
        # a shortest path from the anchor to the path tip inside the
        # reservoir; shortest paths are induced
        walk = shortest_path(g, anchor, s.xs[-1], s.z.mask | mask_of([anchor]))
        if walk is None:
            raise ValueError(f"leaf {u}: reservoir path from the spine pick is broken")
        if len(walk) >= tau:
            path = walk[:tau]
        else:
            # extend backwards along the spire path, which is anticomplete to
            # everything the walk can touch except its tip
            path = walk + s.xs[-2::-1][: tau - len(walk)]
        host.extend(path)
    return VertexSet(host)


def extract_copy(g: Graph, r: Realization, t: CaterpillarTree) -> Tuple[int, ...]:
    """Pull an induced copy of t out of the first butterfly component of r.

    r must be a valid realization (check_realization finds nothing): every
    condition is per class or per pair of classes, so the butterfly's own
    classes and spires satisfy them on their own, whatever else r holds.
    Builds the host subgraph the existence proof describes (spine picks plus
    an induced tau-vertex path per butterfly leaf) and searches for t inside
    it.  The search cannot fail for a valid realization; if it does, that
    falsifies the theorem and raises TheoremViolation rather than returning.
    """
    comp = next((c for c in r.nursery.components if c.is_butterfly), None)
    if comp is None:
        raise ValueError("extract_copy needs a realization with a butterfly component")
    if r.kappa <= 0:
        raise ValueError("extract_copy needs kappa > 0")
    target = t.tree if isinstance(t, CaterpillarTree) else t
    if fit_tau(t) > comp.tau:
        raise ValueError("tau does not fit the target tree")

    host = _host_paths(g, r, comp)
    mapping = brute_induced_embedding(g, target, within=host)
    if mapping is None:
        raise TheoremViolation(
            f"no induced copy of the target inside the {len(host)}-vertex host; "
            "this contradicts the extraction theorem"
        )
    return mapping


def run_trichotomy(
    g: Graph,
    m: MassProvider,
    t: CaterpillarTree,
    params: EngineParams,
    trace: Optional[List[dict]] = None,
    x1_rng=None,
) -> Witness:
    """The full certified pipeline; every non-Stuck result is verified.

    Stuck is returned only when params.guarantee is false; under the proven
    constants the same condition raises TheoremViolation instead, because
    the proof says it cannot happen.
    """
    if g.n < 1:
        raise ValueError("graph must have at least one vertex")
    if not isinstance(t, CaterpillarTree):
        t = CaterpillarTree(t)
    need = fit_tau(t)
    if params.tau < need:
        raise ValueError(f"tau={params.tau} does not fit the target (needs {need})")
    eps = params.epsilon

    def note(stage: str, **info: object) -> None:
        if trace is not None:
            trace.append({"stage": stage, **{k: str(v) for k, v in info.items()}})

    def finish(w: Witness) -> Witness:
        report = verify_witness(g, m, t, eps, w)
        if not report.ok:
            raise TheoremViolation(
                "witness failed verification: " + "; ".join(report.problems)
            )
        note("verified", variant=type(w).__name__)
        return w

    def stuck(stage: str, diagnostics: Dict[str, object]) -> Witness:
        if params.guarantee:
            raise TheoremViolation(f"engine stuck at {stage} despite guaranteed parameters")
        note("stuck", at=stage)
        return Stuck.make(stage, diagnostics)

    hit = m.axiom_hit(g, eps)
    if hit is not None:
        axiom, v = hit
        note(f"axiom-{axiom}", vertex=v)
        return finish(HighMassVertex(v) if axiom == 1 else HighMassNeighbourhood(v))

    p, tau = params.p, params.tau
    if not _feasible(eps, p, tau):
        if p < eps.denominator.bit_length():
            limit = format_rational(max_feasible_epsilon(p, tau))
        else:
            limit = f"1/({p}*2^{p}*{tau + 3})"
        return stuck(
            "kappa-schedule-infeasible",
            {"epsilon": format_rational(eps), "p": str(p), "max_feasible_epsilon": limit},
        )

    kappa0 = params.kappa(0)
    blocks = initial_blocks(g, m, kappa0, p)
    if isinstance(blocks, Stuck):
        return stuck(blocks.stage, blocks.diag_dict())
    note("blocks", count=len(blocks), kappa0=format_rational(kappa0))

    nursery = Nursery(tau, [Chrysalis(tau, h, {}) for h in range(p)])
    r = Realization(nursery, {h: blocks[h] for h in range(p)}, {}, kappa0)
    bad = check_realization(g, m, r)
    if bad:
        raise TheoremViolation("initial realization invalid: " + "; ".join(bad))

    # each merge removes exactly one of the p components, so step p finds a
    # single component: a butterfly, or a nursery whose potential is too low
    for step in range(1, p + 1):
        comps = r.nursery.components
        if any(comp.is_butterfly for comp in comps):
            note("butterfly", improvements=step - 1)
            return finish(InducedCopy(extract_copy(g, r, t)))
        if step == p:
            break
        outcome = improve(g, m, r, params.kappa(step), eps, x1_rng=x1_rng)
        if isinstance(outcome, Stuck):
            return stuck(outcome.stage, {**outcome.diag_dict(), "improvement": str(step)})
        if isinstance(outcome, AnticompletePair):
            note("anticomplete", improvements=step - 1)
            return finish(outcome)
        old = r.nursery
        nursery, r = outcome
        if not is_improvement(nursery, old):
            raise TheoremViolation("merge did not improve the nursery")
        bad = check_realization(g, m, r)
        if bad:
            raise TheoremViolation(
                f"realization invalid after improvement {step}: " + "; ".join(bad)
            )
        note(
            "improved",
            improvement=step,
            kappa=format_rational(r.kappa),
            components=len(r.nursery.components),
        )

    return stuck(
        "phi-contradiction",
        {
            "components": str(len(comps)),
            "largest_size": str(comps[0].size),
            "phi": str(phi(r.nursery)),
            "floor": str(2 * p),
        },
    )
