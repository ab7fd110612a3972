"""Acceptance sweep: one test and one printed PASS/FAIL line per guarantee.

Each test exercises a shipped behavior end to end on seeded inputs, so a
green run here means the package as installed does what the README claims.
The deep-run check at n = 32768 is expected to fail: a 3-regular vertex has
open neighbourhood mass 3/32768, which is above 1/12288, so the axiom stage
fires before any structural witness can be built at that size.  The
companion test at n = 40960 sits below the threshold and shows the intended
behavior.  See the README for the full accounting.
"""

import random
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations

import networkx as nx

from catspire.engine import (
    EngineParams,
    Realization,
    Spire,
    big_piece,
    check_realization,
    extract_copy,
    grow_spire,
    improve,
    paper_epsilon,
    run_trichotomy,
    validate_spire,
)
from catspire.graphs import Graph, VertexSet, is_connected, neighbours
from catspire.harness import GenSpec, generate, run_batch
from catspire.mass import (
    CardinalityMass,
    ChromaticMass,
    WeightedMass,
    verify_mass_axioms,
)
from catspire.oracles import (
    brute_induced_embedding,
    exact_chromatic_number,
    verify_witness,
)
from catspire.trees import (
    CaterpillarTree,
    Chrysalis,
    Nursery,
    fit_tau,
    is_caterpillar_subdivision,
    is_improvement,
)
from catspire.witnesses import (
    AnticompletePair,
    HighMassNeighbourhood,
    HighMassVertex,
    InducedCopy,
    Stuck,
)

from helpers import (
    butterfly_host,
    cycle_graph,
    disjoint_union,
    hook_graph,
    path_graph,
    petersen_graph,
    seven_merge_host,
    star_graph,
)


def _report(capsys, name, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"[acceptance] {name}: {verdict} ({detail})")
    assert ok, f"{name}: {detail}"


def _all_trees(k):
    if k == 1:
        return [Graph(1)]
    if k == 2:
        return [Graph(2, [(0, 1)])]
    return [Graph(k, list(t.edges())) for t in nx.nonisomorphic_trees(k)]


def test_trivial_regime_always_yields_vertex_zero(capsys):
    """At the proven epsilon every sampled graph exits at the vertex axiom."""
    hook = CaterpillarTree(hook_graph())
    params = EngineParams(3)
    assert params.guarantee and params.p == 512

    rng = random.Random(41)
    worst = 0.0
    for _ in range(50):
        n = rng.randint(2, 10000)
        started = time.perf_counter()
        if n <= 2000:
            spec = GenSpec("gnp", n=n, probability=Fraction(2, n), seed=rng.randrange(1 << 32))
        else:
            n += n % 2
            spec = GenSpec("regular", n=n, degree=3, seed=rng.randrange(1 << 32))
        g = generate(spec)
        m = CardinalityMass(g.n)
        w = run_trichotomy(g, m, hook, params)
        elapsed = time.perf_counter() - started
        worst = max(worst, elapsed)
        assert w == HighMassVertex(0), (n, w)
        assert verify_witness(g, m, hook, params.epsilon, w).verdict == "pass"
        assert elapsed < 1.0, (n, elapsed)
    _report(capsys, "trivial-regime", True, f"50 graphs up to n=10000, worst {worst:.3f}s")


def test_generated_batches_all_verify(capsys):
    """A seeded grid of models, targets, and epsilons; every witness verifies.

    run_batch re-verifies each non-Stuck witness internally and raises on the
    first rejection, so finishing the grid is the soundness statement.
    """
    targets = [path_graph(4), path_graph(5), hook_graph(), star_graph(3)]
    specs = [
        GenSpec("gnp", n=350, probability=Fraction(3, 350), seed=11),
        GenSpec("regular", n=2048, degree=3, seed=22),
        GenSpec("high_girth", n=250, probability=Fraction(1, 125), girth=5, seed=33),
    ]
    grid = [Fraction(1, 10), Fraction(1, 100), Fraction(1, 1000), Fraction(1, 12288)]

    started = time.perf_counter()
    totals = Counter()
    runs = 0
    for tg in targets:
        t = CaterpillarTree(tg)
        params_tau = fit_tau(t)
        for eps in grid:
            report = run_batch(specs, t, EngineParams(params_tau, eps, 2), trials=32)
            runs += report.trials
            totals.update(report.counts)
    elapsed = time.perf_counter() - started

    stuck = totals.get("stuck", 0)
    assert runs == 512 and runs >= 500
    assert runs - stuck > 0
    assert elapsed < 600.0
    _report(
        capsys,
        "batch-soundness",
        True,
        f"{runs} runs, {runs - stuck} witnesses verified, {stuck} stuck, {elapsed:.1f}s",
    )


def test_small_host_sweep_agrees_with_brute_oracle(capsys):
    """Every graph on 6 vertices, then 200 random 7-vertex graphs.

    Any induced-copy witness must be confirmed by the brute embedder; every
    other non-Stuck witness must pass the independent verifier.  Hosts this
    small cannot fit the eight nonempty classes a butterfly realization
    needs, so the copy arm stays vacuous here by arithmetic, not by luck.
    """
    targets = [path_graph(3), path_graph(4), star_graph(3)]
    trees = [CaterpillarTree(tg) for tg in targets]
    params_by_tau = {
        3: EngineParams(3, Fraction(1, 12), 2),
        4: EngineParams(4, Fraction(1, 12), 2),
    }

    pairs6 = list(combinations(range(6), 2))
    m6 = CardinalityMass(6)
    checked = stuck = copies = 0
    for mask in range(1 << 15):
        g = Graph(6, [pairs6[b] for b in range(15) if mask >> b & 1])
        for t in trees:
            params = params_by_tau[fit_tau(t)]
            w = run_trichotomy(g, m6, t, params)
            if isinstance(w, Stuck):
                stuck += 1
                continue
            if isinstance(w, InducedCopy):
                copies += 1
                assert brute_induced_embedding(g, t.tree) is not None
            assert verify_witness(g, m6, t, params.epsilon, w).verdict == "pass"
            checked += 1

    # oversized epsilon drives the 7-vertex sample into the later stages
    pairs7 = list(combinations(range(7), 2))
    m7 = CardinalityMass(7)
    rng = random.Random(1234)
    params_by_tau7 = {
        3: EngineParams(3, Fraction(1, 4), 2),
        4: EngineParams(4, Fraction(1, 4), 2),
    }
    for _ in range(200):
        mask = rng.getrandbits(21)
        g = Graph(7, [pairs7[b] for b in range(21) if mask >> b & 1])
        for t in trees:
            params = params_by_tau7[fit_tau(t)]
            w = run_trichotomy(g, m7, t, params)
            if isinstance(w, Stuck):
                stuck += 1
                continue
            if isinstance(w, InducedCopy):
                copies += 1
                assert brute_induced_embedding(g, t.tree) is not None
            assert verify_witness(g, m7, t, params.epsilon, w).verdict == "pass"
            checked += 1

    _report(
        capsys,
        "oracle-agreement",
        True,
        f"{checked} witnesses verified, {copies} induced copies, {stuck} stuck",
    )


def _random_host(rng):
    n = rng.randint(30, 160)
    kind = rng.randrange(3)
    if kind == 0:
        g = generate(GenSpec("gnp", n=n, probability=Fraction(rng.randint(1, 4), n),
                             seed=rng.randrange(1 << 32)))
    elif kind == 1:
        n += n % 2
        g = generate(GenSpec("regular", n=n, degree=3, seed=rng.randrange(1 << 32)))
    else:
        g = generate(GenSpec("high_girth", n=n, probability=Fraction(2, n),
                             girth=5, seed=rng.randrange(1 << 32)))
    if rng.randrange(2):
        m = CardinalityMass(g.n)
    else:
        # the first two weights stay positive so the total cannot vanish
        m = WeightedMass([Fraction(rng.randint(0, 8) + (1 if v < 2 else 0))
                          for v in range(g.n)])
    return g, m


def _axioms_hold(g, m, eps):
    return all(m.mass(VertexSet([v])) < eps and m.mass(neighbours(g, v)) < eps
               for v in range(g.n))


def _blob_instance(rng, cover):
    """Disjoint path blobs as singleton head classes, optionally wired so the
    second blob gets covered one vertex per step of the reservoir walk."""
    tau = rng.choice((3, 4))
    a = rng.randint(60, 90)
    b = rng.randint(45, a - 12)
    sizes = [a, b] + [rng.randint(b, a) for _ in range(rng.randint(0, 2))]
    edges, offsets, off = [], [], 0
    for s in sizes:
        offsets.append(off)
        edges += [(off + i, off + i + 1) for i in range(s - 1)]
        off += s
    if cover:
        edges += [(offsets[1] + t, tau - 1 + t) for t in range(b)]
    g = Graph(off, edges)
    m = CardinalityMass(off)
    comps = tuple(Chrysalis(tau, offsets[q], {}) for q in range(len(sizes)))
    nursery = Nursery(tau, comps, tuple(range(len(sizes))))
    assignment = {offsets[q]: VertexSet(range(offsets[q], offsets[q] + sizes[q]))
                  for q in range(len(sizes))}
    r = Realization(nursery, assignment, {}, Fraction(min(sizes), off))
    eps = Fraction(4, off)
    return g, m, r, (r.kappa - (tau + 2) * eps) / 2, eps


def _chaos_instance(rng):
    tau = rng.choice((3, 4))
    k = rng.randint(2, 4)
    edges, offsets, off = [], [], 0
    for _ in range(k):
        s = rng.randint(30, 70)
        offsets.append(off)
        sub = generate(GenSpec("gnp", n=s, probability=Fraction(rng.randint(1, 3), s),
                               seed=rng.randrange(1 << 32)))
        edges += [(off + u, off + v) for u, v in sub.edges()]
        off += s
    extra = [(rng.randrange(off), rng.randrange(off)) for _ in range(rng.randint(0, 12))]
    edges += [e for e in extra if e[0] != e[1]]
    g = Graph(off, edges)
    m = CardinalityMass(off)
    comps = tuple(Chrysalis(tau, offsets[q], {}) for q in range(k))
    nursery = Nursery(tau, comps, tuple(range(k)))
    assignment = {}
    for q in range(k):
        end = offsets[q + 1] if q + 1 < k else off
        assignment[offsets[q]] = VertexSet(range(offsets[q], end))
    kappa = Fraction(min(len(assignment[h]) for h in assignment), off)
    r = Realization(nursery, assignment, {}, kappa)
    eps = kappa / rng.randint(8, 20)
    kappa_next = (kappa - (tau + 2) * eps) / 2
    if kappa_next < eps:
        return None
    return g, m, r, kappa_next, eps


def test_unit_step_invariants_on_randomized_inputs(capsys):
    rng = random.Random(99)

    piece_kinds = Counter()
    for _ in range(1000):
        g, m = _random_host(rng)
        x = VertexSet([v for v in range(g.n) if rng.random() < 0.8])
        total = m.mass(x)
        if total == 0:
            piece_kinds["skipped"] += 1
            continue
        eps = total / rng.randint(3, 24)
        out = big_piece(g, m, x, eps)
        if isinstance(out, VertexSet):
            piece_kinds["piece"] += 1
            y = out
            assert y.issubset(x) and is_connected(g, y)
            assert m.mass(y) > total - eps
            rest = x.mask & ~y.mask
            assert all(not (g.adj(v) & rest) for v in y)
        else:
            piece_kinds["pair"] += 1
            assert out.a.issubset(x) and out.b.issubset(x)
            assert out.a.mask & out.b.mask == 0
            assert m.mass(out.a) >= eps and m.mass(out.b) >= eps
            assert all(not (g.adj(v) & out.b.mask) for v in out.a)
    assert piece_kinds["piece"] and piece_kinds["pair"]

    spire_kinds = Counter()
    for _ in range(1000):
        g, m = _random_host(rng)
        tau = rng.choice((3, 4))
        x = VertexSet([v for v in range(g.n) if rng.random() < 0.9])
        total = m.mass(x)
        if total == 0:
            spire_kinds["skipped"] += 1
            continue
        eps = total / ((tau + 2) + rng.randint(0, 30))
        ax = _axioms_hold(g, m, eps)
        out = grow_spire(g, m, x, tau, eps, x1_rng=rng if rng.randrange(2) else None)
        if isinstance(out, Stuck):
            spire_kinds["stuck"] += 1
            assert not ax, "grow_spire got stuck with both axioms holding"
            continue
        if isinstance(out, Spire):
            spire_kinds["spire"] += 1
            assert len(out.xs) == tau
            assert validate_spire(g, out) == []
            assert VertexSet(out.xs).issubset(x) and out.z.issubset(x)
            if ax:
                assert m.mass(out.z) >= total - tau * eps
        else:
            spire_kinds["pair"] += 1
            assert m.mass(out.a) >= eps and m.mass(out.b) >= eps
            assert all(not (g.adj(v) & out.b.mask) for v in out.a)
    assert spire_kinds["spire"] and spire_kinds["pair"]

    improve_kinds = Counter()
    calls = 0
    while calls < 1000:
        flavor = calls % 3
        inst = (_blob_instance(rng, True) if flavor == 0
                else _blob_instance(rng, False) if flavor == 1
                else _chaos_instance(rng))
        if inst is None:
            continue
        g, m, r, kappa_next, eps = inst
        assert check_realization(g, m, r) == []
        ax = _axioms_hold(g, m, eps)
        before = r.nursery
        calls += 1
        out = improve(g, m, r, kappa_next, eps, x1_rng=rng if flavor == 2 else None)
        if isinstance(out, Stuck):
            improve_kinds["stuck"] += 1
            assert not ax, "improve got stuck with both axioms holding"
            continue
        if isinstance(out, AnticompletePair):
            improve_kinds["pair"] += 1
            assert out.a and out.b
            assert out.a.mask & out.b.mask == 0
            assert all(not (g.adj(v) & out.b.mask) for v in out.a)
            if ax:
                assert m.mass(out.a) >= eps and m.mass(out.b) >= eps
        else:
            improve_kinds["merge"] += 1
            nursery, r2 = out
            assert len(nursery) == len(before) - 1
            assert is_improvement(nursery, before)
            assert r2.kappa == kappa_next and r2.nursery is nursery
            if ax:
                assert check_realization(g, m, r2) == []
    assert improve_kinds["merge"] and improve_kinds["pair"]

    _report(
        capsys,
        "unit-invariants",
        True,
        f"big_piece {dict(piece_kinds)}, grow_spire {dict(spire_kinds)}, "
        f"improve {dict(improve_kinds)}",
    )


def test_extraction_is_edge_exact_for_every_fitting_tree(capsys):
    """All trees on up to 10 vertices that fit tau 3 or 4, pulled out of the
    stock butterfly realizations and compared edge by edge."""
    hosts = {3: butterfly_host(3), 4: butterfly_host(4)}
    done = Counter()
    for k in range(1, 11):
        for g in _all_trees(k):
            if not is_caterpillar_subdivision(g):
                continue
            f = fit_tau(g)
            if f > 4:
                continue
            tau = 3 if f <= 3 else 4
            host, r = hosts[tau]
            t = CaterpillarTree(g)
            image = extract_copy(host, r, t)
            assert len(set(image)) == g.n
            for u in range(g.n):
                for v in range(u + 1, g.n):
                    assert host.has_edge(image[u], image[v]) == g.has_edge(u, v), (
                        k, g.edges(), u, v)
            rep = verify_witness(host, CardinalityMass(host.n), t, r.kappa,
                                 InducedCopy(image))
            assert rep.verdict == "pass", rep.problems
            done[tau] += 1
    assert done[3] == 24 and done[4] == 86
    _report(capsys, "butterfly-extraction", True,
            f"{done[3]} trees at tau=3, {done[4]} at tau=4, all edge-exact")


def _brute_fit(g):
    """Smallest tau >= 3 passing the three fit conditions, or None.

    Checks every simple path explicitly: one must cover the high-degree
    vertices within tau vertices, the maximum degree must stay within tau,
    and no path with all-degree-2 interior may exceed tau vertices.
    """
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from(g.edges())
    paths = [(a,) for a in range(g.n)]
    for a, b in combinations(range(g.n), 2):
        paths.extend(tuple(p) for p in nx.all_simple_paths(nxg, a, b))
    hi = [v for v in range(g.n) if g.degree(v) >= 3]
    max_degree = max((g.degree(v) for v in range(g.n)), default=0)
    for tau in range(3, g.n + 4):
        cond_cover = any(len(p) <= tau and set(hi).issubset(p) for p in paths)
        cond_thread = all(len(p) <= tau for p in paths
                          if all(g.degree(v) == 2 for v in p[1:-1]))
        if cond_cover and max_degree <= tau and cond_thread:
            return tau
    return None


def test_fit_tau_matches_exhaustive_path_checker(capsys):
    checked = 0
    for k in range(1, 10):
        for g in _all_trees(k):
            checked += 1
            brute = _brute_fit(g)
            if is_caterpillar_subdivision(g):
                assert brute == fit_tau(g), (k, g.edges(), brute, fit_tau(g))
            else:
                assert brute is None, (k, g.edges(), brute)
    assert checked == 95
    _report(capsys, "fit-tau-equivalence", True, f"{checked} trees, exact agreement")


def test_mass_axioms_exhaustively_and_sampled(capsys):
    small = generate(GenSpec("gnp", n=10, probability=Fraction(3, 10), seed=5))
    exhaustive = 0
    for g in (petersen_graph(), small):
        for m in (CardinalityMass(g.n),
                  WeightedMass([Fraction((3 * v) % 7, 9) for v in range(g.n)]),
                  ChromaticMass(g)):
            rep = verify_mass_axioms(m, g)
            assert rep.ok, (type(m).__name__, rep.failure)
            exhaustive += rep.checks

    big = generate(GenSpec("regular", n=200, degree=3, seed=17))
    sampled = 0
    for m in (CardinalityMass(200),
              WeightedMass([Fraction((7 * v) % 13 + (1 if v < 3 else 0), 4)
                            for v in range(200)])):
        rep = verify_mass_axioms(m, big, budget=10000, seed=3)
        assert rep.ok, (type(m).__name__, rep.failure)
        assert rep.checks >= 20000
        sampled += rep.checks
    _report(capsys, "mass-axioms", True,
            f"{exhaustive} exhaustive checks on n=10, {sampled} sampled on n=200")


def test_chromatic_pairs_carry_their_colour_bound(capsys):
    """Anticomplete pairs under chromatic mass keep chi(G[A]) >= eps * chi(G).

    On hosts this small the singleton mass 1/chi(G) already clears any
    feasible epsilon, so the engine exits at the vertex axiom and never
    builds a pair; the sweep proves that, and a hand-built pair on two
    disjoint C_5 blocks shows the bound itself is exact.
    """
    hook = CaterpillarTree(hook_graph())
    eps = Fraction(1, 48)
    pairs_seen = 0
    for g in (cycle_graph(5), cycle_graph(7), petersen_graph(),
              disjoint_union(cycle_graph(5), cycle_graph(5)), star_graph(5)):
        m = ChromaticMass(g)
        w = run_trichotomy(g, m, hook, EngineParams(3, eps, 2))
        if isinstance(w, AnticompletePair):
            pairs_seen += 1
            chi_a = exact_chromatic_number(g, within=w.a)
            assert Fraction(chi_a) >= eps * m.chi_total
        else:
            assert isinstance(w, HighMassVertex), w

    g = disjoint_union(cycle_graph(5), cycle_graph(5))
    m = ChromaticMass(g)
    eps_demo = Fraction(1, 3)
    pair = AnticompletePair(VertexSet(range(5)), VertexSet(range(5, 10)))
    rep = verify_witness(g, m, hook, eps_demo, pair)
    assert rep.verdict == "pass", rep.problems
    chi_a = exact_chromatic_number(g, within=pair.a)
    assert m.chi_total == 3 and chi_a == 3
    assert Fraction(chi_a) >= eps_demo * m.chi_total == 1
    _report(capsys, "chromatic-bound", True,
            f"{pairs_seen} engine pairs (vertex axiom preempts the rest), "
            "hand-built pair meets chi(G[A]) >= eps*chi(G) exactly")


def test_deep_run_yields_structural_witness(capsys):
    """A 3-regular host at n = 32768 with epsilon 1/12288 and p = 8.

    Open neighbourhood mass is 3/32768, which is above 1/12288, so the run
    exits at the neighbourhood axiom; the structural-witness requirement
    below cannot be met at this size and the check fails by arithmetic.
    """
    hook = CaterpillarTree(hook_graph())
    params = EngineParams(3, Fraction(1, 12288), 8)
    started = time.perf_counter()
    g = generate(GenSpec("regular", n=32768, degree=3, seed=7))
    m = CardinalityMass(g.n)
    w = run_trichotomy(g, m, hook, params)
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    assert not isinstance(w, Stuck)
    assert verify_witness(g, m, hook, params.epsilon, w).verdict == "pass"
    structural = not isinstance(w, (HighMassVertex, HighMassNeighbourhood))
    _report(
        capsys,
        "deep-run",
        structural,
        f"{type(w).__name__} in {elapsed:.1f}s; open neighbourhood mass "
        "3/32768 exceeds 1/12288, so the axiom stage preempts every "
        "structural witness at this size",
    )


def test_deep_run_companion_clears_the_axiom_stage(capsys):
    """Same parameters at n = 40960, where 3/40960 < 1/12288 < 1/10240."""
    hook = CaterpillarTree(hook_graph())
    params = EngineParams(3, Fraction(1, 12288), 8)
    started = time.perf_counter()
    g = generate(GenSpec("regular", n=40960, degree=3, seed=7))
    m = CardinalityMass(g.n)
    w = run_trichotomy(g, m, hook, params)
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    assert isinstance(w, AnticompletePair), w
    assert verify_witness(g, m, hook, params.epsilon, w).verdict == "pass"
    _report(capsys, "deep-run-companion", True,
            f"AnticompletePair in {elapsed:.1f}s at n=40960")


def test_seven_merges_end_in_a_verified_copy(capsys):
    """The generated host that drives every merge of improve at tau = 3,
    p = 8, and the butterfly extraction, through run_trichotomy."""
    hook = CaterpillarTree(hook_graph())
    params = EngineParams(3, Fraction(1, 12288), 8)
    started = time.perf_counter()
    n, edges = seven_merge_host(9)
    g = Graph(n, edges)
    m = CardinalityMass(n)
    trace = []
    w = run_trichotomy(g, m, hook, params, trace=trace)
    elapsed = time.perf_counter() - started
    assert n == 110_592
    assert w == InducedCopy((5, 6, 13785, 27564, 27563, 41352))
    assert [t["stage"] for t in trace] == (
        ["blocks"] + ["improved"] * 7 + ["butterfly", "verified"]
    )
    assert [t["components"] for t in trace[1:8]] == [str(k) for k in range(7, 0, -1)]
    assert verify_witness(g, m, hook, params.epsilon, w).verdict == "pass"

    # the image checked from the generator's own edge list
    image = set(w.mapping)
    induced = nx.Graph()
    induced.add_nodes_from(image)
    induced.add_edges_from(e for e in edges if e[0] in image and e[1] in image)
    target = nx.Graph(hook_graph().edges())
    assert nx.is_isomorphic(induced, target)
    _report(capsys, "seven-merges", True,
            f"InducedCopy after 7 merges in {elapsed:.1f}s at n={n}")


def test_kappa_schedule_recurrence_is_exact(capsys):
    """kappa_(i-1) = 2*kappa_i + (tau+2)*eps at every index, and kappa_p = eps.

    Walked in full for the proven constants at tau 3 and 4 and for the small
    demo schedule.  The tau = 4 walk carries denominators near 2^65536 and
    takes a few minutes; it is exact arithmetic, not a bound.
    """
    cases = [
        (512, paper_epsilon(3), 3),
        (8, Fraction(1, 12288), 3),
        (1 << 16, paper_epsilon(4), 4),
    ]
    walked = 0
    for p, eps, tau in cases:
        params = EngineParams(tau, eps, p)
        step = (tau + 2) * eps
        spots = {0, 1, p // 2, p - 1, p}
        prev = params.kappa(0)
        assert prev == Fraction(1, p) - step
        for i in range(1, p + 1):
            cur = params.kappa(i)
            assert prev == 2 * cur + step, (p, tau, i)
            if i in spots:
                assert cur == Fraction(1, p << i) - step, (p, tau, i)
            prev = cur
            walked += 1
        assert params.kappa(p) == eps
    demo = EngineParams(3, Fraction(1, 12288), 8)
    assert demo.kappa(0) == Fraction(1531, 12288) and demo.kappa(8) == Fraction(1, 12288)
    _report(capsys, "schedule-constants", True,
            f"{walked} recurrence steps exact across three schedules")
