"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest -v -s tests/test_acceptance.py` to see the summary lines.
"""

import itertools
import math
import random
import time
from fractions import Fraction

from conftest import (
    capacity_member_bruteforce,
    ext_value,
    random_float_simplex,
    random_pattern,
    random_rational_simplex,
    relabel,
    relabel_colours,
    unpruned_graph_classes,
)

from erlab import (
    capacity,
    constructions,
    core,
    extension,
    lp,
    oracle,
    search,
    symmetrise,
    weights,
)
from erlab.graphs import SimpleGraph, turan_graph
from erlab.logform import LogLinear


def _families_two():
    return [(kk, ll) for kk in range(3, 7) for ll in range(3, kk + 1)]


def _all_families():
    return (
        _families_two()
        + [(kk,) * 3 for kk in range(3, 6)]
        + [(3, 3, 3, 3), (4, 4, 4, 4)]
    )


# -- criterion 1: Table-1 sandwich certificates, EXACT, each under 60 s ------


def test_criterion_1_table_certificates():
    expected = {}
    for kk, ll in _families_two():
        expected[(kk, ll)] = LogLinear(1 - Fraction(1, ll - 1))
    for kk in range(3, 6):
        expected[(kk,) * 3] = LogLinear.log2(3, 1 - Fraction(1, kk - 1))
    expected[(3, 3, 3, 3)] = LogLinear(Fraction(1, 4)) + LogLinear.log2(3, Fraction(1, 2))
    expected[(4, 4, 4, 4)] = LogLinear.log2(3, Fraction(8, 9))

    worst = 0.0
    for entries, value in expected.items():
        k = core.validate_sequence(entries)
        start = time.perf_counter()
        cert = lp.sandwich_certificate(k, constructions.known_optimum(k))
        elapsed = time.perf_counter() - start
        worst = max(worst, elapsed)
        assert cert.verdict == "EXACT", entries
        assert cert.lower == value, entries
        assert elapsed < 60, entries
        # the four-triangle row must carry the validated ({3,4},3)-constraint
        if entries == (3, 3, 3, 3):
            assert any(
                con.T == frozenset({3, 4}) and con.kprime == 3
                for con in cert.instance.constraints
            )
            valid, counter, _ = lp.constraint_validity_scan(lp.Constraint(frozenset({3, 4}), 3), k)
            assert valid and counter is None
    print(
        f"\n[criterion 1] PASS: {len(expected)} sandwich certificates EXACT "
        f"(slowest {worst:.2f}s)"
    )


# -- criterion 2: LP optima match the proof values exactly and uniquely ------


def test_criterion_2_lp_proof_values():
    cases = {}
    for kk in range(3, 6):
        cases[(kk,) * 3] = (Fraction(0), 1 - Fraction(1, kk - 1))
    cases[(3, 3, 3, 3)] = (Fraction(1, 4), Fraction(1, 2), Fraction(0))
    cases[(4, 4, 4, 4)] = (Fraction(0), Fraction(8, 9), Fraction(0))
    for entries, d in cases.items():
        k = core.validate_sequence(entries)
        sol = lp.solve_L(lp.LPInstance(k, lp.recommended_constraints(k)))
        assert sol.d == d, entries
        assert sol.unique, entries
    print(f"\n[criterion 2] PASS: {len(cases)} LP optima exact and unique")


# -- criterion 3: extension verdicts + numcheck, <= 10 min total --------------


def test_criterion_3_extension_verdicts():
    start = time.perf_counter()
    strong_families = (
        [(kk, kk) for kk in range(3, 7)]
        + [(kk,) * 3 for kk in range(3, 6)]
        + [(3, 3, 3, 3), (4, 4, 4, 4)]
    )
    for entries in strong_families:
        k = core.validate_sequence(entries)
        t = constructions.known_optimum(k)
        v = extension.check_extension_property([t], k)
        assert v.holds and v.strong_holds, entries
    weak_families = [(kk, ll) for kk in range(4, 7) for ll in range(3, kk)]
    for entries in weak_families:
        k = core.validate_sequence(entries)
        t = constructions.known_optimum(k)
        v = extension.check_extension_property([t], k)
        assert v.holds and not v.strong_holds, entries
    # numcheck certificate for the four recovered families
    for entries in [(6, 6), (5, 5, 5), (3, 3, 3, 3), (4, 4, 4, 4)]:
        k = core.validate_sequence(entries)
        applicable, holds, _ = extension.numcheck_certificate(
            constructions.known_optimum(k), k
        )
        assert applicable and holds, entries
    elapsed = time.perf_counter() - start
    assert elapsed < 600
    print(
        f"\n[criterion 3] PASS: {len(strong_families)} strong / "
        f"{len(weak_families)} holds-only verdicts, numcheck true ({elapsed:.0f}s)"
    )


# -- criterion 4: brute-force ground truth, <= 10 min at n=6 ------------------


def test_criterion_4_bruteforce_kernel():
    start = time.perf_counter()
    k = core.validate_sequence([3, 3])
    assert oracle.count_valid_colourings(turan_graph(2, 6), k) == 512
    res6 = oracle.extremal_search(6, k)
    assert res6.maximum == 512
    assert len(res6.maximisers) == 1
    g = res6.maximisers[0]
    comp = g.complement()
    assert len(g.edges) == 9 and oracle.is_complete_multipartite(g)
    assert res6.all_complete_multipartite
    for n in [4, 5]:
        res = oracle.extremal_search(n, k)
        assert res.all_complete_multipartite, n
    elapsed = time.perf_counter() - start
    assert elapsed < 600
    print(
        f"\n[criterion 4] PASS: F(K_3,3)=512, unique n=6 maximiser, "
        f"complete multipartite at n=4..6 ({elapsed:.0f}s)"
    )


# -- criterion 5: capacity ----------------------------------------------------


def _clique_subsets(g):
    """Independent: every vertex subset that is a clique, by direct edge checks."""
    out = []
    for size in range(1, g.n + 1):
        for sub in itertools.combinations(range(g.n), size):
            if all(g.has_edge(u, v) for u, v in itertools.combinations(sub, 2)):
                out.append(sub)
    return out


def test_criterion_5_capacity():
    start = time.perf_counter()
    from erlab.graphs import complete_graph

    assert capacity.capacity(complete_graph(3), 4).kind == "OnlyOnes"
    assert capacity.capacity(complete_graph(3), 6).contains((1, 2, 2))
    for entries in _all_families():
        k = core.validate_sequence(entries)
        report = capacity.validate_nocap(constructions.known_optimum(k), k)
        assert report["passed"], entries

    # membership vs the subset-sum form of the blow-up clique number, on all
    # (n <= 6, 3 <= k <= 6, l_i <= 3) instances up to graph isomorphism
    checked = 0
    rng = random.Random(606)
    for n in range(2, 7):
        for g in (SimpleGraph(n, edges) for edges in unpruned_graph_classes(n)):
            cliques = _clique_subsets(g)
            omega = max(len(c) for c in cliques)
            caps = {
                kk: capacity.capacity(g, kk) for kk in range(3, 7) if omega < kk
            }
            for vec in itertools.product((1, 2, 3), repeat=n):
                blowup_omega = max(sum(vec[i] for i in sub) for sub in cliques)
                for kk, cap in caps.items():
                    assert cap.contains(vec) == (blowup_omega <= kk - 1), (
                        g.edges,
                        kk,
                        vec,
                    )
                    checked += 1
            # explicit blow-up spot check (the slow literal oracle)
            vec = tuple(rng.randint(1, 3) for _ in range(n))
            for kk in range(3, 7):
                try:
                    cap = capacity.capacity(g, kk)
                except capacity.NotKFree:
                    continue
                assert cap.contains(vec) == capacity_member_bruteforce(
                    g, kk, vec
                )
    elapsed = time.perf_counter() - start
    print(
        f"\n[criterion 5] PASS: examples, validate_nocap on all table optima, "
        f"{checked} membership agreements ({elapsed:.0f}s)"
    )


# -- criterion 6: property suites, 1000 randomised cases each -----------------


def test_criterion_6a_lipschitz():
    rng = random.Random(1001)
    k = core.validate_sequence([3, 3, 3])
    bound_const = 2 * math.log2(k.s)
    done = 0
    while done < 1000:
        r = rng.randint(2, 5)
        p = random_pattern(rng, r, k)
        a = random_float_simplex(rng, r)
        b = random_float_simplex(rng, r)
        qa = core.q_value(core.FeasibleTriple(p, a)).numeric_value
        qb = core.q_value(core.FeasibleTriple(p, b)).numeric_value
        l1 = sum(abs(x - y) for x, y in zip(a, b))
        assert abs(qa - qb) <= bound_const * l1 + 1e-9
        done += 1
    print(f"\n[criterion 6a] PASS: 1000 Lipschitz cases")


def test_criterion_6b_stationarity():
    rng = random.Random(1002)
    ks = [core.validate_sequence([3, 3]), core.validate_sequence([3, 3, 3])]
    done = 0
    while done < 1000:
        k = rng.choice(ks)
        r = rng.randint(2, 4)
        p = random_pattern(rng, r, k, level=1)
        if p is None:
            continue
        opt = weights.optimize_weights(p, k)
        stationary, _ = weights.verify_stationarity(core.FeasibleTriple(p, opt.weighting), 1e-8)
        assert stationary, (p.assignment, opt)
        done += 1
    print(f"\n[criterion 6b] PASS: 1000 stationary optimiser outputs")


def test_criterion_6c_ext_bounded():
    rng = random.Random(1003)
    triples = []
    for entries in [(3, 3), (4, 4), (3, 3, 3), (3, 3, 3, 3)]:
        k = core.validate_sequence(entries)
        triples.append((k, constructions.known_optimum(k)))
    done = 0
    while done < 1000:
        k, t = rng.choice(triples)
        q = core.q_value(t).numeric_value
        subsets = [
            frozenset(cs)
            for size in range(0, k.s + 1)
            for cs in itertools.combinations(range(1, k.s + 1), size)
        ]
        profile = tuple(rng.choice(subsets) for _ in range(t.pattern.r))
        ext_pattern = t.pattern.attach(profile)
        ok, _ = core.is_feasible(ext_pattern, k, 0)
        if not ok:
            continue
        assert ext_value(profile, t.weighting) <= q + 1e-9
        done += 1
    print(f"\n[criterion 6c] PASS: 1000 feasible attachments obey ext <= Q")


def test_criterion_6d_symmetrisation():
    rng = random.Random(1004)
    ks = [core.validate_sequence([3, 3]), core.validate_sequence([3, 3, 3])]
    done = 0
    while done < 1000:
        k = rng.choice(ks)
        r = rng.randint(2, 5)
        p = random_pattern(rng, r, k, level=0)
        if p is None:
            continue
        alpha = random_rational_simplex(rng, r)
        traj = symmetrise.forward_symmetrise(core.FeasibleTriple(p, alpha), k)
        assert traj.monotone
        assert traj.q_final >= traj.q_initial - 1e-12
        if traj.final.r > 1:
            ok, _ = core.is_feasible(traj.final.pattern, k, 2)
            assert ok
        done += 1
    print(f"\n[criterion 6d] PASS: 1000 symmetrisations monotone into level 2")


def test_criterion_6e_capacity_downward_closed():
    rng = random.Random(1005)
    done = 0
    while done < 1000:
        n = rng.randint(2, 5)
        edges = {
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5
        }
        g = SimpleGraph(n, frozenset(edges))
        kk = rng.randint(3, 6)
        try:
            cap = capacity.capacity(g, kk)
        except capacity.NotKFree:
            continue
        vec = tuple(rng.randint(1, 3) for _ in range(n))
        if cap.contains(vec):
            smaller = tuple(max(1, v - rng.randint(0, 2)) for v in vec)
            assert cap.contains(smaller)
        done += 1
    print(f"\n[criterion 6e] PASS: 1000 downward-closure cases")


def test_criterion_6f_canonical_invariance():
    rng = random.Random(1006)
    k = core.validate_sequence([3, 3, 3])
    done = 0
    while done < 1000:
        r = rng.randint(2, 5)
        p = random_pattern(rng, r, k)
        code = search.canonical_code(p, k)
        vperm = list(range(r))
        rng.shuffle(vperm)
        cperm = dict(zip([1, 2, 3], rng.sample([1, 2, 3], 3)))
        assert search.canonical_code(relabel_colours(relabel(p, vperm), cperm), k) == code
        done += 1
    print(f"\n[criterion 6f] PASS: 1000 canonical-code relabellings")


def test_criterion_6g_blowup_counts():
    rng = random.Random(1007)
    candidates = []
    for entries in [(3, 3), (4, 3), (3, 3, 3)]:
        k = core.validate_sequence(entries)
        candidates.append((k, constructions.known_optimum(k)))
    done = 0
    while done < 1000:
        k, t = rng.choice(candidates)
        n = rng.randint(t.pattern.r, 5 if k.s == 3 else 6)
        sizes = oracle.round_weights(t.weighting, n)
        lower = oracle.pattern_colouring_count(t, n)
        g = capacity.blowup(
            SimpleGraph(
                t.pattern.r,
                frozenset(p for p in t.pattern.pairs() if t.pattern.assignment[p]),
            ),
            sizes,
        )
        # within-part pairs of the blow-up carry no colours, so the blow-up
        # graph drops them: colourable edges are exactly the cross pairs
        cross = SimpleGraph(
            g.n,
            frozenset(
                e
                for e in g.edges
                if _part_of(e[0], sizes) != _part_of(e[1], sizes)
            ),
        )
        count = oracle.count_valid_colourings(cross, k)
        assert count >= lower, (k, n, count, lower)
        done += 1
    print(f"\n[criterion 6g] PASS: 1000 blow-up count dominations")


def _part_of(v, sizes):
    total = 0
    for i, s in enumerate(sizes):
        total += s
        if v < total:
            return i
    raise AssertionError


# -- criterion 7: search exhaustiveness ---------------------------------------


def test_criterion_7_search_exhaustiveness():
    start = time.perf_counter()
    k2 = core.validate_sequence([3, 3])
    for r in range(3, 6):
        reps, done = search.enumerate_patterns(r, k2)
        assert reps == [] and done, r
    runs = [
        ((3, 3), 5),
        ((4, 3), 6),
        ((4, 4), 6),
        ((3, 3, 3), 6),
        ((3, 3, 3, 3), 4),
    ]
    for entries, rmax in runs:
        k = core.validate_sequence(entries)
        t0 = time.perf_counter()
        res = search.solve_Q2(k, rmax)
        assert all(res.exhaustive.values()), entries
        assert time.perf_counter() - t0 < 600, entries
    # the searches recover the certified optima
    res = search.solve_Q2(core.validate_sequence([3, 3, 3, 3]), 4)
    assert abs(res.best_numeric - (0.25 + 0.5 * math.log2(3))) < 1e-9
    elapsed = time.perf_counter() - start
    print(
        f"\n[criterion 7] PASS: empty levels frozen, {len(runs)} exhaustive runs "
        f"({elapsed:.0f}s)"
    )
