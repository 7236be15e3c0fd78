import itertools
import random
from fractions import Fraction

import pytest

from conftest import fraction_solve
from erlab import constructions, core, lp, search
from erlab.logform import LogLinear


def test_lp_proof_values_exact_and_unique():
    cases = {
        (3, 3, 3): (Fraction(0), Fraction(1, 2)),
        (4, 4, 4): (Fraction(0), Fraction(2, 3)),
        (5, 5, 5): (Fraction(0), Fraction(3, 4)),
        (3, 3, 3, 3): (Fraction(1, 4), Fraction(1, 2), Fraction(0)),
        (4, 4, 4, 4): (Fraction(0), Fraction(8, 9), Fraction(0)),
    }
    for entries, d in cases.items():
        k = core.validate_sequence(entries)
        sol = lp.solve_L(lp.LPInstance(k, lp.recommended_constraints(k)))
        assert sol.d == d, entries
        assert sol.unique, entries


def test_unconstrained_two_colour_gap():
    # without the ({2}, l)-constraint the relaxation overshoots for k > l
    k = core.validate_sequence([5, 3])
    bare = lp.solve_L(lp.LPInstance(k, ()))
    assert bare.d == (Fraction(5, 8),)  # (B/2 with B = 3/4 + 1/2)
    tight = lp.solve_L(lp.LPInstance(k, lp.recommended_constraints(k)))
    assert tight.d == (Fraction(1, 2),)
    assert tight.value < bare.value


def test_lp_value_dominates_random_feasible_points():
    rng = random.Random(17)
    for entries in [(3, 3, 3), (3, 3, 3, 3), (4, 4, 4, 4)]:
        k = core.validate_sequence(entries)
        instance = lp.LPInstance(k, lp.recommended_constraints(k))
        sol = lp.solve_L(instance)
        opt = float(sol.value)
        for _ in range(200):
            # random point scaled into the budget and the extra constraints
            d = [rng.random() for _ in range(k.s - 1)]
            scale = min(
                1.0,
                float(instance.budget) / sum((t + 2) * x for t, x in enumerate(d)),
            )
            d = [x * scale for x in d]
            for con in instance.constraints:
                mass = sum(d[t - 2] for t in con.T)
                if mass > float(con.cap):
                    f = float(con.cap) / mass
                    d = [x * f if (t + 2) in con.T else x for t, x in enumerate(d)]
            import math

            val = sum(x * math.log2(t + 2) for t, x in enumerate(d))
            assert val <= opt + 1e-9


def assert_matches_fraction_reference(instance):
    vertices, d, unique, count = fraction_solve(instance)
    assert lp.enumerate_vertices(instance) == vertices, instance
    sol = lp.solve_L(instance)
    assert (sol.d, sol.unique, sol.vertex_count) == (d, unique, count), instance


def test_integer_vertices_match_the_fraction_reference_on_random_instances():
    rng = random.Random(23)
    for _ in range(600):
        s = rng.randint(2, 5)
        k = core.validate_sequence([rng.randint(3, 7) for _ in range(s)])
        ts = range(2, s + 1)
        constraints = tuple(
            lp.Constraint(frozenset(rng.sample(ts, rng.randint(1, s - 1))), rng.randint(3, 8))
            for _ in range(rng.randint(0, 3))
        )
        assert_matches_fraction_reference(lp.LPInstance(k, constraints))


def test_integer_vertices_match_the_fraction_reference_under_every_multiplicity_set():
    # every nonempty T of {2..s} as a constraint at once, the family a
    # derived constraint set would give, at several caps
    for entries in [(4, 4, 4, 4), (4, 3, 3, 3)]:
        k = core.validate_sequence(entries)
        sets = [frozenset(T) for size in range(1, k.s) for T in itertools.combinations(range(2, k.s + 1), size)]
        for caps in [(3,) * len(sets), (4,) * len(sets), tuple(3 + i % 4 for i in range(len(sets)))]:
            constraints = tuple(lp.Constraint(T, cap) for T, cap in zip(sets, caps))
            assert_matches_fraction_reference(lp.LPInstance(k, constraints))


def test_constraint_validation_rules():
    with pytest.raises(lp.InvalidConstraint):
        lp.Constraint(frozenset({1, 2}), 3)
    with pytest.raises(lp.InvalidConstraint):
        lp.Constraint(frozenset({2}), 2)
    con = lp.Constraint(frozenset({3, 4}), 3)
    assert con.cap == Fraction(1, 2)
    # no pair carries more than s colours, so T beyond s is vacuous
    lp.LPInstance(core.validate_sequence([3, 3, 3, 3]), (con,))
    with pytest.raises(lp.InvalidConstraint, match="vacuous"):
        lp.LPInstance(core.validate_sequence([3, 3, 3]), (con,))


def test_constraint_validity_scan():
    k = core.validate_sequence([3, 3, 3, 3])
    good = lp.Constraint(frozenset({3, 4}), 3)
    valid, counter, decided = lp.constraint_validity_scan(good, k)
    assert valid and counter is None and decided
    # claiming the multiplicity-2 pairs are K_3-free is false already at r=3
    bad = lp.Constraint(frozenset({2, 3, 4}), 3)
    valid, counter, _ = lp.constraint_validity_scan(bad, k)
    assert not valid and counter is not None


def test_constraint_validity_scan_counterexamples_are_pinned():
    # recorded when every r re-enumerated its levels from scratch; the scan
    # now decides on level k' alone and must find the same counterexample
    for entries, T, kprime, pairs in [
        ((3, 3, 3, 3), {2, 3, 4}, 3, {(0, 1): {1, 2}, (0, 2): {1, 2}, (1, 2): {3, 4}}),
        ((4, 4, 4), {2}, 3, {(0, 1): {1, 2}, (0, 2): {1, 2}, (1, 2): {1, 2}}),
        ((3, 3, 3), {2, 3}, 3, {(0, 1): {1, 2}, (0, 2): {1, 3}, (1, 2): {2, 3}}),
        ((5, 4, 3), {2, 3}, 4, {
            (0, 1): {1, 2}, (0, 2): {1, 2}, (1, 2): {1, 2},
            (0, 3): {1, 2}, (1, 3): {1, 2}, (2, 3): {1, 3},
        }),
    ]:
        k = core.validate_sequence(entries)
        con = lp.Constraint(frozenset(T), kprime)
        valid, counter, decided = lp.constraint_validity_scan(con, k)
        assert not valid and decided
        expected = core.ColourPattern(max(max(p) for p in pairs) + 1, pairs)
        assert list(counter.assignment.items()) == list(expected.assignment.items())
    for entries, T, kprime in [((4, 3), {2}, 3), ((4, 4, 3), {3}, 3)]:
        k = core.validate_sequence(entries)
        con = lp.Constraint(frozenset(T), kprime)
        assert lp.constraint_validity_scan(con, k) == (True, None, True)


TABLE_FAMILIES = (
    [(a, b) for a in range(3, 7) for b in range(3, a + 1)]
    + [(a, a, a) for a in range(3, 6)]
    + [(3, 3, 3, 3), (4, 4, 4, 4)]
)


def test_built_in_constraints_of_the_table_families_are_proved():
    proved = 0
    for entries in TABLE_FAMILIES:
        k = core.validate_sequence(entries)
        for con in lp.recommended_constraints(k):
            assert lp.constraint_validity_scan(con, k) == (True, None, True), (entries, con)
            proved += 1
    assert proved == 7


def test_the_scan_refutes_every_constraint_a_construction_breaks():
    # a triple whose mass on T exceeds 1 - 1/(k'-1) holds a K_{k'} in H(T)
    # (Motzkin-Straus), so the scan refutes it on level k'; (4,4,4,4) is
    # checked at k' = 3 only, as its level 4 takes about a second per
    # constraint and its level 5 over a minute
    cases = [(core.validate_sequence(e), constructions.known_optimum(core.validate_sequence(e)))
             for e in TABLE_FAMILIES]
    for entries in [(5, 5, 3), (5, 4, 3), (6, 3, 3)]:
        k = core.validate_sequence(entries)
        optima = [t for t in search.solve_Q2(k, 4).optima if core.weighting_is_exact(t.weighting)]
        assert optima, entries
        cases += [(k, t) for t in optima]
    broken = 0
    for k, triple in cases:
        d = core.q_value(triple).d
        for size in range(1, k.s):
            for T in itertools.combinations(range(2, k.s + 1), size):
                for kprime in range(3, 4 if k.entries == (4, 4, 4, 4) else 7):
                    con = lp.Constraint(frozenset(T), kprime)
                    if sum(d[t - 1] for t in T if t <= len(d)) > con.cap:
                        broken += 1
                        valid, counter, _ = lp.constraint_validity_scan(con, k)
                        assert not valid and counter.r == kprime, (k, T, kprime)
    assert broken == 30


def test_a_scan_the_budget_cuts_proves_nothing(monkeypatch):
    real = search._Budget
    monkeypatch.setattr(search, "_Budget", lambda limit: real(1))
    lp.constraint_validity_scan.cache_clear()
    try:
        k = core.validate_sequence([3, 3, 3, 3])
        (con,) = lp.recommended_constraints(k)
        assert lp.constraint_validity_scan(con, k) == (False, None, False)
        with pytest.raises(lp.InvalidConstraint, match=r"T=\[3, 4\], k'=3 is not proved"):
            lp.sandwich_certificate(k, constructions.known_optimum(k))
    finally:
        lp.constraint_validity_scan.cache_clear()


def test_sandwich_certificates_exact():
    for entries in [(3, 3), (6, 3), (5, 5, 5), (3, 3, 3, 3), (4, 4, 4, 4)]:
        k = core.validate_sequence(entries)
        cert = lp.sandwich_certificate(k, constructions.known_optimum(k))
        assert cert.verdict == "EXACT", entries
        assert cert.lower == cert.upper


def test_sandwich_certificate_reports_gap():
    # feed the (5,3) construction without the tightening constraint
    k = core.validate_sequence([5, 3])
    cert = lp.sandwich_certificate(
        k, constructions.known_optimum(k), lp.LPInstance(k, ())
    )
    assert cert.verdict == "GAP"
    assert cert.upper > cert.lower


def test_sandwich_certificate_refuses_a_constraint_its_construction_breaks():
    # the (3,3,3,3) optimum has d_2 + d_3 = 1/4 + 1/2 > 1/2, so it refutes
    # ({2, 3}, 3) and the LP value under that constraint is no upper bound
    k = core.validate_sequence([3, 3, 3, 3])
    instance = lp.LPInstance(k, (lp.Constraint(frozenset({2, 3}), 3),))
    with pytest.raises(lp.InvalidConstraint, match=r"T=\[2, 3\], k'=3"):
        lp.sandwich_certificate(k, constructions.known_optimum(k), instance)


def test_table_one_values():
    expected = {
        (3, 3): LogLinear(Fraction(1, 2)),
        (4, 4): LogLinear(Fraction(2, 3)),
        (5, 5): LogLinear(Fraction(3, 4)),
        (6, 6): LogLinear(Fraction(4, 5)),
        (6, 4): LogLinear(Fraction(2, 3)),
        (3, 3, 3): LogLinear.log2(3, Fraction(1, 2)),
        (5, 5, 5): LogLinear.log2(3, Fraction(3, 4)),
        (3, 3, 3, 3): LogLinear(Fraction(1, 4)) + LogLinear.log2(3, Fraction(1, 2)),
        (4, 4, 4, 4): LogLinear.log2(3, Fraction(8, 9)),
    }
    for entries, value in expected.items():
        k = core.validate_sequence(entries)
        cert = lp.sandwich_certificate(k, constructions.known_optimum(k))
        assert cert.lower == value, entries
