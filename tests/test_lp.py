import random
from fractions import Fraction

import pytest

from erlab import constructions, core, lp
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


def test_constraint_validation_rules():
    with pytest.raises(lp.InvalidConstraint):
        lp.Constraint(frozenset({1, 2}), 3)
    with pytest.raises(lp.InvalidConstraint):
        lp.Constraint(frozenset({2}), 2)
    con = lp.Constraint(frozenset({3, 4}), 3)
    assert con.cap == Fraction(1, 2)


def test_constraint_validity_scan():
    k = core.validate_sequence([3, 3, 3, 3])
    good = lp.Constraint(frozenset({3, 4}), 3)
    valid, counter, exhaustive = lp.constraint_validity_scan(good, k, 4)
    assert valid and counter is None and exhaustive
    # claiming the multiplicity-2 pairs are K_3-free is false already at r=3
    bad = lp.Constraint(frozenset({2, 3, 4}), 3)
    valid, counter, _ = lp.constraint_validity_scan(bad, k, 4)
    assert not valid and counter is not None


def test_constraint_validity_scan_counterexamples_are_pinned():
    # recorded when every r re-enumerated its levels from scratch; the scan
    # now walks each level once and must find the same first counterexample
    for entries, T, kprime, r_max, pairs in [
        ((3, 3, 3, 3), {2, 3, 4}, 3, 4, {(0, 1): {1, 2}, (0, 2): {1, 2}, (1, 2): {3, 4}}),
        ((4, 4, 4), {2}, 3, 5, {(0, 1): {1, 2}, (0, 2): {1, 2}, (1, 2): {1, 2}}),
        ((3, 3, 3), {2, 3}, 3, 6, {(0, 1): {1, 2}, (0, 2): {1, 3}, (1, 2): {2, 3}}),
        ((5, 4, 3), {2, 3}, 4, 4, {
            (0, 1): {1, 2}, (0, 2): {1, 2}, (1, 2): {1, 2},
            (0, 3): {1, 2}, (1, 3): {1, 2}, (2, 3): {1, 3},
        }),
    ]:
        k = core.validate_sequence(entries)
        con = lp.Constraint(frozenset(T), kprime)
        valid, counter, exhaustive = lp.constraint_validity_scan(con, k, r_max)
        assert not valid and exhaustive
        expected = core.ColourPattern(max(max(p) for p in pairs) + 1, pairs)
        assert list(counter.assignment.items()) == list(expected.assignment.items())
    for entries, T, kprime in [((4, 3), {2}, 3), ((4, 4, 3), {3}, 3)]:
        k = core.validate_sequence(entries)
        con = lp.Constraint(frozenset(T), kprime)
        assert lp.constraint_validity_scan(con, k, 5) == (True, None, True)


def test_constraint_validity_scan_rejects_an_empty_range():
    # no level below 2 exists, so r_max < 2 is an error, as in solve_Q2,
    # never a scan that is "valid" and "exhaustive" over nothing
    k = core.validate_sequence([3, 3, 3, 3])
    con = lp.Constraint(frozenset({2}), 4)
    for r_max in (1, 0, -3):
        with pytest.raises(core.ErlabError, match="r_max >= 2"):
            lp.constraint_validity_scan(con, k, r_max)


def test_sandwich_certificates_exact():
    for entries in [(3, 3), (6, 3), (5, 5, 5), (3, 3, 3, 3), (4, 4, 4, 4)]:
        k = core.validate_sequence(entries)
        cert = lp.sandwich_certificate(k, constructions.known_optimum(k))
        assert cert.verdict == "EXACT", entries
        assert cert.lower == cert.upper
        assert cert.gap == 0.0


def test_sandwich_certificate_reports_gap():
    # feed the (5,3) construction without the tightening constraint
    k = core.validate_sequence([5, 3])
    cert = lp.sandwich_certificate(
        k, constructions.known_optimum(k), lp.LPInstance(k, ())
    )
    assert cert.verdict == "GAP"
    assert cert.gap > 0


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
