import math
import random
from fractions import Fraction

import pytest
from conftest import random_pattern, random_rational_simplex

from erlab import core


def k2():
    return core.validate_sequence([3, 3])


def k3():
    return core.validate_sequence([3, 3, 3])


# -- validation ------------------------------------------------------------


def test_validate_sequence_sorts_and_rejects():
    assert core.validate_sequence([3, 5, 4]).entries == (5, 4, 3)
    with pytest.raises(core.EmptySequence):
        core.validate_sequence([])
    with pytest.raises(core.SingleColour):
        core.validate_sequence([4])
    with pytest.raises(core.EntryBelowThree):
        core.validate_sequence([3, 2])


def test_pattern_rejects_loops_and_bad_indices():
    with pytest.raises(core.ErlabError):
        core.ColourPattern(3, {(1, 1): {1}})
    with pytest.raises(core.IndexOutOfRange):
        core.ColourPattern(3, {(0, 3): {1}})
    p = core.ColourPattern(3, {(0, 1): {1}})
    with pytest.raises(core.EqualIndices):
        p.get(2, 2)


def test_weighting_validation():
    with pytest.raises(core.ErlabError):
        core.make_weighting([Fraction(1, 2), Fraction(1, 3)])
    with pytest.raises(core.ErlabError):
        core.make_weighting([0.5, 0.6])
    exact = core.make_weighting([Fraction(1, 2), Fraction(1, 2)])
    assert core.weighting_is_exact(exact)


# -- q ----------------------------------------------------------------------


def test_q_value_single_pair():
    p = core.ColourPattern(2, {(0, 1): {1, 2}})
    t = core.FeasibleTriple(p, (Fraction(1, 2), Fraction(1, 2)))
    bd = core.q_value(t)
    assert bd.d == (Fraction(0), Fraction(1, 2))
    assert bd.numeric_value == 0.5


def test_q_breakdown_equality_pads_trailing_zeros():
    a = core.QBreakdown((Fraction(0), Fraction(1, 2)), True)
    b = core.QBreakdown((Fraction(0), Fraction(1, 2), Fraction(0)), True)
    assert a == b


def test_q_value_matches_direct_sum():
    rng = random.Random(11)
    for _ in range(100):
        r = rng.randint(2, 5)
        p = random_pattern(rng, r, k3())
        alpha = random_rational_simplex(rng, r)
        t = core.FeasibleTriple(p, alpha)
        direct = sum(
            2 * float(alpha[i]) * float(alpha[j]) * math.log2(p.mult(i, j))
            for i in range(r)
            for j in range(i + 1, r)
            if p.mult(i, j) >= 1
        )
        assert math.isclose(core.q_value(t).numeric_value, direct, abs_tol=1e-12)


def test_q_contrib_sums_to_2q():
    rng = random.Random(12)
    for _ in range(50):
        r = rng.randint(2, 5)
        p = random_pattern(rng, r, k3())
        alpha = random_rational_simplex(rng, r)
        t = core.FeasibleTriple(p, alpha)
        total = sum(
            float(alpha[i]) * core.q_contrib(p, alpha, i) for i in range(r)
        )
        assert math.isclose(total, core.q_value(t).numeric_value, abs_tol=1e-12)


# -- clones and merging ------------------------------------------------------


def test_clone_status_cases():
    p = core.ColourPattern(
        3, {(0, 1): set(), (0, 2): {1, 2}, (1, 2): {1, 2}}
    )
    assert core.clone_status(p, 0, 1) is core.CloneStatus.STRONG_CLONE
    p2 = core.ColourPattern(3, {(0, 1): {1}, (0, 2): {1, 2}, (1, 2): {1, 2}})
    assert core.clone_status(p2, 0, 1) is core.CloneStatus.CLONE
    p3 = core.ColourPattern(3, {(0, 1): {1}, (0, 2): {1}, (1, 2): {1, 2}})
    assert core.clone_status(p3, 0, 1) is core.CloneStatus.NOT_CLONE
    with pytest.raises(core.EqualIndices):
        core.clone_status(p, 1, 1)


def test_induced_keeps_order_and_drops_touching_pairs():
    p = core.ColourPattern(
        4, {(0, 1): {1}, (0, 2): {2}, (0, 3): {1, 2}, (1, 2): {1, 3}, (1, 3): {3}, (2, 3): {2, 3}}
    )
    # vertex 1 goes; 3, 0, 2 become 0, 1, 2 in that order
    sub = p.induced([3, 0, 2])
    assert sub.r == 3
    assert sub.assignment == {
        (0, 1): frozenset({1, 2}),
        (0, 2): frozenset({2, 3}),
        (1, 2): frozenset({2}),
    }
    assert p.induced([1, 3]).assignment == {(0, 1): frozenset({3})}
    assert p.induced(range(4)) == p
    assert p.induced([]).r == 0


def test_merge_clones_preserves_q():
    p = core.ColourPattern(3, {(0, 1): set(), (0, 2): {1, 2}, (1, 2): {1, 2}})
    t = core.FeasibleTriple(p, (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)))
    res = core.merge_clones(t)
    assert res.triple.r == 2
    assert res.triple.weighting == (Fraction(1, 2), Fraction(1, 2))
    assert res.q_preserved
    assert core.q_value(res.triple) == core.q_value(t)


def test_merge_clones_reports_dropped_mass():
    p = core.ColourPattern(3, {(0, 1): {1}, (0, 2): {1, 2}, (1, 2): {1, 2}})
    t = core.FeasibleTriple(p, (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)))
    res = core.merge_clones(t)
    assert res.dropped_d1 == Fraction(1, 8)
    assert not res.q_preserved
    # q itself is unchanged: the dropped pairs carried log2(1) = 0
    assert core.q_value(res.triple).numeric_value == core.q_value(t).numeric_value


# -- feasibility --------------------------------------------------------------


def test_is_feasible_levels_and_witnesses():
    p = core.ColourPattern(3, {(0, 1): {1}, (0, 2): {1}, (1, 2): {1}})
    ok, witness = core.is_feasible(p, k2(), 0)
    assert not ok and witness[0] == "clique" and witness[1] == 1
    ok, witness = core.is_feasible(p, core.validate_sequence([4, 3]), 2)
    assert not ok and witness[0] == "multiplicity"
    ok, _ = core.is_feasible(p, core.validate_sequence([4, 3]), 1)
    assert ok


def test_ramsey_bounds():
    assert core.ramsey_upper_bound(k2()) == 6
    assert core.ramsey_upper_bound(core.validate_sequence([4, 4])) == 18
    assert core.ramsey_upper_bound(k3()) == 17
    # recursive fallback stays finite and monotone-ish
    assert core.ramsey_upper_bound(core.validate_sequence([3, 3, 3, 3])) > 17


# -- JSON ---------------------------------------------------------------------


def test_triple_json_roundtrip():
    rng = random.Random(13)
    for _ in range(50):
        r = rng.randint(2, 5)
        p = random_pattern(rng, r, k3())
        alpha = random_rational_simplex(rng, r)
        t = core.FeasibleTriple(p, alpha, level=0)
        back, k = core.triple_from_json(core.triple_to_json(t, k3()))
        assert back.pattern.assignment == p.assignment
        assert back.weighting == alpha
        assert k.entries == (3, 3, 3)
