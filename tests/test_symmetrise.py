import random
from fractions import Fraction

import pytest
from conftest import random_pattern, random_rational_simplex

from erlab import constructions, core, symmetrise


def test_single_colour_pair_is_resolved():
    k = core.validate_sequence([3, 3])
    p = core.ColourPattern(3, {(0, 1): {1, 2}, (0, 2): {1}, (1, 2): {2}})
    t = core.FeasibleTriple(p, (Fraction(1, 3),) * 3)
    traj = symmetrise.forward_symmetrise(t, k)
    assert traj.final.r == 2
    assert traj.q_final >= traj.q_initial - 1e-12
    assert traj.monotone
    # the survivor pair carries both colours
    assert traj.final.pattern.mult(0, 1) == 2


def test_idempotent_on_level_two():
    for entries in [(4, 4), (3, 3, 3, 3)]:
        k = core.validate_sequence(entries)
        t = constructions.known_optimum(k)
        traj = symmetrise.forward_symmetrise(t, k)
        assert traj.steps == []
        assert traj.final.pattern.assignment == t.pattern.assignment
        assert traj.final.weighting == t.weighting


def test_zero_weight_vertices_dropped_first():
    k = core.validate_sequence([3, 3])
    p = core.ColourPattern(3, {(0, 1): {1, 2}, (0, 2): {1}, (1, 2): {2}})
    t = core.FeasibleTriple(p, (Fraction(1, 2), Fraction(1, 2), Fraction(0)))
    traj = symmetrise.forward_symmetrise(t, k)
    assert traj.steps == []
    assert traj.final.r == 2


def test_symmetrise_merges_clone_pairs():
    # vertex 2 clones vertex 0 of the (4,3) optimum; the clone pair is the
    # only pair with at most one colour, so the loop's one move merges it
    k = core.validate_sequence([4, 3])
    for between, status in [({1}, core.CloneStatus.CLONE), (set(), core.CloneStatus.STRONG_CLONE)]:
        p = core.ColourPattern(3, {(0, 1): {1, 2}, (0, 2): between, (1, 2): {1, 2}})
        assert core.clone_status(p, 0, 2) is status
        t = core.FeasibleTriple(p, (Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)))
        traj = symmetrise.forward_symmetrise(t, k)
        final = traj.final
        assert final.r == t.r - 1
        assert core.q_value(final).log_form == core.q_value(t).log_form
        assert all(
            core.clone_status(final.pattern, i, j) is core.CloneStatus.NOT_CLONE
            for i, j in final.pattern.pairs()
        )


def test_rejects_infeasible_input():
    k = core.validate_sequence([3, 3])
    p = core.ColourPattern(3, {(0, 1): {1}, (0, 2): {1}, (1, 2): {1}})
    t = core.FeasibleTriple(p, (Fraction(1, 3),) * 3)
    with pytest.raises(symmetrise.InfeasibleInput):
        symmetrise.forward_symmetrise(t, k)


def test_randomised_monotone_terminating_level2():
    rng = random.Random(2718)
    k = core.validate_sequence([3, 3, 3])
    done = 0
    while done < 200:
        r = rng.randint(2, 5)
        p = random_pattern(rng, r, k, level=0)
        if p is None:
            continue
        alpha = random_rational_simplex(rng, r)
        t = core.FeasibleTriple(p, alpha)
        traj = symmetrise.forward_symmetrise(t, k)
        assert traj.monotone
        assert traj.q_final >= traj.q_initial - 1e-12
        final = traj.final
        # membership in the level-2 set (or collapse to a single part)
        if final.r > 1:
            ok, _ = core.is_feasible(final.pattern, k, 2)
            assert ok
        assert sum(final.weighting) == 1
        done += 1


def test_exact_weights_stay_exact():
    k = core.validate_sequence([3, 3])
    p = core.ColourPattern(3, {(0, 1): {1, 2}, (0, 2): {1}, (1, 2): set()})
    t = core.FeasibleTriple(p, (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)))
    traj = symmetrise.forward_symmetrise(t, k)
    assert core.weighting_is_exact(traj.final.weighting)
