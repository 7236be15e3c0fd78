import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from conftest import random_pattern, relabel_colours

from erlab import constructions, core, search, weights


def grid_maximum(pattern, steps):
    """Independent oracle: exhaustive scan of the rational grid i/steps."""
    r = pattern.r
    logs = {
        (i, j): math.log2(pattern.mult(i, j))
        for i in range(r)
        for j in range(i + 1, r)
        if pattern.mult(i, j) >= 1
    }
    best = -1.0
    for comp in itertools.product(range(steps + 1), repeat=r - 1):
        if sum(comp) > steps:
            continue
        alpha = [c / steps for c in comp] + [(steps - sum(comp)) / steps]
        val = sum(2 * alpha[i] * alpha[j] * w for (i, j), w in logs.items())
        best = max(best, val)
    return best


def test_optimizer_beats_grid_oracle():
    rng = random.Random(2024)
    k = core.validate_sequence([3, 3, 3])
    checked = 0
    while checked < 25:
        r = rng.randint(2, 4)
        pattern = random_pattern(rng, r, k, level=1)
        if pattern is None:
            continue
        opt = weights.optimize_weights(pattern, k)
        grid = grid_maximum(pattern, 60)
        # grid points are feasible, so the optimiser must dominate them;
        # conversely the grid approaches the optimum within the Lipschitz slack
        assert opt.value.numeric_value >= grid - 1e-9
        slack = 2 * math.log2(k.s) * r / 60
        assert opt.value.numeric_value <= grid + slack
        checked += 1


def test_known_optimal_weights_are_uniform():
    for entries in [(3, 3), (4, 4), (3, 3, 3), (3, 3, 3, 3), (4, 4, 4, 4)]:
        k = core.validate_sequence(entries)
        t = constructions.known_optimum(k)
        opt = weights.optimize_weights(t.pattern, k)
        assert opt.weighting == t.weighting, entries
        stationary, _ = weights.verify_stationarity(core.FeasibleTriple(t.pattern, opt.weighting), 1e-8)
        assert stationary, entries


def test_optimizer_finds_smaller_support():
    # a dangling vertex with single-colour pairs should get weight zero
    k = core.validate_sequence([4, 4])
    p = core.ColourPattern(
        3, {(0, 1): {1, 2}, (0, 2): {1}, (1, 2): {1}}
    )
    opt = weights.optimize_weights(p, k)
    assert opt.support == frozenset({0, 1})
    assert opt.weighting == (Fraction(1, 2), Fraction(1, 2), Fraction(0))


def test_optimizer_rejects_infeasible_and_large():
    k = core.validate_sequence([3, 3])
    bad = core.ColourPattern(3, {(0, 1): {1}, (0, 2): {1}, (1, 2): {1}})
    with pytest.raises(weights.InfeasiblePattern):
        weights.optimize_weights(bad, k)
    huge = core.ColourPattern(17, {})
    with pytest.raises(weights.DimensionTooLarge):
        weights.optimize_weights(huge, k)


def test_verify_stationarity_flags_imbalance():
    k = core.validate_sequence([3, 3, 3])
    t = constructions.full_clique_triple(2, 3)
    ok, residuals = weights.verify_stationarity(t, 1e-8)
    assert ok and set(residuals) == {0, 1}
    skew = core.FeasibleTriple(t.pattern, (Fraction(1, 4), Fraction(3, 4)))
    ok, _ = weights.verify_stationarity(skew, 1e-8)
    assert not ok


def projected_gradient_ascent(pattern, seed=20240, restarts=10_000, iters=400):
    """Reference: the best of `restarts` random points of the simplex, then
    projected-gradient ascent on q(x) = x^T A x (projection by sorting).
    Returns the q of the point reached."""
    a = weights._log_matrix(pattern)
    n = pattern.r
    rng = random.Random(seed)
    x, best = None, -1.0
    for _ in range(restarts):
        raw = np.array([-math.log(rng.random()) for _ in range(n)])
        y = raw / raw.sum()
        if (val := float(y @ a @ y)) > best:
            x, best = y, val
    step = 0.1
    for _ in range(iters):
        y = x + step * 2 * a @ x
        u = np.sort(y)[::-1]
        css = np.cumsum(u) - 1
        rho = np.nonzero(u - css / (np.arange(n) + 1) > 0)[0][-1]
        xn = np.maximum(y - css[rho] / (rho + 1), 0)
        if float(xn @ a @ xn) <= float(x @ a @ x) + 1e-15:
            step *= 0.5
            if step < 1e-12:
                break
        else:
            x = xn
    return float(x @ a @ x)


def test_cross_check_agrees_with_support_enumeration():
    # the ascent's point, added as one more candidate, leaves the optimum as it is
    rng = random.Random(5)
    k = core.validate_sequence([3, 3, 3])
    for _ in range(5):
        pattern = random_pattern(rng, 4, k, level=1)
        if pattern is None:
            continue
        q = weights.optimize_weights(pattern, k).value.numeric_value
        assert math.isclose(q, max(q, projected_gradient_ascent(pattern)), abs_tol=1e-9)


def test_support_solve_memo_gives_equal_results_cold_and_warm():
    rng = random.Random(8)
    cases = []
    for entries in [(3, 3, 3), (4, 3, 3), (3, 3, 3, 3)]:
        k = core.validate_sequence(entries)
        t = constructions.known_optimum(k) or search.solve_Q2(k, 4).optima[0]
        cases.append((k, t.pattern))
    while len(cases) < 15:
        k = core.validate_sequence(rng.choice([(3, 3, 3), (4, 3, 3), (4, 4)]))
        pattern = random_pattern(rng, rng.randint(2, 5), k, level=2)
        if pattern is not None:
            cases.append((k, pattern))

    def fields(opt):
        return (opt.weighting, opt.support, opt.value.numeric_value)

    weights._support_solve.cache_clear()
    weights._optimum.cache_clear()
    cold = [fields(weights.optimize_weights(p, k)) for k, p in cases]
    assert weights._support_solve.cache_info().hits > 0
    warm = [fields(weights.optimize_weights(p, k)) for k, p in reversed(cases)]
    assert cold == warm[::-1]
    shared = weights._support_solve(2, np.array([[0.0, 1.0], [1.0, 0.0]]).tobytes())
    with pytest.raises(ValueError):
        shared[0] = 0.0


def test_optimum_memo_sees_only_multiplicities_cold_and_warm():
    # the memo is keyed on the multiplicities in pair order: a colour
    # relabelling shares the entry, the reversed pair order gets its own;
    # either way each result equals the one computed from a cold memo
    rng = random.Random(13)
    k = core.validate_sequence([3, 3, 3])
    cases = [
        core.ColourPattern(3, {(0, 1): {1, 2}, (0, 2): {1}, (1, 2): {2}}),
        core.ColourPattern(3, {(0, 1): {1, 3}, (0, 2): {3}, (1, 2): {1}}),
    ]
    while len(cases) < 16:
        level = 1 + len(cases) % 2
        pattern = random_pattern(rng, rng.randint(2, 5), k, level=level)
        if pattern is not None:
            cases.append(pattern)
    patterns = []
    for pattern in cases:
        patterns += [
            pattern,
            relabel_colours(pattern, {1: 2, 2: 3, 3: 1}),
            core.ColourPattern(pattern.r, dict(reversed(pattern.assignment.items()))),
        ]
    assert any(1 in map(len, p.assignment.values()) for p in patterns)

    def fields(opt):
        return (repr(opt.weighting), opt.support, repr(opt.value.d), opt.value.exact)

    cold = []
    for pattern in patterns:
        weights._optimum.cache_clear()
        cold.append(fields(weights.optimize_weights(pattern, k)))
    weights._optimum.cache_clear()
    warm = [fields(weights.optimize_weights(p, k)) for p in patterns]
    assert weights._optimum.cache_info().hits >= len(cases)
    assert warm == cold
    assert cold[0::3] == cold[1::3]  # relabelled colours, same multiplicities
