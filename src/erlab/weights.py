"""Maximising q over the simplex for a fixed pattern.

The objective is an indefinite quadratic form, so local maxima abound; we
enumerate every support, solve the stationarity (KKT) system on it, and take
the global maximum over all admissible stationary points, simplex vertices
and the uniform point.  The system on a support depends only on the support
sub-matrix, so each distinct one is solved once per process (a bounded
cache).  Only on request (`cross_check=True`; off by default) does a
random-restart projected-gradient pass add its point as a further candidate.

q depends on a pattern only through its pair multiplicities |phi(ij)|; the
colours matter only for feasibility.  So after the feasibility check the
optimum is memoised on the multiplicities in pair order (a second bounded
cache): the patterns of a search share few of them.

numpy is imported inside the functions that build arrays, never at module
level, so importing this module does not load it; of the er-lab commands
only q2, which solves KKT systems, does.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from . import core

if TYPE_CHECKING:
    import numpy as np


class InfeasiblePattern(core.ErlabError):
    pass


class DimensionTooLarge(core.ErlabError):
    pass


@dataclass(frozen=True)
class WeightOptimum:
    weighting: tuple
    value: core.QBreakdown
    support: frozenset
    stationarity_residual: float


def _log_matrix(pattern: core.ColourPattern) -> np.ndarray:
    import numpy as np

    r = pattern.r
    a = np.zeros((r, r))
    for (i, j), cs in pattern.assignment.items():
        if cs:
            a[i, j] = a[j, i] = math.log2(len(cs))
    return a


def _q_of(a: np.ndarray, x: np.ndarray) -> float:
    return float(x @ a @ x)


def _projected_gradient(a: np.ndarray, x: np.ndarray, iters: int = 400) -> np.ndarray:
    """Ascent on q(x) = x^T A x over the simplex (projection by sorting)."""
    import numpy as np

    n = len(x)
    step = 0.1
    for _ in range(iters):
        grad = 2 * a @ x
        y = x + step * grad
        # Euclidean projection onto the simplex
        u = np.sort(y)[::-1]
        css = np.cumsum(u) - 1
        rho = np.nonzero(u - css / (np.arange(n) + 1) > 0)[0][-1]
        theta = css[rho] / (rho + 1)
        xn = np.maximum(y - theta, 0)
        if _q_of(a, xn) <= _q_of(a, x) + 1e-15:
            step *= 0.5
            if step < 1e-12:
                break
        else:
            x = xn
    return x


# Distinct support sub-matrices are few (their entries are log2 of small
# multiplicities), so their solves are shared across patterns.
_SUPPORT_CACHE_SIZE = 4096


@functools.lru_cache(maxsize=_SUPPORT_CACHE_SIZE)
def _support_solve(m: int, entries: bytes) -> np.ndarray | None:
    """Solve A_S alpha = lambda 1, sum alpha = 1 with one refinement step,
    for the m x m sub-matrix A_S given by its float64 bytes.

    Returns alpha clipped at 0, read-only as the cache shares it, or None
    when the system is inconsistent or alpha has a negative entry.
    """
    import numpy as np

    sys = np.zeros((m + 1, m + 1))
    sys[:m, :m] = np.frombuffer(entries).reshape(m, m)
    sys[:m, m] = -1.0
    sys[m, :m] = 1.0
    rhs = np.zeros(m + 1)
    rhs[m] = 1.0
    try:
        sol = np.linalg.solve(sys, rhs)
    except np.linalg.LinAlgError:
        sol, *_ = np.linalg.lstsq(sys, rhs, rcond=None)
        if np.linalg.norm(sys @ sol - rhs) > 1e-9:
            return None
    # one step of iterative residual refinement
    resid = rhs - sys @ sol
    try:
        sol = sol + np.linalg.solve(sys, resid)
    except np.linalg.LinAlgError:
        pass
    alpha = sol[:m]
    if np.any(alpha < -1e-10):
        return None
    alpha = np.clip(alpha, 0, None)
    alpha.flags.writeable = False
    return alpha


def _stationary_on_support(a: np.ndarray, support: tuple) -> np.ndarray | None:
    """The stationary point on `support` as an r-vector, or None."""
    import numpy as np

    alpha = _support_solve(len(support), a[np.ix_(support, support)].tobytes())
    if alpha is None:
        return None
    full = np.zeros(a.shape[0])
    full[list(support)] = alpha
    ssum = full.sum()
    if not math.isclose(ssum, 1.0, rel_tol=0, abs_tol=1e-8):
        return None
    return full / ssum


def _rationalise(x: np.ndarray, a: np.ndarray) -> tuple | None:
    """Snap to small rationals when the exact point is stationary-equivalent."""
    import numpy as np

    fracs = [Fraction(float(v)).limit_denominator(720) for v in x]
    total = sum(fracs)
    if total == 0:
        return None
    fracs = [f / total for f in fracs]
    approx = np.array([float(f) for f in fracs])
    if np.max(np.abs(approx - x)) > 1e-7 or any(f < 0 for f in fracs):
        return None
    if abs(_q_of(a, approx) - _q_of(a, x)) > 1e-10:
        return None
    return tuple(fracs)


def optimize_weights(
    pattern: core.ColourPattern,
    k: core.ColourSeq,
    *,
    rng_seed: int = 20240,
    cross_check: bool = False,
) -> WeightOptimum:
    r = pattern.r
    if r > 16:
        raise DimensionTooLarge(f"support enumeration infeasible for r={r}")
    ok, witness = core.is_feasible(pattern, k, level=1)
    if not ok:
        raise InfeasiblePattern(f"pattern infeasible for {k}: {witness}")
    mults = tuple((p, len(cs)) for p, cs in pattern.assignment.items())
    return _optimum(r, mults, rng_seed, cross_check)


# Patterns of one search share few multiplicity patterns, so each optimum
# is computed once per process.
_OPTIMUM_CACHE_SIZE = 4096


@functools.lru_cache(maxsize=_OPTIMUM_CACHE_SIZE)
def _optimum(r: int, mults: tuple, rng_seed: int, cross_check: bool) -> WeightOptimum:
    """The optimum for any pattern whose pairs, in `mults` order, carry the
    given multiplicities, computed on a stand-in with colours 0..m-1: q sees
    nothing else of the colours.  The pair order is part of the key because
    q sums its float terms in that order."""
    pattern = core.ColourPattern(r, {p: range(m) for p, m in mults})
    if r == 1:
        w = (Fraction(1),)
        triple = core.FeasibleTriple(pattern, w, level=1)
        return WeightOptimum(w, core.q_value(triple), frozenset({0}), 0.0)

    import numpy as np

    a = _log_matrix(pattern)
    candidates: list[np.ndarray] = [np.full(r, 1.0 / r)]
    for v in range(r):
        e = np.zeros(r)
        e[v] = 1.0
        candidates.append(e)
    # larger supports first; ties later resolved toward larger support
    for size in range(r, 1, -1):
        for support in itertools.combinations(range(r), size):
            x = _stationary_on_support(a, support)
            if x is not None:
                candidates.append(x)

    if cross_check:
        rng = random.Random(rng_seed)
        best_rand, best_rand_val = None, -1.0
        for _ in range(10_000):
            raw = np.array([-math.log(rng.random()) for _ in range(r)])
            x = raw / raw.sum()
            val = _q_of(a, x)
            if val > best_rand_val:
                best_rand, best_rand_val = x, val
        candidates.append(_projected_gradient(a, best_rand))

    def sort_key(x: np.ndarray):
        support = tuple(i for i in range(r) if x[i] > 1e-12)
        return (-_q_of(a, x), -len(support), tuple(-x))

    best = min(candidates, key=sort_key)
    support = frozenset(i for i in range(r) if best[i] > 1e-12)
    exact = _rationalise(best, a)
    weighting = exact if exact is not None else tuple(float(v) for v in best)
    triple = core.FeasibleTriple(pattern, weighting, level=1)
    value = core.q_value(triple)
    q = value.numeric_value
    resid = max(
        (abs(core.q_contrib(pattern, weighting, i) - q) for i in support),
        default=0.0,
    )
    return WeightOptimum(weighting, value, support, resid)


def verify_stationarity(triple: core.FeasibleTriple, tolerance: float):
    """Every positive-weight vertex must contribute exactly q.

    Returns (ok, per-vertex residual report).
    """
    q = core.q_value(triple).numeric_value
    residuals = {}
    for i in range(triple.r):
        if float(triple.weighting[i]) > 0:
            residuals[i] = core.q_contrib(triple.pattern, triple.weighting, i) - q
    ok = all(abs(v) <= tolerance for v in residuals.values())
    return ok, residuals
