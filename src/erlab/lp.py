"""The relaxation over multiplicity densities, and sandwich certificates.

Variables d_t (t = 2..s) bound the q-mass carried by pairs of multiplicity t.
Besides the box 0 <= d_t <= 1 and the budget sum t*d_t <= sum_c (1 - 1/(k_c-1)),
the relaxation may add constraints of the form

    sum over t in T of d_t  <=  1 - 1/(k' - 1)

which are valid whenever, on every feasible triple with positive weights, the
pairs whose multiplicity lies in T span a K_{k'}-free graph, as a certificate
proves on level k' (`constraint_validity_scan`) for T within {2..s}.  The
polytope is bounded, so the optimum is attained at a vertex and the whole
problem is solved exactly by vertex enumeration: each basis of s - 1 integer
rows is solved by fraction-free (Bareiss) elimination into N / D and tested
against every row in integers; only the vertices kept become Fractions.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import core, search
from .graphs import SimpleGraph, has_clique
from .logform import LogLinear


class InvalidConstraint(core.ErlabError):
    pass


@dataclass(frozen=True)
class Constraint:
    """sum_{t in T} d_t <= 1 - 1/(kprime - 1)."""

    T: frozenset
    kprime: int

    def __post_init__(self):
        if self.kprime < 3:
            raise InvalidConstraint(f"k'={self.kprime} below 3")
        if not self.T or min(self.T) < 2:
            raise InvalidConstraint(f"T={sorted(self.T)} must contain multiplicities >= 2")

    @property
    def cap(self) -> Fraction:
        return 1 - Fraction(1, self.kprime - 1)


@dataclass(frozen=True)
class LPInstance:
    k: core.ColourSeq
    constraints: tuple = ()

    def __post_init__(self):
        for con in self.constraints:
            if max(con.T) > self.k.s:
                raise InvalidConstraint(f"T={sorted(con.T)} is vacuous: pairs carry at most s={self.k.s} colours")

    @property
    def budget(self) -> Fraction:
        return sum((1 - Fraction(1, self.k[c] - 1) for c in self.k.colours()), Fraction(0))


@dataclass
class LPSolution:
    d: tuple  # Fractions, indexed t = 2..s
    value: LogLinear
    unique: bool
    vertex_count: int


def _bareiss(rows):
    """Solve a square integer system of (coefficients, rhs) rows by fraction-free
    Gauss-Jordan elimination, every division exact; returns the solution as
    (D, N), meaning N / D with D > 0 in lowest terms, or None if singular."""
    m = len(rows)
    a = [[*coeffs, b] for coeffs, b in rows]
    prev = 1
    for col in range(m):
        piv = next((i for i in range(col, m) if a[i][col]), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        p, pc = a[col], a[col][col]
        for i in range(m):
            if i != col:
                f = a[i][col]
                a[i] = [(pc * x - f * y) // prev for x, y in zip(a[i], p)]
        prev = pc
    g = math.gcd(prev, *(row[m] for row in a)) * (1 if prev > 0 else -1)
    return prev // g, tuple(row[m] // g for row in a)


def _inequalities(instance: LPInstance):
    """All constraints as integer rows (coefficient tuple, rhs) meaning
    a . d <= b: the budget scaled by its denominator, each constraint as
    (k' - 1) [t in T] <= k' - 2."""
    ts = range(2, instance.k.s + 1)
    rows = []
    for t in ts:
        e = tuple(int(u == t) for u in ts)
        rows += [(e, 1), (tuple(-x for x in e), 0)]
    budget = instance.budget
    rows.append((tuple(budget.denominator * t for t in ts), budget.numerator))
    for con in instance.constraints:
        rows.append((tuple((con.kprime - 1) * (t in con.T) for t in ts), con.kprime - 2))
    return rows, len(ts)


def enumerate_vertices(instance: LPInstance) -> list:
    """All vertices of the feasible polytope, as exact Fraction tuples."""
    rows, m = _inequalities(instance)
    seen = set()
    out = []
    for combo in itertools.combinations(rows, m):
        sol = _bareiss(combo)
        if sol is None or sol in seen:
            continue
        D, N = sol
        if all(sum(a * x for a, x in zip(coeffs, N)) <= b * D for coeffs, b in rows):
            seen.add(sol)
            out.append(tuple(Fraction(x, D) for x in N))
    return sorted(out)


def _objective(point) -> LogLinear:
    total = LogLinear()
    for t, dt in enumerate(point, start=2):
        total = total + LogLinear.log2(t, dt)
    return total


def solve_L(instance: LPInstance) -> LPSolution:
    vertices = enumerate_vertices(instance)
    if not vertices:
        raise core.ErlabError("empty feasible region")
    values = [_objective(v) for v in vertices]
    best = max(values)  # the first of the largest, by exact order
    optimal = [v for v, val in zip(vertices, values) if val == best]
    return LPSolution(
        d=optimal[0],
        value=best,
        unique=len(optimal) == 1,
        vertex_count=len(vertices),
    )


@functools.cache
def constraint_validity_scan(con: Constraint, k: core.ColourSeq):
    """Decide the constraint on level k' alone: if H(T), the graph of the
    pairs whose multiplicity lies in T, holds a K_{k'} in a feasible triple,
    the sub-pattern on that clique is a level-2 pattern on k' vertices with
    a complete H(T), as feasibility is hereditary.  Builds
    `search.pattern_levels` up to level k' under a 10**7-node budget and
    returns (valid, counterexample or None, decided): the least such class
    by canonical code, and False when the budget cut the scan short.
    """
    tracker = search._Budget(10**7)
    for r, (level, completed) in enumerate(search.pattern_levels(k, tracker), start=2):
        if r == con.kprime:
            for _, pattern in sorted(level.items()):
                h = SimpleGraph(r, frozenset(p for p, cs in pattern.assignment.items() if len(cs) in con.T))
                if has_clique(h.adjacency_masks(), con.kprime) is not None:
                    return False, pattern, completed
            return completed, None, completed
    return False, None, False  # a level below k' was cut short


def recommended_constraints(k: core.ColourSeq) -> tuple:
    """The extra constraints needed to make the relaxation tight for the
    solved cases.  `sandwich_certificate` proves each one at run time by its
    level-k' scan; the arguments below only explain the choice.

    Two colours with k_1 > k_2: pairs of multiplicity 2 lie inside the
    colour-2 graph, so ({2}, k_2) is valid.  Four triangle-forbidding
    colours: any two colour sets of size >= 3 share two colours, making
    ({3,4}, 3) valid.
    """
    entries = k.entries
    if k.s == 2 and entries[0] > entries[1]:
        return (Constraint(frozenset({2}), entries[1]),)
    if entries == (3, 3, 3, 3):
        return (Constraint(frozenset({3, 4}), 3),)
    return ()


@dataclass
class Certificate:
    lower: LogLinear  # q of the explicit construction
    upper: LogLinear  # LP optimum
    verdict: str  # "EXACT" | "GAP"
    lp: LPSolution
    instance: LPInstance


def sandwich_certificate(
    k: core.ColourSeq,
    construction: core.FeasibleTriple,
    instance: LPInstance | None = None,
) -> Certificate:
    """Pin the optimum between a construction and the relaxation.

    EXACT means the two exact log-linear forms coincide, so the construction
    value is the optimum.  Each constraint, the built-in ones included, must
    be proved by `constraint_validity_scan`, or InvalidConstraint is raised:
    the LP value would be no upper bound.  A construction whose mass on T
    exceeds the cap holds a K_{k'} in H(T) (Motzkin-Straus), so the scan
    refutes every constraint that the construction breaks.
    """
    if instance is None:
        instance = LPInstance(k, recommended_constraints(k))
    feasible, witness = core.is_feasible(construction.pattern, k, level=2)
    if not feasible:
        raise core.ErlabError(f"construction infeasible: {witness}")
    if not core.weighting_is_exact(construction.weighting):
        raise core.ErlabError("certificate needs an exact rational weighting")
    for con in instance.constraints:
        valid, counter, _ = constraint_validity_scan(con, k)
        name = f"constraint T={sorted(con.T)}, k'={con.kprime}"
        if counter is not None:
            pairs = [[i + 1, j + 1, sorted(cs)] for (i, j), cs in sorted(counter.assignment.items())]
            raise InvalidConstraint(f"{name} is refuted: H(T) is complete on the level-2 pattern with pairs {pairs}")
        if not valid:
            raise InvalidConstraint(f"{name} is not proved: the scan's budget ran out before level {con.kprime}")
    lower = core.q_value(construction).log_form
    sol = solve_L(instance)
    return Certificate(
        lower=lower,
        upper=sol.value,
        verdict="EXACT" if lower == sol.value else "GAP",
        lp=sol,
        instance=instance,
    )
