"""The relaxation over multiplicity densities, and sandwich certificates.

Variables d_t (t = 2..s) bound the q-mass carried by pairs of multiplicity t.
Besides the box 0 <= d_t <= 1 and the budget sum t*d_t <= sum_c (1 - 1/(k_c-1)),
the relaxation may add constraints of the form

    sum over t in T of d_t  <=  1 - 1/(k' - 1)

which are valid whenever, on every feasible triple with positive weights, the
pairs whose multiplicity lies in T span a K_{k'}-free graph.  The polytope is
bounded, so the optimum is attained at a vertex and the whole problem is
solved exactly by vertex enumeration: each basis of s - 1 integer rows is
solved by fraction-free (Bareiss) elimination into N / D and tested against
every row in integers; only the vertices kept become Fractions.
"""

from __future__ import annotations

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


def multiplicity_graph(pattern: core.ColourPattern, T) -> SimpleGraph:
    """H(T): the pairs whose multiplicity lies in T."""
    edges = frozenset(p for p, cs in pattern.assignment.items() if len(cs) in T)
    return SimpleGraph(pattern.r, edges)


def constraint_validity_scan(con: Constraint, k: core.ColourSeq, r_max: int):
    """Search level-2 patterns up to r_max for a K_{k'} in H(T).

    Returns (valid_so_far, counterexample pattern or None, exhaustive flag);
    the counterexample is the least by canonical code on the first level
    that has one.  The levels share a budget of 10**7 DFS nodes.  The scan
    refutes invalid constraints; it cannot prove validity beyond the range
    searched.
    """
    if r_max < 2:
        raise core.ErlabError(f"r_max={r_max}: the scan needs r_max >= 2")
    tracker = search._Budget(10**7)
    exhaustive = True
    for _, (level, completed) in zip(range(2, r_max + 1), search.pattern_levels(k, tracker)):
        exhaustive = exhaustive and completed
        for _, pattern in sorted(level.items()):
            h = multiplicity_graph(pattern, con.T)
            if has_clique(h.adjacency_masks(), con.kprime) is not None:
                return False, pattern, exhaustive
        if not completed:
            break
    return True, None, exhaustive


def recommended_constraints(k: core.ColourSeq) -> tuple:
    """The extra valid constraints needed to make the relaxation tight for
    the solved cases.

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
    gap: float
    lp: LPSolution
    instance: LPInstance


def sandwich_certificate(
    k: core.ColourSeq,
    construction: core.FeasibleTriple,
    instance: LPInstance | None = None,
) -> Certificate:
    """Pin the optimum between a construction and the relaxation.

    EXACT means the two exact log-linear forms coincide, so the construction
    value is the optimum.  A constraint that the construction breaks is
    refuted by it (the construction is a feasible triple), so it raises
    InvalidConstraint: the LP value would be no upper bound.
    """
    if instance is None:
        instance = LPInstance(k, recommended_constraints(k))
    feasible, witness = core.is_feasible(construction.pattern, k, level=2)
    if not feasible:
        raise core.ErlabError(f"construction infeasible: {witness}")
    if not core.weighting_is_exact(construction.weighting):
        raise core.ErlabError("certificate needs an exact rational weighting")
    breakdown = core.q_value(construction)
    lower = breakdown.log_form
    for con in instance.constraints:
        mass = sum(
            (breakdown.d[t - 1] for t in con.T if t - 1 < len(breakdown.d)),
            Fraction(0),
        )
        if mass > con.cap:
            raise InvalidConstraint(
                f"constraint T={sorted(con.T)}, k'={con.kprime} is broken by the construction "
                f"(mass {mass} > cap {con.cap}), so it is not valid"
            )
    sol = solve_L(instance)
    exact = lower == sol.value
    return Certificate(
        lower=lower,
        upper=sol.value,
        verdict="EXACT" if exact else "GAP",
        gap=0.0 if exact else float(sol.value) - float(lower),
        lp=sol,
        instance=instance,
    )
