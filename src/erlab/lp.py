"""The relaxation over multiplicity densities, and sandwich certificates.

Variables d_t (t = 2..s) bound the q-mass carried by pairs of multiplicity t.
Besides the box 0 <= d_t <= 1 and the budget sum t*d_t <= sum_c (1 - 1/(k_c-1)),
the relaxation may add constraints of the form

    sum over t in T of d_t  <=  1 - 1/(k' - 1)

which are valid whenever, on every feasible triple with positive weights, the
pairs whose multiplicity lies in T span a K_{k'}-free graph.  The polytope is
bounded, so the optimum is attained at a vertex and the whole problem is
solved exactly by rational vertex enumeration.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
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
    optimal_vertices: list
    vertex_count: int


def _solve_square(rows, rhs):
    """Exact Gaussian elimination; returns the solution or None if singular."""
    m = len(rows)
    a = [list(r) + [b] for r, b in zip(rows, rhs)]
    for col in range(m):
        piv = next((i for i in range(col, m) if a[i][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = a[col][col]
        a[col] = [x / inv for x in a[col]]
        for i in range(m):
            if i != col and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return [a[i][m] for i in range(m)]


def _inequalities(instance: LPInstance):
    """All constraints as (coefficient tuple, rhs) meaning a . d <= b."""
    s = instance.k.s
    m = s - 1
    rows = []
    for t in range(2, s + 1):
        e = tuple(Fraction(1) if u == t else Fraction(0) for u in range(2, s + 1))
        rows.append((e, Fraction(1)))
        rows.append((tuple(-x for x in e), Fraction(0)))
    rows.append((tuple(Fraction(t) for t in range(2, s + 1)), instance.budget))
    for con in instance.constraints:
        ind = tuple(
            Fraction(1) if t in con.T else Fraction(0) for t in range(2, s + 1)
        )
        rows.append((ind, con.cap))
    return rows, m


def enumerate_vertices(instance: LPInstance) -> list:
    """All vertices of the feasible polytope, as exact Fraction tuples."""
    rows, m = _inequalities(instance)
    seen = set()
    out = []
    for combo in itertools.combinations(range(len(rows)), m):
        sol = _solve_square([rows[i][0] for i in combo], [rows[i][1] for i in combo])
        if sol is None:
            continue
        point = tuple(sol)
        if point in seen:
            continue
        if all(sum(a * x for a, x in zip(coeffs, point)) <= b for coeffs, b in rows):
            seen.add(point)
            out.append(point)
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
    best = values[0]
    for v in values[1:]:
        if best < v:
            best = v
    optimal = [v for v, val in zip(vertices, values) if val == best]
    return LPSolution(
        d=optimal[0],
        value=best,
        unique=len(optimal) == 1,
        optimal_vertices=optimal,
        vertex_count=len(vertices),
    )


def multiplicity_graph(pattern: core.ColourPattern, T) -> SimpleGraph:
    """H(T): the pairs whose multiplicity lies in T."""
    edges = frozenset(p for p, cs in pattern.assignment.items() if len(cs) in T)
    return SimpleGraph(pattern.r, edges)


def constraint_validity_scan(
    con: Constraint, k: core.ColourSeq, r_max: int, budget: int = 10**7
):
    """Search level-2 patterns up to r_max for a K_{k'} in H(T).

    Returns (valid_so_far, counterexample pattern or None, exhaustive flag).
    The scan refutes invalid constraints; it cannot prove validity beyond the
    range searched.
    """
    if r_max < 2:
        raise core.ErlabError(f"r_max={r_max}: the scan needs r_max >= 2")
    tracker = search._Budget(budget)
    exhaustive = True
    for _, (reps, completed) in zip(range(2, r_max + 1), search.pattern_levels(k, tracker)):
        exhaustive = exhaustive and completed
        for rep in reps:
            h = multiplicity_graph(rep.pattern, con.T)
            if has_clique(h.adjacency_masks(), con.kprime) is not None:
                return False, rep.pattern, exhaustive
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
    k: core.ColourSeq
    lower: LogLinear  # q of the explicit construction
    upper: LogLinear  # LP optimum
    verdict: str  # "EXACT" | "GAP"
    gap: float
    construction: core.FeasibleTriple
    lp: LPSolution
    instance: LPInstance
    checks: dict = field(default_factory=dict)


def sandwich_certificate(
    k: core.ColourSeq,
    construction: core.FeasibleTriple,
    instance: LPInstance | None = None,
) -> Certificate:
    """Pin the optimum between a construction and the relaxation.

    EXACT means the two exact log-linear forms coincide, so the construction
    value is the optimum.
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
    # the construction must itself satisfy every added constraint
    checks = {"construction_feasible": True, "constraints_respected": True}
    for con in instance.constraints:
        mass = sum(
            (breakdown.d[t - 1] for t in con.T if t - 1 < len(breakdown.d)),
            Fraction(0),
        )
        if mass > con.cap:
            checks["constraints_respected"] = False
    sol = solve_L(instance)
    exact = lower == sol.value
    return Certificate(
        k=k,
        lower=lower,
        upper=sol.value,
        verdict="EXACT" if exact else "GAP",
        gap=0.0 if exact else float(sol.value) - float(lower),
        construction=construction,
        lp=sol,
        instance=instance,
        checks=checks,
    )
