"""Enumeration of feasible colour patterns up to isomorphism and the small-r
search for the optimum.

Isomorphism allows vertex relabelling plus colour relabelling within blocks
of equal forbidden clique order.  Generation is level-wise: representatives
on v vertices are extended by every feasible attachment row, and the results
deduplicated by canonical code.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from . import core, weights
from .graphs import canonical_matrix_code


@dataclass(frozen=True)
class CanonicalPattern:
    pattern: core.ColourPattern
    canonical_code: bytes


@dataclass
class SearchResult:
    k: core.ColourSeq
    r_range: list
    best_value: core.QBreakdown | None
    best_numeric: float
    optima: list  # FeasibleTriple, basic (level 2, all weights positive)
    exhaustive: dict  # r -> bool
    nodes: int


@functools.lru_cache(maxsize=32)
def _mask_images(k: core.ColourSeq) -> list:
    """One translation table per colour permutation preserving the
    clique-order sequence: byte x is the image of colour mask x (masks have
    s <= 8 bits, as the codes are bytes)."""
    colours = list(k.colours())
    tables = []
    for image in itertools.permutations(colours):
        if all(k[c] == k[d] for c, d in zip(colours, image)):
            table = bytearray(256)
            for mask in range(1 << k.s):
                table[mask] = sum(1 << (d - 1) for c, d in zip(colours, image) if mask >> (c - 1) & 1)
            tables.append(bytes(table))
    return tables


def canonical_code(pattern: core.ColourPattern, k: core.ColourSeq) -> bytes:
    """Least code of the colour-mask matrix over vertex orders and colour
    relabellings within blocks of equal clique order."""
    r = pattern.r
    m = [bytearray(r) for _ in range(r)]
    for (i, j), cs in pattern.assignment.items():
        m[i][j] = m[j][i] = sum(1 << (c - 1) for c in cs)
    rows = [bytes(row) for row in m]
    matrices = {tuple(row.translate(table) for row in rows) for table in _mask_images(k)}
    return canonical_matrix_code(r, matrices)


class _Budget:
    """Counts DFS nodes up to `limit`; once a node is refused, `refused`
    stays set and no further node is counted."""

    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0
        self.refused = False

    def spend(self) -> bool:
        if self.used >= self.limit:
            self.refused = True
            return False
        self.used += 1
        return True


def pattern_levels(k: core.ColourSeq, budget: _Budget | None = None):
    """Yield (reps, completed) for r = 2, 3, ...: one CanonicalPattern per
    isomorphism class of the level-2 patterns on r vertices, sorted by code.

    Level r + 1 extends the level-r representatives in the order they were
    found.  Nothing follows a level that the budget cut short.
    """
    subsets = core.colour_subsets(k.s, 2)
    level: dict[bytes, core.ColourPattern] = {}
    for cs in subsets:
        p = core.ColourPattern(2, {(0, 1): cs})
        ok, _ = core.is_feasible(p, k, 2)
        if ok:
            level.setdefault(canonical_code(p, k), p)
    completed = True
    while True:
        yield [CanonicalPattern(p, code) for code, p in sorted(level.items())], completed
        if not completed:
            return
        nxt: dict[bytes, core.ColourPattern] = {}
        for base in level.values():
            for row in core.attachment_rows(base, k, subsets, budget):
                p = base.attach(row)
                nxt.setdefault(canonical_code(p, k), p)
        level = nxt
        completed = budget is None or not budget.refused


def enumerate_patterns(r: int, k: core.ColourSeq, budget: _Budget | None = None):
    """The level-r entry of `pattern_levels`, or the level where the budget
    ran out.

    Returns (list of CanonicalPattern, completed flag).
    """
    if r < 2:
        raise core.ErlabError("enumeration needs r >= 2")
    for reps, completed in itertools.islice(pattern_levels(k, budget), r - 1):
        pass
    return reps, completed


def solve_Q2(
    k: core.ColourSeq,
    r_max: int,
    budget: int = 10**8,
    *,
    prune: bool = True,
) -> SearchResult:
    if r_max < 2:
        raise core.ErlabError(f"r_max={r_max}: the search needs r_max >= 2")
    if r_max >= core.ramsey_upper_bound(k):
        raise core.ErlabError(
            f"r_max={r_max} not below the Ramsey bound {core.ramsey_upper_bound(k)}"
        )
    tracker = _Budget(budget)
    best_triple = None
    best_numeric = -1.0
    optima: dict[bytes, core.FeasibleTriple] = {}
    exhaustive = {}
    for r, (reps, completed) in zip(range(2, r_max + 1), pattern_levels(k, tracker)):
        exhaustive[r] = completed
        for rep in reps:
            if prune and best_numeric > 0:
                mmax = max(len(cs) for cs in rep.pattern.assignment.values())
                bound = (1 - 1 / r) * math.log2(max(mmax, 1))
                if bound < best_numeric - 1e-9:
                    continue
            opt = weights.optimize_weights(rep.pattern, k)
            val = opt.value.numeric_value
            if len(opt.support) < r:
                continue  # basic optimum lives on fewer vertices; found there
            if val > best_numeric + 1e-9:
                best_numeric = val
                best_triple = core.FeasibleTriple(rep.pattern, opt.weighting, level=2)
                optima = {rep.canonical_code: best_triple}
            elif abs(val - best_numeric) <= 1e-9:
                optima.setdefault(
                    rep.canonical_code,
                    core.FeasibleTriple(rep.pattern, opt.weighting, level=2),
                )
        if not exhaustive[r]:
            for later in range(r + 1, r_max + 1):
                exhaustive[later] = False
            break
    best_value = core.q_value(best_triple) if best_triple is not None else None
    ordered = [optima[c] for c in sorted(optima)]
    return SearchResult(
        k=k,
        r_range=list(range(2, r_max + 1)),
        best_value=best_value,
        best_numeric=best_numeric,
        optima=ordered,
        exhaustive=exhaustive,
        nodes=tracker.used,
    )


def verify_candidate(
    triple: core.FeasibleTriple, k: core.ColourSeq, claimed_value: core.QBreakdown
) -> dict:
    """Membership checks for a claimed basic optimal solution."""
    feasible, witness = core.is_feasible(triple.pattern, k, level=2)
    positive = all(float(a) > 0 for a in triple.weighting)
    actual = core.q_value(triple)
    if actual.exact and claimed_value.exact:
        value_ok = actual == claimed_value
    else:
        value_ok = abs(actual.numeric_value - claimed_value.numeric_value) <= 1e-9
    stationary, residuals = weights.verify_stationarity(triple, 1e-8)
    checks = {
        "feasible_level2": feasible,
        "all_weights_positive": positive,
        "value_matches_claim": value_ok,
        "stationary": stationary,
    }
    return {
        "checks": checks,
        "passed": all(checks.values()),
        "witness": witness,
        "value": actual,
        "residuals": residuals,
    }
