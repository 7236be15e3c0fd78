"""Enumeration of feasible colour patterns up to isomorphism and the small-r
search for the optimum.

Isomorphism allows vertex relabelling plus colour relabelling within blocks
of equal forbidden clique order.  Generation is level-wise: representatives
on v vertices are extended by their feasible attachment rows, and the results
deduplicated by canonical code.  Of the rows of one base, only those that no
symmetry of the base maps to an earlier row are attached (one row per orbit,
McKay's orbit pruning): a symmetry carries a row's child onto the child of
its image, and the orbit's least row comes first in the attachment order, so
every class is still first found at the same base and row, and the
representatives, codes and level order are those of attaching every row.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from . import core, weights
from .graphs import canonical_matrix_code, twin_classes


@dataclass(frozen=True)
class CanonicalPattern:
    pattern: core.ColourPattern
    canonical_code: bytes


@dataclass
class SearchResult:
    best_value: core.QBreakdown | None
    best_numeric: float
    optima: list  # FeasibleTriple, basic (level 2, all weights positive)
    exhaustive: dict  # r -> bool
    nodes: int


@functools.lru_cache(maxsize=32)
def _mask_images(k: core.ColourSeq) -> list:
    """One translation table per colour permutation preserving the
    clique-order sequence: byte x is the image of colour mask x (masks have
    s <= 8 bits, as the codes are bytes).  A mask's image is that of the
    mask without its lowest bit, plus the image of that bit."""
    colours = list(k.colours())
    tables = []
    for image in itertools.permutations(colours):
        if all(k[c] == k[d] for c, d in zip(colours, image)):
            bits = [1 << (d - 1) for d in image]
            table = bytearray(256)
            for mask in range(1, 1 << k.s):
                low = mask & -mask
                table[mask] = table[mask ^ low] | bits[low.bit_length() - 1]
            tables.append(bytes(table))
    return tables


def _mask_rows(pattern: core.ColourPattern) -> list[bytes]:
    """The colour-mask matrix: entry (i, j) has bit c - 1 set when colour c
    is allowed on the pair ij (0 on the diagonal)."""
    r = pattern.r
    m = [bytearray(r) for _ in range(r)]
    for (i, j), cs in pattern.assignment.items():
        m[i][j] = m[j][i] = sum(1 << (c - 1) for c in cs)
    return [bytes(row) for row in m]


def _rows_code(rows: list[bytes], k: core.ColourSeq) -> bytes:
    """`canonical_code` of the pattern with colour-mask matrix `rows`."""
    matrices = {tuple([row.translate(table) for row in rows]) for table in _mask_images(k)}
    return canonical_matrix_code(len(rows), matrices)


def canonical_code(pattern: core.ColourPattern, k: core.ColourSeq) -> bytes:
    """Least code of the colour-mask matrix over vertex orders and colour
    relabellings within blocks of equal clique order."""
    return _rows_code(_mask_rows(pattern), k)


def pattern_symmetries(m: list[bytes], k: core.ColourSeq) -> tuple[list, list]:
    """The twin classes of the colour-mask matrix m (`graphs.twin_classes`),
    as vertex lists in order of their first vertex, and the automorphisms of
    m that map each twin class onto a twin class in vertex order, the
    identity excluded, as pairs (perm, table) with
    m[perm[u]][perm[v]] == table[m[u][v]] for a table of `_mask_images(k)`.

    Permuting a twin class is an automorphism, and every automorphism is one
    of these after a permutation within twin classes.  The search
    backtracks over the twin classes once per table, the classes with the
    fewest targets first; a class maps only onto an unused class of its
    size whose first row, sorted, is the image of its own first row,
    sorted.  A table that changes how often some entry occurs is skipped.
    """
    r = len(m)
    classes: dict[int, list] = {}
    for v, c in enumerate(twin_classes(m)):
        classes.setdefault(c, []).append(v)
    members = list(classes.values())
    shapes = [bytes(sorted(row)) for row in m]
    entries = b"".join(m)
    histogram = sorted(entries)
    tables = _mask_images(k)
    autos = []
    for table in tables:
        if sorted(entries.translate(table)) != histogram:
            continue
        choices = []
        for source in members:
            shape = bytes(sorted(m[source[0]].translate(table)))
            targets = [t for t in members if len(t) == len(source) and shapes[t[0]] == shape]
            choices.append((source, targets))
        if not all(targets for _, targets in choices):
            continue
        choices.sort(key=lambda choice: len(choice[1]))  # the fewest targets first
        perm = [0] * r
        mapped: list[int] = []
        used: set[int] = set()

        def extend(i: int):
            if i == len(choices):
                # tables[0] is the identity colour map, as permutations start with it
                if table is not tables[0] or any(p != v for v, p in enumerate(perm)):
                    autos.append((tuple(perm), table))
                return
            source, targets = choices[i]
            for target in targets:
                if target[0] in used:
                    continue
                depth = len(mapped)
                for u, t in zip(source, target):
                    mt = m[t]
                    if any(mt[perm[w]] != table[m[u][w]] for w in mapped):
                        break
                    perm[u] = t
                    mapped.append(u)
                else:
                    used.add(target[0])
                    extend(i + 1)
                    used.discard(target[0])
                del mapped[depth:]

        extend(0)
    return members, autos


@functools.lru_cache(maxsize=32)
def _subset_images(k: core.ColourSeq) -> tuple[dict, dict]:
    """For the search's colour sets: each set's index, and per table of
    `_mask_images(k)` the index of the image of each set."""
    subsets = core.colour_subsets(k.s, 2)
    index = {cs: i for i, cs in enumerate(subsets)}
    by_mask = {sum(1 << (c - 1) for c in cs): i for i, cs in enumerate(subsets)}
    images = {table: [by_mask[table[mask]] for mask in by_mask] for table in _mask_images(k)}
    return index, images


def orbit_least_rows(m: list[bytes], k: core.ColourSeq, rows: list) -> list:
    """The attachment rows of a base with colour-mask matrix m (`_mask_rows`;
    colour sets from `core.colour_subsets(k.s, 2)`, in
    `core.attachment_rows` order) that are the least of their orbit under
    the symmetries of the base.

    Read a row R as its subset indices.  A symmetry (perm, colour map)
    takes R to R' with R'[perm[v]] = the index of the image of R[v], and
    the child of R onto the child of R'.  Permuting within twin classes, the
    least image sorts the indices of each class, so R is kept when it does
    not decrease along any twin class and no symmetry of
    `pattern_symmetries` has an image that, sorted within twin classes, is
    lexicographically less than R.
    """
    classes, autos = pattern_symmetries(m, k)
    index, images = _subset_images(k)
    groups = [g for g in classes if len(g) > 1]
    twins = [pair for g in groups for pair in zip(g, g[1:])]
    lifted = [(perm, images[table]) for perm, table in autos]
    kept = []
    for row in rows:
        key = [index[cs] for cs in row]
        if any(key[u] > key[v] for u, v in twins):
            continue
        for perm, image in lifted:
            moved = [0] * len(key)
            for v, x in zip(perm, key):
                moved[v] = image[x]
            for g in groups:
                for v, x in zip(g, sorted(moved[v] for v in g)):
                    moved[v] = x
            if moved < key:
                break
        else:
            kept.append(row)
    return kept


class _Budget:
    """Counts DFS nodes up to `limit`; once a node is refused, `refused`
    stays set and no further node is counted."""

    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0
        self.refused = False

    def spend(self, n: int = 1) -> bool:
        """Charge n nodes, as n single calls would: if fewer than n remain,
        the rest are used up and the call refuses."""
        if self.used + n > self.limit:
            self.used = self.limit
            self.refused = True
            return False
        self.used += n
        return True


def pattern_levels(k: core.ColourSeq, budget: _Budget | None = None):
    """Yield (reps, completed) for r = 2, 3, ...: one CanonicalPattern per
    isomorphism class of the level-2 patterns on r vertices, sorted by code.

    Level r + 1 extends the level-r representatives in the order they were
    found.  A child's colour-mask matrix is its base's with the row's masks
    joined on, and only a child whose code is new to the level is built as
    a pattern.  Nothing follows a level that the budget cut short.
    """
    if k.s > 8:
        raise core.ErlabError(f"{k.s} colours: the search takes at most 8 (masks are bytes)")
    subsets = core.colour_subsets(k.s, 2)
    masks = {cs: sum(1 << (c - 1) for c in cs) for cs in subsets}
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
            m = _mask_rows(base)
            for row in orbit_least_rows(m, k, core.attachment_rows(base, k, subsets, budget)):
                new = bytes([masks[cs] for cs in row])
                code = _rows_code([mv + new[i:i + 1] for i, mv in enumerate(m)] + [new + b"\0"], k)
                if code not in nxt:
                    nxt[code] = base.attach(row)
        level = nxt
        completed = budget is None or not budget.refused


def enumerate_patterns(r: int, k: core.ColourSeq, budget: _Budget | None = None):
    """The level-r entry of `pattern_levels`: (list of CanonicalPattern,
    completed flag).  When the budget runs out before level r, no pattern on
    r vertices was built and the result is ([], False).
    """
    if r < 2:
        raise core.ErlabError("enumeration needs r >= 2")
    levels = itertools.islice(pattern_levels(k, budget), r - 1)
    for reached, (reps, completed) in enumerate(levels, start=2):
        pass
    return (reps, completed) if reached == r else ([], False)


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
        best_value=best_value,
        best_numeric=best_numeric,
        optima=ordered,
        exhaustive=exhaustive,
        nodes=tracker.used,
    )


def verify_candidate(triple: core.FeasibleTriple, k: core.ColourSeq) -> dict:
    """Membership checks for a claimed basic optimal solution, with its q."""
    feasible, _ = core.is_feasible(triple.pattern, k, level=2)
    positive = all(float(a) > 0 for a in triple.weighting)
    stationary, _ = weights.verify_stationarity(triple, 1e-8)
    checks = {
        "feasible_level2": feasible,
        "all_weights_positive": positive,
        "stationary": stationary,
    }
    return {"checks": checks, "passed": all(checks.values()), "value": core.q_value(triple)}
