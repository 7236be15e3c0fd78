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

The search (`solve_Q2`) evaluates each level once, in the order its classes
are found.  The classes on r_max vertices are never extended, so that level
is not built as classes: q depends on a pattern only through its pair
multiplicities, so the children of the level below are read by their
multiplicity matrices, and only those that may beat or tie the best are
canonicalised.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass

from . import core, weights
from .graphs import canonical_matrix_code, has_clique, twin_classes


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


def _children(level: dict, k: core.ColourSeq, budget: _Budget | None):
    """For each base of `level` (code -> pattern, in found order): the base
    and a list of (row, child mask rows) for its orbit-least attachment
    rows, in attachment order.  A child's colour-mask matrix is its base's
    (`_mask_rows`) with the row's masks joined on."""
    subsets = core.colour_subsets(k.s, 2)
    masks = {cs: sum(1 << (c - 1) for c in cs) for cs in subsets}
    for base in level.values():
        m = _mask_rows(base)
        children = []
        for row in orbit_least_rows(m, k, core.attachment_rows(base, k, subsets, budget)):
            new = bytes([masks[cs] for cs in row])
            children.append((row, [mv + new[i:i + 1] for i, mv in enumerate(m)] + [new + b"\0"]))
        yield base, children


def pattern_levels(k: core.ColourSeq, budget: _Budget | None = None):
    """Yield (level, completed) for r = 2, 3, ...: a dict from canonical code
    to the representative of each isomorphism class of the level-2
    patterns on r vertices, in the order the classes were found.

    Level r + 1 extends the level-r representatives in that order, and a
    child is built as a pattern only when its code is new to the level, so
    each class keeps its first-found child.  Nothing follows a level that
    the budget cut short.
    """
    if k.s > 8:
        raise core.ErlabError(f"{k.s} colours: the search takes at most 8 (masks are bytes)")
    level: dict[bytes, core.ColourPattern] = {}
    for cs in core.colour_subsets(k.s, 2):
        p = core.ColourPattern(2, {(0, 1): cs})
        ok, _ = core.is_feasible(p, k, 2)
        if ok:
            level.setdefault(canonical_code(p, k), p)
    completed = True
    while True:
        yield level, completed
        if not completed:
            return
        nxt: dict[bytes, core.ColourPattern] = {}
        for base, children in _children(level, k, budget):
            for row, rows in children:
                code = _rows_code(rows, k)
                if code not in nxt:
                    nxt[code] = base.attach(row)
        level = nxt
        completed = budget is None or not budget.refused


def enumerate_patterns(r: int, k: core.ColourSeq, budget: _Budget | None = None):
    """The level-r entry of `pattern_levels` as (list of (code,
    representative) pairs sorted by code, completed flag).  When the budget
    runs out before level r, no pattern on r vertices was built and the
    result is ([], False).
    """
    if r < 2:
        raise core.ErlabError("enumeration needs r >= 2")
    levels = itertools.islice(pattern_levels(k, budget), r - 1)
    for reached, (level, completed) in enumerate(levels, start=2):
        pass
    return (sorted(level.items()), completed) if reached == r else ([], False)


# byte x -> the number of colours in mask x
_POPCOUNT = bytes(bin(x).count("1") for x in range(256))


def _bound(mmax: int, r: int) -> float:
    """An upper bound on q for a pattern on r vertices whose pairs carry at
    most mmax colours: q <= (1 - 1/r) log2 mmax, as 2 sum_{i<j} a_i a_j is
    at most 1 - 1/r on the simplex."""
    return (1 - 1 / r) * math.log2(max(mmax, 1))


def solve_Q2(k: core.ColourSeq, r_max: int, budget: int = 10**8) -> SearchResult:
    """The best basic level-2 triple on at most r_max vertices: the largest
    q over the classes on 2 .. r_max vertices whose optimum puts positive
    weight on every vertex (a class whose optimum lives on fewer vertices is
    found there), with the classes that tie it as optima.

    Classes are evaluated level by level, each level once, in the order its
    classes are found, by one rule.  A class is skipped once the best so
    far is positive and its bound (1 - 1/r) log2 mmax (mmax its largest
    pair multiplicity) falls more than 1e-9 below the best: it can neither
    beat nor tie it.  A class whose q exceeds the best by more than 1e-9
    becomes the best and the only optimum; one within 1e-9 of the best joins
    the optima, and the best stays as it was.  The order matters only
    between differing values within 1e-9 of each other.

    Levels 2 .. r_max - 1 are built as classes (`pattern_levels`).  No class
    on r_max vertices is extended, so the last level is not: it is read in
    one pass over the children of the level-(r_max - 1) representatives,
    and only a child that may beat or tie the running best is canonicalised
    (`_last_level`).  Its class, represented by its first-found child as in
    `pattern_levels`, is evaluated by the rule above.

    `nodes` counts the attachment DFS nodes of every level built, the last
    included.  A level the budget cut short is evaluated as far as it was
    built, no level follows it, and it and every later level are marked
    not exhaustive.
    """
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

    def consider(pattern: core.ColourPattern, code: bytes):
        nonlocal best_triple, best_numeric, optima
        r = pattern.r
        if best_numeric > 0:
            mmax = max(len(cs) for cs in pattern.assignment.values())
            if _bound(mmax, r) < best_numeric - 1e-9:
                return
        opt = weights.optimize_weights(pattern, k)
        val = opt.value.numeric_value
        if len(opt.support) < r:
            return  # basic optimum lives on fewer vertices; found there
        if val > best_numeric + 1e-9:
            best_numeric = val
            best_triple = core.FeasibleTriple(pattern, opt.weighting, level=2)
            optima = {code: best_triple}
        elif abs(val - best_numeric) <= 1e-9:
            optima.setdefault(code, core.FeasibleTriple(pattern, opt.weighting, level=2))

    levels = pattern_levels(k, tracker)
    for r in range(2, r_max + 1):
        if 2 < r == r_max:
            classes = _last_level(level, k, r, tracker, lambda: best_numeric)
        else:
            level, _ = next(levels)
            classes = level.items()
        for code, pattern in classes:
            consider(pattern, code)
        exhaustive[r] = not tracker.refused
        if tracker.refused:
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


def _last_level(level: dict, k: core.ColourSeq, r: int, budget: _Budget, best: Callable[[], float]):
    """Yield (code, first-found child) for the classes on r vertices, among
    the children of the level-(r - 1) representatives `level`, whose q may
    beat or tie `best()`, the running best of `solve_Q2`.

    Children are read in found order and pruned by the bound of `solve_Q2`
    against the running best.  Each one read is checked (its base once by
    `core.is_feasible`, itself by the multiplicity floor of 2 and a
    K_{k_c - 1} search in the base's colour-c graph within the new vertex's
    colour-c neighbourhood), and a failure raises `ErlabError`.  Its q is
    read by its labelled multiplicity matrix: q sees nothing else, and its
    largest value is the same under a vertex relabelling, so a matrix new
    to the search costs the canonical code of that matrix alone, and only
    one new up to relabelling costs an `optimize_weights` call.  A child
    whose q is not below the best gets its colour code, and one new to the
    level is yielded.  Children of one class share their q and their bound,
    and the best only rises, so the first child of a class yielded is its
    first-found child, the representative `pattern_levels` keeps.
    """
    values: dict[bytes, float] = {}  # multiplicity matrix -> q
    shapes: dict[bytes, float] = {}  # its canonical code -> the same
    seen: set[bytes] = set()  # colour codes yielded
    for base, children in _children(level, k, budget):
        ok, witness = core.is_feasible(base, k, 2)
        if not ok:
            raise core.ErlabError(f"search base on {base.r} vertices infeasible for {k}: {witness}")
        adj = {c: base.colour_graph(c).adjacency_masks() for c in k.colours()}
        for row, rows in children:
            key = b"".join(rows).translate(_POPCOUNT)
            if best() > 0 and _bound(max(key), r) < best() - 1e-9:
                continue
            within = [0] * (k.s + 1)  # the new vertex's neighbourhood in each colour
            for i, cs in enumerate(row):
                if len(cs) < 2:
                    raise core.ErlabError(f"search row {row} has a pair below two colours")
                for c in cs:
                    within[c] |= 1 << i
            for c in k.colours():
                if has_clique(adj[c], k[c] - 1, within[c]) is not None:
                    raise core.ErlabError(f"search row {row} closes a K_{k[c]} in colour {c}")
            if key not in values:
                shape = canonical_matrix_code(r, [[key[i * r:(i + 1) * r] for i in range(r)]])
                if shape not in shapes:
                    shapes[shape] = weights.optimize_weights(base.attach(row), k).value.numeric_value
                values[key] = shapes[shape]
            if values[key] < best() - 1e-9:
                continue
            code = _rows_code(rows, k)
            if code not in seen:
                seen.add(code)
                yield code, base.attach(row)


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
