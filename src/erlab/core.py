"""Domain types and basic operations.

A colour pattern assigns a set of allowed colours to every pair of r parts;
the weighting gives the relative part sizes.  The central quantity is

    q(pattern, alpha) = 2 * sum over pairs ij of alpha_i * alpha_j * log2 |phi(ij)|

which we keep exactly, as a rational combination of log2 of primes, whenever
the weighting is rational.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .graphs import SimpleGraph, has_clique
from .logform import LogLinear


class ErlabError(Exception):
    pass


class EmptySequence(ErlabError):
    pass


class EntryBelowThree(ErlabError):
    pass


class SingleColour(ErlabError):
    pass


class IndexOutOfRange(ErlabError):
    pass


class EqualIndices(ErlabError):
    pass


class NotBasicOptimal(ErlabError):
    pass


@dataclass(frozen=True)
class ColourSeq:
    """Forbidden clique orders k_1 >= ... >= k_s, each >= 3."""

    entries: tuple

    @property
    def s(self) -> int:
        return len(self.entries)

    def __getitem__(self, c: int) -> int:
        """Clique order for colour c (1-based)."""
        return self.entries[c - 1]

    def colours(self) -> range:
        return range(1, self.s + 1)

    def __str__(self):
        return "(" + ",".join(map(str, self.entries)) + ")"


def validate_sequence(raw) -> ColourSeq:
    entries = list(raw)
    if not entries:
        raise EmptySequence("need at least one clique order")
    if len(entries) == 1:
        raise SingleColour("a single colour admits only the trivial problem")
    if any(k < 3 for k in entries):
        # k_c = 2 would just forbid the colour entirely; refuse instead of reducing
        raise EntryBelowThree(f"clique orders must be >= 3, got {entries}")
    return ColourSeq(tuple(sorted(entries, reverse=True)))


def validate_colour_set(members, s: int) -> frozenset:
    cs = frozenset(members)
    if not all(1 <= c <= s for c in cs):
        raise ErlabError(f"colour set {sorted(cs)} not within [1,{s}]")
    return cs


@dataclass(frozen=True)
class ColourPattern:
    """r parts plus a colour set on every unordered pair (vertices 0-based)."""

    r: int
    assignment: dict = field(default_factory=dict)

    def __post_init__(self):
        norm = {}
        for (i, j), cs in self.assignment.items():
            if i == j:
                raise ErlabError(f"pair ({i},{i}) is a loop")
            if not (0 <= i < self.r and 0 <= j < self.r):
                raise IndexOutOfRange(f"pair ({i},{j}) outside [0,{self.r})")
            norm[(min(i, j), max(i, j))] = frozenset(cs)
        for i in range(self.r):
            for j in range(i + 1, self.r):
                norm.setdefault((i, j), frozenset())
        object.__setattr__(self, "assignment", norm)

    def get(self, i: int, j: int) -> frozenset:
        if i == j:
            raise EqualIndices(f"pair ({i},{i})")
        return self.assignment[(min(i, j), max(i, j))]

    def mult(self, i: int, j: int) -> int:
        return len(self.get(i, j))

    def pairs(self):
        return sorted(self.assignment)

    def colour_graph(self, c: int) -> SimpleGraph:
        edges = frozenset(p for p, cs in self.assignment.items() if c in cs)
        return SimpleGraph(self.r, edges)

    def induced(self, keep) -> "ColourPattern":
        """The sub-pattern on the vertices `keep`, renumbered in that order."""
        index = {v: i for i, v in enumerate(keep)}
        return ColourPattern(
            len(index),
            {
                (index[a], index[b]): cs
                for (a, b), cs in self.assignment.items()
                if a in index and b in index
            },
        )

    def attach(self, row) -> "ColourPattern":
        """Join a new vertex r, with colour set row[i] towards vertex i."""
        assignment = dict(self.assignment)
        assignment.update(((i, self.r), cs) for i, cs in enumerate(row))
        return ColourPattern(self.r + 1, assignment)

    def relabel(self, perm) -> "ColourPattern":
        """Apply a vertex permutation (perm[i] = new index of i)."""
        return ColourPattern(
            self.r, {(perm[i], perm[j]): cs for (i, j), cs in self.assignment.items()}
        )

    def relabel_colours(self, cperm) -> "ColourPattern":
        """Apply a colour permutation given as {old: new}."""
        return ColourPattern(
            self.r,
            {p: frozenset(cperm[c] for c in cs) for p, cs in self.assignment.items()},
        )


def make_weighting(values) -> tuple:
    """Normalise to a tuple; rational entries stay exact."""
    vals = tuple(values)
    if all(isinstance(v, (int, Fraction)) for v in vals):
        vals = tuple(Fraction(v) for v in vals)
        if sum(vals) != 1 or any(v < 0 for v in vals):
            raise ErlabError(f"weighting {vals} not a point of the simplex")
    else:
        vals = tuple(float(v) for v in vals)
        if any(v < -1e-12 for v in vals) or abs(sum(vals) - 1) > 1e-12:
            raise ErlabError("numeric weighting not on the simplex within 1e-12")
    return vals


def weighting_is_exact(weighting) -> bool:
    return all(isinstance(v, Fraction) for v in weighting)


@dataclass(frozen=True)
class FeasibleTriple:
    pattern: ColourPattern
    weighting: tuple
    level: int = 0

    def __post_init__(self):
        if len(self.weighting) != self.pattern.r:
            raise ErlabError("weighting length differs from vertex count")
        object.__setattr__(self, "weighting", make_weighting(self.weighting))

    @property
    def r(self) -> int:
        return self.pattern.r


def is_feasible(pattern: ColourPattern, k: ColourSeq, level: int):
    """Check K-freeness of every colour graph and the pair multiplicity floor.

    Returns (ok, witness); witness is ("clique", c, vertices) or
    ("multiplicity", (i, j)) on failure.
    """
    for p in pattern.pairs():
        if len(pattern.assignment[p]) < level:
            return False, ("multiplicity", p)
    for c in k.colours():
        adj = pattern.colour_graph(c).adjacency_masks()
        witness = has_clique(adj, k[c])
        if witness is not None:
            return False, ("clique", c, witness)
    return True, None


def colour_subsets(s: int, least: int) -> list[frozenset]:
    """The sets of at least `least` colours from [1, s], by size, then
    lexicographically."""
    return [
        frozenset(cs)
        for size in range(least, s + 1)
        for cs in itertools.combinations(range(1, s + 1), size)
    ]


def attachment_rows(
    pattern: ColourPattern,
    k: ColourSeq,
    subsets: list,
    budget=None,
    alpha=None,
    target: float = 0.0,
    tol: float = 1e-9,
) -> list[tuple]:
    """The rows of colour sets from `subsets`, one per vertex of `pattern`,
    that join a new vertex without a K_{k_c} in any colour c, in
    lexicographic order of their subset indices (a DFS over the vertices).

    nbr[c] holds the earlier vertices joined to the new one in colour c; as
    the prefix passed, vertex j may take c iff nbr[c] & adj_c[j] spans no
    K_{k_c - 2}.  Each colour is tested once per DFS node; the colours that
    fail are banned there, and only the sets that avoid them are walked.
    With weights `alpha`, only rows whose sum of alpha_j log2|cs_j| is
    within `tol` of `target` are kept, and a set that cannot reach it
    (alpha_i log2 s bounds each later vertex) is not entered.  The budget
    is charged one node per candidate set, banned ones included, in order:
    the banned sets before a walked one are charged in one batch with it
    (`budget.spend(n)`), the banned sets after the last in one more; the
    DFS stops once it refuses.
    """
    r, s = pattern.r, k.s
    weights = [0.0] * r if alpha is None else [float(a) for a in alpha]
    bound = [0.0] * (r + 1)
    for i in range(r - 1, -1, -1):
        bound[i] = bound[i + 1] + weights[i] * math.log2(s)
    adj = {c: pattern.colour_graph(c).adjacency_masks() for c in k.colours()}
    tests = [[(c, adj[c], adj[c][j], k[c] - 2, 1 << c) for c in k.colours()] for j in range(r)]
    candidates = [
        (i, cs, math.log2(len(cs)) if cs else 0.0, sum(1 << c for c in cs))
        for i, cs in enumerate(subsets)
    ]
    fitting: dict[int, list] = {}  # banned colour mask -> the sets that avoid it
    total = len(subsets)
    nbr = [0] * (s + 1)
    row: list[frozenset] = []
    out: list[tuple] = []

    def dfs(j: int, ext: float):
        if j == r:
            if abs(ext - target) <= tol:
                out.append(tuple(row))
            return
        banned = 0
        for c, adj_c, adj_cj, need, cbit in tests[j]:
            m = nbr[c] & adj_cj
            if m and (need == 1 or has_clique(adj_c, need, m) is not None):
                banned |= cbit
        walk = fitting.get(banned)
        if walk is None:
            walk = fitting[banned] = [(i, cs, log) for i, cs, log, mask in candidates if not mask & banned]
        bit = 1 << j
        charged = 0
        for i, cs, log in walk:
            if budget is not None and not budget.spend(i + 1 - charged):
                return
            charged = i + 1
            gain = weights[j] * log
            if ext + gain + bound[j + 1] < target - tol:
                continue
            for c in cs:
                nbr[c] |= bit
            row.append(cs)
            dfs(j + 1, ext + gain)
            row.pop()
            for c in cs:
                nbr[c] &= ~bit
        if budget is not None and charged < total:
            budget.spend(total - charged)

    dfs(0, 0.0)
    return out


@dataclass(frozen=True)
class QBreakdown:
    """q split into mass d_t per pair multiplicity t (d[0] is t=1)."""

    d: tuple
    exact: bool

    @property
    def log_form(self) -> LogLinear | None:
        if not self.exact:
            return None
        form = LogLinear()
        for t, dt in enumerate(self.d, start=1):
            form = form + LogLinear.log2(t, dt)
        return form

    @property
    def numeric_value(self) -> float:
        if self.exact:
            return float(self.log_form)
        return sum(float(dt) * math.log2(t) for t, dt in enumerate(self.d, start=1) if t > 1)

    def __eq__(self, other):
        if not isinstance(other, QBreakdown):
            return NotImplemented
        n = max(len(self.d), len(other.d))
        pad = lambda d: tuple(d) + (Fraction(0),) * (n - len(d))
        return pad(self.d) == pad(other.d)


def q_value(triple: FeasibleTriple) -> QBreakdown:
    pattern, alpha = triple.pattern, triple.weighting
    exact = weighting_is_exact(alpha)
    s = max([len(cs) for cs in pattern.assignment.values()] + [1])
    d = [Fraction(0) if exact else 0.0] * s
    for (i, j), cs in pattern.assignment.items():
        t = len(cs)
        if t >= 1:
            d[t - 1] += 2 * alpha[i] * alpha[j]
    return QBreakdown(tuple(d), exact)


def q_contrib(pattern: ColourPattern, weighting, vertex: int, restrict_to=None) -> float:
    return float(q_contrib_form(pattern, weighting, vertex, restrict_to))


def q_contrib_form(pattern: ColourPattern, weighting, vertex: int, restrict_to=None):
    """Per-vertex contribution sum_j alpha_j * log2|phi(vertex, j)|.

    Exact (LogLinear) for rational weightings, float otherwise.
    """
    if not 0 <= vertex < pattern.r:
        raise IndexOutOfRange(f"vertex {vertex} outside [0,{pattern.r})")
    others = range(pattern.r) if restrict_to is None else restrict_to
    exact = weighting_is_exact(weighting)
    total = LogLinear() if exact else 0.0
    for j in others:
        if j == vertex:
            if restrict_to is not None:
                raise ErlabError("restrict_to must exclude the vertex itself")
            continue
        m = pattern.mult(vertex, j)
        if m >= 1:
            if exact:
                total = total + LogLinear.log2(m, weighting[j])
            else:
                total += float(weighting[j]) * math.log2(m)
    return total


class CloneStatus(enum.Enum):
    NOT_CLONE = "NotClone"
    CLONE = "Clone"
    STRONG_CLONE = "StrongClone"


def clone_status(pattern: ColourPattern, i: int, j: int) -> CloneStatus:
    if i == j:
        raise EqualIndices(f"clone_status({i},{i})")
    if not (0 <= i < pattern.r and 0 <= j < pattern.r):
        raise IndexOutOfRange(f"({i},{j}) outside [0,{pattern.r})")
    for x in range(pattern.r):
        if x in (i, j):
            continue
        if pattern.get(i, x) != pattern.get(j, x):
            return CloneStatus.NOT_CLONE
    between = pattern.get(i, j)
    if len(between) == 0:
        return CloneStatus.STRONG_CLONE
    if len(between) == 1:
        return CloneStatus.CLONE
    return CloneStatus.NOT_CLONE


@dataclass(frozen=True)
class MergeResult:
    triple: FeasibleTriple
    dropped_d1: object  # density mass lost from within-pair multiplicity-1 terms
    q_preserved: bool


def merge_clones(triple: FeasibleTriple) -> MergeResult:
    """Collapse clone pairs (smallest pair first, keep the smaller index).

    Merging a Clone with one colour between drops that pair's d_1 mass; the
    q value itself is unaffected since log2(1) = 0.
    """
    pattern = triple.pattern
    alpha = list(triple.weighting)
    exact = weighting_is_exact(triple.weighting)
    dropped = Fraction(0) if exact else 0.0

    while True:
        found = None
        for i in range(pattern.r):
            for j in range(i + 1, pattern.r):
                if clone_status(pattern, i, j) is not CloneStatus.NOT_CLONE:
                    found = (i, j)
                    break
            if found:
                break
        if found is None:
            break
        i, j = found
        if len(pattern.get(i, j)) == 1:
            dropped += 2 * alpha[i] * alpha[j]
        alpha[i] = alpha[i] + alpha[j]
        keep = [v for v in range(pattern.r) if v != j]
        pattern = pattern.induced(keep)
        alpha = [alpha[v] for v in keep]

    positive = [v for v in range(pattern.r) if alpha[v] > 0]
    if len(positive) < pattern.r and positive:
        pattern = pattern.induced(positive)
        alpha = [alpha[v] for v in positive]

    zero = Fraction(0) if exact else 0.0
    merged = FeasibleTriple(pattern, tuple(alpha), triple.level)
    return MergeResult(merged, dropped, dropped == zero)


_RAMSEY_TABLE = {
    (3, 3): 6,
    (4, 3): 9,
    (5, 3): 14,
    (4, 4): 18,
    (3, 3, 3): 17,
}


def ramsey_upper_bound(k: ColourSeq) -> int:
    return _ramsey_bound(tuple(sorted(k.entries, reverse=True)))


@functools.cache
def _ramsey_bound(entries: tuple) -> int:
    entries = tuple(sorted((e for e in entries if e > 2), reverse=True))
    if not entries:
        return 1
    if len(entries) == 1:
        return entries[0]
    if entries in _RAMSEY_TABLE:
        return _RAMSEY_TABLE[entries]
    total = 2 - len(entries)
    for c in range(len(entries)):
        dec = entries[:c] + (entries[c] - 1,) + entries[c + 1 :]
        total += _ramsey_bound(dec)
    return total


# ---------------------------------------------------------------------------
# JSON pattern format:
# {"r": int, "s": int, "k": [int], "pairs": [[i, j, [colours]]],
#  "alpha": ["num/den"]} with 1-based vertices; omitted pairs are empty.


def triple_to_json(triple: FeasibleTriple, k: ColourSeq) -> dict:
    pattern = triple.pattern
    pairs = [
        [i + 1, j + 1, sorted(cs)]
        for (i, j), cs in sorted(pattern.assignment.items())
        if cs
    ]
    alpha = []
    for v in triple.weighting:
        f = v if isinstance(v, Fraction) else Fraction(v).limit_denominator(10**12)
        alpha.append(f"{f.numerator}/{f.denominator}")
    return {
        "r": pattern.r,
        "s": k.s,
        "k": list(k.entries),
        "pairs": pairs,
        "alpha": alpha,
        "level": triple.level,
    }


def triple_from_json(obj: dict) -> tuple:
    """Returns (FeasibleTriple, ColourSeq)."""
    k = validate_sequence(obj["k"])
    r = int(obj["r"])
    assignment = {}
    for i, j, colours in obj.get("pairs", []):
        assignment[(int(i) - 1, int(j) - 1)] = validate_colour_set(colours, k.s)
    pattern = ColourPattern(r, assignment)
    alpha_raw = obj.get("alpha")
    if alpha_raw is None:
        alpha = tuple(Fraction(1, r) for _ in range(r))
    else:
        alpha = tuple(Fraction(a) for a in alpha_raw)
    level = int(obj.get("level", 0))
    return FeasibleTriple(pattern, alpha, level), k
