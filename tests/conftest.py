"""Shared helpers: random instance generators and independent brute-force
oracles (kept deliberately naive so they share no logic with the library)."""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

from erlab import core
from erlab.capacity import blowup
from erlab.oracle import _canonical_graph_code
from erlab.graphs import SimpleGraph, max_clique
from erlab.logform import LogLinear


def relabel(pattern, perm):
    """Apply a vertex permutation (perm[i] = new index of i)."""
    return core.ColourPattern(
        pattern.r, {(perm[i], perm[j]): cs for (i, j), cs in pattern.assignment.items()}
    )


def relabel_colours(pattern, cperm):
    """Apply a colour permutation given as {old: new}."""
    return core.ColourPattern(
        pattern.r,
        {p: frozenset(cperm[c] for c in cs) for p, cs in pattern.assignment.items()},
    )


def random_colour_sets(rng, s, allow_empty=True):
    pool = list(range(1, s + 1))
    size_lo = 0 if allow_empty else 1
    size = rng.randint(size_lo, s)
    return frozenset(rng.sample(pool, size))


def random_pattern(rng, r, k, level=0, tries=200):
    """A random pattern feasible at the given level, or None."""
    for _ in range(tries):
        assignment = {}
        for i in range(r):
            for j in range(i + 1, r):
                cs = random_colour_sets(rng, k.s, allow_empty=(level == 0))
                while len(cs) < level:
                    cs = random_colour_sets(rng, k.s)
                assignment[(i, j)] = cs
        pattern = core.ColourPattern(r, assignment)
        ok, _ = core.is_feasible(pattern, k, level)
        if ok:
            return pattern
    return None


def random_rational_simplex(rng, r):
    raw = [rng.randint(1, 20) for _ in range(r)]
    total = sum(raw)
    return tuple(Fraction(x, total) for x in raw)


def random_float_simplex(rng, r):
    raw = [rng.random() + 1e-9 for _ in range(r)]
    total = sum(raw)
    vals = [x / total for x in raw]
    vals[-1] = 1.0 - sum(vals[:-1])
    return tuple(vals)


def brute_force_count(g: SimpleGraph, k: core.ColourSeq) -> int:
    """Independent oracle: iterate every colouring, test every clique of g
    of each colour's forbidden order."""
    edges = sorted(g.edges)
    index = {e: i for i, e in enumerate(edges)}
    cliques = [
        (c, [index[uv] for uv in itertools.combinations(sub, 2)])
        for c in k.colours()
        for sub in itertools.combinations(range(g.n), k[c])
        if all(uv in index for uv in itertools.combinations(sub, 2))
    ]
    count = 0
    for colouring in itertools.product(k.colours(), repeat=len(edges)):
        if not any(all(colouring[i] == c for i in clique) for c, clique in cliques):
            count += 1
    return count


@functools.cache
def unpruned_graph_classes(n: int) -> tuple:
    """One edge set per isomorphism class of graphs on n vertices, in the
    order found: level-wise edge additions from the empty graph, every
    non-edge of every representative tried (no twin pruning), deduplicated
    by canonical code."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    classes = {_canonical_graph_code(n, frozenset()): frozenset()}
    frontier = dict(classes)
    while frontier:
        nxt = {}
        for edges in frontier.values():
            for p in pairs:
                if p not in edges:
                    code = _canonical_graph_code(n, edges | {p})
                    if code not in classes and code not in nxt:
                        nxt[code] = edges | {p}
        classes.update(nxt)
        frontier = nxt
    return tuple(classes.values())


def brute_force_max_clique(g: SimpleGraph) -> int:
    best = 0
    for size in range(g.n, 0, -1):
        for sub in itertools.combinations(range(g.n), size):
            if all(g.has_edge(u, v) for u, v in itertools.combinations(sub, 2)):
                return size
    return best


def capacity_member_bruteforce(g: SimpleGraph, k: int, vec) -> bool:
    """Oracle: construct the blow-up explicitly and take its clique number."""
    size, _ = max_clique(blowup(g, list(vec)))
    return size < k


def ext_value(profile, weighting) -> float:
    """The attachment's contribution sum alpha_i log2|cs_i|, summed directly."""
    return sum(float(weighting[i]) * math.log2(len(cs)) for i, cs in enumerate(profile) if cs)


def fraction_vertices(instance) -> list:
    """Reference: the LP's vertices by Gaussian elimination in Fractions over
    every choice of s - 1 of its rows (box, budget and constraint rows, each
    with its rational right-hand side), kept when they satisfy every row."""
    ts = range(2, instance.k.s + 1)
    rows = []
    for t in ts:
        e = tuple(Fraction(int(u == t)) for u in ts)
        rows += [(e, Fraction(1)), (tuple(-x for x in e), Fraction(0))]
    rows.append((tuple(Fraction(t) for t in ts), instance.budget))
    rows += [(tuple(Fraction(int(t in con.T)) for t in ts), con.cap) for con in instance.constraints]
    m = len(ts)
    out = set()
    for combo in itertools.combinations(rows, m):
        a = [list(coeffs) + [b] for coeffs, b in combo]
        for col in range(m):
            piv = next((i for i in range(col, m) if a[i][col] != 0), None)
            if piv is None:
                break
            a[col], a[piv] = a[piv], a[col]
            a[col] = [x / a[col][col] for x in a[col]]
            for i in range(m):
                if i != col and a[i][col] != 0:
                    f = a[i][col]
                    a[i] = [x - f * y for x, y in zip(a[i], a[col])]
        else:
            point = tuple(a[i][m] for i in range(m))
            if all(sum(c * x for c, x in zip(coeffs, point)) <= b for coeffs, b in rows):
                out.add(point)
    return sorted(out)


def fraction_solve(instance):
    """Reference: (vertices, optimal d, unique, vertex count) from
    `fraction_vertices`, the first optimal vertex in sorted order as d."""
    vertices = fraction_vertices(instance)
    values = [sum((LogLinear.log2(t, dt) for t, dt in enumerate(v, start=2)), LogLinear()) for v in vertices]
    best = values[0]
    for v in values[1:]:
        if best < v:
            best = v
    optimal = [v for v, val in zip(vertices, values) if val == best]
    return vertices, optimal[0], len(optimal) == 1, len(vertices)
