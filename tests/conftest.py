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
