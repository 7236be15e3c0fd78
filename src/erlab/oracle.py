"""Brute-force ground truth: counting clique-free edge colourings directly.

These routines are exponential; they exist to check the structural machinery
on small instances.  Two symmetries keep them exact and cheaper: colours with
equal clique orders are interchangeable, so the count walks one colouring per
orbit and weighs it by the orbit's size; and the graph sweep adds one edge per
pair of twin classes, since the other choices give isomorphic graphs.  The
count colours edges in colex order, so each clique is tested as soon as all
its vertices are present, with a vertex of largest degree last, and counts
every colouring of that vertex's last TAIL star edges at once, from one
truth table per colour over the subsets of those edges.  The sweep is built
once per n per process, and the extremal search counts its classes densest
first, skipping each class whose restriction bound is below the best count
so far.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import core
from .graphs import (
    SimpleGraph,
    canonical_matrix_code,
    complete_graph,
    has_clique,
    max_clique,
    multipartite_parts,
    twin_classes,
)


class TooLarge(core.ErlabError):
    pass


# blow-up counts from 10^BLOWUP_LOG10 up are refused: they could have more
# than the 4,300 digits that int-to-str conversion accepts by default
BLOWUP_LOG10 = 4299


TAIL = 6  # star edges of the tally vertex counted at once: tables of 2^6 bits


@functools.lru_cache(maxsize=TAIL)
def _miss_tables(d: int) -> tuple:
    """Over the 2^d subsets S of d tail edges, as 2^d-bit tables with bit S
    for subset S: for each mask L, the table of the S that miss L and the
    table of the S whose complement misses L (the S that contain L)."""
    miss = tuple(sum(1 << S for S in range(1 << d) if not S & L) for L in range(1 << d))
    cover = tuple(sum(1 << S for S in range(1 << d) if S & L == L) for L in range(1 << d))
    return miss, cover


def _star_table(adj: list, j: int, fixed: int, free: int, t0: int, miss: tuple) -> int:
    """The tail subsets S (bit S of a 2^d-bit table) for which the vertices
    `fixed` plus the tail vertices t0 + x, x in S and in the mask `free`,
    span no K_j in adj.  With miss[L] the table of the S that miss L, a
    clique through a tail vertex is found from its least one, x: the rest is
    a K_{j-1} among x's neighbours, fixed or in the tail above x.  With the
    `cover` tables of `_miss_tables` in place of `miss`, bit S is that of
    the complement of S."""
    if j == 1:
        return 0 if fixed else miss[free]
    if fixed and has_clique(adj, j, fixed) is not None:
        return 0
    table = miss[0]
    while free and table:
        low = free & -free
        free ^= low
        nx = adj[t0 + low.bit_length() - 1]
        table &= miss[low] | _star_table(adj, j - 1, fixed & nx, free & (nx >> t0), t0, miss)
    return table


def _splits(tables: list, last: int, used: int, miss: tuple) -> int:
    """Ways to give each colour of `tables`, in turn, a part of the tail
    outside `used` that its table allows, the rest going to the colour whose
    complemented table is `last`."""
    allowed = tables[0] & miss[used]
    if len(tables) == 1:
        return (allowed & (last >> used)).bit_count()
    ways = 0
    while allowed:
        part = allowed & -allowed
        allowed ^= part
        ways += _splits(tables[1:], last, used | (part.bit_length() - 1), miss)
    return ways


def _guard(s: int, e: int) -> None:
    """Refuse to count the s^e colourings of e edges when there are too many."""
    if (s == 2 and e > 24) or (s > 2 and s**e > 10**8):
        raise TooLarge(f"{s}^{e} colourings is beyond the brute-force guard")


def count_valid_colourings(g: SimpleGraph, k: core.ColourSeq) -> int:
    """F(G; k): edge colourings of g with no K_{k_c} in colour c.

    Exact arbitrary-precision count by DFS with an incremental clique check
    on the freshly coloured edge, up to interchangeable colours.  Colours
    with equal k_c form runs of the sorted k.  Only the first colour of each
    run is open at the start, and the next colour of a run opens when the
    one before it is first used, so each orbit under permuting a run is
    walked once, in restricted-growth order.  The first use of the i-th
    colour (0-based) of a run of m weighs its subtree by m - i.

    The vertices are relabelled so that a vertex w of largest degree comes
    last and its neighbours first, and edges are visited in colex order
    (larger endpoint, then smaller): all edges among smaller vertices are
    coloured before those of a new vertex, so a branch that closes a
    forbidden clique is cut at the clique's last edge, and w's star comes
    last.  The DFS stops before the last d = min(deg w, TAIL) star edges,
    the tail, and counts every colouring of the tail at once.  Per colour,
    a table over the 2^d subsets S of the tail marks those that w's fixed
    neighbours in that colour plus S leave without a K_{k_c - 1}; the tally
    is the number of splits of the tail into one allowed part per colour.
    Colours not yet used take part with empty graphs: the tally then counts
    every naming of the new colour classes by unused colours of their runs,
    which is what the restricted-growth weights m - i would add up, so each
    node adds its weight times its splits.  The empty graph counts 1.
    """
    s = k.s
    e = len(g.edges)
    _guard(s, e)
    if not e:
        return 1
    n = g.n
    masks = g.adjacency_masks()
    w = max(range(n), key=lambda v: masks[v].bit_count())
    star = [v for v in range(n) if masks[w] >> v & 1]
    order = star + [v for v in range(n) if v != w and not masks[w] >> v & 1] + [w]
    label = {v: i for i, v in enumerate(order)}
    edges = sorted(sorted((label[u], label[v]), reverse=True) for u, v in g.edges)  # colex
    d = min(len(star), TAIL)
    stop, t0, free = e - d, len(star) - d, (1 << d) - 1
    miss, cover = _miss_tables(d)
    # per colour: its adjacency masks, the clique order a new edge's common
    # neighbourhood must not contain (k_c - 2) and what its first use opens:
    # None, or (weight m - i, the next colour of its run); the last colour
    # of a run weighs 1 and opens nothing, so it is an ordinary colour
    plan = [None] * s
    later = 0  # colours after c in its run
    for c in reversed(range(s)):
        later = later + 1 if c + 1 < s and k.entries[c + 1] == k.entries[c] else 0
        plan[c] = ([0] * n, k.entries[c] - 2, (later + 1, plan[c + 1]) if later else None)
    open_colours = [plan[c] for c in range(s) if c == 0 or k.entries[c - 1] != k.entries[c]]
    *first, final = [(adj, need + 1) for adj, need, _ in plan]
    count = 0

    def dfs(idx: int, open_colours: list, weight: int):
        nonlocal count
        if idx == stop:
            tables = [_star_table(adj, j, adj[n - 1], free, t0, miss) for adj, j in first]
            last = _star_table(final[0], final[1], final[0][n - 1], free, t0, cover)
            count += weight * _splits(tables, last, 0, miss)
            return
        u, v = edges[idx]
        bu, bv = 1 << u, 1 << v
        for colour in open_colours:
            adj, need, opens = colour
            common = adj[u] & adj[v]
            if common and (need == 1 or has_clique(adj, need, common) is not None):
                continue
            adj[u] |= bv
            adj[v] |= bu
            if opens is None:
                dfs(idx + 1, open_colours, weight)
            else:
                factor, nxt = opens
                used = (adj, need, None)
                dfs(idx + 1, [used if o is colour else o for o in open_colours] + [nxt], weight * factor)
            adj[u] &= ~bv
            adj[v] &= ~bu

    dfs(0, open_colours, 1)
    return count


def _adjacency_matrix(n: int, edges: frozenset) -> list:
    adj = [[0] * n for _ in range(n)]
    for u, v in edges:
        adj[u][v] = adj[v][u] = 1
    return adj


def _canonical_graph_code(n: int, edges: frozenset) -> bytes:
    return canonical_matrix_code(n, [_adjacency_matrix(n, edges)])


def is_complete_multipartite(g: SimpleGraph) -> bool:
    """True iff the complement is a disjoint union of cliques."""
    return multipartite_parts(g) is not None


@functools.cache
def _sweep(n: int) -> tuple:
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    classes = {_canonical_graph_code(n, frozenset()): frozenset()}
    frontier = dict(classes)
    while frontier:
        nxt = {}
        for edges in frontier.values():
            cls = twin_classes(_adjacency_matrix(n, edges))
            tried = set()
            for p in pairs:
                key = (cls[p[0]], cls[p[1]])
                if p in edges or key in tried:
                    continue
                tried.add(key)
                e2 = edges | {p}
                code = _canonical_graph_code(n, e2)
                if code not in classes and code not in nxt:
                    nxt[code] = e2
        classes.update(nxt)
        frontier = nxt
    return tuple(classes.values())


def graph_classes(n: int) -> list:
    """One edge set per isomorphism class of graphs on n vertices.

    Graphs are generated level-wise by edge additions from the empty graph,
    deduplicated by canonical code; every isomorphism class contains a chain
    down to the empty graph, so the sweep is exhaustive.  Of the non-edges
    joining the same two twin classes only the first in pair order is added:
    an automorphism maps it to each of the others, so they would give
    children isomorphic to one already tried.  The sweep is built once per
    n per process; each call returns a fresh list of its classes, in the
    order they were found.
    """
    return list(_sweep(n))


@functools.cache
def _densest_first(n: int) -> tuple:
    """(class index, graph, edge count, clique number) of every class of
    `graph_classes(n)`, edge count descending, ties in class order."""
    graphs = [SimpleGraph(n, edges) for edges in _sweep(n)]
    order = sorted(range(len(graphs)), key=lambda i: -len(graphs[i].edges))
    return tuple((i, graphs[i], len(graphs[i].edges), max_clique(graphs[i])[0]) for i in order)


@dataclass
class ExtremalResult:
    maximum: int
    maximisers: list  # SimpleGraph representatives, one per iso class
    all_complete_multipartite: bool
    classes_examined: int


def extremal_search(n: int, k: core.ColourSeq) -> ExtremalResult:
    """Maximise F(G; k) over all graphs on n vertices, up to isomorphism.

    The classes of `graph_classes(n)` are counted densest first (edge count
    descending, ties in class order), so K_n comes first.  A class G is
    ruled out, uncounted, when an upper bound on F(G; k) is strictly below
    the best count so far: s^e(G), then F(K_w; k) s^(e(G) - C(w, 2)) with w
    the clique number of G, since every valid colouring of G restricts to
    one of a K_w inside it; F(K_w; k) is counted once per w.  Every class
    that attains the maximum is counted, and the maximisers are listed in
    class order; `classes_examined` counts the classes swept, not the
    classes counted.  The size guard of `count_valid_colourings` is tried on
    each edge count in turn first, so a refusal names the sparsest class
    it refuses, as it would in a sweep in class order.
    """
    limit = 7 if k.s == 2 else 5
    if n > limit:
        raise TooLarge(f"extremal search limited to n <= {limit} for s={k.s}")
    s = k.s
    for e in range(math.comb(n, 2) + 1):
        _guard(s, e)
    classes = _densest_first(n)
    clique_counts = {}
    best = -1
    maximisers = []
    for index, g, e, w in classes:
        if s**e < best:
            continue
        if best > 0:
            if w not in clique_counts:
                clique_counts[w] = count_valid_colourings(complete_graph(w), k)
            if clique_counts[w] * s ** (e - math.comb(w, 2)) < best:
                continue
        f = count_valid_colourings(g, k)
        if f > best:
            best, maximisers = f, [(index, g)]
        elif f == best:
            maximisers.append((index, g))
    maximisers = [g for _, g in sorted(maximisers, key=lambda m: m[0])]
    return ExtremalResult(
        maximum=best,
        maximisers=maximisers,
        all_complete_multipartite=all(is_complete_multipartite(g) for g in maximisers),
        classes_examined=len(classes),
    )


def round_weights(weighting, n: int) -> list:
    """Integer part sizes summing to n, by largest remainder (ties to the
    smaller index)."""
    fracs = [Fraction(w) if isinstance(w, (int, Fraction)) else Fraction(w).limit_denominator(10**9) for w in weighting]
    floors = [int(f * n) for f in fracs]
    rem = n - sum(floors)
    order = sorted(range(len(fracs)), key=lambda i: (-(fracs[i] * n - floors[i]), i))
    for i in order[:rem]:
        floors[i] += 1
    return floors


def pattern_colouring_count(triple: core.FeasibleTriple, n: int) -> int:
    """Colourings realised by the blow-up of a pattern with n vertices:
    the exact product of |phi(ij)|^(n_i * n_j).  A nonzero product of
    10^BLOWUP_LOG10 or more is refused before it is built."""
    sizes = round_weights(triple.weighting, n)
    factors = [(len(cs), sizes[i] * sizes[j]) for (i, j), cs in triple.pattern.assignment.items()]
    if any(m == 0 and power for m, power in factors):
        return 0
    log10 = sum(power * math.log10(m) for m, power in factors if m)
    if log10 >= BLOWUP_LOG10:
        raise TooLarge(f"the blow-up count is about 10^{log10:.0f}, beyond the 10^{BLOWUP_LOG10} guard")
    return math.prod(m**power for m, power in factors)
