"""Brute-force ground truth: counting clique-free edge colourings directly.

These routines are exponential; they exist to check the structural machinery
on small instances.  Two symmetries keep them exact and cheaper: colours with
equal clique orders are interchangeable, so the count walks one colouring per
orbit and weighs it by the orbit's size; and the graph sweep adds one edge per
pair of twin classes, since the other choices give isomorphic graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import core
from .graphs import SimpleGraph, canonical_matrix_code, has_clique, multipartite_parts, twin_classes


class TooLarge(core.ErlabError):
    pass


def count_valid_colourings(g: SimpleGraph, k: core.ColourSeq) -> int:
    """F(G; k): edge colourings of g with no K_{k_c} in colour c.

    Exact arbitrary-precision count by DFS with an incremental clique check
    on the freshly coloured edge, up to interchangeable colours.  Colours
    with equal k_c form runs of the sorted k.  Only the first colour of each
    run is open at the start, and the next colour of a run opens when the
    one before it is first used, so each orbit under permuting a run is
    walked once, in restricted-growth order.  The first use of the i-th
    colour (0-based) of a run of m weighs its subtree by m - i.
    """
    s = k.s
    e = len(g.edges)
    if (s == 2 and e > 24) or (s > 2 and s**e > 10**8):
        raise TooLarge(f"{s}^{e} colourings is beyond the brute-force guard")
    edges = sorted(g.edges)
    last = len(edges)
    # per colour: its adjacency masks, the clique order a new edge's common
    # neighbourhood must not contain (k_c - 2) and what its first use opens:
    # None, or (weight m - i, the next colour of its run); the last colour
    # of a run weighs 1 and opens nothing, so it is an ordinary colour
    plan = [None] * s
    later = 0  # colours after c in its run
    for c in reversed(range(s)):
        later = later + 1 if c + 1 < s and k.entries[c + 1] == k.entries[c] else 0
        plan[c] = ([0] * g.n, k.entries[c] - 2, (later + 1, plan[c + 1]) if later else None)
    open_colours = [plan[c] for c in range(s) if c == 0 or k.entries[c - 1] != k.entries[c]]
    count = 0

    def dfs(idx: int, open_colours: list, weight: int):
        nonlocal count
        if idx == last:
            count += weight
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


def graph_classes(n: int) -> list:
    """One edge set per isomorphism class of graphs on n vertices.

    Graphs are generated level-wise by edge additions from the empty graph,
    deduplicated by canonical code; every isomorphism class contains a chain
    down to the empty graph, so the sweep is exhaustive.  Of the non-edges
    joining the same two twin classes only the first in pair order is added:
    an automorphism maps it to each of the others, so they would give
    children isomorphic to one already tried.
    """
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
    return list(classes.values())


@dataclass
class ExtremalResult:
    n: int
    k: core.ColourSeq
    maximum: int
    maximisers: list  # SimpleGraph representatives, one per iso class
    all_complete_multipartite: bool
    classes_examined: int


def extremal_search(n: int, k: core.ColourSeq) -> ExtremalResult:
    """Maximise F(G; k) over all graphs on n vertices, up to isomorphism."""
    limit = 7 if k.s == 2 else 5
    if n > limit:
        raise TooLarge(f"extremal search limited to n <= {limit} for s={k.s}")
    classes = graph_classes(n)
    best = -1
    maximisers = []
    for edges in classes:
        g = SimpleGraph(n, edges)
        f = count_valid_colourings(g, k)
        if f > best:
            best, maximisers = f, [g]
        elif f == best:
            maximisers.append(g)
    return ExtremalResult(
        n=n,
        k=k,
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
    the exact product of |phi(ij)|^(n_i * n_j)."""
    sizes = round_weights(triple.weighting, n)
    total = 1
    pattern = triple.pattern
    for (i, j), cs in pattern.assignment.items():
        m = len(cs)
        if m == 0:
            if sizes[i] and sizes[j]:
                return 0
            continue
        total *= m ** (sizes[i] * sizes[j])
    return total
