"""Blow-up capacity of clique-free graphs and the optimality validators.

Cap(G, k) collects the integer vectors l for which replacing each vertex i
of G by a clique of order l_i keeps the graph K_k-free.  Equivalently,
sum of l_i over every clique of G stays below k.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import core
from .core import NotBasicOptimal
from .graphs import SimpleGraph, has_clique, maximal_cliques


class NotKFree(core.ErlabError):
    pass


@dataclass(frozen=True)
class CapacityDescription:
    kind: str  # "OnlyOnes" | "SumBounded" | "ExplicitAntichain"
    n: int
    bound: int | None = None  # k-1 for SumBounded
    max_vectors: tuple = ()

    def contains(self, vec) -> bool:
        vec = tuple(vec)
        if len(vec) != self.n or any(v < 1 for v in vec):
            return False
        if self.kind == "OnlyOnes":
            return all(v == 1 for v in vec)
        if self.kind == "SumBounded":
            return sum(vec) <= self.bound
        return any(all(a <= b for a, b in zip(vec, mx)) for mx in self.max_vectors)

    def is_trivial(self) -> bool:
        return self.kind == "OnlyOnes" or (
            self.kind == "SumBounded" and self.bound == self.n
        )


def blowup(g: SimpleGraph, sizes) -> SimpleGraph:
    """Replace vertex i by a clique of order sizes[i], joined across edges."""
    offsets = []
    total = 0
    for s in sizes:
        offsets.append(total)
        total += s
    edges = set()
    for i in range(g.n):
        for a in range(sizes[i]):
            for b in range(a + 1, sizes[i]):
                edges.add((offsets[i] + a, offsets[i] + b))
    for u, v in g.edges:
        for a in range(sizes[u]):
            for b in range(sizes[v]):
                edges.add(tuple(sorted((offsets[u] + a, offsets[v] + b))))
    return SimpleGraph(total, frozenset(edges))


def capacity(g: SimpleGraph, k: int) -> CapacityDescription:
    if g.n > 12:
        raise core.ErlabError(f"capacity limited to n <= 12, got {g.n}")
    if has_clique(g.adjacency_masks(), k) is not None:
        raise NotKFree(f"graph contains K_{k}")
    if len(g.edges) == g.n * (g.n - 1) // 2:
        # complete graph: the blow-up is a clique of order sum(l)
        if k - 1 == g.n:
            return CapacityDescription("OnlyOnes", g.n)
        return CapacityDescription("SumBounded", g.n, bound=k - 1)
    cliques = [c for c in maximal_cliques(g) if c]
    # l is feasible iff every maximal clique sums to at most k-1.  That set
    # is downward-closed, so l is maximal iff every vertex lies in a maximal
    # clique summing to exactly k-1.  Unset entries count as 1, so slack[c]
    # is what the next vertex of c may still add; a vertex is judged once
    # the last of its cliques is set.
    slack = [k - 1 - len(c) for c in cliques]
    mine = [[ci for ci, c in enumerate(cliques) if u in c] for u in range(g.n)]
    due = [[] for _ in range(g.n)]
    for u in range(g.n):
        due[max(cliques[ci][-1] for ci in mine[u])].append(u)
    vec = [1] * g.n
    maxima = []  # in lexicographic order

    def dfs(i: int):
        if i == g.n:
            maxima.append(tuple(vec))
            return
        for extra in range(min(slack[ci] for ci in mine[i]) + 1):
            vec[i] = 1 + extra
            for ci in mine[i]:
                slack[ci] -= extra
            if all(any(slack[ci] == 0 for ci in mine[u]) for u in due[i]):
                dfs(i + 1)
            for ci in mine[i]:
                slack[ci] += extra
        vec[i] = 1

    dfs(0)
    if maxima == [tuple([1] * g.n)]:
        return CapacityDescription("OnlyOnes", g.n)
    return CapacityDescription("ExplicitAntichain", g.n, max_vectors=tuple(maxima))


def is_maximally_kfree(g: SimpleGraph, k: int):
    """True iff g is K_k-free and every added non-edge creates a K_k.

    Returns (ok, witness); witness is ("clique", vertices) when g is not
    K_k-free and ("non-edge", (u, v)) when some addition stays K_k-free.
    """
    adj = g.adjacency_masks()
    w = has_clique(adj, k)
    if w is not None:
        return False, ("clique", w)
    # g is K_k-free, so a K_k made by adding uv holds u, v and a K_{k-2}
    # of common neighbours
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if not g.has_edge(u, v) and has_clique(adj, k - 2, adj[u] & adj[v]) is None:
                return False, ("non-edge", (u, v))
    return True, None


def validate_nocap(triple: core.FeasibleTriple, k: core.ColourSeq) -> dict:
    """Structural checks every basic optimal solution must pass.

    Per colour c: the colour graph is maximally K_{k_c}-free; its capacity is
    trivial except possibly for colour 1 when k_1 > k_2 (and then the colour-1
    graph is complete with capacity the simplex ||l||_1 <= k_1 - 1); and the
    vertex count is at least k_2 - 1.
    """
    ok, witness = core.is_feasible(triple.pattern, k, level=2)
    if not ok or any(a <= 0 for a in triple.weighting):
        raise NotBasicOptimal(f"triple not in feas* for {k}: {witness}")
    r = triple.pattern.r
    report = {"colours": {}, "r_at_least_k2_minus_1": r >= k[2] - 1, "passed": True}
    for c in k.colours():
        g = triple.pattern.colour_graph(c)
        maxfree, wit = is_maximally_kfree(g, k[c])
        cap = capacity(g, k[c])
        complete = len(g.edges) == r * (r - 1) // 2
        if c == 1 and k[1] > k[2]:
            cap_ok = cap.is_trivial() or (cap.kind == "SumBounded" and complete)
        else:
            cap_ok = cap.is_trivial()
        entry = {
            "maximally_kfree": maxfree,
            "witness": wit,
            "capacity": cap.kind,
            "capacity_ok": cap_ok,
        }
        report["colours"][c] = entry
        if not (maxfree and cap_ok):
            report["passed"] = False
    if not report["r_at_least_k2_minus_1"]:
        report["passed"] = False
    return report
