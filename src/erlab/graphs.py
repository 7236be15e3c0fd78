"""Simple graphs on [n] with bitmask adjacency, and exact clique routines."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class SimpleGraph:
    n: int
    edges: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"negative vertex count {self.n}")
        norm = frozenset((min(u, v), max(u, v)) for u, v in self.edges)
        for u, v in norm:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u},{v}) outside [0,{self.n})")
        object.__setattr__(self, "edges", norm)

    def adjacency_masks(self) -> list[int]:
        adj = [0] * self.n
        for u, v in self.edges:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return adj

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges

    def complement(self) -> "SimpleGraph":
        comp = {
            (u, v)
            for u in range(self.n)
            for v in range(u + 1, self.n)
            if (u, v) not in self.edges
        }
        return SimpleGraph(self.n, frozenset(comp))


def complete_graph(n: int) -> SimpleGraph:
    return SimpleGraph(n, frozenset((u, v) for u in range(n) for v in range(u + 1, n)))


def turan_graph(parts: int, n: int) -> SimpleGraph:
    """Complete multipartite graph with `parts` balanced classes on n vertices."""
    cls = [i % parts for i in range(n)]
    edges = {
        (u, v) for u in range(n) for v in range(u + 1, n) if cls[u] != cls[v]
    }
    return SimpleGraph(n, frozenset(edges))


def max_clique(g: SimpleGraph) -> tuple[int, list[int]]:
    """The clique number and the lexicographically least maximum clique:
    `has_clique` is asked for a clique one vertex larger until none exists."""
    adj = g.adjacency_masks()
    best: list[int] = []
    while (found := has_clique(adj, len(best) + 1)) is not None:
        best = found
    return len(best), best


def has_clique(adj: list[int], k: int, within: int | None = None) -> list[int] | None:
    """The lexicographically least clique of size k in the bitmask
    adjacency, inside the vertex mask `within` (every vertex by default), or
    None.

    Cheap incremental check used while growing colour graphs, where most
    calls ask for a vertex or an edge inside a mask of a few vertices: k <= 2
    is a plain bit scan (the least vertex of the mask; the least vertex with
    a later neighbour in the mask, and its least such neighbour), and only
    k >= 3 builds the recursive search.
    """
    if k <= 0:
        return []
    cand = (1 << len(adj)) - 1 if within is None else within
    if k == 1:
        return [(cand & -cand).bit_length() - 1] if cand else None
    if k == 2:
        while cand:
            v = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            later = cand & adj[v]
            if later:
                return [v, (later & -later).bit_length() - 1]
        return None

    def grow(clique: list[int], cand_mask: int) -> list[int] | None:
        if len(clique) == k:
            return clique
        need = k - len(clique) - 1  # vertices still wanted after the next
        while cand_mask.bit_count() > need:
            v = (cand_mask & -cand_mask).bit_length() - 1
            cand_mask &= cand_mask - 1
            later = cand_mask & adj[v]
            if later.bit_count() >= need:
                found = grow(clique + [v], later)
                if found is not None:
                    return found
        return None

    return grow([], cand)


def maximal_cliques(g: SimpleGraph) -> list[list[int]]:
    """All maximal cliques (Bron-Kerbosch with pivoting)."""
    adj = g.adjacency_masks()
    n = g.n
    out: list[list[int]] = []

    def bk(r_mask: int, p_mask: int, x_mask: int):
        if p_mask == 0 and x_mask == 0:
            out.append([v for v in range(n) if r_mask >> v & 1])
            return
        # pivot: vertex of P|X with most neighbours in P
        pivot, best_deg = -1, -1
        m = p_mask | x_mask
        while m:
            u = (m & -m).bit_length() - 1
            m &= m - 1
            deg = bin(p_mask & adj[u]).count("1")
            if deg > best_deg:
                pivot, best_deg = u, deg
        ext = p_mask & ~adj[pivot]
        while ext:
            v = (ext & -ext).bit_length() - 1
            ext &= ext - 1
            bk(r_mask | (1 << v), p_mask & adj[v], x_mask & adj[v])
            p_mask &= ~(1 << v)
            x_mask |= 1 << v

    bk(0, (1 << n) - 1, 0)
    return out


def multipartite_parts(g: SimpleGraph) -> list[int] | None:
    """The parts (vertex masks) of a complete multipartite graph, or None
    when g is not one, that is when non-adjacency is not transitive."""
    full = (1 << g.n) - 1
    parts = [full & ~a for a in g.adjacency_masks()]
    if any(parts[u] != parts[v] for v in range(g.n) for u in range(g.n) if parts[v] >> u & 1):
        return None
    return sorted(set(parts))


def twin_classes(matrix) -> list:
    """Each vertex's twin class in the symmetric matrix, numbered by its
    first vertex: u and v are twins when matrix[u][x] == matrix[v][x] for
    every x other than u and v.  This is an equivalence (twins u, v and w
    see one value on all three pairs), and permuting a class maps the
    matrix to itself."""
    n = len(matrix)
    cls: list[int] = []
    for v in range(n):
        mv = matrix[v]
        for u in range(v):
            mu = matrix[u]
            if cls[u] == u and all(mu[x] == mv[x] for x in range(n) if x != u and x != v):
                cls.append(u)
                break
        else:
            cls.append(v)
    return cls


def _split(mv, cells) -> tuple:
    """The cells, each split by its entries in row mv into parts in
    ascending order of entry (a cell keeps its order within a part, and
    empty cells are dropped)."""
    split = []
    for cell in cells:
        if len(cell) == 1:
            split.append(cell)
        elif cell:
            groups: dict = {}
            for x in cell:
                groups.setdefault(mv[x], []).append(x)
            if len(groups) == 1:
                split.append(cell)
            else:
                split += [tuple(groups[value]) for value in sorted(groups)]
    return tuple(split)


def canonical_matrix_code(r: int, matrices) -> bytes:
    """The least code bytes(m[o[a]][o[b]] for a < b, row-major) over the
    symmetric r x r matrices m and all vertex orders o (McKay's exact
    min-lex search, without invariant refinement).

    Position i takes a vertex from the cell holding it; every later cell is
    then split by its entry against that vertex, ascending, as minimality
    forces, so row i is known once position i is filled.  The search runs
    level by level, in two passes: every child of the frontier gets its row,
    its entries sorted within each cell, read before any split; then only
    the children whose row is the least of the level have their cells split
    (`_split`) and are kept.  At position 0 the one cell holds every vertex,
    so a vertex's row is its whole row sorted, less its own diagonal entry.
    A node is a matrix and its cells, which alone fix the subtree below it,
    so equal nodes reached by different prefixes are kept once; this keeps
    matrices with many automorphisms from costing r! orders.
    """
    matrices = list(matrices)
    everyone = tuple(range(r))
    code = []
    for position in range(r - 1):
        rows, children = [], []
        if position == 0:
            for index, m in enumerate(matrices):
                for v in everyone:
                    mv = m[v]
                    row = sorted(mv)
                    row.remove(mv[v])
                    rows.append(bytes(row))
                    children.append((index, v, everyone, ()))
        else:
            for index, (first, *rest) in frontier:
                m = matrices[index]
                for v in first:
                    mv = m[v]
                    row = sorted([mv[x] for x in first if x != v])
                    for cell in rest:
                        if len(cell) == 1:
                            row.append(mv[cell[0]])
                        else:
                            row += sorted([mv[x] for x in cell])
                    rows.append(bytes(row))
                    children.append((index, v, first, rest))
        low = min(rows)
        code.append(low)
        if position == r - 2:
            break
        frontier = {
            (index, _split(matrices[index][v], (tuple([x for x in first if x != v]), *rest)))
            for row, (index, v, first, rest) in zip(rows, children)
            if row == low
        }
    return b"".join(code)


def graph_to_json(g: SimpleGraph) -> dict:
    return {"n": g.n, "edges": sorted([u + 1, v + 1] for u, v in g.edges)}


def json_int(value) -> int:
    """A JSON integer as `json` reads it: an int, never a bool, float or string."""
    if type(value) is not int:
        raise ValueError(f"{value!r} is not an integer")
    return value


def graph_from_json(obj: dict) -> SimpleGraph:
    n = json_int(obj["n"])
    edges = frozenset((json_int(u) - 1, json_int(v) - 1) for u, v in obj.get("edges", []))
    return SimpleGraph(n, edges)
