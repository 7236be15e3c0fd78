import itertools
import random

from conftest import brute_force_max_clique

from erlab.graphs import (
    SimpleGraph,
    canonical_matrix_code,
    complete_graph,
    graph_from_json,
    graph_to_json,
    has_clique,
    max_clique,
    maximal_cliques,
    turan_graph,
)


def random_graph(rng, n, p=0.5):
    edges = {
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    }
    return SimpleGraph(n, frozenset(edges))


def test_max_clique_matches_brute_force():
    rng = random.Random(42)
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 8), rng.random())
        size, witness = max_clique(g)
        assert size == brute_force_max_clique(g)
        assert all(g.has_edge(u, v) for i, u in enumerate(witness) for v in witness[i + 1 :])


def test_has_clique_witness_is_a_clique():
    rng = random.Random(43)
    for _ in range(200):
        g = random_graph(rng, rng.randint(2, 8))
        k = rng.randint(2, 5)
        w = has_clique(g.adjacency_masks(), k)
        if w is None:
            assert brute_force_max_clique(g) < k
        else:
            assert len(w) == k
            assert all(g.has_edge(u, v) for i, u in enumerate(w) for v in w[i + 1 :])


def test_turan_graph_is_kfree_and_maximal_parts():
    g = turan_graph(3, 9)
    assert max_clique(g)[0] == 3
    assert len(g.edges) == 27


def test_maximal_cliques_cover_and_are_maximal():
    rng = random.Random(44)
    for _ in range(100):
        g = random_graph(rng, rng.randint(1, 7))
        cliques = maximal_cliques(g)
        adj = g.adjacency_masks()
        seen = set()
        for c in cliques:
            seen.update(c)
            assert all(g.has_edge(u, v) for i, u in enumerate(c) for v in c[i + 1 :])
            # maximality: no vertex extends it
            for v in range(g.n):
                if v not in c:
                    assert not all((adj[v] >> u) & 1 for u in c)
        assert seen == set(range(g.n))


def test_complement_involution_and_json_roundtrip():
    g = complete_graph(5)
    assert g.complement().edges == frozenset()
    rng = random.Random(45)
    g = random_graph(rng, 6)
    assert g.complement().complement() == g
    assert graph_from_json(graph_to_json(g)) == g


def test_canonical_matrix_code_is_the_least_code_over_all_orders():
    rng = random.Random(12)
    for _ in range(300):
        r = rng.randint(0, 6)
        matrices = []
        for _ in range(rng.randint(1, 3)):
            m = [[0] * r for _ in range(r)]
            for i, j in itertools.combinations(range(r), 2):
                m[i][j] = m[j][i] = rng.randrange(rng.randint(1, 4))
            matrices.append(m)
        least = min(
            bytes(m[o[a]][o[b]] for a, b in itertools.combinations(range(r), 2))
            for m in matrices
            for o in itertools.permutations(range(r))
        )
        assert canonical_matrix_code(r, matrices) == least


def test_has_clique_returns_least_clique_within_mask():
    # the witness is the lexicographically least k-clique inside the mask
    rng = random.Random(47)
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 8))
        k = rng.randint(1, 4)
        within = rng.choice([None, rng.getrandbits(g.n)])
        allowed = [v for v in range(g.n) if within is None or within >> v & 1]
        cliques = [
            list(sub)
            for sub in itertools.combinations(allowed, k)
            if all(g.has_edge(u, v) for u, v in itertools.combinations(sub, 2))
        ]
        assert has_clique(g.adjacency_masks(), k, within) == (cliques[0] if cliques else None)


def test_canonical_matrix_code_on_highly_symmetric_matrices():
    # matrices with large automorphism groups, several passed at once, against
    # the least code over every vertex order
    def all_equal(r):
        return [[0 if i == j else 1 for j in range(r)] for i in range(r)]

    def k33_plus_k1(order):
        side = {v: i for i, v in enumerate(order)}
        return [
            [int(a != b and a < 6 and b < 6 and (side[a] < 3) != (side[b] < 3)) for b in range(7)]
            for a in range(7)
        ]

    def two_orbits(r, split):
        orbit = [int(v >= split) for v in range(r)]
        return [
            [0 if i == j else 1 + orbit[i] + orbit[j] for j in range(r)] for i in range(r)
        ]

    def least(r, matrices):
        return min(
            bytes(m[o[a]][o[b]] for a, b in itertools.combinations(range(r), 2))
            for m in matrices
            for o in itertools.permutations(range(r))
        )

    rng = random.Random(13)
    cases = [(r, [all_equal(r)]) for r in range(8)]
    cases += [(7, [k33_plus_k1(rng.sample(range(6), 6)) for _ in range(3)])]
    cases += [(7, [k33_plus_k1(range(6)), all_equal(7)])]
    cases += [(r, [two_orbits(r, s) for s in range(r + 1)]) for r in range(1, 8)]
    cases += [(6, [two_orbits(6, 3), all_equal(6), two_orbits(6, 2)])]
    for r, matrices in cases:
        assert canonical_matrix_code(r, matrices) == least(r, matrices), r
    assert canonical_matrix_code(8, [all_equal(8)]) == bytes([1] * 28)


def _least_clique(g, k, within):
    allowed = [v for v in range(g.n) if within is None or within >> v & 1]
    for sub in itertools.combinations(allowed, k):
        if all(g.has_edge(u, v) for u, v in itertools.combinations(sub, 2)):
            return list(sub)
    return None


def test_has_clique_small_orders_edge_cases():
    # k <= 2 is a bit scan; it must give the brute force's least clique
    rng = random.Random(48)
    path = SimpleGraph(4, frozenset({(1, 2), (2, 3)}))
    cases = [
        (SimpleGraph(0), k, within) for k in range(4) for within in (None, 0)
    ]
    cases += [(path, k, within) for k in range(4) for within in (None, 0, 0b1111)]
    # single-vertex masks
    cases += [(path, k, 1 << v) for k in range(4) for v in range(4)]
    # the least vertex of the mask has no later neighbour inside it
    cases += [(path, 2, 0b1101), (path, 2, 0b1011), (path, 2, 0b1001), (path, 2, 0b0111)]
    for _ in range(300):
        g = random_graph(rng, rng.randint(0, 8), rng.random())
        within = rng.choice([None, 0, rng.getrandbits(g.n)])
        if g.n and rng.random() < 0.3:
            within = 1 << rng.randrange(g.n)
        cases.append((g, rng.randint(0, 2), within))
    for g, k, within in cases:
        witness = has_clique(g.adjacency_masks(), k, within)
        assert witness == _least_clique(g, k, within), (g, k, within)
    assert has_clique(path.adjacency_masks(), 2, 0b1101) == [2, 3]
    assert has_clique(path.adjacency_masks(), 2, 0b1001) is None


def test_canonical_matrix_code_with_frequent_row_ties():
    # entries from a 2-letter alphabet, several matrices per call, so that
    # many candidates tie the least row and the refined cells decide
    rng = random.Random(14)
    for _ in range(300):
        r = rng.randint(0, 6)
        letters = rng.sample(range(1, 5), 2)
        matrices = []
        for _ in range(rng.randint(2, 4)):
            m = [[0] * r for _ in range(r)]
            for i, j in itertools.combinations(range(r), 2):
                m[i][j] = m[j][i] = rng.choice(letters)
            matrices.append(m)
        least = min(
            bytes(m[o[a]][o[b]] for a, b in itertools.combinations(range(r), 2))
            for m in matrices
            for o in itertools.permutations(range(r))
        )
        assert canonical_matrix_code(r, matrices) == least
