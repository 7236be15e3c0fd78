import random
from fractions import Fraction

import pytest
from conftest import brute_force_count, unpruned_graph_classes

from erlab import constructions, core, oracle
from erlab.capacity import blowup
from erlab.graphs import SimpleGraph, complete_graph, turan_graph


def k33():
    return core.validate_sequence([3, 3])


def test_count_k33_is_512():
    # K_{3,3} is triangle-free, so all 2^9 colourings are valid
    assert oracle.count_valid_colourings(turan_graph(2, 6), k33()) == 512


def test_count_matches_independent_brute_force():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(2, 5)
        edges = {
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.6
        }
        g = SimpleGraph(n, frozenset(edges))
        k = rng.choice(
            [k33(), core.validate_sequence([4, 3]), core.validate_sequence([3, 3, 3])]
        )
        assert oracle.count_valid_colourings(g, k) == brute_force_count(g, k)


def test_count_matches_product_brute_force_on_every_class():
    for entries in [(3, 3), (4, 3), (3, 3, 3)]:
        k = core.validate_sequence(entries)
        for n in range(1, 6):
            for edges in oracle.graph_classes(n):
                g = SimpleGraph(n, edges)
                assert oracle.count_valid_colourings(g, k) == brute_force_count(g, k), (entries, g)


def test_count_with_interchangeable_colours_matches_product_brute_force():
    # runs of equal clique orders: one of length 2, 2 beside 1, 3, 4, and
    # two of length 2; the count walks one colouring per orbit of each run
    for entries, n_max in [
        ((4, 4), 5), ((4, 4, 3), 5), ((4, 4, 4), 5), ((3, 3, 3, 3), 4), ((4, 4, 3, 3), 4),
    ]:
        k = core.validate_sequence(entries)
        for n in range(1, n_max + 1):
            for edges in oracle.graph_classes(n):
                g = SimpleGraph(n, edges)
                assert oracle.count_valid_colourings(g, k) == brute_force_count(g, k), (entries, g)


def test_count_k4_two_colours():
    # frozen from the independent brute force: of the 2^6 colourings of K_4,
    # exactly 18 avoid a monochromatic triangle
    g = complete_graph(4)
    assert oracle.count_valid_colourings(g, k33()) == brute_force_count(g, k33()) == 18


def test_count_complete_graphs_beyond_the_naive_brute_force():
    # frozen from a count in lexicographic edge order, which the colex walk
    # does not share, and (5,3) on K_7 and (4,4) on K_6 from the colex walk
    # with a last-edge tally; brute_force_count cannot reach these in test
    # time
    frozen = [
        (5, (3, 3), 12), (6, (3, 3), 0), (6, (4, 3), 2812), (7, (4, 3), 13842),
        (7, (4, 4), 923012), (7, (5, 3), 113949), (6, (4, 4), 22484), (5, (3, 3, 3), 17136),
        (5, (4, 4, 4), 57906),
    ]
    for n, entries, value in frozen:
        k = core.validate_sequence(entries)
        assert oracle.count_valid_colourings(complete_graph(n), k) == value, (n, entries)


def test_count_invariant_under_vertex_relabelling():
    # the walk's edge order depends on the labels; the count must not
    rng = random.Random(17)
    for entries, max_edges in [((4, 3), 21), ((4, 4), 18), ((3, 3, 3), 13)]:
        k = core.validate_sequence(entries)
        for _ in range(4):
            n = rng.choice([6, 7])
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            edges = rng.sample(pairs, rng.randint(n, min(max_edges, len(pairs))))
            perm = list(range(n))
            rng.shuffle(perm)
            relabelled = {tuple(sorted((perm[u], perm[v]))) for u, v in edges}
            count = oracle.count_valid_colourings(SimpleGraph(n, frozenset(edges)), k)
            assert count == oracle.count_valid_colourings(SimpleGraph(n, frozenset(relabelled)), k), (
                entries, edges, perm)


def test_count_partial_tail_matches_product_brute_force():
    # a hub of degree 8 to 10 comes last with more earlier neighbours than
    # the TAIL star edges tallied at once: the DFS colours its first star
    # edges, and the tally reads them as fixed neighbours.  The other edges
    # join the hub's neighbours, so every one closes a triangle with it
    rng = random.Random(23)
    for entries, degree, extra in [
        ((3, 3), 8, 5), ((4, 3), 9, 6), ((3, 3), 10, 5), ((3, 3, 3), 8, 2), ((4, 3, 3), 9, 1),
        ((3, 3, 3), 10, 1),
    ]:
        k = core.validate_sequence(entries)
        n = degree + 1
        hub = rng.randrange(n)
        others = [v for v in range(n) if v != hub]
        pairs = [(u, v) for u in others for v in others if u < v]
        edges = {(min(hub, v), max(hub, v)) for v in others} | set(rng.sample(pairs, extra))
        g = SimpleGraph(n, frozenset(edges))
        assert degree > oracle.TAIL
        count = oracle.count_valid_colourings(g, k)
        assert count == brute_force_count(g, k) < k.s ** len(edges), (entries, edges)
        for _ in range(3):
            perm = list(range(n))
            rng.shuffle(perm)
            relabelled = SimpleGraph(n, frozenset((perm[u], perm[v]) for u, v in edges))
            assert oracle.count_valid_colourings(relabelled, k) == count, (entries, edges, perm)


def test_count_guards():
    with pytest.raises(oracle.TooLarge):
        oracle.count_valid_colourings(complete_graph(8), k33())


def test_graph_class_counts():
    # the number of graphs on n unlabelled vertices (OEIS A000088)
    assert [len(oracle.graph_classes(n)) for n in range(1, 8)] == [1, 2, 4, 11, 34, 156, 1044]


def test_graph_classes_equal_an_unpruned_sweep():
    # every non-edge of every representative tried, with no twin pruning:
    # the same classes with the same edge sets in the same order, the order
    # extremal_search lists its maximisers in
    for n in range(8):
        assert oracle.graph_classes(n) == list(unpruned_graph_classes(n)), n


def test_graph_classes_returns_a_fresh_list():
    # the sweep is built once per n; no caller can change what the next one gets
    first = oracle.graph_classes(5)
    assert len(first) == 34
    first.clear()
    oracle.graph_classes(5).append(frozenset())
    assert oracle.graph_classes(5) == list(unpruned_graph_classes(5))


EXTREMAL_CASES = (
    [(n, k) for n in range(7) for k in ((3, 3), (4, 3), (4, 4), (5, 3))]
    + [(n, k) for n in range(6) for k in ((3, 3, 3), (4, 3, 3), (3, 3, 3, 3))]
    + [(7, (4, 4))]
)


@pytest.mark.parametrize("n,entries", EXTREMAL_CASES, ids=[f"n{n}-{','.join(map(str, k))}" for n, k in EXTREMAL_CASES])
def test_extremal_search_equals_counting_every_class(n, entries):
    # the densest-first search with its restriction bound against counting
    # every class of the unpruned sweep, in class order
    k = core.validate_sequence(list(entries))
    graphs = [SimpleGraph(n, edges) for edges in unpruned_graph_classes(n)]
    counts = [oracle.count_valid_colourings(g, k) for g in graphs]
    best = max(counts)
    maximisers = [g for g, f in zip(graphs, counts) if f == best]
    res = oracle.extremal_search(n, k)
    assert res.maximum == best
    assert res.maximisers == maximisers
    assert res.all_complete_multipartite == all(oracle.is_complete_multipartite(g) for g in maximisers)
    assert res.classes_examined == len(graphs)


def test_extremal_search_small_n():
    # frozen from this exhaustive sweep (cross-checked by brute_force_count):
    # at n=4 the winner is K_4 itself (18), at n=5 it is K_{2,2,1} (82)
    frozen = {4: 18, 5: 82}
    for n, value in frozen.items():
        res = oracle.extremal_search(n, k33())
        assert res.maximum == value
        assert res.all_complete_multipartite
        assert all(
            brute_force_count(g, k33()) == value for g in res.maximisers
        )


def test_extremal_search_n6_unique_k33():
    res = oracle.extremal_search(6, k33())
    assert res.maximum == 512
    assert len(res.maximisers) == 1
    g = res.maximisers[0]
    # the unique maximiser is K_{3,3}
    assert len(g.edges) == 9
    comp = g.complement()
    assert sorted(len(c) for c in _components(comp)) == [3, 3]
    assert res.all_complete_multipartite


def _components(g):
    adj = g.adjacency_masks()
    seen, comps = set(), []
    for v in range(g.n):
        if v in seen:
            continue
        stack, comp = [v], set()
        while stack:
            u = stack.pop()
            if u in comp:
                continue
            comp.add(u)
            stack.extend(w for w in range(g.n) if (adj[u] >> w) & 1)
        seen |= comp
        comps.append(comp)
    return comps


def test_is_complete_multipartite():
    assert oracle.is_complete_multipartite(turan_graph(2, 6))
    assert oracle.is_complete_multipartite(complete_graph(4))
    # P_3 = K_{2,1} is complete multipartite; P_4 is not
    assert oracle.is_complete_multipartite(SimpleGraph(3, frozenset({(0, 1), (1, 2)})))
    p4 = SimpleGraph(4, frozenset({(0, 1), (1, 2), (2, 3)}))
    assert not oracle.is_complete_multipartite(p4)


def test_round_weights_largest_remainder():
    assert oracle.round_weights((Fraction(1, 3),) * 3, 7) == [3, 2, 2]
    assert oracle.round_weights((Fraction(1, 2), Fraction(1, 2)), 5) == [3, 2]
    assert sum(oracle.round_weights((Fraction(2, 5), Fraction(3, 5)), 9)) == 9


def test_pattern_colouring_count_vs_oracle():
    # the blow-up realises at least the pattern-respecting colourings
    k = k33()
    t = constructions.known_optimum(k)
    for n in range(2, 8):
        lower = oracle.pattern_colouring_count(t, n)
        sizes = oracle.round_weights(t.weighting, n)
        assert lower == 2 ** (sizes[0] * sizes[1])
        # the blow-up of the 2-part full pattern is complete bipartite
        count = oracle.count_valid_colourings(turan_graph(2, n), k)
        assert count >= lower
