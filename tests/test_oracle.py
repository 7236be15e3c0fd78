import random
from fractions import Fraction

import pytest
from conftest import brute_force_count

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
    for n in range(1, 7):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        classes = {oracle._canonical_graph_code(n, frozenset()): frozenset()}
        frontier = dict(classes)
        while frontier:
            nxt = {}
            for edges in frontier.values():
                for p in pairs:
                    if p not in edges:
                        code = oracle._canonical_graph_code(n, edges | {p})
                        if code not in classes and code not in nxt:
                            nxt[code] = edges | {p}
            classes.update(nxt)
            frontier = nxt
        assert oracle.graph_classes(n) == list(classes.values()), n


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
