import itertools
import random

import pytest

from erlab import capacity, constructions, core, oracle
from erlab.graphs import SimpleGraph, complete_graph, turan_graph


def test_capacity_k3_examples():
    # Cap(K_3, 4): only the all-ones vector
    cap = capacity.capacity(complete_graph(3), 4)
    assert cap.kind == "OnlyOnes"
    assert cap.contains((1, 1, 1))
    assert not cap.contains((2, 1, 1))
    # Cap(K_3, 6): the simplex sum <= 5
    cap6 = capacity.capacity(complete_graph(3), 6)
    assert cap6.contains((1, 2, 2))
    assert not cap6.contains((2, 2, 2))


def test_capacity_rejects_cliquey_graphs():
    with pytest.raises(capacity.NotKFree):
        capacity.capacity(complete_graph(4), 4)


def test_capacity_turan_graph_nontrivial():
    # blowing up one vertex per part of T_2(4) by 2 keeps K_4 out
    g = turan_graph(2, 4)
    cap = capacity.capacity(g, 4)
    assert cap.contains((2, 1, 2, 1))  # parts are {0,2},{1,3}
    assert not cap.contains((2, 2, 1, 1))
    assert not cap.contains((2, 2, 2, 2))


def test_capacity_matches_blowup_oracle_randomised():
    rng = random.Random(99)
    for _ in range(150):
        n = rng.randint(2, 5)
        edges = {
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.5
        }
        g = SimpleGraph(n, frozenset(edges))
        k = rng.randint(3, 6)
        try:
            cap = capacity.capacity(g, k)
        except capacity.NotKFree:
            continue
        vec = tuple(rng.randint(1, 3) for _ in range(n))
        assert cap.contains(vec) == capacity.capacity_member_bruteforce(g, k, vec)


def test_capacity_antichain_matches_naive_maxima():
    # the vectors of entries below k whose sums over every clique (vertex
    # subsets checked edge by edge) stay below k form a downward-closed set,
    # so its maximal elements are those with no entry that can be raised;
    # they must be exactly the listed antichain
    for n in range(1, 6):
        for edges in oracle.graph_classes(n):
            g = SimpleGraph(n, edges)
            cliques = [
                sub
                for size in range(1, n + 1)
                for sub in itertools.combinations(range(n), size)
                if all(g.has_edge(u, v) for u, v in itertools.combinations(sub, 2))
            ]
            omega = max(len(c) for c in cliques)
            for k in range(omega + 1, 7):
                feasible = {
                    vec
                    for vec in itertools.product(range(1, k), repeat=n)
                    if all(sum(vec[u] for u in c) <= k - 1 for c in cliques)
                }
                maxima = {
                    vec
                    for vec in feasible
                    if not any(
                        vec[:i] + (vec[i] + 1,) + vec[i + 1 :] in feasible for i in range(n)
                    )
                }
                cap = capacity.capacity(g, k)
                if cap.kind == "ExplicitAntichain":
                    assert set(cap.max_vectors) == maxima, (edges, k)
                    assert list(cap.max_vectors) == sorted(maxima)
                elif cap.kind == "OnlyOnes":
                    assert maxima == {(1,) * n}, (edges, k)
                else:
                    assert maxima == {
                        vec for vec in feasible if sum(vec) == k - 1
                    }, (edges, k)


def test_capacity_downward_closed():
    rng = random.Random(100)
    for _ in range(100):
        n = rng.randint(2, 5)
        edges = {
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5
        }
        g = SimpleGraph(n, frozenset(edges))
        try:
            cap = capacity.capacity(g, 4)
        except capacity.NotKFree:
            continue
        vec = tuple(rng.randint(1, 3) for _ in range(n))
        if not cap.contains(vec):
            continue
        smaller = tuple(max(1, v - rng.randint(0, 1)) for v in vec)
        assert cap.contains(smaller)


def test_is_maximally_kfree():
    ok, _ = capacity.is_maximally_kfree(turan_graph(2, 4), 3)
    assert ok
    ok, witness = capacity.is_maximally_kfree(SimpleGraph(3, frozenset()), 3)
    assert not ok and witness[0] == "non-edge"
    ok, witness = capacity.is_maximally_kfree(complete_graph(4), 3)
    assert not ok and witness[0] == "clique"


def test_validate_nocap_on_known_optima():
    for entries in [(3, 3), (5, 3), (4, 4, 4), (3, 3, 3, 3), (4, 4, 4, 4)]:
        k = core.validate_sequence(entries)
        t = constructions.known_optimum(k)
        report = capacity.validate_nocap(t, k)
        assert report["passed"], (entries, report)


def test_validate_nocap_rejects_non_basic():
    k = core.validate_sequence([3, 3])
    p = core.ColourPattern(2, {(0, 1): {1, 2}})
    from fractions import Fraction

    t = core.FeasibleTriple(p, (Fraction(1), Fraction(0)))
    with pytest.raises(capacity.NotBasicOptimal):
        capacity.validate_nocap(t, k)


def test_blowup_structure():
    g = SimpleGraph(2, frozenset({(0, 1)}))
    b = capacity.blowup(g, [2, 3])
    assert b.n == 5
    # parts are cliques, joined completely
    assert len(b.edges) == 1 + 3 + 6
