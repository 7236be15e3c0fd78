import itertools
import math
import random
from fractions import Fraction

import pytest
from conftest import ext_value, random_colour_sets, random_pattern, relabel, relabel_colours

from erlab import constructions, core, search, weights
from erlab.graphs import has_clique
from erlab.logform import LogLinear


def test_pattern_class_counts_small():
    # frozen counts, cross-checked by the edge-count argument: with every
    # pair carrying >= 2 of 3 triangle-free colours, 2*C(r,2) <= 3*t_2(r)
    # forces emptiness at r=5,6 and a single class at r=4
    k2 = core.validate_sequence([3, 3])
    assert [len(search.enumerate_patterns(r, k2)[0]) for r in range(2, 6)] == [1, 0, 0, 0]
    k3 = core.validate_sequence([3, 3, 3])
    assert [len(search.enumerate_patterns(r, k3)[0]) for r in range(2, 7)] == [2, 1, 1, 0, 0]


def brute_force_canonical_code(pattern, k):
    """Reference: the least code over every vertex order and every colour
    permutation within blocks of equal clique order, each encoded from
    scratch."""
    r = pattern.r
    pairs = list(itertools.combinations(range(r), 2))
    index = {p: n for n, p in enumerate(pairs)}
    colours = list(k.colours())
    cmaps = [
        dict(zip(colours, image))
        for image in itertools.permutations(colours)
        if all(k[c] == k[d] for c, d in zip(colours, image))
    ]
    best = None
    for vperm in itertools.permutations(range(r)):
        for cmap in cmaps:
            masks = bytearray(len(pairs))
            for (i, j), cs in pattern.assignment.items():
                a, b = vperm[i], vperm[j]
                m = 0
                for c in cs:
                    m |= 1 << (cmap[c] - 1)
                masks[index[(min(a, b), max(a, b))]] = m
            code = bytes(masks)
            if best is None or code < best:
                best = code
    return best


def test_canonical_code_matches_brute_force():
    rng = random.Random(2)
    for entries in [(3, 3, 3), (4, 3, 3), (3, 3, 3, 3), (4, 4)]:
        k = core.validate_sequence(entries)
        cases = []
        for _ in range(12):
            r = rng.randint(1, 6)
            pairs = itertools.combinations(range(r), 2)
            cases.append(core.ColourPattern(r, {p: random_colour_sets(rng, k.s) for p in pairs}))
        for r in (3, 6):  # fully symmetric: every pair has the same colour set
            cs = random_colour_sets(rng, k.s, allow_empty=False)
            pairs = itertools.combinations(range(r), 2)
            cases.append(core.ColourPattern(r, dict.fromkeys(pairs, cs)))
        for pattern in cases:
            assert search.canonical_code(pattern, k) == brute_force_canonical_code(pattern, k)


def test_canonical_code_relabel_invariance():
    rng = random.Random(77)
    k = core.validate_sequence([3, 3, 3])
    for _ in range(300):
        r = rng.randint(2, 5)
        pattern = random_pattern(rng, r, k)
        code = search.canonical_code(pattern, k)
        vperm = list(range(r))
        rng.shuffle(vperm)
        cperm = dict(zip([1, 2, 3], rng.sample([1, 2, 3], 3)))
        relabelled = relabel_colours(relabel(pattern, vperm), cperm)
        assert search.canonical_code(relabelled, k) == code


def test_canonical_code_respects_colour_blocks():
    # colours with different clique orders must not be interchanged
    k = core.validate_sequence([4, 3])
    a = core.ColourPattern(2, {(0, 1): {1}})
    b = core.ColourPattern(2, {(0, 1): {2}})
    assert search.canonical_code(a, k) != search.canonical_code(b, k)
    keq = core.validate_sequence([3, 3])
    assert search.canonical_code(a, keq) == search.canonical_code(b, keq)


def test_solve_q2_two_colours():
    from fractions import Fraction

    k = core.validate_sequence([3, 3])
    res = search.solve_Q2(k, 5)
    assert res.best_value.log_form == LogLinear(Fraction(1, 2))
    assert abs(res.best_numeric - 0.5) < 1e-12
    assert all(res.exhaustive.values())
    assert len(res.optima) == 1 and res.optima[0].pattern.r == 2


def test_solve_q2_rejects_ramsey_range():
    k = core.validate_sequence([3, 3])
    with pytest.raises(core.ErlabError):
        search.solve_Q2(k, 6)


def test_solve_q2_rejects_degenerate_range():
    k = core.validate_sequence([3, 3])
    for r_max in (-1, 0, 1):
        with pytest.raises(core.ErlabError):
            search.solve_Q2(k, r_max)


def test_solve_q2_prune_agreement():
    # the bounded search against every class evaluated, none skipped
    k = core.validate_sequence([3, 3, 3])
    a = search.solve_Q2(k, 4)
    best_numeric, _, optima, _ = reference_solve(k, scratch_levels(k, 4)[0], 4, prune=False)
    assert a.best_numeric == best_numeric
    assert triples(a.optima) == triples(optima)


def test_solve_q2_budget_exhaustion_is_reported():
    k = core.validate_sequence([3, 3, 3])
    res = search.solve_Q2(k, 5, budget=10)
    assert not all(res.exhaustive.values())


def test_budget_counts_no_node_past_its_limit():
    # a refused node is not counted, and the exhaustiveness flags mark the
    # level where the budget ran out
    k = core.validate_sequence([4, 3, 3])
    for budget, exhaustive in [
        (1, {2: True, 3: False, 4: False, 5: False}),
        (7, {2: True, 3: False, 4: False, 5: False}),
        (50, {2: True, 3: False, 4: False, 5: False}),
        (333, {2: True, 3: True, 4: True, 5: False}),
    ]:
        res = search.solve_Q2(k, 5, budget=budget)
        assert res.nodes <= budget
        assert res.exhaustive == exhaustive


def test_verify_candidate_detects_wrong_claims():
    from fractions import Fraction

    k = core.validate_sequence([3, 3])
    p = core.ColourPattern(2, {(0, 1): {1, 2}})
    t = core.FeasibleTriple(p, (Fraction(1, 2), Fraction(1, 2)), level=2)
    good = search.verify_candidate(t, k)
    assert good["passed"]
    skew = core.FeasibleTriple(p, (Fraction(1, 4), Fraction(3, 4)), level=2)
    bad = search.verify_candidate(skew, k)
    assert not bad["passed"] and not bad["checks"]["stationary"]


def brute_force_rows(pattern, k, subsets):
    """Reference: every row in itertools.product order whose extended pattern
    has no K_{k_c} in colour c, each checked from scratch."""
    r = pattern.r
    rows = []
    for row in itertools.product(subsets, repeat=r):
        assignment = dict(pattern.assignment)
        assignment.update({(x, r): cs for x, cs in enumerate(row)})
        ext = core.ColourPattern(r + 1, assignment)
        if not any(has_clique(ext.colour_graph(c).adjacency_masks(), k[c]) for c in k.colours()):
            rows.append(row)
    return rows


def test_attachment_rows_match_brute_force():
    cases = []
    for entries in [(3, 3, 3), (4, 3, 3), (3, 3, 3, 3)]:
        k = core.validate_sequence(entries)
        t = constructions.known_optimum(k) or search.solve_Q2(k, 4).optima[0]
        cases.append((t.pattern, k, t.weighting))
    for entries, r in [((4, 3, 3), 3), ((4, 3, 3), 4), ((3, 3, 3, 3), 3), ((4, 4), 3), ((4, 4, 3), 4)]:
        k = core.validate_sequence(entries)
        cases += [(p, k, None) for _, p in search.enumerate_patterns(r, k)[0][:3]]
    weighted = 0
    for pattern, k, alpha in cases:
        for least in (2, 0):  # the search's colour sets; the extension's, empty set included
            subsets = core.colour_subsets(k.s, least)
            expected = brute_force_rows(pattern, k, subsets)
            assert core.attachment_rows(pattern, k, subsets) == expected, (k, pattern)
            if alpha is None:
                continue
            # the extension's rows: those whose contribution meets q
            q = core.q_value(core.FeasibleTriple(pattern, alpha)).numeric_value
            meets = [
                row for row in expected
                if abs(sum(float(a) * math.log2(len(cs)) for a, cs in zip(alpha, row) if cs) - q) <= 1e-9
            ]
            assert core.attachment_rows(pattern, k, subsets, alpha=alpha, target=q) == meets
            weighted += len(meets)
    assert weighted >= 3  # at least one clone per optimum


def per_candidate_rows(pattern, k, subsets, budget=None, alpha=None, target=0.0, tol=1e-9):
    """Reference: the attachment DFS that runs the clique tests of each
    candidate set's own colours and charges the budget once per candidate."""
    r, s = pattern.r, k.s
    weights = [0.0] * r if alpha is None else [float(a) for a in alpha]
    bound = [0.0] * (r + 1)
    for i in range(r - 1, -1, -1):
        bound[i] = bound[i + 1] + weights[i] * math.log2(s)
    adj = {c: pattern.colour_graph(c).adjacency_masks() for c in k.colours()}
    logs = [math.log2(len(cs)) if cs else 0.0 for cs in subsets]
    nbr = [0] * (s + 1)
    row, out = [], []

    def dfs(j, ext):
        if j == r:
            if abs(ext - target) <= tol:
                out.append(tuple(row))
            return
        for cs, log in zip(subsets, logs):
            if budget is not None and not budget.spend():
                return
            gain = weights[j] * log
            if ext + gain + bound[j + 1] < target - tol:
                continue
            for c in cs:
                m = nbr[c] & adj[c][j]
                if m and (k[c] == 3 or has_clique(adj[c], k[c] - 2, m) is not None):
                    break
            else:
                for c in cs:
                    nbr[c] |= 1 << j
                row.append(cs)
                dfs(j + 1, ext + gain)
                row.pop()
                for c in cs:
                    nbr[c] &= ~(1 << j)

    dfs(0, 0.0)
    return out


def test_budget_spends_a_batch_as_single_nodes():
    def budget(limit, used, refused):
        b = search._Budget(limit)
        for _ in range(used + refused):
            b.spend()
        return b

    for limit in range(5):
        for used in range(limit + 1):
            for refused in (False, True) if used == limit else (False,):
                for n in range(1, 8):
                    single, batch = budget(limit, used, refused), budget(limit, used, refused)
                    last = [single.spend() for _ in range(n)][-1]
                    assert batch.spend(n) == last
                    assert (batch.used, batch.refused) == (single.used, single.refused)


def test_budgeted_attachment_rows_match_the_per_candidate_kernel():
    # the search's colour sets on a few level representatives
    cases = []
    for entries, r, count in [
        ((4, 3, 3, 3), 3, 1), ((3, 3, 3, 3), 3, 1), ((3, 3, 3, 3), 4, 1), ((5, 5, 4), 3, 3), ((5, 5, 4), 4, 1)
    ]:
        k = core.validate_sequence(entries)
        subsets = core.colour_subsets(k.s, 2)
        cases += [(p, k, subsets, {}) for _, p in search.enumerate_patterns(r, k)[0][:count]]
    # the extension's colour sets, with the weights and q of a stationary pattern:
    # the (3,3,3,3) optimum and AG(2,3) minus one line
    plane = constructions.affine_plane_triple()
    for t in [
        constructions.four_colour_triangle_triple(),
        core.FeasibleTriple(plane.pattern.induced(range(6)), (Fraction(1, 6),) * 6, level=2),
    ]:
        k = core.validate_sequence([3, 3, 3, 3] if t.r == 4 else [4, 4, 4, 4])
        q = core.q_value(t).numeric_value
        cases.append((t.pattern, k, core.colour_subsets(k.s, 0), {"alpha": t.weighting, "target": q}))
    for pattern, k, subsets, weighted in cases:
        unbudgeted = search._Budget(10**9)
        rows = per_candidate_rows(pattern, k, subsets, unbudgeted, **weighted)
        assert core.attachment_rows(pattern, k, subsets, **weighted) == rows
        nodes = unbudgeted.used
        if weighted:  # attachment_rows refuses weights with a budget
            continue
        for b in range(1, nodes + 2):
            old, new = search._Budget(b), search._Budget(b)
            expected = per_candidate_rows(pattern, k, subsets, old, **weighted)
            assert core.attachment_rows(pattern, k, subsets, new, **weighted) == expected, (k, b)
            assert (new.used, new.refused) == (old.used, old.refused), (k, b)
    assert nodes == 403696 and rows


def test_attachment_rows_refuse_weights_with_a_budget():
    t = constructions.four_colour_triangle_triple()
    k = core.validate_sequence([3, 3, 3, 3])
    with pytest.raises(core.ErlabError):
        core.attachment_rows(t.pattern, k, core.colour_subsets(k.s, 0), search._Budget(10), alpha=t.weighting)


def test_weighted_attachment_rows_meet_every_reachable_target():
    # random weights on small random patterns; each distinct contribution of
    # a feasible row is a target that the look-ahead bound must not cut
    rng = random.Random(12)
    tried = 0
    for s, r_max in [(2, 5), (3, 4), (4, 3)]:
        for r in range(1, r_max + 1):
            for _ in range(3):
                k = core.validate_sequence([rng.randint(3, 5) for _ in range(s)])
                pattern = random_pattern(rng, r, k)
                if pattern is None:
                    continue
                alpha = [rng.uniform(0.05, 1.0) for _ in range(r)]
                for least in (0, 2):
                    subsets = core.colour_subsets(s, least)
                    feasible = brute_force_rows(pattern, k, subsets)
                    values = {ext_value(row, alpha) for row in feasible}
                    for target in sorted(values) + [max(values, default=0.0) + 0.5]:
                        expected = [row for row in feasible if abs(ext_value(row, alpha) - target) <= 1e-9]
                        got = core.attachment_rows(pattern, k, subsets, alpha=alpha, target=target)
                        assert got == expected, (k, pattern, alpha, target)
                        tried += 1
    assert tried > 300


def test_weighted_attachment_rows_at_stationary_weights_match_brute_force():
    # random patterns on r <= 4 vertices, s <= 3, at their optimal weighting
    # (stationary: every vertex contributes q), against q as the target; they
    # are not optimal for k, so feasible rows overshoot q and the walk stops
    # at the first block of colour sets that does
    rng = random.Random(29)
    cases = uneven = overshoot = 0
    for entries in [(4, 4), (5, 3), (4, 4, 3), (5, 4, 3), (3, 3, 3)]:
        k = core.validate_sequence(entries)
        subsets = core.colour_subsets(k.s, 0)
        for r in (3, 4):
            for _ in range(10):
                pattern = random_pattern(rng, r, k, level=1)
                opt = pattern and weights.optimize_weights(pattern, k)
                if not opt or len(opt.support) < r:
                    continue
                alpha, q = opt.weighting, opt.value.numeric_value
                feasible = brute_force_rows(pattern, k, subsets)
                expected = [row for row in feasible if abs(ext_value(row, alpha) - q) <= 1e-9]
                assert core.attachment_rows(pattern, k, subsets, alpha=alpha, target=q) == expected, (k, pattern)
                cases += 1
                uneven += len(set(alpha)) > 1
                overshoot += any(ext_value(row, alpha) > q + 1e-9 for row in feasible)
    assert cases >= 15 and uneven >= 5 and overshoot >= 10


def test_full_affine_plane_rows_match_the_per_candidate_kernel():
    # the (4,4,4,4) optimum AG(2,3): the look-ahead bound against the static one
    t = constructions.affine_plane_triple()
    k = core.validate_sequence([4, 4, 4, 4])
    subsets = core.colour_subsets(k.s, 0)
    q = core.q_value(t).numeric_value
    rows = core.attachment_rows(t.pattern, k, subsets, alpha=t.weighting, target=q)
    assert rows == per_candidate_rows(t.pattern, k, subsets, alpha=t.weighting, target=q)
    assert len(rows) == 9


def test_search_counters_are_pinned():
    # nodes (one per candidate colour set) and classes per level; the nodes
    # were re-recorded when each level came to be enumerated once per
    # search (22,968 and 3,448 while every r rebuilt levels 2..r-1)
    for entries, r_max, nodes, classes in [
        ((4, 3, 3, 3), 4, 22308, [5, 25, 488]),
        ((4, 4, 3), 5, 2740, [3, 7, 15, 15]),
    ]:
        k = core.validate_sequence(entries)
        assert search.solve_Q2(k, r_max).nodes == nodes
        assert [len(search.enumerate_patterns(r, k)[0]) for r in range(2, r_max + 1)] == classes


def scratch_levels(k, r_max, budget=None):
    """Reference: levels 2..r_max rebuilt from nothing, every feasible row of
    every base canonicalised, each level from the previous level's
    representatives in the order they were found, and nothing after a level
    the budget cut short.  Returns the levels, each as its (code,
    representative) pairs sorted by code and its completed flag, and the
    nodes spent."""
    tracker = search._Budget(10**8 if budget is None else budget)
    subsets = core.colour_subsets(k.s, 2)
    level = {}
    for cs in subsets:
        p = core.ColourPattern(2, {(0, 1): cs})
        if core.is_feasible(p, k, 2)[0]:
            level.setdefault(search.canonical_code(p, k), p)
    levels = []
    for r in range(2, r_max + 1):
        if r > 2:
            nxt = {}
            for base in level.values():
                for row in core.attachment_rows(base, k, subsets, tracker):
                    p = base.attach(row)
                    nxt.setdefault(search.canonical_code(p, k), p)
            level = nxt
        levels.append(([(code, list(p.assignment.items())) for code, p in sorted(level.items())],
                       not tracker.refused))
        if tracker.refused:
            break
    return levels, tracker.used


def codes(reps):
    return [(code, list(p.assignment.items())) for code, p in reps]


def reference_solve(k, levels, r_max, prune):
    """Reference: the search's rule run over every class of `levels`
    (`scratch_levels`), level by level, each level in code order.  Returns
    (best_numeric, best_value, optima, exhaustive)."""
    best_triple, best_numeric, optima, exhaustive = None, -1.0, {}, {}
    for r, (reps, completed) in enumerate(levels, start=2):
        exhaustive[r] = completed
        for code, items in reps:
            pattern = core.ColourPattern(r, dict(items))
            if prune and best_numeric > 0:
                mmax = max(len(cs) for cs in pattern.assignment.values())
                if (1 - 1 / r) * math.log2(max(mmax, 1)) < best_numeric - 1e-9:
                    continue
            opt = weights.optimize_weights(pattern, k)
            val = opt.value.numeric_value
            if len(opt.support) < r:
                continue
            if val > best_numeric + 1e-9:
                best_numeric = val
                best_triple = core.FeasibleTriple(pattern, opt.weighting, level=2)
                optima = {code: best_triple}
            elif abs(val - best_numeric) <= 1e-9:
                optima.setdefault(code, core.FeasibleTriple(pattern, opt.weighting, level=2))
    for r in range(2, r_max + 1):
        exhaustive.setdefault(r, False)
    best_value = core.q_value(best_triple) if best_triple is not None else None
    return best_numeric, best_value, [optima[c] for c in sorted(optima)], exhaustive


def triples(optima):
    return [(t.pattern.r, list(t.pattern.assignment.items()), [repr(w) for w in t.weighting]) for t in optima]


def test_solve_q2_walks_the_levels_built_from_scratch(monkeypatch):
    # the search attaches one row per orbit of each base's symmetries; the
    # reference attaches every row, so equal levels mean equal classes,
    # representatives and codes, and equal nodes mean the same rows tried.
    # The search evaluates each level in found order and the last level from
    # the children of level r_max - 1, not built as classes, yet gives the
    # answer of evaluating all classes in code order, bounded or not.
    walked = []
    levels = search.pattern_levels

    def recording(k, budget=None):
        for level, completed in levels(k, budget):
            walked.append(([(code, list(p.assignment.items())) for code, p in sorted(level.items())], completed))
            yield level, completed

    monkeypatch.setattr(search, "pattern_levels", recording)
    for entries, r_max, budget in [
        ((3, 3, 3), 6, None), ((4, 4, 3), 5, None), ((4, 3, 3, 3), 4, None),
        ((5, 5, 5), 4, None), ((6, 6, 6), 4, None), ((3, 3, 3, 3), 5, None), ((5, 5, 4), 4, None),
        ((4, 3, 3), 5, 1), ((4, 3, 3), 5, 7), ((4, 3, 3), 5, 50), ((4, 3, 3), 5, 333),
    ]:
        k = core.validate_sequence(entries)
        expected, nodes = scratch_levels(k, r_max, budget)
        walked.clear()
        res = search.solve_Q2(k, r_max, **({} if budget is None else {"budget": budget}))
        # no level is built as classes from r_max on, or past the cut
        assert walked == expected[:r_max - 2], (entries, budget)
        assert res.nodes == nodes, (entries, budget)
        for prune in (True, False):
            best_numeric, best_value, optima, exhaustive = reference_solve(k, expected, r_max, prune)
            assert res.best_numeric == best_numeric, (entries, budget, prune)
            assert (res.best_value is None) == (best_value is None)
            assert best_value is None or res.best_value.d == best_value.d
            assert res.exhaustive == exhaustive
            assert triples(res.optima) == triples(optima), (entries, budget, prune)
        for r in range(2, r_max + 1):
            reps, completed = search.enumerate_patterns(r, k, None if budget is None else search._Budget(budget))
            # a budget that runs out before level r builds nothing on r vertices
            assert (codes(reps), completed) == (expected[r - 2] if r - 2 < len(expected) else ([], False))


def test_solve_q2_cut_on_its_last_level_keeps_the_best_of_the_levels_below():
    # the budget runs out while the children on 4 vertices are evaluated;
    # the best stays the one found on 3 vertices
    k = core.validate_sequence([4, 3, 3, 3])
    res = search.solve_Q2(k, 4, budget=5000)
    assert res.best_numeric == 1.0570523538970362
    assert [t.pattern.r for t in res.optima] == [3]
    assert res.exhaustive == {2: True, 3: True, 4: False}
    assert res.nodes == 5000


def test_solve_q2_checks_the_children_of_its_last_level(monkeypatch):
    # an infeasible row joined to the first base of the last level with a
    # row that has a 3-colour set, with that row's set sizes: its child
    # shares that row's multiplicities, so the search's own clique test must
    # catch it before any optimiser call sees it, and its bound, 0.75 log2 3,
    # keeps it above the best of the levels below (0.828; a row of 2-colour
    # sets is bounded by 0.75)
    k = core.validate_sequence([4, 3, 3])
    r_max = 4
    subsets = core.colour_subsets(k.s, 2)
    rows_of = core.attachment_rows
    added = []

    def with_an_infeasible_row(pattern, k, subsets, budget=None, **weighted):
        rows = rows_of(pattern, k, subsets, budget, **weighted)
        first = next((row for row in rows if max(map(len, row)) == 3), None)
        if pattern.r == r_max - 1 and first and not added:
            sized = [[cs for cs in subsets if len(cs) == len(each)] for each in first]
            for row in itertools.product(*sized):
                infeasible = not core.is_feasible(pattern.attach(row), k, 2)[0]
                if infeasible and search.orbit_least_rows(search._mask_rows(pattern), k, [row]):
                    added.append(row)
                    return rows + [row]
        return rows

    monkeypatch.setattr(core, "attachment_rows", with_an_infeasible_row)
    with pytest.raises(core.ErlabError, match="closes a K_"):
        search.solve_Q2(k, r_max)
    assert added


def test_enumerate_patterns_under_a_budget_builds_level_r_or_nothing():
    k = core.validate_sequence([4, 3, 3])
    assert search.enumerate_patterns(5, k, search._Budget(50)) == ([], False)
    assert search.enumerate_patterns(4, k, search._Budget(50)) == ([], False)
    reps, completed = search.enumerate_patterns(3, k, search._Budget(50))
    assert not completed and reps and all(p.r == 3 for _, p in reps)
    reps, completed = search.enumerate_patterns(4, k, search._Budget(333))
    assert completed and [p.r for _, p in reps] == [4, 4, 4]


def brute_force_automorphisms(pattern, k):
    """Reference: every (vertex permutation, colour permutation within blocks
    of equal clique order) mapping the pattern to itself, as (perm, colour
    images) with perm[v] the image of v, tried one by one."""
    colours = list(k.colours())
    cmaps = [
        image
        for image in itertools.permutations(colours)
        if all(k[c] == k[d] for c, d in zip(colours, image))
    ]
    pairs = list(itertools.combinations(range(pattern.r), 2))
    return {
        (vperm, cmap)
        for vperm in itertools.permutations(range(pattern.r))
        for cmap in cmaps
        if all(
            pattern.get(vperm[i], vperm[j]) == {cmap[c - 1] for c in pattern.get(i, j)}
            for i, j in pairs
        )
    }


def brute_force_twin_classes(pattern):
    r = pattern.r
    classes = []
    for v in range(r):
        for cls in classes:
            u = cls[0]
            if all(pattern.get(u, x) == pattern.get(v, x) for x in range(r) if x not in (u, v)):
                cls.append(v)
                break
        else:
            classes.append([v])
    return classes


def symmetry_cases():
    """Small patterns: all pairs equal, twin-free ones (the self-complementary
    5-cycle, whose complement a colour swap reaches), search levels and
    random ones."""
    rng = random.Random(5)
    k3 = core.validate_sequence([3, 3, 3])
    cases = []
    for entries, r in [((3, 3, 3), 5), ((3, 3, 3, 3), 4), ((4, 4, 3), 5)]:
        k = core.validate_sequence(entries)
        cases.append((core.ColourPattern(r, dict.fromkeys(itertools.combinations(range(r), 2), {1, 2})), k))
    cycle = {(i, (i + 1) % 5): {1, 2} for i in range(5)}
    cases.append((core.ColourPattern(5, {p: cycle.get(p, cycle.get(p[::-1], {2, 3}))
                                         for p in itertools.combinations(range(5), 2)}), k3))
    for entries, r in [((3, 3, 3), 4), ((3, 3, 3), 5), ((4, 4), 5), ((4, 4, 3), 4), ((3, 3, 3, 3), 4)]:
        k = core.validate_sequence(entries)
        cases += [(p, k) for _, p in search.enumerate_patterns(r, k)[0][:6]]
    for entries in [(3, 3, 3), (4, 3, 3), (3, 3, 3, 3)]:
        k = core.validate_sequence(entries)
        for r in (3, 4, 5, 6):
            cases.append((random_pattern(rng, r, k), k))
    return cases


def test_pattern_symmetries_generate_every_automorphism():
    twin_free = 0
    for pattern, k in symmetry_cases():
        classes, autos = search.pattern_symmetries(search._mask_rows(pattern), k)
        assert classes == brute_force_twin_classes(pattern)
        identity = (tuple(range(pattern.r)), search._mask_images(k)[0])
        assert identity not in autos and len(set(autos)) == len(autos)
        closure = []
        for perm, table in [identity] + autos:
            cmap = tuple(table[1 << (c - 1)].bit_length() for c in k.colours())
            for twins in itertools.product(*(itertools.permutations(cls) for cls in classes)):
                within = list(range(pattern.r))
                for cls, image in zip(classes, twins):
                    for u, v in zip(cls, image):
                        within[u] = v
                closure.append((tuple(perm[within[u]] for u in range(pattern.r)), cmap))
        assert len(set(closure)) == len(closure)
        assert set(closure) == brute_force_automorphisms(pattern, k)
        twin_free += len(classes) == pattern.r and len(closure) > 1
    assert twin_free >= 2


def test_orbit_least_rows_keep_the_least_row_of_each_orbit():
    cases = []
    for entries in [(4, 4, 3), (4, 3, 3), (5, 5, 5), (6, 6, 6), (4, 4, 4), (3, 3, 3, 3), (5, 5, 4), (4, 3, 3, 3)]:
        k = core.validate_sequence(entries)
        cases += [(p, k) for r in (2, 3, 4) for _, p in search.enumerate_patterns(r, k)[0][:30]]
    kept = twins = 0
    for pattern, k in cases:
        subsets = core.colour_subsets(k.s, 2)
        index = {cs: i for i, cs in enumerate(subsets)}
        group = brute_force_automorphisms(pattern, k)
        rows = core.attachment_rows(pattern, k, subsets)
        expected = []
        for row in rows:
            key = tuple(index[cs] for cs in row)
            images = []
            for vperm, cmap in group:
                image = [None] * pattern.r
                for v, cs in enumerate(row):
                    image[vperm[v]] = index[frozenset(cmap[c - 1] for c in cs)]
                images.append(tuple(image))
            if key == min(images):
                expected.append(row)
        assert search.orbit_least_rows(search._mask_rows(pattern), k, rows) == expected
        kept += len(expected)
        twins += len(brute_force_twin_classes(pattern)) < pattern.r and len(rows) > len(expected)
    assert kept > 0 and twins > 0
