import math
import random
from fractions import Fraction

import pytest
from conftest import ext_value

from erlab import constructions, core, extension


def test_two_colour_verdicts():
    # equal orders: strong; unequal: the single-colour joining pair survives
    for entries, strong in [((3, 3), True), ((4, 4), True), ((5, 3), False), ((6, 4), False)]:
        k = core.validate_sequence(entries)
        t = constructions.known_optimum(k)
        v = extension.check_extension_property([t], k)
        assert v.holds, entries
        assert v.strong_holds == strong, entries


def test_three_and_four_colour_verdicts_small():
    for entries in [(3, 3, 3), (4, 4, 4), (3, 3, 3, 3)]:
        k = core.validate_sequence(entries)
        t = constructions.known_optimum(k)
        v = extension.check_extension_property([t], k)
        assert v.holds and v.strong_holds, entries


def test_optimal_attachments_are_the_clones():
    k = core.validate_sequence([3, 3, 3, 3])
    t = constructions.known_optimum(k)
    atts = extension.enumerate_optimal_attachments(t, k)
    # one optimal attachment per vertex: copy its row, empty joining pair
    assert len(atts) == 4
    for att in atts:
        empties = [i for i, cs in enumerate(att) if not cs]
        assert len(empties) == 1
        j = empties[0]
        assert all(
            att[x] == t.pattern.get(j, x) for x in range(4) if x != j
        )


def test_attachments_require_basic_optimality():
    k = core.validate_sequence([3, 3])
    p = core.ColourPattern(2, {(0, 1): {1, 2}})
    skew = core.FeasibleTriple(p, (Fraction(1, 4), Fraction(3, 4)), level=2)
    with pytest.raises(extension.NotBasicOptimal):
        extension.enumerate_optimal_attachments(skew, k)
    with pytest.raises(extension.EmptyOptSet):
        extension.check_extension_property([], k)


def test_ext_bounded_by_q_random_attachments():
    rng = random.Random(31)
    k = core.validate_sequence([3, 3, 3, 3])
    t = constructions.known_optimum(k)
    q = core.q_value(t).numeric_value
    subsets = [frozenset(), frozenset({1}), frozenset({1, 2}), frozenset({1, 2, 3}),
               frozenset({2, 4}), frozenset({1, 2, 3, 4}), frozenset({3, 4})]
    tested = 0
    for _ in range(400):
        profile = tuple(rng.choice(subsets) for _ in range(4))
        ext_pattern = t.pattern.attach(profile)
        ok, _ = core.is_feasible(ext_pattern, k, 0)
        if not ok:
            continue
        ext = ext_value(profile, t.weighting)
        assert ext <= q + 1e-9
        tested += 1
    assert tested > 15


def test_numcheck_certificate_families():
    expectations = {
        (3, 3): [(2, 1)],
        (5, 5): [(2, 2, 2, 1)],
        (4, 4, 4): [(3, 3, 1)],
        (3, 3, 3, 3): [(3, 3, 2, 1)],
        (4, 4, 4, 4): [(3,) * 8 + (1,)],
    }
    for entries, sols in expectations.items():
        k = core.validate_sequence(entries)
        t = constructions.known_optimum(k)
        applicable, holds, solutions = extension.numcheck_certificate(t, k)
        assert applicable and holds, entries
        assert solutions == sols, entries


def test_numcheck_not_applicable_for_unequal_two_colours():
    k = core.validate_sequence([5, 3])
    t = constructions.known_optimum(k)
    applicable, holds, _ = extension.numcheck_certificate(t, k)
    assert not applicable and holds is None


def test_char_decompose_blowup_of_optimum():
    # blow up the (3,3) optimum: 4 vertices in two parts of weight 1/2
    k = core.validate_sequence([3, 3])
    star = constructions.known_optimum(k)
    both = frozenset({1, 2})
    p = core.ColourPattern(
        4,
        {
            (0, 1): set(),
            (2, 3): set(),
            (0, 2): both,
            (0, 3): both,
            (1, 2): both,
            (1, 3): both,
        },
    )
    t = core.FeasibleTriple(p, (Fraction(1, 4),) * 4)
    parts, reason = extension.char_decompose(t, star, k)
    assert reason is None
    assert sorted(map(sorted, parts)) == [[0, 1], [2, 3]]


def test_char_decompose_rejects_suboptimal():
    k = core.validate_sequence([3, 3])
    star = constructions.known_optimum(k)
    p = core.ColourPattern(2, {(0, 1): {1}})
    t = core.FeasibleTriple(p, (Fraction(1, 2), Fraction(1, 2)))
    parts, reason = extension.char_decompose(t, star, k)
    assert parts is None and "below optimum" in reason


def test_char_decompose_unequal_orders_allows_inner_edges():
    # (4,3): optimum is one pair of both colours on 2 vertices; a colour-1
    # edge inside a part is allowed since k_1 - 1 = 3 accommodates it
    k = core.validate_sequence([4, 3])
    star = constructions.known_optimum(k)
    both = frozenset({1, 2})
    p = core.ColourPattern(
        3, {(0, 1): {1}, (0, 2): both, (1, 2): both}
    )
    t = core.FeasibleTriple(p, (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)))
    parts, reason = extension.char_decompose(t, star, k)
    assert reason is None, reason
    assert sorted(map(sorted, parts)) == [[0, 1], [2]]
