import math
import random
import time
from fractions import Fraction

from erlab.logform import LogLinear


def test_log2_of_powers_of_two_is_rational():
    assert LogLinear.log2(8) == LogLinear(3)
    assert LogLinear.log2(1).is_zero()


def test_log2_factors_into_primes():
    form = LogLinear.log2(18)  # 2 * 3^2
    assert form.rational == 1
    assert form.coeffs == {3: Fraction(2)}


def test_arithmetic_and_equality():
    a = LogLinear.log2(3, Fraction(1, 2))
    b = LogLinear.log2(9, Fraction(1, 4))
    assert a == b
    assert (a - b).is_zero()
    assert a + a == LogLinear.log2(3)
    assert a.scaled(2) == LogLinear.log2(3)


def test_equality_needs_no_tolerance():
    # log2(3) != 19/12 even though they differ by ~2e-3
    assert LogLinear.log2(3) != LogLinear(Fraction(19, 12))


def test_float_and_exact_sign_agree():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 200)
        w = Fraction(rng.randint(-5, 5), rng.randint(1, 9))
        form = LogLinear.log2(n, w)
        value = float(w) * math.log2(n)
        assert math.isclose(float(form), value, abs_tol=1e-12)
        # the sign of w * log2(n) is that of w, or 0 when n = 1
        assert form.sign() == (0 if n == 1 else (w > 0) - (w < 0))
    assert LogLinear().sign() == 0


def test_ordering_handles_near_ties():
    # 2^19 vs 3^12: within 1e-3 per unit after scaling down
    a = LogLinear(Fraction(19, 12000))
    b = LogLinear.log2(3, Fraction(1, 1000))
    assert a < b  # 3^12 = 531441 > 524288 = 2^19
    assert b <= b


def test_near_ties_below_the_float_threshold_are_decided_exactly():
    # 19/12 - log2(3) is about -1.6e-3; scaled down, the float difference
    # is below 1e-9 (and at 1e-50 below float resolution altogether)
    for scale in (10**7, 10**12, 10**50):
        a = LogLinear(Fraction(19, 12 * scale))
        b = LogLinear.log2(3, Fraction(1, scale))
        assert abs(float(a) - float(b)) < 1e-9
        assert a < b and not b < a  # 2^19 < 3^12
        assert (a - b).sign() == -1 and (b - a).sign() == 1


def test_forms_with_large_terms_are_not_ordered_by_their_floats():
    # values near 3.3e8, 1.1e-8 apart: the floats differ by -1.5e-8, more
    # than 1e-9 and of the wrong sign
    a = LogLinear.log2(3, Fraction(100000004, 7)) + LogLinear.log2(5, Fraction(100000005, 3))
    b = LogLinear(Fraction(3278108405837291277769, 32768000000000))
    assert float(a) - float(b) < -1e-9
    assert (a - b).sign() == 1
    assert b < a and not a < b


def _integer_sign(form: LogLinear) -> int:
    """Sign of the form from 2^A * prod p^C_p against 1, as integers, with
    the form scaled to integer exponents."""
    terms = {2: form.rational, **form.coeffs}
    d = math.lcm(*(c.denominator for c in terms.values()))
    above, below = 1, 1
    for p, c in terms.items():
        e = int(c * d)
        if e > 0:
            above *= p**e
        else:
            below *= p**-e
    return (above > below) - (above < below)


def test_random_forms_order_as_their_integer_powers():
    rng = random.Random(11)

    def random_form():
        form = LogLinear(Fraction(rng.randint(-6, 6), rng.randint(1, 6)))
        for p in (3, 5, 7):
            form += LogLinear.log2(p, Fraction(rng.randint(-6, 6), rng.randint(1, 6)))
        return form

    for _ in range(300):
        a, b = random_form(), random_form()
        expected = _integer_sign(a - b)
        assert (a - b).sign() == expected
        assert (a < b) == (expected < 0) and (b < a) == (expected > 0)
        # scaled down, the same comparison falls below the float threshold
        tiny = Fraction(1, 10**15)
        assert (a.scaled(tiny) < b.scaled(tiny)) == (expected < 0)


def test_large_denominators_are_ordered_exactly_and_quickly():
    # a KKT value with denominators of the size the weight search yields,
    # against a rational within 2e-13 of it: log2(3) < 301994/190537,
    # because 3^190537 < 2^301994
    assert 3**190537 < 2**301994
    rational, coeff = Fraction(97831700, 313537849), Fraction(266615349, 627075698)
    value = LogLinear(rational) + LogLinear.log2(3, coeff)
    bound = LogLinear(rational + coeff * Fraction(301994, 190537))
    assert abs(float(value) - float(bound)) < 1e-9
    start = time.perf_counter()
    assert value < bound and not bound < value
    assert time.perf_counter() - start < 1.0


def test_symbolic_format():
    form = LogLinear(Fraction(1, 4)) + LogLinear.log2(3, Fraction(1, 2))
    assert form.symbolic() == "1/4 + 1/2·log2(3)"
    assert LogLinear().symbolic() == "0"
    assert LogLinear.log2(3).symbolic() == "log2(3)"
