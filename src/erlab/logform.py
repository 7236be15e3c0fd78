"""Exact linear forms over logarithms of primes.

Values arising here are rational combinations of log2(p) for small primes p
(log2(2) = 1 folds into the rational part).  Two such forms are equal iff
their coefficient vectors coincide, so equality needs no tolerance.

Order is exact too.  A float difference beyond 1e-9 times (1 + the sizes
of the terms) decides it, a margin millions of times the float error; a
nearer difference between distinct forms is settled by rigorous decimal
bounds, refined until they exclude 0.  That always happens: 1 and the log2
of distinct odd primes are linearly independent over Q (unique
factorisation), so distinct forms never take the same value.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction


def _factor(n: int) -> dict[int, int]:
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


class LogLinear:
    """rational + sum of coeff * log2(p) over odd primes p.

    `coeffs` is keyed by odd primes, as `log2` builds it: exact order
    (`sign`) rests on the independence of their logs."""

    __slots__ = ("rational", "coeffs")

    def __init__(self, rational=0, coeffs: dict[int, Fraction] | None = None):
        self.rational = Fraction(rational)
        self.coeffs = {p: Fraction(c) for p, c in (coeffs or {}).items() if c != 0}

    @classmethod
    def log2(cls, n: int, weight=1) -> "LogLinear":
        """weight * log2(n) for a positive integer n."""
        w = Fraction(weight)
        if n == 1 or w == 0:
            return cls()
        rational = Fraction(0)
        coeffs: dict[int, Fraction] = {}
        for p, e in _factor(n).items():
            if p == 2:
                rational += w * e
            else:
                coeffs[p] = coeffs.get(p, Fraction(0)) + w * e
        return cls(rational, coeffs)

    def __add__(self, other: "LogLinear") -> "LogLinear":
        coeffs = dict(self.coeffs)
        for p, c in other.coeffs.items():
            coeffs[p] = coeffs.get(p, Fraction(0)) + c
        return LogLinear(self.rational + other.rational, coeffs)

    def __sub__(self, other: "LogLinear") -> "LogLinear":
        return self + other.scaled(-1)

    def scaled(self, factor) -> "LogLinear":
        f = Fraction(factor)
        return LogLinear(self.rational * f, {p: c * f for p, c in self.coeffs.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, LogLinear):
            return NotImplemented
        return self.rational == other.rational and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.rational, tuple(sorted(self.coeffs.items()))))

    def is_zero(self) -> bool:
        return self.rational == 0 and not self.coeffs

    def __float__(self) -> float:
        return float(self.rational) + sum(float(c) * math.log2(p) for p, c in self.coeffs.items())

    def sign(self) -> int:
        """-1, 0 or 1 as the value is negative, zero or positive, exactly.

        ln(2) times the value is rational·ln 2 + sum c_p·ln p.  Each ln is
        correctly rounded to `digits` significant digits, so within half a
        unit in its last place; with a whole unit as the error bound, the
        value's sign is fixed once the sum's distance from 0 exceeds the
        bound, and the digits double until it does.
        """
        if self.is_zero():
            return 0
        terms = [(self.rational, 2), *((c, p) for p, c in self.coeffs.items())]
        digits = 40
        while True:
            centre = radius = Fraction(0)
            with localcontext() as ctx:
                ctx.prec = digits
                for c, p in terms:
                    ln = Decimal(p).ln()
                    centre += c * Fraction(ln)
                    radius += abs(c) * Fraction(10) ** ln.as_tuple().exponent
            if abs(centre) > radius:
                return 1 if centre > 0 else -1
            digits *= 2

    def _size(self) -> float:
        """The sum of the terms' absolute values: the float value's error
        is at most a few units in the last place of this sum per term."""
        return abs(float(self.rational)) + sum(abs(float(c)) * math.log2(p) for p, c in self.coeffs.items())

    def __lt__(self, other: "LogLinear") -> bool:
        if self == other:
            return False
        diff = float(self) - float(other)
        # a margin far above the float error, also for forms with large terms
        if abs(diff) > 1e-9 * (1 + self._size() + other._size()):
            return diff < 0
        # near-tie between distinct forms: decide exactly
        return (self - other).sign() < 0

    def __le__(self, other: "LogLinear") -> bool:
        return self == other or self < other

    def symbolic(self) -> str:
        """e.g. '1/4 + 1/2·log2(3)'."""
        parts = []
        if self.rational != 0 or not self.coeffs:
            parts.append(str(self.rational))
        for p in sorted(self.coeffs):
            c = self.coeffs[p]
            term = f"log2({p})" if c == 1 else f"{c}·log2({p})"
            parts.append(term)
        return " + ".join(parts)

    def __repr__(self):
        return f"LogLinear({self.symbolic()})"
