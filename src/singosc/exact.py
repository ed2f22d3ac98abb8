"""Exact arithmetic shared by the spectrum modules (standard library only):
rational square roots, exact signs of sums of square roots, and the numbers of
one biquadratic field Q(sqrt a, sqrt b)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering


def exact_sqrt(value: Fraction) -> Fraction | None:
    """Square root of a non-negative rational if it is again rational."""
    if value < 0:
        raise ValueError("negative radicand")
    num, den = value.numerator, value.denominator
    rn = math.isqrt(num)
    rd = math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def _sign(value: int) -> int:
    return (value > 0) - (value < 0)


def _sign_one_root(c: int, a: int, radicand: int) -> int:
    """Sign of c + a*sqrt(radicand), by at most one comparison of squares."""
    root = _sign(a) if radicand else 0
    base = _sign(c)
    if root == 0 or base == root:
        return base
    if base == 0:
        return root
    return base * _sign(c * c - a * a * radicand)


def _norm_over_b(c0: int, c1: int, c2: int, c3: int, a: int, b: int) -> tuple[int, int]:
    """(P, Q) with L^2 - b R^2 = P + Q sqrt(a), for L = c0 + c1 sqrt(a) and
    R = c2 + c3 sqrt(a)."""
    return (c0 * c0 + a * c1 * c1 - b * (c2 * c2 + a * c3 * c3),
            2 * (c0 * c1 - b * c2 * c3))


def _sign_two_roots(c0: int, c1: int, c2: int, c3: int, a: int, b: int) -> int:
    """Sign of L + R sqrt(b) = c0 + c1 sqrt(a) + c2 sqrt(b) + c3 sqrt(a b) for
    integers with a, b >= 0: that of L or R sqrt(b) when they agree or one
    vanishes, else that of L times that of L^2 - b R^2, which lies in Q(sqrt a).
    So at most three comparisons of squared integers decide it, at any size."""
    left = _sign_one_root(c0, c1, a)
    right = _sign_one_root(c2, c3, a) if b else 0
    if right == 0 or left == right:
        return left
    if left == 0:
        return right
    return left * _sign_one_root(*_norm_over_b(c0, c1, c2, c3, a, b), a)


def sqrt_sum_sign(c: int, a: int, A: int, b: int, B: int) -> int:
    """Sign (-1, 0 or 1) of c + a*sqrt(A) + b*sqrt(B) for integers with A, B >= 0,
    from at most two comparisons of squared integers."""
    if A < 0 or B < 0:
        raise ValueError("negative radicand")
    return _sign_two_roots(c, a, b, 0, A, B)


def _root_times(c: int, radicand: int) -> int:
    """c * sqrt(radicand) rounded toward zero."""
    root = math.isqrt(c * c * radicand)
    return root if c >= 0 else -root


def sqrt_sum_floor(num: tuple, den: int, radicands: tuple[int, int]) -> int:
    """floor((n0 + n1 sqrt a + n2 sqrt b + n3 sqrt(a b)) / den), exactly, for
    num = (n0, n1, n2, n3), radicands = (a, b) with a, b >= 0 and den > 0."""
    a, b = radicands
    n0, n1, n2, n3 = num
    # within 4 of the value times 2^20, as each root is off by less than 1
    near = ((n0 << 20) + _root_times(n1 << 20, a) + _root_times(n2 << 20, b)
            + _root_times(n3 << 20, a * b)) // den
    floor = near >> 20
    if 4 <= near - (floor << 20) <= (1 << 20) - 4:
        return floor  # the value lies within 2^-18 of near / 2^20, and so does no integer
    if _sign_two_roots(n0 - floor * den, n1, n2, n3, a, b) < 0:
        return floor - 1
    if _sign_two_roots(n0 - (floor + 1) * den, n1, n2, n3, a, b) >= 0:
        return floor + 1
    return floor


@total_ordering
@dataclass(frozen=True, eq=False)
class Biquadratic:
    """The number (n0 + n1 sqrt(a) + n2 sqrt(b) + n3 sqrt(a b)) / den of the field
    Q(sqrt a, sqrt b), for ``num = (n0, n1, n2, n3)`` and ``radicands = (a, b)``.

    ``sqrt_pair`` normalizes the field: each radicand is 0 (absent) or a
    non-square, and a b is not a square.  So 1, sqrt a, sqrt b and sqrt(a b)
    are linearly independent over Q, each number has one tuple of coordinates
    in lowest terms, and equality compares them.  Numbers combine with ints,
    Fractions and the numbers of every field whose surds this one spans.
    """

    num: tuple[int, int, int, int]
    den: int
    radicands: tuple[int, int]

    def __post_init__(self):
        common = math.gcd(*self.num, self.den) * _sign(self.den)
        if common != 1:
            object.__setattr__(self, "num", tuple(c // common for c in self.num))
            object.__setattr__(self, "den", self.den // common)

    @classmethod
    def sqrt_pair(cls, first: Fraction, second: Fraction) -> tuple[Biquadratic, Biquadratic]:
        """sqrt(first) and sqrt(second), for non-negative rationals, in one field."""
        if first < 0 or second < 0:
            raise ValueError("negative radicand")
        # sqrt(p / q) = sqrt(p q) / q
        a, b = first.numerator * first.denominator, second.numerator * second.denominator
        num1, num2, den2 = (0, 1, 0, 0), (0, 0, 1, 0), second.denominator
        if math.isqrt(a) ** 2 == a:
            num1, a = (math.isqrt(a), 0, 0, 0), 0
        if math.isqrt(b) ** 2 == b:
            num2, b = (math.isqrt(b), 0, 0, 0), 0
        elif a and math.isqrt(a * b) ** 2 == a * b:
            # sqrt(b) = (sqrt(a b) / a) sqrt(a)
            num2, den2, b = (0, math.isqrt(a * b), 0, 0), den2 * a, 0
        return cls(num1, first.denominator, (a, b)), cls(num2, den2, (a, b))

    def _coordinates(self, other) -> tuple | None:
        """(num, den) of other in this field, in lowest terms, or None when it
        has none (Besicovitch 1940): a surd sqrt(r) of another field is
        (isqrt(r t) / t) sqrt(t) for the t of a, b, a b with r t a square."""
        if isinstance(other, (int, Fraction)):
            return (other.numerator, 0, 0, 0), other.denominator
        if not isinstance(other, Biquadratic):
            return None
        if other.radicands == self.radicands:
            return other.num, other.den
        (a, b), (c, d) = self.radicands, other.radicands
        scale = a * b or a or b or 1  # a multiple of every t
        num = [other.num[0] * scale, 0, 0, 0]
        for coefficient, r in zip(other.num[1:], (c, d, c * d)):
            if not coefficient:
                continue
            for slot, t in enumerate((a, b, a * b), 1):
                if t and math.isqrt(r * t) ** 2 == r * t:
                    num[slot] += coefficient * math.isqrt(r * t) * (scale // t)
                    break
            else:
                return None
        x = Biquadratic(tuple(num), other.den * scale, self.radicands)
        return x.num, x.den

    def _scaled(self, p: int, q: int) -> Biquadratic:
        """self * p / q."""
        n0, n1, n2, n3 = self.num
        return Biquadratic((n0 * p, n1 * p, n2 * p, n3 * p), self.den * q, self.radicands)

    def __add__(self, other):
        coordinates = self._coordinates(other)
        if coordinates is None:
            return NotImplemented
        (y0, y1, y2, y3), dy = coordinates
        (x0, x1, x2, x3), dx = self.num, self.den
        return Biquadratic((x0 * dy + y0 * dx, x1 * dy + y1 * dx, x2 * dy + y2 * dx,
                            x3 * dy + y3 * dx), dx * dy, self.radicands)

    __radd__ = __add__

    def __neg__(self) -> Biquadratic:
        return self._scaled(-1, 1)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        coordinates = self._coordinates(other)
        if coordinates is None:
            return NotImplemented
        (y0, y1, y2, y3), dy = coordinates
        if not (y1 or y2 or y3):
            return self._scaled(y0, dy)
        a, b = self.radicands
        x0, x1, x2, x3 = self.num
        return Biquadratic((x0 * y0 + a * x1 * y1 + b * x2 * y2 + a * b * x3 * y3,
                            x0 * y1 + x1 * y0 + b * (x2 * y3 + x3 * y2),
                            x0 * y2 + x2 * y0 + a * (x1 * y3 + x3 * y1),
                            x0 * y3 + x3 * y0 + x1 * y2 + x2 * y1),
                           self.den * dy, self.radicands)

    __rmul__ = __mul__

    def _inverse(self) -> Biquadratic:
        """1/x = den (L - R sqrt b)(P - Q sqrt a) / (P^2 - a Q^2) for
        x = (L + R sqrt b) / den and L^2 - b R^2 = P + Q sqrt(a)."""
        if not any(self.num):
            raise ZeroDivisionError("division by zero")
        a, b = self.radicands
        x0, x1, x2, x3 = self.num
        p, q = _norm_over_b(x0, x1, x2, x3, a, b)
        d = self.den
        return Biquadratic((d * (x0 * p - a * x1 * q), d * (x1 * p - x0 * q),
                            d * (a * x3 * q - x2 * p), d * (x2 * q - x3 * p)),
                           p * p - a * q * q, self.radicands)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scaled(other.denominator, other.numerator)
        if isinstance(other, Biquadratic):
            return self * other._inverse()
        return NotImplemented

    def __rtruediv__(self, other):
        return self._inverse() * other

    def __pow__(self, exponent: int) -> Biquadratic:
        base = self if exponent >= 0 else self._inverse()
        out = Biquadratic((1, 0, 0, 0), 1, self.radicands)
        for _ in range(abs(exponent)):
            out = out * base
        return out

    def sign(self) -> int:
        return _sign_two_roots(*self.num, *self.radicands)

    def __eq__(self, other):
        return self._coordinates(other) == (self.num, self.den)

    def __lt__(self, other):
        return (self - other).sign() < 0

    def __hash__(self) -> int:
        return hash(Fraction(self.num[0], self.den))

    def rational(self) -> Fraction:
        """The value as a Fraction; a ValueError when it is irrational."""
        if any(self.num[1:]):
            raise ValueError(f"{self} is irrational")
        return Fraction(self.num[0], self.den)

    def __float__(self) -> float:
        if not any(self.num):
            return 0.0
        # scale until floor(self 2^shift) has 64 bits; so it has the sign of self
        n0, n1, n2, n3 = self.num
        shift = 64
        while abs(floor := sqrt_sum_floor((n0 << shift, n1 << shift, n2 << shift, n3 << shift),
                                          self.den, self.radicands)) < 1 << 64:
            shift += 64
        return floor / (1 << shift)

    def __str__(self) -> str:
        """17 significant digits, rounded half up, laid out like mpmath's nstr(v, 17)."""
        if not any(self.num):
            return "0.0"
        negative = self.sign() < 0
        n0, n1, n2, n3 = (-c for c in self.num) if negative else self.num
        k = 0
        # floor(|self| 10^k), all of whose digits are exact, until it has 18 of them
        while len(exact_digits := str(sqrt_sum_floor(
                (n0 * 10 ** k, n1 * 10 ** k, n2 * 10 ** k, n3 * 10 ** k),
                self.den, self.radicands))) < 18:
            k += 18 - len(exact_digits)
        exponent = len(exact_digits) - 1 - k
        digits = int(exact_digits[:17]) + (exact_digits[17] >= "5")
        if digits == 10 ** 17:  # rounding carried into a new leading digit
            digits, exponent = 10 ** 16, exponent + 1
        text, suffix = str(digits), ""
        if -5 < exponent < 0:
            text = "0." + "0" * (-exponent - 1) + text
        elif 0 <= exponent < 17:
            text = text[:exponent + 1] + "." + text[exponent + 1:]
        else:
            text, suffix = text[0] + "." + text[1:], f"e{exponent:+d}"
        text = text.rstrip("0")
        if text.endswith("."):
            text += "0"
        return ("-" if negative else "") + text + suffix
