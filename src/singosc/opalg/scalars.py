"""Exact coefficient ring: sparse polynomials in (hbar, omega, c1, c2) over Q.

Every symbolic check in the operator engine runs over this ring, so residuals
are exact zeros, never small floats.  A scalar is stored as ``poly`` stores a
value: ``num`` maps packed keys to nonzero integer numerators over one
positive ``den``, with gcd(den, every numerator) == 1 and den == 1 for zero.
Its keys hold hbar, omega, c1 and c2 in the four lowest fields of every
``BlockLayout`` key, so a scalar scales a value by key addition.

The fields are defined here, once: 8 bits each, an exponent in the low 7 bits
and below 128, the top bit a guard.  The sum of two exponents below 128 never
carries out of its field, so a product whose exponent reaches 128 sets a guard
bit, and the constructors, ``*`` and ``**`` raise ``ExponentOverflowError``.
``terms`` is an exponent-tuple view, for the tests and ``repr``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce as _fold
from math import gcd, lcm
from operator import or_
from typing import Mapping, Union

Exponents = tuple[int, int, int, int]
Rational = Union[int, Fraction]

VAR_NAMES = ("hbar", "omega", "c1", "c2")

# one 8-bit field per exponent; hbar, omega, c1, c2 in the four lowest fields
BITS = 8
MASK = (1 << BITS) - 1
LIMIT = 1 << (BITS - 1)
PARAM_SHIFT = tuple((3 - t) * BITS for t in range(4))
PARAM_GUARD = sum(LIMIT << s for s in PARAM_SHIFT)
PARAM_MASK = sum(MASK << s for s in PARAM_SHIFT)


class ExponentOverflowError(OverflowError):
    """Raised when an exponent would reach 128 and overflow its packed field."""

    def __init__(self, message: str = f"an exponent reached {LIMIT}, beyond its packed field"):
        super().__init__(message)


def field(power: int) -> int:
    if not 0 <= power < LIMIT:
        raise ExponentOverflowError(f"exponent {power} outside [0, {LIMIT})")
    return power


def param_key(exps: Exponents) -> int:
    """The packed key of hbar^a omega^b c1^c c2^d, for exps = (a, b, c, d)."""
    return sum(field(e) << s for e, s in zip(exps, PARAM_SHIFT, strict=True))


def exponents(key: int) -> Exponents:
    """(a, b, c, d) of the parameter fields of a packed key."""
    return tuple((key >> s) & MASK for s in PARAM_SHIFT)  # type: ignore[return-value]


def integer_terms(terms: Mapping[int, Rational]) -> tuple[dict[int, int], int]:
    """Rational coefficients as integer numerators over their least common
    denominator, zeros dropped; the gcd of the two is then 1."""
    fracs = {key: Fraction(c) for key, c in terms.items() if c}
    den = lcm(*(c.denominator for c in fracs.values()))
    return {key: c.numerator * (den // c.denominator) for key, c in fracs.items()}, den


def reduced(num: dict[int, int], den: int) -> tuple[dict[int, int], int]:
    """(num, den) with their gcd divided out; den 1 for no terms."""
    g = gcd(den, *num.values())
    return ({key: c // g for key, c in num.items()}, den // g) if g != 1 else (num, den)


def packed(value: ParamScalar | Rational) -> tuple[dict[int, int], int]:
    """(num, den) of a scalar, an int or a Fraction."""
    if isinstance(value, ParamScalar):
        return value.num, value.den
    if isinstance(value, int):
        return ({0: value} if value else {}), 1
    value = Fraction(value)
    return ({0: value.numerator} if value else {}), value.denominator


def substitute(num: dict[int, int], den: int, values: Mapping[str, Rational]
               ) -> tuple[dict[int, int], int]:
    """num / den with exact rationals for a subset of (hbar, omega, c1, c2), on
    the parameter fields of its keys (which may hold other fields above them):
    v = p/q turns v^e into p^e q^(top - e) over den q^top, so numerators stay
    integers."""
    for name, value in values.items():
        shift = PARAM_SHIFT[VAR_NAMES.index(name)]
        value = Fraction(value)
        p, q = value.numerator, value.denominator
        top = max(((key >> shift) & MASK for key in num), default=0)
        factors = [p ** e * q ** (top - e) for e in range(top + 1)]
        out: dict[int, int] = {}
        for key, c in num.items():
            e = (key >> shift) & MASK
            key -= e << shift
            out[key] = out.get(key, 0) + c * factors[e]
        num = {key: c for key, c in out.items() if c}
        den *= q ** top
    return reduced(num, den)


class ParamScalar:
    """A polynomial in the four model parameters with exact rational coefficients."""

    __slots__ = ("num", "den")

    def __init__(self, terms: Mapping[Exponents, Rational] | None = None):
        self.num, self.den = integer_terms(
            {param_key(exps): c for exps, c in terms.items()} if terms else {})

    @classmethod
    def _of(cls, num: dict[int, int], den: int) -> ParamScalar:
        """num / den, already reduced (``reduced``)."""
        out = object.__new__(cls)
        out.num, out.den = num, den
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def rational(cls, value: Rational) -> ParamScalar:
        return cls._of(*packed(value))

    @classmethod
    def monomial(cls, exps: Exponents, coeff: Rational = 1) -> ParamScalar:
        num, den = packed(coeff)
        return cls._of({param_key(exps): c for c in num.values()}, den)

    @classmethod
    def hbar(cls, power: int = 1, coeff: Rational = 1) -> ParamScalar:
        return cls.monomial((power, 0, 0, 0), coeff)

    @classmethod
    def omega(cls, power: int = 1, coeff: Rational = 1) -> ParamScalar:
        return cls.monomial((0, power, 0, 0), coeff)

    @classmethod
    def c1(cls, power: int = 1, coeff: Rational = 1) -> ParamScalar:
        return cls.monomial((0, 0, power, 0), coeff)

    @classmethod
    def c2(cls, power: int = 1, coeff: Rational = 1) -> ParamScalar:
        return cls.monomial((0, 0, 0, power), coeff)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: ParamScalar | Rational) -> ParamScalar:
        onum, oden = packed(other)
        den = lcm(self.den, oden)
        mine, theirs = den // self.den, den // oden
        num = {k: c * mine for k, c in self.num.items()}
        get = num.get
        for key, c in onum.items():
            num[key] = get(key, 0) + c * theirs
        return ParamScalar._of(*reduced({k: c for k, c in num.items() if c}, den))

    __radd__ = __add__

    def __neg__(self) -> ParamScalar:
        return ParamScalar._of({k: -c for k, c in self.num.items()}, self.den)

    def __sub__(self, other: ParamScalar | Rational) -> ParamScalar:
        return self + -ParamScalar._of(*packed(other))

    def __rsub__(self, other: Rational) -> ParamScalar:
        return -self + other

    def __mul__(self, other: ParamScalar | Rational) -> ParamScalar:
        onum, oden = packed(other)
        if not (self.num and onum):
            return ParamScalar()
        if len(onum) == 1 and 0 in onum:
            p = onum[0]
            num = {k: c * p for k, c in self.num.items()}
        else:
            num = {}
            get = num.get
            for k1, c1 in self.num.items():
                for k2, c2 in onum.items():
                    key = k1 + k2
                    num[key] = get(key, 0) + c1 * c2
            num = {k: c for k, c in num.items() if c}
            if _fold(or_, num, 0) & PARAM_GUARD:
                raise ExponentOverflowError()
        return ParamScalar._of(*reduced(num, self.den * oden))

    __rmul__ = __mul__

    def __pow__(self, power: int) -> ParamScalar:
        if power < 0:
            raise ValueError("negative powers are not part of the coefficient ring")
        result = ParamScalar.rational(1)
        base = self
        while power:
            if power & 1:
                result = result * base
            power >>= 1
            if power:
                base = base * base
        return result

    # -- queries -----------------------------------------------------------

    @property
    def terms(self) -> dict[Exponents, Fraction]:
        """A read-only view: {(a, b, c, d): coefficient of hbar^a omega^b c1^c c2^d}."""
        return {exponents(key): Fraction(c, self.den) for key, c in self.num.items()}

    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (ParamScalar, int, Fraction)):
            return NotImplemented
        return (self.num, self.den) == packed(other)

    def __hash__(self):
        return hash((self.den, frozenset(self.num.items())))

    def constant_value(self) -> Fraction:
        """Value of a degree-0 scalar; raises if any parameter survives."""
        if not self.num.keys() <= {0}:
            raise ValueError(f"scalar is not constant: {self}")
        return Fraction(self.num.get(0, 0), self.den)

    def substitute(self, values: Mapping[str, Rational]) -> ParamScalar:
        """Substitute exact rationals for a subset of the parameters."""
        return ParamScalar._of(*substitute(self.num, self.den, values))

    def __repr__(self) -> str:
        terms = self.terms
        if not terms:
            return "0"
        parts = []
        for exps in sorted(terms):
            factors = [str(terms[exps])]
            for name, e in zip(VAR_NAMES, exps):
                if e == 1:
                    factors.append(name)
                elif e:
                    factors.append(f"{name}**{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)

