"""Exact coefficient ring: sparse polynomials in (hbar, omega, c1, c2) over Q.

Every symbolic check in the operator engine runs over this ring, so residuals
are exact zeros, never small floats.  Terms map exponent 4-tuples to nonzero
``Fraction`` coefficients; the empty map is the zero polynomial.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Union

Exponents = tuple[int, int, int, int]
Rational = Union[int, Fraction]

VAR_NAMES = ("hbar", "omega", "c1", "c2")
_ZERO4: Exponents = (0, 0, 0, 0)


class ParamScalar:
    """A polynomial in the four model parameters with exact rational coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Exponents, Rational] | None = None):
        cleaned: dict[Exponents, Fraction] = {}
        if terms:
            for exps, coeff in terms.items():
                coeff = Fraction(coeff)
                if coeff:
                    cleaned[exps] = coeff
        self.terms = cleaned

    # -- constructors ------------------------------------------------------

    @classmethod
    def rational(cls, value: Rational) -> ParamScalar:
        value = Fraction(value)
        return cls({_ZERO4: value}) if value else cls()

    @classmethod
    def monomial(cls, exps: Exponents, coeff: Rational = 1) -> ParamScalar:
        return cls({exps: Fraction(coeff)})

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
        other = _coerce(other)
        if not other.terms:
            return self
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            new = terms.get(exps, 0) + coeff
            if new:
                terms[exps] = new
            else:
                terms.pop(exps, None)
        out = ParamScalar.__new__(ParamScalar)
        out.terms = terms
        return out

    __radd__ = __add__

    def __neg__(self) -> ParamScalar:
        out = ParamScalar.__new__(ParamScalar)
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __sub__(self, other: ParamScalar | Rational) -> ParamScalar:
        return self + (-_coerce(other))

    def __rsub__(self, other: Rational) -> ParamScalar:
        return _coerce(other) + (-self)

    def __mul__(self, other: ParamScalar | Rational) -> ParamScalar:
        if isinstance(other, (int, Fraction)):
            other = Fraction(other)
            out = ParamScalar.__new__(ParamScalar)
            out.terms = {e: c * other for e, c in self.terms.items()} if other else {}
            return out
        acc: dict[Exponents, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2], e1[3] + e2[3])
                new = acc.get(key, 0) + c1 * c2
                if new:
                    acc[key] = new
                else:
                    acc.pop(key, None)
        out = ParamScalar.__new__(ParamScalar)
        out.terms = acc
        return out

    __rmul__ = __mul__

    def __pow__(self, power: int) -> ParamScalar:
        if power < 0:
            raise ValueError("negative powers are not part of the coefficient ring")
        result = ParamScalar.rational(1)
        base = self
        while power:
            if power & 1:
                result = result * base
            base = base * base
            power >>= 1
        return result

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = ParamScalar.rational(other)
        if not isinstance(other, ParamScalar):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def constant_value(self) -> Fraction:
        """Value of a degree-0 scalar; raises if any parameter survives."""
        if not self.terms:
            return Fraction(0)
        if set(self.terms) != {_ZERO4}:
            raise ValueError(f"scalar is not constant: {self}")
        return self.terms[_ZERO4]

    def substitute(self, values: Mapping[str, Rational]) -> ParamScalar:
        """Substitute exact rationals for a subset of the parameters."""
        idx = {name: VAR_NAMES.index(name) for name in values}
        vals = {i: Fraction(values[name]) for name, i in idx.items()}
        acc: dict[Exponents, Fraction] = {}
        for exps, coeff in self.terms.items():
            new_exps = list(exps)
            for i, v in vals.items():
                coeff = coeff * v ** exps[i]
                new_exps[i] = 0
            if not coeff:
                continue
            key = tuple(new_exps)
            new = acc.get(key, 0) + coeff
            if new:
                acc[key] = new
            else:
                acc.pop(key, None)
        out = ParamScalar.__new__(ParamScalar)
        out.terms = acc
        return out

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps in sorted(self.terms):
            factors = [str(self.terms[exps])]
            for name, e in zip(VAR_NAMES, exps):
                if e == 1:
                    factors.append(name)
                elif e:
                    factors.append(f"{name}**{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)


def _coerce(value: ParamScalar | Rational) -> ParamScalar:
    if isinstance(value, ParamScalar):
        return value
    return ParamScalar.rational(value)
