"""Sparse Laurent polynomials in the coordinates and rho_b = r_b^2, over the parameter ring.

Monomials are packed into single integers: one field per coordinate exponent
(x_1 is the most significant, so integer order on keys is lex order with x_1
first), then one per momentum p_1..p_N, then one field each for
rho1 = r1^2 = x_1^2+..+x_n^2 and rho2 = r2^2 = x_{n+1}^2+..+x_N^2, then the
four parameter fields of ``scalars``, which defines every field's width and
guard bit.  A split has this one layout: operator symbols, their coefficients
(values whose p fields are zero) and the classical functions all use it, and
a ``ParamScalar``'s keys are its parameter part.  Monomial multiplication is
then plain integer addition, and every normalization pass raises
``ExponentOverflowError`` on a guard bit instead of letting a carry change
the monomial.

Coefficients are Python integers over one common positive denominator, the
layout of FLINT's ``fmpq_poly``: a ``BlockPoly`` holds ``num`` (packed key ->
nonzero int) and ``den``, with gcd(den, every numerator) == 1 and den == 1 for
the zero polynomial, as a ``ParamScalar`` does.  A scalar enters as its
(num, den), and ``Fraction`` appears only at the API: the constructor accepts
rational coefficients, and ``as_dict`` and ``repr`` convert.

A ``BlockPoly`` is (num/den) / (rho1^j rho2^k).  The numerator lives in the
ring Q[params, x, rho] modulo the ideal (rho1 - r1^2, rho2 - r2^2), which is
the coordinate ring itself.  It is kept in normal form: no monomial holds its
block's lex-leading coordinate (x_1, resp. x_{n+1}) to a power of 2 or more,
because x_lead^2 is rewritten to rho_b - (the other squares of the block);
for a one-coordinate block that is x^2 -> rho_b.  The two rules have coprime
leading monomials, so they form a Groebner basis (Buchberger's first
criterion; Cox, Little and O'Shea, *Ideals, Varieties, and Algorithms*,
ch. 2), and the normal form of a polynomial is unique.  A value is made
canonical in three steps, in this order:

1. the normal-form rewrite;
2. exact division by rho1 (resp. rho2) while every term holds it and j
   (resp. k) is positive.  A normal-form numerator is divisible by r_b^2 in
   the coordinate ring exactly when every term holds rho_b, and r1^2 and
   r2^2 share no variable, so this leaves the least j and k;
3. division of den and the numerators by their gcd, after the rewrite,
   which changes the content.

Two equal values therefore have equal (num, den, j, k), and ``==`` and
``hash`` compare those.  Lifting a value onto larger j and k is a shift of
its rho fields, with no product.

A sum of values and products (``_Sum``) fixes its j, k and den, the largest
rho powers and the lcm of the denominators of all its parts, before the
first part.  Each part is lifted onto them as it is added: the lift is a key
shift that the kernel adds once per term of a product's smaller operand, and
the factor den / (its den) rides on the kernel's scale.  A parameter
monomial of a product's scale is one more key shift, so no operand is
copied.  Parts of any (j, k) cancel in one term dict, whose zero terms are
dropped once and which is reduced once.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce as _fold
from math import lcm
from operator import or_
from typing import Mapping

from .scalars import (BITS as _BITS, LIMIT as _LIMIT, MASK as _MASK, PARAM_MASK, VAR_NAMES,
                      Exponents, ExponentOverflowError, ParamScalar, Rational, exponents,
                      field as _field, integer_terms, packed, reduced, substitute)


class BlockLayout:
    """Variable layout of a concrete (N, n) split: N coordinates, N momenta,
    rho1, rho2 and the four parameters."""

    __slots__ = ("N", "n", "nfields", "xshift", "pshift", "pmask", "rho_shift", "guard", "_rules")

    def __init__(self, N: int, n: int):
        if N < 2 or not 1 <= n <= N - 1:
            raise ValueError(f"invalid dimension split (N, n) = ({N}, {n})")
        self.N = N
        self.n = n
        self.nfields = 2 * N + 6
        top = self.nfields - 1
        self.xshift = tuple((top - i) * _BITS for i in range(N))
        self.pshift = tuple((top - N - i) * _BITS for i in range(N))
        # every p field of a key: key & pmask is its momentum monomial
        self.pmask = sum(_MASK << s for s in self.pshift)
        self.rho_shift = (5 * _BITS, 4 * _BITS)
        self.guard = sum(_LIMIT << (f * _BITS) for f in range(self.nfields))
        # the rewrite x_lead^2 -> rho_b - rest_b of each block, as
        # (lead shift, rho_b key, keys of the other squares of the block)
        self._rules = tuple(
            (self.xshift[lead], 1 << self.rho_shift[b],
             tuple(2 << self.xshift[i] for i in range(lead + 1, end)))
            for b, (lead, end) in enumerate(((0, n), (n, N))))

    def same_split(self, other: "BlockLayout") -> bool:
        return self is other or (self.N == other.N and self.n == other.n)

    # -- key packing -------------------------------------------------------

    def x_key(self, i: int, power: int = 1) -> int:
        return _field(power) << self.xshift[i]

    def p_key(self, i: int, power: int = 1) -> int:
        return _field(power) << self.pshift[i]

    def rho_key(self, block: int, power: int = 1) -> int:
        """rho_block^power, where rho_1 = r1^2 and rho_2 = r2^2."""
        return _field(power) << self.rho_shift[block - 1]

    def check_keys(self, terms: dict[int, int]) -> None:
        """Raise if any packed key has a guard bit set (an exponent reached 128)."""
        self._check_bits(_fold(or_, terms, 0))

    def check_shift(self, terms: dict[int, int], shift: int) -> None:
        """Raise unless every field of every key plus that field of ``shift``
        stays below 128.  The OR of the keys bounds each field from above, so
        the exact maximum of a field is read only when that bound reaches 128."""
        if not (_fold(or_, terms, 0) + shift) & self.guard:
            return
        for field in range(self.nfields):
            s = (shift >> (field * _BITS)) & _MASK
            if s and max((key >> (field * _BITS)) & _MASK for key in terms) + s >= _LIMIT:
                raise ExponentOverflowError()

    def _check_bits(self, bits: int) -> None:
        if bits & self.guard:
            raise ExponentOverflowError()

    def unpack(self, key: int) -> tuple[tuple[int, ...], tuple[int, ...],
                                        tuple[int, int], Exponents]:
        """Split a packed key into (x, p, (rho1, rho2), parameter) exponents."""
        xe = tuple((key >> s) & _MASK for s in self.xshift)
        pe = tuple((key >> s) & _MASK for s in self.pshift)
        re = tuple((key >> s) & _MASK for s in self.rho_shift)
        return xe, pe, re, exponents(key)  # type: ignore[return-value]

    def block_of(self, i: int) -> int:
        return 1 if i < self.n else 2


# -- raw term-dict helpers (hot paths) --------------------------------------

def _live(terms: dict[int, int]) -> dict[int, int]:
    """The terms whose coefficient did not cancel to zero."""
    return {key: c for key, c in terms.items() if c}


def _raw_mul(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    _raw_mul_into(out, a, b, 1)
    return _live(out)


def _raw_mul_into(dst: dict[int, int], a: dict[int, int],
                  b: dict[int, int], scale: int, *, shift: int = 0) -> None:
    """Add scale * a * b, every key shifted by ``shift`` (a monomial factor), into
    dst.  A cancelled term stays as a zero, for its sum to drop (``_live``)."""
    if not a or not b or not scale:
        return
    if len(a) > len(b):
        a, b = b, a
    one = scale == 1
    get = dst.get
    for ka, ca in a.items():
        cas = ca if one else ca * scale
        ka += shift
        for kb, cb in b.items():
            key = ka + kb
            cur = get(key)
            if cur is None:
                dst[key] = cas * cb
            else:
                dst[key] = cur + cas * cb


def _raw_add_into(dst: dict[int, int], src: dict[int, int], scale: int,
                  shift: int = 0) -> None:
    """Add scale * src, every key shifted by ``shift``, into dst, cancelled terms
    kept as zeros like ``_raw_mul_into``."""
    if not scale:
        return
    get = dst.get
    for key, coeff in src.items():
        key += shift
        dst[key] = get(key, 0) + coeff * scale


def _normal_form(layout: BlockLayout, terms: dict[int, int]) -> dict[int, int]:
    """Rewrite x_lead^2 -> rho_b - rest_b until no key holds a lead power of 2 or more.

    Raises ``ExponentOverflowError`` on a guard bit, before the rewrite (whose
    additions could carry a set guard bit into the next field) and after it."""
    bits = _fold(or_, terms, 0)
    layout._check_bits(bits)
    for lead, rho, rest in layout._rules:
        if (bits >> lead) & _MASK < 2:
            continue
        step = 2 << lead
        while True:
            high = [(key, c) for key, c in terms.items() if (key >> lead) & _MASK >= 2]
            if not high:
                break
            out = {key: c for key, c in terms.items() if (key >> lead) & _MASK < 2}
            get = out.get
            for key, coeff in high:
                base = key - step
                out[base + rho] = get(base + rho, 0) + coeff
                for sq in rest:
                    out[base + sq] = get(base + sq, 0) - coeff
            terms = {key: c for key, c in out.items() if c}
        bits = _fold(or_, terms, 0)
        layout._check_bits(bits)
    return terms


def _try_divide(terms: dict[int, int], shift: int) -> dict[int, int] | None:
    """Exact division by the variable whose field sits at ``shift`` (rho1 or rho2).

    Returns the quotient, or None when some term lacks the variable."""
    for key in terms:
        if not (key >> shift) & _MASK:
            return None
    unit = 1 << shift
    return {key - unit: coeff for key, coeff in terms.items()}


class _Sum:
    """Integer numerators over den / (rho1^j rho2^k), with j, k and den fixed
    by every part to come (the module docstring)."""

    __slots__ = ("layout", "terms", "den", "j", "k")

    def __init__(self, layout: BlockLayout, parts: list[tuple]):
        """``parts``: every part to come, as (den, j, k, ...)."""
        self.layout = layout
        self.terms: dict[int, int] = {}
        self.den = lcm(*(part[0] for part in parts))
        self.j = max((part[1] for part in parts), default=0)
        self.k = max((part[2] for part in parts), default=0)

    def add(self, den: int, j: int, k: int, scale: int, a: dict[int, int]) -> None:
        """Add scale * a / (den rho1^j rho2^k), its keys shifted: each field and
        its shift are below 128, so no sum carries, and ``_make`` checks the guards."""
        _raw_add_into(self.terms, a, scale * (self.den // den),
                      self.layout.rho_key(1, self.j - j) + self.layout.rho_key(2, self.k - k))

    def lifted(self, den: int, j: int, k: int, scale: int, a: dict[int, int],
               b: dict[int, int], shift: int) -> tuple[dict, dict, int, int]:
        """(a', b', scale', shift') for ``_raw_mul_into(self.terms, a', b', scale',
        shift=shift')``: scale * a * b * (the monomial ``shift``) / (den rho1^j
        rho2^k) lifted onto the sum, a' the operand with fewer terms.  The kernel
        adds shift' to a''s keys, so each field of a' plus its shift must stay
        below 128 (``check_shift``): then no key addition carries."""
        if len(a) > len(b):
            a, b = b, a
        if j != self.j or k != self.k:
            shift += self.layout.rho_key(1, self.j - j) + self.layout.rho_key(2, self.k - k)
        if shift:
            self.layout.check_shift(a, shift)
        return a, b, scale * (self.den // den), shift

    def settle(self) -> None:
        """Drop the terms that cancelled, once every part is in."""
        self.terms = _live(self.terms)


def _sum(layout: BlockLayout, parts: list[tuple]) -> BlockPoly:
    """The sum of ``parts`` (den, j, k, scale, a), each scale * a, reduced once."""
    total = _Sum(layout, parts)
    for part in parts:
        total.add(*part)
    total.settle()
    return BlockPoly._make(layout, total.terms, total.den, total.j, total.k)


class Derivatives:
    """Derivatives taken while one table lives, each computed once.

    ``of(value)`` is the memo of one value's derivatives, keyed as its caller
    differentiates (``diffop`` keys an x derivative by its multi-index and a
    table of p derivatives by its Leibniz part).  The table holds raw
    derivatives, numerators that were never reduced (an x derivative is a
    ``_raw_diff_x`` tuple), which only a word sum reads and reduces as part
    of its total.  Values are keyed by identity and held by the table, so no
    id is reused while it lives."""

    __slots__ = ("_memos",)

    def __init__(self):
        self._memos: dict[int, tuple[object, dict]] = {}

    def of(self, value: object) -> dict:
        entry = self._memos.get(id(value))
        if entry is None:
            entry = self._memos[id(value)] = (value, {})
        return entry[1]


def _raw_diff_x(layout: BlockLayout, raw: tuple, i: int) -> tuple[dict[int, int], int, int, int]:
    """Partial derivative in x_{i+1} of raw = (num, den, j, k), the value (num/den) /
    (rho1^j rho2^k) in any form, in one pass over the terms and unreduced.

    With rho the r^2 of x_{i+1}'s block and J its power in the denominator,
    d/dx_i (c x^a rho^e / rho^J)
        = [a_i c x^(a - e_i) rho^(e+1) + 2 (e - J) c x^(a + e_i) rho^e] / rho^(J+1),
    since d rho / dx_i = 2 x_i.  Raises ``ExponentOverflowError`` on a field
    that reached 128."""
    num, den, j, k = raw
    shift = layout.xshift[i]
    block = layout.block_of(i)
    rho_shift = layout.rho_shift[block - 1]
    exp = j if block == 1 else k
    unit = 1 << shift
    down = (1 << rho_shift) - unit
    out: dict[int, int] = {}
    get = out.get
    for key, coeff in num.items():
        a = (key >> shift) & _MASK
        if a:
            nk = key + down
            out[nk] = get(nk, 0) + a * coeff
        e = (key >> rho_shift) & _MASK
        if e != exp:
            nk = key + unit
            out[nk] = get(nk, 0) + 2 * (e - exp) * coeff
    out = _live(out)
    layout.check_keys(out)
    return (out, den, j + 1, k) if block == 1 else (out, den, j, k + 1)


def _raw_diff(terms: dict[int, int], shift: int) -> dict[int, int]:
    out: dict[int, int] = {}
    unit = 1 << shift
    for key, coeff in terms.items():
        e = (key >> shift) & _MASK
        if e:
            out[key - unit] = coeff * e
    return out


class BlockPoly:
    """(num/den) / (rho1^j rho2^k) in canonical form."""

    __slots__ = ("layout", "num", "den", "j", "k")

    def __init__(self, layout: BlockLayout, num: Mapping[int, Rational] | None = None,
                 j: int = 0, k: int = 0):
        ints, den = integer_terms(num or {})
        self._set(layout, ints, den, j, k, True)

    @classmethod
    def _make(cls, layout: BlockLayout, num: dict[int, int], den: int,
              j: int, k: int, rewrite: bool = True) -> BlockPoly:
        """Canonical value from integer numerators over a positive denominator.

        ``rewrite=False`` skips the rewrite and the division, for a numerator
        known to be in normal form and to share no rho power with the
        denominator."""
        self = object.__new__(cls)
        self._set(layout, num, den, j, k, rewrite)
        return self

    def _set(self, layout: BlockLayout, num: dict[int, int], den: int,
             j: int, k: int, rewrite: bool) -> None:
        if num and rewrite:
            num = _normal_form(layout, num)
            rho1, rho2 = layout.rho_shift
            while j and (quot := _try_divide(num, rho1)) is not None:
                num, j = quot, j - 1
            while k and (quot := _try_divide(num, rho2)) is not None:
                num, k = quot, k - 1
        elif num:
            layout.check_keys(num)
        num, den = reduced(num, den)
        if not num:
            j = k = 0
        self.layout = layout
        self.num = num
        self.den = den
        self.j = j
        self.k = k

    # -- construction helpers ----------------------------------------------

    @classmethod
    def zero(cls, layout: BlockLayout) -> BlockPoly:
        return cls._make(layout, {}, 1, 0, 0, rewrite=False)

    @classmethod
    def scalar(cls, layout: BlockLayout, value: ParamScalar | Rational) -> BlockPoly:
        """The scalar's own (num, den): its keys are keys of every layout."""
        return cls._make(layout, *packed(value), 0, 0, rewrite=False)

    @classmethod
    def monomial(cls, layout: BlockLayout, key: int,
                 coeff: ParamScalar | Rational = 1, j: int = 0, k: int = 0) -> BlockPoly:
        num, den = packed(coeff)
        return cls._make(layout, {key + frag: c for frag, c in num.items()}, den, j, k)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: BlockPoly) -> BlockPoly:
        return _sum(self.layout, [(val.den, val.j, val.k, 1, val.num) for val in (self, other)])

    def __sub__(self, other: BlockPoly) -> BlockPoly:
        return self + (-other)

    def __neg__(self) -> BlockPoly:
        out = object.__new__(BlockPoly)
        out.layout, out.den, out.j, out.k = self.layout, self.den, self.j, self.k
        out.num = {key: -c for key, c in self.num.items()}
        return out

    def __mul__(self, other: BlockPoly) -> BlockPoly:
        return BlockPoly._make(self.layout, _raw_mul(self.num, other.num),
                               self.den * other.den, self.j + other.j, self.k + other.k)

    def scaled(self, value: ParamScalar | Rational) -> BlockPoly:
        # a nonzero factor free of x and rho keeps the normal form and the
        # rho powers that divide the numerator, so only the content changes;
        # each parameter monomial of the factor is a shift of the keys
        frags, fden = packed(value)
        out: dict[int, int] = {}
        for frag, p in frags.items():
            _raw_add_into(out, self.num, p, frag)
        return BlockPoly._make(self.layout, _live(out), self.den * fden, self.j, self.k,
                               rewrite=False)

    # -- calculus ------------------------------------------------------------

    def diff_x(self, i: int) -> BlockPoly:
        """Partial derivative in x_{i+1} (``_raw_diff_x``), reduced."""
        return BlockPoly._make(self.layout,
                               *_raw_diff_x(self.layout, (self.num, self.den, self.j, self.k), i))

    def diff_p(self, i: int) -> BlockPoly:
        return BlockPoly._make(self.layout, _raw_diff(self.num, self.layout.pshift[i]),
                               self.den, self.j, self.k)

    # -- queries ---------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BlockPoly):
            return NotImplemented
        return ((self.j, self.k, self.den) == (other.j, other.k, other.den)
                and self.layout.same_split(other.layout) and self.num == other.num)

    def __hash__(self):
        return hash((self.j, self.k, self.den, frozenset(self.num.items())))

    def term_count(self) -> int:
        return len(self.num)

    def substitute_params(self, values: Mapping[str, Rational]) -> BlockPoly:
        """Substitute exact rationals for a subset of (hbar, omega, c1, c2),
        by ``scalars.substitute`` on the parameter fields of the keys."""
        return BlockPoly._make(self.layout, *substitute(self.num, self.den, values),
                               self.j, self.k)

    def p_degree(self) -> int:
        layout = self.layout
        best = 0
        for key in self.num:
            deg = sum((key >> s) & _MASK for s in layout.pshift)
            if deg > best:
                best = deg
        return best

    def as_dict(self) -> dict[tuple[int, ...], ParamScalar]:
        """Numerator over den, as {x, p, rho1, rho2 exponents: ParamScalar}."""
        grouped: dict[int, dict[int, int]] = {}
        for key, coeff in self.num.items():
            frag = key & PARAM_MASK
            grouped.setdefault(key - frag, {})[frag] = coeff
        out = {}
        for mono, num in grouped.items():
            xe, pe, re, _ = self.layout.unpack(mono)
            out[xe + pe + re] = ParamScalar._of(*reduced(num, self.den))
        return out

    def __repr__(self) -> str:
        if not self.num:
            return "0"
        parts = []
        for key in sorted(self.num, reverse=True):
            xe, pe, re, pa = self.layout.unpack(key)
            factors = [str(Fraction(self.num[key], self.den))]
            names = ([f"x{i + 1}" for i in range(len(xe))]
                     + [f"p{i + 1}" for i in range(len(pe))] + ["rho1", "rho2"]
                     + list(VAR_NAMES))
            for name, e in zip(names, xe + pe + re + pa):
                if e:
                    factors.append(f"{name}^{e}" if e > 1 else name)
            parts.append("*".join(factors))
        body = " + ".join(parts)
        if self.j or self.k:
            return f"({body}) / (rho1^{self.j} rho2^{self.k})"
        return body
