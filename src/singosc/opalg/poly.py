"""Sparse Laurent polynomials in the coordinates and rho_b = r_b^2, over the parameter ring.

Monomials are packed into single integers: one 8-bit field per coordinate
exponent (x_1 is the most significant, so integer order on keys is lex order
with x_1 first), then the momenta if the layout has them, then one field each
for rho1 = r1^2 = x_1^2+..+x_n^2 and rho2 = r2^2 = x_{n+1}^2+..+x_N^2, then
four fields for the parameter exponents.  Monomial multiplication is then
plain integer addition.  An exponent lives in the low 7 bits of its field and
must stay below 128; the top bit is a guard.  The sum of two exponents below
128 never carries out of its field, so an overflowing product sets a guard
bit, and every normalization pass raises ``ExponentOverflowError`` on a guard
bit instead of letting a carry change the monomial.

Coefficients are Python integers over one common positive denominator, the
layout of FLINT's ``fmpq_poly``: a ``BlockPoly`` holds ``num`` (packed key ->
nonzero int) and ``den``, with gcd(den, every numerator) == 1 and den == 1 for
the zero polynomial.  ``Fraction`` and ``ParamScalar`` appear only at the API:
the constructor accepts rational coefficients, and ``as_dict``, ``scaled``,
``substitute_params``, ``embed_scalar`` and ``repr`` convert.

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
first part.  Each part is lifted onto them as it is added (a product shifts
its smaller operand) with the factor den / (its den) on the kernel's scale,
so parts of any (j, k) cancel in one term dict, which is reduced once.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce as _fold
from math import gcd, lcm
from operator import or_
from typing import Mapping

from .scalars import ParamScalar, Exponents, VAR_NAMES

_BITS = 8
_MASK = (1 << _BITS) - 1
_LIMIT = 1 << (_BITS - 1)


class ExponentOverflowError(OverflowError):
    """Raised when an exponent would reach 128 and overflow its packed field."""


class BlockLayout:
    """Variable layout for a concrete (N, n) split, optionally with momenta."""

    __slots__ = (
        "N", "n", "momenta", "nfields", "xshift", "pshift", "rho_shift", "param_shift",
        "guard", "_rules",
    )

    def __init__(self, N: int, n: int, momenta: bool = False):
        if N < 2 or not 1 <= n <= N - 1:
            raise ValueError(f"invalid dimension split (N, n) = ({N}, {n})")
        self.N = N
        self.n = n
        self.momenta = momenta
        ncoord = 2 * N if momenta else N
        self.nfields = ncoord + 6
        top = self.nfields - 1
        self.xshift = tuple((top - i) * _BITS for i in range(N))
        self.pshift = tuple((top - N - i) * _BITS for i in range(N)) if momenta else ()
        self.rho_shift = (5 * _BITS, 4 * _BITS)
        self.param_shift = tuple((3 - t) * _BITS for t in range(4))
        self.guard = sum(_LIMIT << (f * _BITS) for f in range(self.nfields))
        # the rewrite x_lead^2 -> rho_b - rest_b of each block, as
        # (lead shift, rho_b key, keys of the other squares of the block)
        self._rules = tuple(
            (self.xshift[lead], 1 << self.rho_shift[b],
             tuple(2 << self.xshift[i] for i in range(lead + 1, end)))
            for b, (lead, end) in enumerate(((0, n), (n, N))))

    def same_split(self, other: "BlockLayout") -> bool:
        return self is other or (self.N == other.N and self.n == other.n
                                 and self.momenta == other.momenta)

    # -- key packing -------------------------------------------------------

    def x_key(self, i: int, power: int = 1) -> int:
        return _field(power) << self.xshift[i]

    def p_key(self, i: int, power: int = 1) -> int:
        return _field(power) << self.pshift[i]

    def rho_key(self, block: int, power: int = 1) -> int:
        """rho_block^power, where rho_1 = r1^2 and rho_2 = r2^2."""
        return _field(power) << self.rho_shift[block - 1]

    def from_plain(self, key: int) -> int:
        """A key of this split's momentum-free layout, repacked for this one:
        the x fields move up past the N momentum fields, and the rho and
        parameter fields, the low six in both layouts, stay."""
        low = 6 * _BITS
        return ((key >> low) << (low + self.N * _BITS)) | (key & ((1 << low) - 1))

    def to_plain(self, key: int) -> int:
        """The key with its momentum fields dropped, repacked for the
        momentum-free layout: the inverse of ``from_plain``."""
        low = 6 * _BITS
        return ((key >> (low + self.N * _BITS)) << low) | (key & ((1 << low) - 1))

    def param_key(self, exps: Exponents) -> int:
        s = self.param_shift
        return ((_field(exps[0]) << s[0]) | (_field(exps[1]) << s[1])
                | (_field(exps[2]) << s[2]) | (_field(exps[3]) << s[3]))

    def check_keys(self, terms: dict[int, int]) -> None:
        """Raise if any packed key has a guard bit set (an exponent reached 128)."""
        self._check_bits(_fold(or_, terms, 0))

    def _check_bits(self, bits: int) -> None:
        if bits & self.guard:
            raise ExponentOverflowError(
                f"an exponent reached {_LIMIT}, beyond the packed monomial field")

    def unpack(self, key: int) -> tuple[tuple[int, ...], tuple[int, ...],
                                        tuple[int, int], Exponents]:
        """Split a packed key into (x, p, (rho1, rho2), parameter) exponents."""
        xe = tuple((key >> s) & _MASK for s in self.xshift)
        pe = tuple((key >> s) & _MASK for s in self.pshift)
        re = tuple((key >> s) & _MASK for s in self.rho_shift)
        pa = tuple((key >> s) & _MASK for s in self.param_shift)
        return xe, pe, re, pa  # type: ignore[return-value]

    def embed_scalar(self, scalar: ParamScalar) -> tuple[dict[int, int], int]:
        """The scalar as integer numerators on parameter keys, over one denominator."""
        return _integer_terms({self.param_key(e): c for e, c in scalar.terms.items()})

    def block_of(self, i: int) -> int:
        return 1 if i < self.n else 2


def _field(power: int) -> int:
    if not 0 <= power < _LIMIT:
        raise ExponentOverflowError(f"exponent {power} outside [0, {_LIMIT})")
    return power


def _integer_terms(terms: Mapping[int, int | Fraction]) -> tuple[dict[int, int], int]:
    """Rational coefficients as integer numerators over their least common denominator."""
    fracs = {key: Fraction(c) for key, c in terms.items() if c}
    den = lcm(*(c.denominator for c in fracs.values()))
    return {key: c.numerator * (den // c.denominator) for key, c in fracs.items()}, den


# -- raw term-dict helpers (hot paths) --------------------------------------

def _raw_mul(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    _raw_mul_into(out, a, b, 1)
    return out


def _raw_mul_into(dst: dict[int, int], a: dict[int, int],
                  b: dict[int, int], scale: int) -> None:
    if not a or not b or not scale:
        return
    if len(a) > len(b):
        a, b = b, a
    one = scale == 1
    get = dst.get
    for ka, ca in a.items():
        cas = ca if one else ca * scale
        for kb, cb in b.items():
            key = ka + kb
            cur = get(key)
            if cur is None:
                dst[key] = cas * cb
            else:
                cur = cur + cas * cb
                if cur:
                    dst[key] = cur
                else:
                    del dst[key]


def _raw_add_into(dst: dict[int, int], src: dict[int, int], scale: int,
                  shift: int = 0) -> None:
    """Add scale * src, every key shifted by ``shift`` (a monomial factor), into dst."""
    if not scale:
        return
    get = dst.get
    for key, coeff in src.items():
        key += shift
        cur = get(key)
        if cur is None:
            dst[key] = coeff * scale
        else:
            cur = cur + coeff * scale
            if cur:
                dst[key] = cur
            else:
                del dst[key]


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
               b: dict[int, int]) -> tuple[dict, dict, int]:
        """(a', b', scale') for ``_raw_mul_into(self.terms, a', b', scale')``: scale * a
        * b / (den rho1^j rho2^k) lifted onto the sum.  The shifted operand (fewer terms)
        is checked, since the kernel's key additions would carry a field past 127."""
        if len(a) > len(b):
            a, b = b, a
        if j != self.j or k != self.k:
            lift = self.layout.rho_key(1, self.j - j) + self.layout.rho_key(2, self.k - k)
            a = {key + lift: c for key, c in a.items()}
            self.layout.check_keys(a)
        return a, b, scale * (self.den // den)


def _sum(layout: BlockLayout, parts: list[tuple]) -> BlockPoly:
    """The sum of ``parts`` (den, j, k, scale, a[, b]), each scale * a or the
    product scale * a * b, reduced once."""
    total = _Sum(layout, parts)
    for part in parts:
        if len(part) == 5:
            total.add(*part)
        else:
            _raw_mul_into(total.terms, *total.lifted(*part))
    return BlockPoly._make(layout, total.terms, total.den, total.j, total.k)


class Derivatives:
    """Derivatives taken while one table lives, each computed once.

    ``of(value)`` is the memo of one value's derivatives, keyed as its caller
    differentiates (a multi-index, or the whole gradient).  Values are keyed by
    identity and held by the table, so no id is reused while it lives."""

    __slots__ = ("_memos",)

    def __init__(self):
        self._memos: dict[int, tuple[object, dict]] = {}

    def of(self, value: object) -> dict:
        entry = self._memos.get(id(value))
        if entry is None:
            entry = self._memos[id(value)] = (value, {})
        return entry[1]


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

    def __init__(self, layout: BlockLayout, num: Mapping[int, int | Fraction] | None = None,
                 j: int = 0, k: int = 0):
        ints, den = _integer_terms(num or {})
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
        if num:
            if den != 1:
                g = gcd(den, *num.values())
                if g != 1:
                    num = {key: c // g for key, c in num.items()}
                    den //= g
        else:
            den, j, k = 1, 0, 0
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
    def scalar(cls, layout: BlockLayout, value: ParamScalar | Fraction | int) -> BlockPoly:
        if not isinstance(value, ParamScalar):
            value = ParamScalar.rational(value)
        return cls(layout, {layout.param_key(e): c for e, c in value.terms.items()})

    @classmethod
    def monomial(cls, layout: BlockLayout, key: int,
                 coeff: ParamScalar | Fraction | int = 1, j: int = 0, k: int = 0) -> BlockPoly:
        if isinstance(coeff, ParamScalar):
            num = {key + layout.param_key(e): c for e, c in coeff.terms.items()}
        else:
            num = {key: coeff}
        return cls(layout, num, j, k)

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

    def scaled(self, value: ParamScalar | Fraction | int) -> BlockPoly:
        # a nonzero factor free of x and rho keeps the normal form and the
        # rho powers that divide the numerator, so only the content changes
        if isinstance(value, ParamScalar):
            frags, fden = self.layout.embed_scalar(value)
            out: dict[int, int] = {}
            for frag, coeff in frags.items():
                _raw_add_into(out, self.num, coeff, frag)
            return BlockPoly._make(self.layout, out, self.den * fden, self.j, self.k,
                                   rewrite=False)
        value = Fraction(value)
        if not value:
            return BlockPoly.zero(self.layout)
        p = value.numerator
        return BlockPoly._make(self.layout, {key: c * p for key, c in self.num.items()},
                               self.den * value.denominator, self.j, self.k, rewrite=False)

    # -- calculus ------------------------------------------------------------

    def diff_x(self, i: int) -> BlockPoly:
        """Partial derivative in x_{i+1}, in one pass over the terms.

        With rho the r^2 of x_{i+1}'s block and J its power in the denominator,
        d/dx_i (c x^a rho^e / rho^J)
            = [a_i c x^(a - e_i) rho^(e+1) + 2 (e - J) c x^(a + e_i) rho^e] / rho^(J+1),
        since d rho / dx_i = 2 x_i."""
        layout = self.layout
        shift = layout.xshift[i]
        block = layout.block_of(i)
        rho_shift = layout.rho_shift[block - 1]
        exp = self.j if block == 1 else self.k
        unit = 1 << shift
        down = (1 << rho_shift) - unit
        out: dict[int, int] = {}
        get = out.get
        for key, coeff in self.num.items():
            a = (key >> shift) & _MASK
            if a:
                nk = key + down
                out[nk] = get(nk, 0) + a * coeff
            e = (key >> rho_shift) & _MASK
            if e != exp:
                nk = key + unit
                out[nk] = get(nk, 0) + 2 * (e - exp) * coeff
        out = {key: c for key, c in out.items() if c}
        j, k = (self.j + 1, self.k) if block == 1 else (self.j, self.k + 1)
        return BlockPoly._make(layout, out, self.den, j, k)

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
                and self.num == other.num)

    def __hash__(self):
        return hash((self.j, self.k, self.den, frozenset(self.num.items())))

    def term_count(self) -> int:
        return len(self.num)

    def substitute_params(self, values) -> BlockPoly:
        """Substitute exact rationals for a subset of (hbar, omega, c1, c2)."""
        layout = self.layout
        subs = [(layout.param_shift[VAR_NAMES.index(name)], Fraction(v))
                for name, v in values.items()]
        out: dict[int, Fraction] = {}
        for key, num in self.num.items():
            coeff = Fraction(num, self.den)
            nk = key
            for shift, v in subs:
                e = (nk >> shift) & _MASK
                if e:
                    coeff = coeff * v ** e
                    nk -= e << shift
            out[nk] = out.get(nk, 0) + coeff
        return BlockPoly(layout, out, self.j, self.k)

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
        grouped: dict[tuple[int, ...], dict] = {}
        for key, coeff in self.num.items():
            xe, pe, re, pa = self.layout.unpack(key)
            grouped.setdefault(xe + pe + re, {})[pa] = Fraction(coeff, self.den)
        return {mono: ParamScalar(terms) for mono, terms in grouped.items()}

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
