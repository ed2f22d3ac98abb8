"""Sparse coordinate polynomials over the parameter ring, with r1^2/r2^2 denominators.

Monomials are packed into single integers: one 8-bit field per coordinate
exponent (x_1 is the most significant, so integer order on keys is lex order
with x_1 first), followed by four fields for the parameter exponents.
Monomial multiplication is then plain integer addition.  An exponent lives in
the low 7 bits of its field and must stay below 128; the top bit is a guard.
The sum of two exponents below 128 never carries out of its field, so an
overflowing product sets a guard bit, and every normalization pass raises
``ExponentOverflowError`` on a guard bit instead of letting a carry change the
monomial.

Coefficients are Python integers over one common positive denominator, the
layout of FLINT's ``fmpq_poly``: a ``BlockPoly`` holds ``num`` (packed key ->
nonzero int) and ``den``, with gcd(den, every numerator) == 1 and den == 1 for
the zero polynomial.  ``Fraction`` and ``ParamScalar`` appear only at the API:
the constructor accepts rational coefficients, and ``as_dict``, ``scaled``,
``substitute_params``, ``embed_scalar`` and ``repr`` convert.

A ``BlockPoly`` is (num/den)/(r1^2)^j/(r2^2)^k where r1^2 = x_1^2+..+x_n^2
and r2^2 = x_{n+1}^2+..+x_N^2.  The canonical form divides out every exact
factor of r1^2 (resp. r2^2) from the numerator while j (resp. k) is positive;
for a one-coordinate block the divisor degenerates to the square of that
coordinate.  Both divisors are monic with unit coefficients, so exact
division keeps integer numerators integral.
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
        "N", "n", "momenta", "nfields", "xshift", "pshift", "param_shift", "guard",
        "r1sq", "r2sq", "_lead", "_rest", "_rpow",
    )

    def __init__(self, N: int, n: int, momenta: bool = False):
        if N < 2 or not 1 <= n <= N - 1:
            raise ValueError(f"invalid dimension split (N, n) = ({N}, {n})")
        self.N = N
        self.n = n
        self.momenta = momenta
        ncoord = 2 * N if momenta else N
        self.nfields = ncoord + 4
        top = self.nfields - 1
        self.xshift = tuple((top - i) * _BITS for i in range(N))
        self.pshift = tuple((top - N - i) * _BITS for i in range(N)) if momenta else ()
        self.param_shift = tuple((3 - t) * _BITS for t in range(4))
        self.guard = sum(_LIMIT << (f * _BITS) for f in range(self.nfields))
        self.r1sq = {2 << self.xshift[i]: 1 for i in range(n)}
        self.r2sq = {2 << self.xshift[i]: 1 for i in range(n, N)}
        # lex-leading variable of each block divisor, plus the divisor remainder
        # (r_block^2 = x_lead^2 + rest; rest is empty for a one-coordinate block)
        self._lead = {1: self.xshift[0], 2: self.xshift[n]}
        self._rest = {1: {2 << self.xshift[i]: 1 for i in range(1, n)},
                      2: {2 << self.xshift[i]: 1 for i in range(n + 1, N)}}
        self._rpow: dict[tuple[int, int], dict[int, int]] = {}

    def same_split(self, other: "BlockLayout") -> bool:
        return self.N == other.N and self.n == other.n and self.momenta == other.momenta

    # -- key packing -------------------------------------------------------

    def x_key(self, i: int, power: int = 1) -> int:
        return _field(power) << self.xshift[i]

    def p_key(self, i: int, power: int = 1) -> int:
        return _field(power) << self.pshift[i]

    def param_key(self, exps: Exponents) -> int:
        s = self.param_shift
        return ((_field(exps[0]) << s[0]) | (_field(exps[1]) << s[1])
                | (_field(exps[2]) << s[2]) | (_field(exps[3]) << s[3]))

    def check_keys(self, terms: dict[int, int]) -> None:
        """Raise if any packed key has a guard bit set (an exponent reached 128)."""
        if _fold(or_, terms, 0) & self.guard:
            raise ExponentOverflowError(
                f"an exponent reached {_LIMIT}, beyond the packed monomial field")

    def unpack(self, key: int) -> tuple[tuple[int, ...], tuple[int, ...], Exponents]:
        """Split a packed key into (x exponents, p exponents, parameter exponents)."""
        xe = tuple((key >> s) & _MASK for s in self.xshift)
        pe = tuple((key >> s) & _MASK for s in self.pshift)
        pa = tuple((key >> s) & _MASK for s in self.param_shift)
        return xe, pe, pa  # type: ignore[return-value]

    def embed_scalar(self, scalar: ParamScalar) -> tuple[dict[int, int], int]:
        """The scalar as integer numerators on parameter keys, over one denominator."""
        return _integer_terms({self.param_key(e): c for e, c in scalar.terms.items()})

    def block_of(self, i: int) -> int:
        return 1 if i < self.n else 2

    def rpow(self, block: int, power: int) -> dict[int, int]:
        """(r_block^2)**power as a raw term dict, memoized."""
        if power == 0:
            return {0: 1}
        cached = self._rpow.get((block, power))
        if cached is None:
            base = self.r1sq if block == 1 else self.r2sq
            cached = base
            for _ in range(power - 1):
                cached = _raw_mul(cached, base)
                self.check_keys(cached)
            self._rpow[(block, power)] = cached
        return cached


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


def _raw_add_into(dst: dict[int, int], src: dict[int, int], scale: int) -> None:
    if not scale:
        return
    get = dst.get
    for key, coeff in src.items():
        cur = get(key)
        if cur is None:
            dst[key] = coeff * scale
        else:
            cur = cur + coeff * scale
            if cur:
                dst[key] = cur
            else:
                del dst[key]


def _lift_into(layout: BlockLayout, dst: dict[int, int], terms: dict[int, int],
               scale: int, dj: int, dk: int) -> None:
    """Add scale * terms * (r1^2)^dj * (r2^2)^dk into dst."""
    if dj and dk:
        terms = _raw_mul(terms, layout.rpow(1, dj))
        dj = 0
    if dj:
        _raw_mul_into(dst, terms, layout.rpow(1, dj), scale)
    elif dk:
        _raw_mul_into(dst, terms, layout.rpow(2, dk), scale)
    else:
        _raw_add_into(dst, terms, scale)


class _Bucket(dict):
    """Raw terms accumulated as integer numerators over the common denominator ``den``."""

    __slots__ = ("den",)


def _open_bucket(buckets: dict, jk: tuple[int, int], den: int) -> tuple[_Bucket, int]:
    """The accumulator for jk, and the factor that lifts terms over ``den`` onto it.

    The bucket's denominator only grows (to an lcm) when ``den`` does not divide
    it, so every (j, k) keeps a single dict and sums cancel in place."""
    bucket = buckets.get(jk)
    if bucket is None:
        bucket = buckets[jk] = _Bucket()
        bucket.den = den
        return bucket, 1
    common = bucket.den
    if common % den:
        wider = lcm(common, den)
        factor = wider // common
        for key in bucket:
            bucket[key] *= factor
        bucket.den = common = wider
    return bucket, common // den


def _merge(layout: BlockLayout, buckets: dict) -> BlockPoly:
    """Lift every (j, k) bucket onto the largest j and k and reduce the sum once."""
    live = {jk: raw for jk, raw in buckets.items() if raw}
    if not live:
        return BlockPoly.zero(layout)
    jmax = max(j for j, _ in live)
    kmax = max(k for _, k in live)
    den = lcm(*(raw.den for raw in live.values()))
    merged: dict[int, int] = {}
    for (j, k), raw in live.items():
        layout.check_keys(raw)
        _lift_into(layout, merged, raw, den // raw.den, jmax - j, kmax - k)
    return BlockPoly._make(layout, merged, den, jmax, kmax)


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


def _try_divide(terms: dict[int, int], rest: dict[int, int],
                lead_shift: int) -> dict[int, int] | None:
    """Exact division by x_lead^2 + rest, where x_lead is lex-largest in the divisor.

    Slicing the numerator by the lead exponent turns the division into the
    recurrence Q_{d-2} = A_d - Q_d * rest (descending d), with the d = 1, 0
    slices required to cancel exactly.  Returns the quotient or None.
    """
    slices: dict[int, dict[int, int]] = {}
    for key, coeff in terms.items():
        e = (key >> lead_shift) & _MASK
        base = key - (e << lead_shift)
        sl = slices.get(e)
        if sl is None:
            slices[e] = {base: coeff}
        else:
            sl[base] = coeff
    if not slices:
        return {}
    dmax = max(slices)
    if dmax < 2:
        return None
    quot_slices: dict[int, dict[int, int]] = {}
    for d in range(dmax, 1, -1):
        qd = dict(slices.get(d, ()))
        upper = quot_slices.get(d)
        if upper and rest:
            _raw_mul_into(qd, upper, rest, -1)
        if qd:
            quot_slices[d - 2] = qd
    for d in (1, 0):
        remainder = dict(slices.get(d, ()))
        upper = quot_slices.get(d)
        if upper and rest:
            _raw_mul_into(remainder, upper, rest, -1)
        if remainder:
            return None
    out: dict[int, int] = {}
    for d, sl in quot_slices.items():
        base = d << lead_shift
        for key, coeff in sl.items():
            out[key + base] = coeff
    return out


class BlockPoly:
    """(num/den) / (r1^2)^j / (r2^2)^k in canonical reduced form."""

    __slots__ = ("layout", "num", "den", "j", "k")

    def __init__(self, layout: BlockLayout, num: Mapping[int, int | Fraction] | None = None,
                 j: int = 0, k: int = 0, reduce: bool = True):
        ints, den = _integer_terms(num or {})
        self._set(layout, ints, den, j, k, reduce)

    @classmethod
    def _make(cls, layout: BlockLayout, num: dict[int, int], den: int,
              j: int, k: int, reduce: bool = True) -> BlockPoly:
        """Canonical value from integer numerators over a positive denominator."""
        self = object.__new__(cls)
        self._set(layout, num, den, j, k, reduce)
        return self

    def _set(self, layout: BlockLayout, num: dict[int, int], den: int,
             j: int, k: int, reduce: bool) -> None:
        self.layout = layout
        self.j = j
        self.k = k
        if num:
            layout.check_keys(num)
            if den != 1:
                g = gcd(den, *num.values())
                if g != 1:
                    num = {key: c // g for key, c in num.items()}
                    den //= g
        else:
            den = 1
        self.num = num
        self.den = den
        if reduce:
            self._reduce()

    # -- construction helpers ----------------------------------------------

    @classmethod
    def zero(cls, layout: BlockLayout) -> BlockPoly:
        return cls._make(layout, {}, 1, 0, 0, reduce=False)

    @classmethod
    def scalar(cls, layout: BlockLayout, value: ParamScalar | Fraction | int) -> BlockPoly:
        if not isinstance(value, ParamScalar):
            value = ParamScalar.rational(value)
        return cls(layout, {layout.param_key(e): c for e, c in value.terms.items()}, 0, 0,
                   reduce=False)

    @classmethod
    def monomial(cls, layout: BlockLayout, key: int,
                 coeff: ParamScalar | Fraction | int = 1, j: int = 0, k: int = 0) -> BlockPoly:
        if isinstance(coeff, ParamScalar):
            num = {key + layout.param_key(e): c for e, c in coeff.terms.items()}
        else:
            num = {key: coeff}
        return cls(layout, num, j, k)

    def _reduce(self, block1: bool = True, block2: bool = True) -> None:
        """Divide out r1^2 (if block1) and r2^2 (if block2) while they divide."""
        if not self.num:
            self.j = self.k = 0
            return
        layout = self.layout
        while block1 and self.j > 0:
            quot = _try_divide(self.num, layout._rest[1], layout._lead[1])
            if quot is None:
                break
            self.num = quot
            self.j -= 1
        while block2 and self.k > 0:
            quot = _try_divide(self.num, layout._rest[2], layout._lead[2])
            if quot is None:
                break
            self.num = quot
            self.k -= 1

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: BlockPoly) -> BlockPoly:
        layout = self.layout
        j = max(self.j, other.j)
        k = max(self.k, other.k)
        den = lcm(self.den, other.den)
        out: dict[int, int] = {}
        for val in (self, other):
            _lift_into(layout, out, val.num, den // val.den, j - val.j, k - val.k)
        return BlockPoly._make(layout, out, den, j, k)

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
        # a nonzero factor free of x cannot make the numerator divisible by
        # r1^2 or r2^2, so no reduction is attempted
        if isinstance(value, ParamScalar):
            frags, fden = self.layout.embed_scalar(value)
            out: dict[int, int] = {}
            for frag, coeff in frags.items():
                for key, c in self.num.items():
                    nk = key + frag
                    cur = out.get(nk, 0) + c * coeff
                    if cur:
                        out[nk] = cur
                    else:
                        out.pop(nk, None)
            return BlockPoly._make(self.layout, out, self.den * fden, self.j, self.k,
                                   reduce=False)
        value = Fraction(value)
        if not value:
            return BlockPoly.zero(self.layout)
        p = value.numerator
        return BlockPoly._make(self.layout, {key: c * p for key, c in self.num.items()},
                               self.den * value.denominator, self.j, self.k, reduce=False)

    # -- calculus ------------------------------------------------------------

    def diff_x(self, i: int) -> BlockPoly:
        """Partial derivative in x_{i+1}, with the quotient rule for the r^2 powers."""
        layout = self.layout
        shift = layout.xshift[i]
        dnum = _raw_diff(self.num, shift)
        block = layout.block_of(i)
        exp = self.j if block == 1 else self.k
        if exp == 0:
            return BlockPoly._make(layout, dnum, self.den, self.j, self.k)
        rsq = layout.r1sq if block == 1 else layout.r2sq
        out = _raw_mul(dnum, rsq)
        _raw_mul_into(out, self.num, {layout.x_key(i): -2 * exp}, 1)
        j, k = (self.j + 1, self.k) if block == 1 else (self.j, self.k + 1)
        value = BlockPoly._make(layout, out, self.den, j, k, reduce=False)
        # The new numerator is dP * r^2 - 2 exp x_i P.  In a block of two or more
        # coordinates r^2 is prime over Q(params) and divides neither the
        # canonical P nor x_i, so it cannot divide that numerator; only a
        # one-coordinate block's x_i^2 can divide out.
        single = not layout._rest[block]
        value._reduce(block1=block == 2 or single, block2=block == 1 or single)
        return value

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

    def equivalent(self, other: BlockPoly) -> bool:
        """Equality via cross-multiplied numerators, independent of reduction."""
        layout = self.layout
        left: dict[int, int] = {}
        _lift_into(layout, left, self.num, other.den,
                   max(other.j - self.j, 0), max(other.k - self.k, 0))
        right: dict[int, int] = {}
        _lift_into(layout, right, other.num, self.den,
                   max(self.j - other.j, 0), max(self.k - other.k, 0))
        return left == right

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

    def x_degree(self) -> int:
        layout = self.layout
        best = 0
        for key in self.num:
            deg = sum((key >> s) & _MASK for s in layout.xshift)
            if deg > best:
                best = deg
        return best

    def p_degree(self) -> int:
        layout = self.layout
        best = 0
        for key in self.num:
            deg = sum((key >> s) & _MASK for s in layout.pshift)
            if deg > best:
                best = deg
        return best

    def as_dict(self) -> dict[tuple[int, ...], ParamScalar]:
        """Numerator over den, grouped as {coordinate exponents: ParamScalar}."""
        grouped: dict[tuple[int, ...], dict] = {}
        for key, coeff in self.num.items():
            xe, pe, pa = self.layout.unpack(key)
            grouped.setdefault(xe + pe, {})[pa] = Fraction(coeff, self.den)
        return {mono: ParamScalar(terms) for mono, terms in grouped.items()}

    def __repr__(self) -> str:
        if not self.num:
            return "0"
        parts = []
        for key in sorted(self.num, reverse=True):
            xe, pe, pa = self.layout.unpack(key)
            factors = [str(Fraction(self.num[key], self.den))]
            for i, e in enumerate(xe):
                if e:
                    factors.append(f"x{i + 1}^{e}" if e > 1 else f"x{i + 1}")
            for i, e in enumerate(pe):
                if e:
                    factors.append(f"p{i + 1}^{e}" if e > 1 else f"p{i + 1}")
            for name, e in zip(VAR_NAMES, pa):
                if e:
                    factors.append(f"{name}^{e}" if e > 1 else name)
            parts.append("*".join(factors))
        body = " + ".join(parts)
        if self.j or self.k:
            return f"({body}) / (r1^{2 * self.j} r2^{2 * self.k})"
        return body
