"""Normal-ordered differential operators with BlockPoly coefficients.

An operator is a sparse map from derivative multi-indices (tuples of length N)
to coefficient functions; all derivatives stand to the right of all
coefficients, which makes the representation of a given operator unique.
Composition uses the Leibniz rule

    (f d^a) (g d^b) = sum_{d <= a} binom(a, d) f (d^d g) d^{a-d+b}

and accumulates everything in one pass so that commutators cancel in place.
The accumulator holds one raw term dict per (derivative slot, j, k), with
integer numerators over that dict's own common denominator; a slot is the
multi-index packed into one integer, so the output slot is an integer sum.
``combine`` composes a whole list of words (scale, left, right | None) into
one accumulator and ``poly._merge`` reduces each slot once, as it does for the
Poisson side.  Each Leibniz term is formed once: like words are summed, and a
word and its reverse share their d = 0 terms (the coefficient products), which
a commutator then never forms.  A ``Derivatives`` table passed to ``combine``
keeps every d^d g for as long as its owner (one verify call) lives.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product as _iproduct
from math import comb

from .poly import (BlockLayout, BlockPoly, Derivatives, _field, _merge, _open_bucket,
                   _raw_mul_into)
from .scalars import ParamScalar

Beta = tuple[int, ...]


class DimensionMismatchError(ValueError):
    """Raised when operands were built for different (N, n) splits."""


class DiffOp:
    """A normal-ordered differential operator for a concrete (N, n) split."""

    __slots__ = ("layout", "terms")

    def __init__(self, layout: BlockLayout, terms: dict[Beta, BlockPoly] | None = None,
                 prune: bool = True):
        self.layout = layout
        if terms and prune:
            terms = {b: c for b, c in terms.items() if not c.is_zero()}
        self.terms = terms or {}

    # -- constructors ----------------------------------------------------------

    @classmethod
    def zero(cls, layout: BlockLayout) -> DiffOp:
        return cls(layout, {})

    @classmethod
    def identity(cls, layout: BlockLayout) -> DiffOp:
        zero_beta = (0,) * layout.N
        return cls(layout, {zero_beta: BlockPoly.scalar(layout, 1)})

    @classmethod
    def multiplication(cls, layout: BlockLayout, value: BlockPoly) -> DiffOp:
        return cls(layout, {(0,) * layout.N: value})

    @classmethod
    def derivative(cls, layout: BlockLayout, i: int, order: int = 1) -> DiffOp:
        beta = tuple(order if t == i else 0 for t in range(layout.N))
        return cls(layout, {beta: BlockPoly.scalar(layout, 1)})

    def _check(self, other: DiffOp) -> None:
        if not self.layout.same_split(other.layout):
            raise DimensionMismatchError(
                f"operands built for different splits: "
                f"({self.layout.N},{self.layout.n}) vs ({other.layout.N},{other.layout.n})")

    # -- linear structure -------------------------------------------------------

    def __add__(self, other: DiffOp) -> DiffOp:
        self._check(other)
        terms = dict(self.terms)
        for beta, coeff in other.terms.items():
            cur = terms.get(beta)
            new = coeff if cur is None else cur + coeff
            if new.is_zero():
                terms.pop(beta, None)
            else:
                terms[beta] = new
        return DiffOp(self.layout, terms, prune=False)

    def __sub__(self, other: DiffOp) -> DiffOp:
        return self + (-other)

    def __neg__(self) -> DiffOp:
        return DiffOp(self.layout, {b: -c for b, c in self.terms.items()}, prune=False)

    def scaled(self, value: ParamScalar | Fraction | int) -> DiffOp:
        return DiffOp(self.layout, {b: c.scaled(value) for b, c in self.terms.items()})

    # -- composition -------------------------------------------------------------

    def __mul__(self, other: DiffOp) -> DiffOp:
        self._check(other)
        acc: dict = {}
        _compose_into(acc, self, other, 1)
        return _finalize(self.layout, acc)

    # -- action on functions -------------------------------------------------------

    def apply(self, fn: BlockPoly) -> BlockPoly:
        """Apply the operator to a coefficient-function argument."""
        out = BlockPoly.zero(self.layout)
        for beta, coeff in self.terms.items():
            val = fn
            for i, order in enumerate(beta):
                for _ in range(order):
                    val = val.diff_x(i)
                    if val.is_zero():
                        break
                if val.is_zero():
                    break
            if val.is_zero():
                continue
            out = out + coeff * val
        return out

    # -- queries ---------------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiffOp):
            return NotImplemented
        return self.layout.same_split(other.layout) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset((b, hash(c)) for b, c in self.terms.items()))

    def order(self) -> int:
        return max((sum(b) for b in self.terms), default=0)

    def term_count(self) -> int:
        return sum(c.term_count() for c in self.terms.values())

    def coefficient(self, beta: Beta) -> BlockPoly:
        return self.terms.get(tuple(beta), BlockPoly.zero(self.layout))

    def substitute_params(self, values) -> DiffOp:
        return DiffOp(self.layout,
                      {b: c.substitute_params(values) for b, c in self.terms.items()})

    def __repr__(self) -> str:
        if not self.terms:
            return "DiffOp<0>"
        parts = []
        for beta in sorted(self.terms, key=lambda b: (sum(b), b), reverse=True):
            dd = "".join(f"d{i + 1}^{o}" if o > 1 else f"d{i + 1}"
                         for i, o in enumerate(beta) if o)
            parts.append(f"[{self.terms[beta]!r}] {dd}".strip())
        return "DiffOp<" + " + ".join(parts) + ">"


_MISSING = object()

# Which Leibniz terms ``_compose_into`` adds, as slices of ``_leibniz(beta)``:
# every term, the delta = 0 term alone (the product of the two coefficients),
# or only the terms that differentiate the right factor.
_ALL = slice(None)
_PRODUCT = slice(0, 1)
_DERIVATIVES = slice(1, None)


@lru_cache(maxsize=None)
def _pack(beta: Beta, shifts: tuple[int, ...]) -> int:
    """Derivative slot key: beta packed like an x monomial, one field per coordinate."""
    return sum(_field(b) << s for b, s in zip(beta, shifts))


@lru_cache(maxsize=None)
def _leibniz(beta: Beta, shifts: tuple[int, ...]) -> tuple[tuple[Beta, int, int], ...]:
    """(delta, binom(beta, delta), packed beta - delta) for every delta <= beta
    componentwise, delta = 0 first."""
    out = []
    for delta in _iproduct(*(range(b + 1) for b in beta)):
        coeff = 1
        for b, d in zip(beta, delta):
            coeff *= comb(b, d)
        out.append((delta, coeff, _pack(tuple(b - d for b, d in zip(beta, delta)), shifts)))
    return tuple(out)


def _compose_into(acc: dict, left: DiffOp, right: DiffOp, scale: int,
                  derivatives: Derivatives | None = None, leibniz: slice = _ALL) -> None:
    """Accumulate scale * (left o right) into acc[slot][(j, k)] raw term dicts.

    ``leibniz`` selects which Leibniz terms (``_ALL``, ``_PRODUCT`` or
    ``_DERIVATIVES``).  Slots are packed multi-indices, so the output slot is
    one integer addition.  The derivatives of ``right``'s coefficients are
    looked up in, or added to, ``derivatives`` (a fresh table if None)."""
    layout = left.layout
    shifts = layout.xshift
    if derivatives is None:
        derivatives = Derivatives()
    zero = (0,) * layout.N
    rights = []
    for beta_r, g in right.terms.items():
        memo = derivatives.of(g)
        memo[zero] = g
        rights.append((_pack(beta_r, shifts), g, memo))
    for beta_l, f in left.terms.items():
        fnum, fden, fj, fk = f.num, f.den, f.j, f.k
        for delta, binom, rest in _leibniz(beta_l, shifts)[leibniz]:
            for slot_r, g, memo in rights:
                gd = memo.get(delta, _MISSING)
                if gd is _MISSING:
                    gd = _cached_derivative(memo, g, delta)
                if gd is None:
                    continue
                slot = rest + slot_r
                buckets = acc.get(slot)
                if buckets is None:
                    buckets = acc[slot] = {}
                bucket, lift = _open_bucket(buckets, (fj + gd.j, fk + gd.k), fden * gd.den)
                _raw_mul_into(bucket, fnum, gd.num, scale * binom * lift)


def _cached_derivative(memo: dict, g: BlockPoly, delta: Beta) -> BlockPoly | None:
    """d^delta g, or None when it vanishes, memoized with every lower derivative."""
    val = memo.get(delta, _MISSING)
    if val is not _MISSING:
        return val
    for i, d in enumerate(delta):
        if d:
            prev = _cached_derivative(memo, g, delta[:i] + (d - 1,) + delta[i + 1:])
            val = None
            if prev is not None:
                dv = prev.diff_x(i)
                val = dv if not dv.is_zero() else None
            memo[delta] = val
            return val
    return g


def _finalize(layout: BlockLayout, acc: dict) -> DiffOp:
    """Merge the (j, k) buckets of each slot, reduce to canonical form, and
    unpack the slot keys into multi-indices."""
    layout.check_keys(acc)
    terms: dict[Beta, BlockPoly] = {}
    for slot, buckets in acc.items():
        value = _merge(layout, buckets)
        if not value.is_zero():
            terms[layout.unpack(slot)[0]] = value
    return DiffOp(layout, terms, prune=False)


def commutator(left: DiffOp, right: DiffOp,
               derivatives: Derivatives | None = None) -> DiffOp:
    return combine([(1, left, right), (-1, right, left)], derivatives)


def combine(words: list[tuple[ParamScalar | Fraction | int, DiffOp, DiffOp | None]],
            derivatives: Derivatives | None = None) -> DiffOp:
    """sum_i scale_i * left_i o right_i, accumulated in one pass and reduced once.

    A word whose right factor is None stands for scale_i * left_i.  Words with
    the same ordered factors are one word with the summed scale.  A word and
    its reverse, (s, f, g) and (s', g, f), have the same coefficient products
    (the delta = 0 Leibniz terms): those are composed once with scale s + s',
    and not at all when it is zero, as in a commutator.  Scales go into the
    left factor, which composition never differentiates, so the right factors
    stay the objects whose derivatives ``derivatives`` holds."""
    if not words:
        raise ValueError("empty combination")
    layout = words[0][1].layout
    one = DiffOp.identity(layout)
    like: dict[tuple[int, int], list] = {}
    for scale, left, right in words:
        if right is None:
            left, right = one, left
        left._check(right)
        word = like.get((id(left), id(right)))
        if word is None:
            like[(id(left), id(right))] = [scale, left, right]
        else:
            word[0] = word[0] + scale
    if derivatives is None:
        derivatives = Derivatives()
    acc: dict = {}
    for (a, b), (scale, left, right) in like.items():
        mirror = like.get((b, a)) if a != b else None
        if mirror is None:
            _compose_scaled(acc, scale, left, right, derivatives, _ALL)
        elif a < b:
            small, large = ((left, right) if left.term_count() <= right.term_count()
                            else (right, left))
            _compose_scaled(acc, scale + mirror[0], small, large, derivatives, _PRODUCT)
            _compose_scaled(acc, scale, left, right, derivatives, _DERIVATIVES)
            _compose_scaled(acc, mirror[0], right, left, derivatives, _DERIVATIVES)
    return _finalize(layout, acc)


def _compose_scaled(acc: dict, scale, left: DiffOp, right: DiffOp,
                    derivatives: Derivatives, leibniz: slice) -> None:
    """scale * left o right into acc: an int scale goes to the kernel, any
    other is folded into the left factor."""
    if not scale:
        return
    if not isinstance(scale, int):
        left, scale = left.scaled(scale), 1
    _compose_into(acc, left, right, scale, derivatives, leibniz)
