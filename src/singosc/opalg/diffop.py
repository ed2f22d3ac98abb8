"""Normal-ordered differential operators with BlockPoly coefficients.

An operator is a sparse map from derivative multi-indices (tuples of length N)
to coefficient functions; all derivatives stand to the right of all
coefficients, which makes the representation of a given operator unique.
Composition uses the Leibniz rule

    (f d^a) (g d^b) = sum_{d <= a} binom(a, d) f (d^d g) d^{a-d+b}

and accumulates everything in one pass so that commutators cancel in place.
The accumulator holds one raw term dict per (derivative slot, j, k), with
integer numerators over that dict's own common denominator.  ``combine``
composes a whole list of words (scale, left, right | None) into one
accumulator; ``poly._merge`` reduces each slot once, as it does for the
Poisson side.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product as _iproduct
from math import comb

from .poly import BlockLayout, BlockPoly, _merge, _open_bucket, _raw_mul_into
from .scalars import ParamScalar

Beta = tuple[int, ...]


class DimensionMismatchError(ValueError):
    """Raised when operands were built for different (N, n) splits."""


@lru_cache(maxsize=None)
def _subindices(beta: Beta) -> tuple[tuple[Beta, int, Beta], ...]:
    """All (delta, binom(beta, delta), beta - delta) with delta <= beta componentwise."""
    ranges = [range(b + 1) for b in beta]
    out = []
    for delta in _iproduct(*ranges):
        coeff = 1
        for b, d in zip(beta, delta):
            coeff *= comb(b, d)
        out.append((delta, coeff, tuple(b - d for b, d in zip(beta, delta))))
    return tuple(out)


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


def _compose_into(acc: dict, left: DiffOp, right: DiffOp, scale: int) -> None:
    """Accumulate scale * (left o right) into acc[beta][(j, k)] raw term dicts."""
    layout = left.layout
    dcaches: dict[int, dict[Beta, BlockPoly | None]] = {}
    zero_delta = (0,) * layout.N
    for beta_l, f in left.terms.items():
        subs = _subindices(beta_l)
        for beta_r, g in right.terms.items():
            cache = dcaches.get(id(g))
            if cache is None:
                cache = {zero_delta: g}
                dcaches[id(g)] = cache
            for delta, binom, beta_rest in subs:
                gd = _cached_derivative(cache, g, delta, layout)
                if gd is None:
                    continue
                beta_out = tuple(a + b for a, b in zip(beta_rest, beta_r))
                buckets = acc.get(beta_out)
                if buckets is None:
                    buckets = acc[beta_out] = {}
                bucket, lift = _open_bucket(buckets, (f.j + gd.j, f.k + gd.k), f.den * gd.den)
                _raw_mul_into(bucket, f.num, gd.num, scale * binom * lift)


def _cached_derivative(cache: dict, g: BlockPoly, delta: Beta,
                       layout: BlockLayout) -> BlockPoly | None:
    val = cache.get(delta, _MISSING)
    if val is not _MISSING:
        return val
    for i, d in enumerate(delta):
        if d:
            prev_delta = delta[:i] + (d - 1,) + delta[i + 1:]
            prev = _cached_derivative(cache, g, prev_delta, layout)
            val = None
            if prev is not None:
                dv = prev.diff_x(i)
                val = dv if not dv.is_zero() else None
            cache[delta] = val
            return val
    return g


def _finalize(layout: BlockLayout, acc: dict) -> DiffOp:
    """Merge the (j, k) buckets of each derivative slot and reduce to canonical form."""
    terms: dict[Beta, BlockPoly] = {}
    for beta, buckets in acc.items():
        value = _merge(layout, buckets)
        if not value.is_zero():
            terms[beta] = value
    return DiffOp(layout, terms, prune=False)


def commutator(left: DiffOp, right: DiffOp) -> DiffOp:
    left._check(right)
    acc: dict = {}
    _compose_into(acc, left, right, 1)
    _compose_into(acc, right, left, -1)
    return _finalize(left.layout, acc)


def anticommutator(left: DiffOp, right: DiffOp) -> DiffOp:
    left._check(right)
    acc: dict = {}
    _compose_into(acc, left, right, 1)
    _compose_into(acc, right, left, 1)
    return _finalize(left.layout, acc)


def combine(words: list[tuple[ParamScalar | Fraction | int, DiffOp, DiffOp | None]]
            ) -> DiffOp:
    """sum_i scale_i * left_i o right_i, accumulated in one pass and reduced once.

    A word whose right factor is None stands for scale_i * left_i.  The scale
    is folded into whichever factor has fewer terms before composing."""
    if not words:
        raise ValueError("empty combination")
    layout = words[0][1].layout
    one = DiffOp.identity(layout)
    acc: dict = {}
    for scale, left, right in words:
        if right is None:
            left, right = one, left
        left._check(right)
        if left.term_count() <= right.term_count():
            left = left.scaled(scale)
        else:
            right = right.scaled(scale)
        _compose_into(acc, left, right, 1)
    return _finalize(layout, acc)
