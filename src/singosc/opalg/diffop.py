"""Normal-ordered differential operators, stored as their symbols.

An operator sum_beta c_beta d^beta, every derivative to the right of its
coefficient (standard order), is stored as its symbol sum_beta c_beta p^beta:
one ``BlockPoly`` on the split's phase-space layout (``PhaseFn.layout``),
whose p fields hold the derivative orders.  Standard order makes the symbol
unique and the BlockPoly normal form makes its value unique, so ``==``
compares symbols.  ``terms`` splits the symbol into one coefficient per
multi-index on the operator's own momentum-free layout, and ``apply``
differentiates its argument term by term from that view.

Composition is the product of standard-ordered symbols (Folland, *Harmonic
Analysis in Phase Space*, 1989, ch. 2), with p standing for d:

    sigma(L o R) = sum_delta (1/delta!) d_p^delta sigma_L * d_x^delta sigma_R,

the Leibniz rule (f d^a)(g d^b) = sum_{delta <= a} binom(a, delta)
f (d^delta g) d^(a - delta + b) summed over all pairs of terms.  So a word
costs one kernel call per delta on whole symbols: {delta: (1/delta!)
d_p^delta sigma_L} comes from one pass over L's terms, and d_x^delta sigma_R
is a ``diff_x`` chain kept in a ``Derivatives`` table for as long as its
owner (one verify call) lives.  ``combine`` sums words (scale, left, right |
None) in one ``poly._Sum``, as on the Poisson side: every word's products are
listed first, which fixes the sum's denominator, and each is formed lifted
onto it.  Like words are summed, and a word and its reverse share their
delta = 0 product sigma_L sigma_R, which a commutator then never forms.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product as _iproduct
from math import comb, prod

from .poly import _MASK, BlockLayout, BlockPoly, Derivatives, _raw_mul_into, _Sum, _sum
from .scalars import ParamScalar

Beta = tuple[int, ...]


class DimensionMismatchError(ValueError):
    """Raised when operands were built for different (N, n) splits."""


@lru_cache(maxsize=None)
def _symbol_layout(N: int, n: int) -> BlockLayout:
    """The phase-space layout that holds the symbols of the (N, n) operators."""
    return BlockLayout(N, n, momenta=True)


class DiffOp:
    """A normal-ordered differential operator for a concrete (N, n) split."""

    __slots__ = ("layout", "symbol")

    def __init__(self, layout: BlockLayout, terms: dict[Beta, BlockPoly] | None = None):
        self.layout = layout
        self.symbol = _symbol_of(layout, terms or {})

    @classmethod
    def _of(cls, layout: BlockLayout, symbol: BlockPoly) -> DiffOp:
        op = object.__new__(cls)
        op.layout, op.symbol = layout, symbol
        return op

    # -- constructors ----------------------------------------------------------

    @classmethod
    def zero(cls, layout: BlockLayout) -> DiffOp:
        return cls._of(layout, BlockPoly.zero(_symbol_layout(layout.N, layout.n)))

    @classmethod
    def identity(cls, layout: BlockLayout) -> DiffOp:
        # the symbol 1: key 0, the monomial with every exponent zero
        phase = _symbol_layout(layout.N, layout.n)
        return cls._of(layout, BlockPoly._make(phase, {0: 1}, 1, 0, 0, rewrite=False))

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
        return DiffOp._of(self.layout, self.symbol + other.symbol)

    def __sub__(self, other: DiffOp) -> DiffOp:
        return self + (-other)

    def __neg__(self) -> DiffOp:
        return DiffOp._of(self.layout, -self.symbol)

    def scaled(self, value: ParamScalar | Fraction | int) -> DiffOp:
        return DiffOp._of(self.layout, self.symbol.scaled(value))

    # -- composition -------------------------------------------------------------

    def __mul__(self, other: DiffOp) -> DiffOp:
        return combine([(1, self, other)])

    # -- action on functions -------------------------------------------------------

    def apply(self, fn: BlockPoly) -> BlockPoly:
        """Apply the operator to a coefficient-function argument."""
        out = BlockPoly.zero(self.layout)
        for beta, coeff in self.terms.items():
            val = fn
            for i, order in enumerate(beta):
                for _ in range(order):
                    val = val.diff_x(i)
            out = out + coeff * val
        return out

    # -- queries ---------------------------------------------------------------------

    @property
    def terms(self) -> dict[Beta, BlockPoly]:
        """The coefficient of each d^beta, on ``layout``, split anew from the symbol."""
        sym, phase = self.symbol, self.symbol.layout
        pmask = sum(_MASK << s for s in phase.pshift)
        slots: dict[int, dict[int, int]] = {}
        for key, coeff in sym.num.items():
            slots.setdefault(key & pmask, {})[phase.to_plain(key)] = coeff
        return {phase.unpack(p)[1]: BlockPoly._make(self.layout, num, sym.den, sym.j, sym.k)
                for p, num in slots.items()}

    def is_zero(self) -> bool:
        return not self.symbol.num

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiffOp):
            return NotImplemented
        return self.layout.same_split(other.layout) and self.symbol == other.symbol

    def __hash__(self):
        return hash(self.symbol)

    def order(self) -> int:
        return self.symbol.p_degree()

    def term_count(self) -> int:
        """Terms of the symbol, which are the terms of every coefficient: lifting
        a coefficient onto the symbol's rho powers is a shift of its keys."""
        return self.symbol.term_count()

    def coefficient(self, beta: Beta) -> BlockPoly:
        return self.terms.get(tuple(beta), BlockPoly.zero(self.layout))

    def substitute_params(self, values) -> DiffOp:
        return DiffOp._of(self.layout, self.symbol.substitute_params(values))

    def __repr__(self) -> str:
        terms = self.terms
        if not terms:
            return "DiffOp<0>"
        parts = []
        for beta in sorted(terms, key=lambda b: (sum(b), b), reverse=True):
            dd = "".join(f"d{i + 1}^{o}" if o > 1 else f"d{i + 1}"
                         for i, o in enumerate(beta) if o)
            parts.append(f"[{terms[beta]!r}] {dd}".strip())
        return "DiffOp<" + " + ".join(parts) + ">"


def _symbol_of(layout: BlockLayout, terms: dict[Beta, BlockPoly]) -> BlockPoly:
    """sum_beta c_beta p^beta in one accumulator: each coefficient's keys move
    up past the momenta and gain the p fields of beta."""
    phase = _symbol_layout(layout.N, layout.n)
    parts = []
    for beta, coeff in terms.items():
        momenta = sum(phase.p_key(i, b) for i, b in enumerate(beta))
        parts.append((coeff.den, coeff.j, coeff.k, 1,
                      {phase.from_plain(key) + momenta: c for key, c in coeff.num.items()}))
    return _sum(phase, parts)


_MISSING = object()

# Which parts of the symbol product ``_word_products`` lists: the delta = 0 term
# (the product of the two symbols), the delta > 0 terms, or both.
_PRODUCT = 1
_DERIVATIVES = 2
_ALL = _PRODUCT | _DERIVATIVES

# The one key of a composition accumulator, which maps the symbol's denominator
# (j, k, den) to its numerators; the benchmark's ``peak_terms`` hook reads this.
_SYMBOL = "symbol"


@lru_cache(maxsize=None)
def _leibniz(momenta: int, pshift: tuple[int, ...]) -> tuple[tuple[Beta, int, int], ...]:
    """(delta, binom(a, delta), delta packed in the p fields) for every nonzero
    delta <= a componentwise, where ``momenta`` holds the p fields of a."""
    a = [(momenta >> s) & _MASK for s in pshift]
    return tuple((delta, prod(map(comb, a, delta)), sum(d << s for d, s in zip(delta, pshift)))
                 for delta in _iproduct(*(range(b + 1) for b in a)) if any(delta))


def _p_derivatives(f: BlockPoly) -> dict[Beta, dict[int, int]]:
    """{delta: numerators of (1/delta!) d_p^delta f over f's denominator} for
    every nonzero delta, in one pass over f's terms (one shift keeps distinct
    terms distinct, so none meet)."""
    pshift = f.layout.pshift
    pmask = sum(_MASK << s for s in pshift)
    table: dict[Beta, dict[int, int]] = {}
    for key, coeff in f.num.items():
        if key & pmask:
            for delta, binom, shift in _leibniz(key & pmask, pshift):
                table.setdefault(delta, {})[key - shift] = binom * coeff
    return table


def _word_products(left: DiffOp, right: DiffOp, scale, derivatives: Derivatives,
                   parts: int = _ALL) -> list[tuple]:
    """The products of scale * sigma(left o right), or of its ``parts``, as
    ``_Sum.lifted`` arguments, one per delta.  An int scale goes to the kernel
    and any other is folded into the left factor, so the right factors stay
    the objects whose x derivatives ``derivatives`` holds."""
    if not isinstance(scale, int):
        left, scale = left.scaled(scale), 1
    f, g = left.symbol, right.symbol
    table = _p_derivatives(f) if parts & _DERIVATIVES else {}
    if parts & _PRODUCT:
        table[(0,) * left.layout.N] = f.num
    memo = derivatives.of(right)
    products = []
    for delta, terms in table.items():
        gd = _cached_derivative(memo, g, delta)
        if gd is not None:
            products.append((f.den * gd.den, f.j + gd.j, f.k + gd.k, scale, terms, gd.num))
    return products


def _compose_into(total: _Sum, products: list[tuple]) -> None:
    """Form one word's products in the accumulator: one kernel call per delta."""
    for product in products:
        _raw_mul_into(total.terms, *total.lifted(*product))


def _cached_derivative(memo: dict, g: BlockPoly, delta: Beta) -> BlockPoly | None:
    """d_x^delta g, or None when it vanishes, memoized with every lower derivative."""
    val = memo.get(delta, _MISSING)
    if val is _MISSING:
        i = next((i for i, d in enumerate(delta) if d), None)
        if i is None:
            return g
        prev = _cached_derivative(memo, g, delta[:i] + (delta[i] - 1,) + delta[i + 1:])
        val = memo[delta] = prev and (prev.diff_x(i) or None)
    return val


def _finalize(layout: BlockLayout, acc: dict) -> DiffOp:
    """The accumulated symbol, reduced once."""
    ((j, k, den), terms), = acc[_SYMBOL].items()
    return DiffOp._of(layout, BlockPoly._make(_symbol_layout(layout.N, layout.n),
                                              terms, den, j, k))


def commutator(left: DiffOp, right: DiffOp,
               derivatives: Derivatives | None = None) -> DiffOp:
    return combine([(1, left, right), (-1, right, left)], derivatives)


def combine(words: list[tuple[ParamScalar | Fraction | int, DiffOp, DiffOp | None]],
            derivatives: Derivatives | None = None) -> DiffOp:
    """sum_i scale_i * left_i o right_i, accumulated in one pass and reduced once.

    A word whose right factor is None stands for scale_i * left_i.  Words with
    the same ordered factors are one word with the summed scale, dropped when
    that is zero.  A word and its reverse, (s, f, g) and (s', g, f), have the
    same delta = 0 product sigma_f sigma_g: it is formed once with scale
    s + s', and not at all when that is zero, as in a commutator."""
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
    like = {ids: word for ids, word in like.items() if word[0]}
    planned = []
    for (a, b), (scale, left, right) in like.items():
        mirror = like.get((b, a)) if a != b else None
        if mirror is None:
            planned.append(_word_products(left, right, scale, derivatives))
        elif a < b:
            if scale + mirror[0]:
                small, large = ((left, right) if left.term_count() <= right.term_count()
                                else (right, left))
                planned.append(_word_products(small, large, scale + mirror[0], derivatives,
                                              _PRODUCT))
            planned.append(_word_products(left, right, scale, derivatives, _DERIVATIVES))
            planned.append(_word_products(right, left, mirror[0], derivatives, _DERIVATIVES))
    total = _Sum(_symbol_layout(layout.N, layout.n), [p for products in planned for p in products])
    for products in planned:
        _compose_into(total, products)
    return _finalize(layout, {_SYMBOL: {(total.j, total.k, total.den): total.terms}})
