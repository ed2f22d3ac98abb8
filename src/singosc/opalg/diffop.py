"""Normal-ordered differential operators, stored as their symbols.

An operator sum_beta c_beta d^beta, every derivative to the right of its
coefficient (standard order), is stored as its symbol sum_beta c_beta p^beta:
one ``BlockPoly`` on the split's layout, whose p fields hold the derivative
orders.  Standard order makes the symbol unique and the BlockPoly normal form
makes its value unique, so ``==`` compares symbols.  ``terms`` splits the
symbol into one coefficient per multi-index, the same value with its p fields
masked off, and ``apply`` differentiates its argument term by term from that
view.

Composition is the product of standard-ordered symbols (Folland, *Harmonic
Analysis in Phase Space*, 1989, ch. 2), with p standing for d:

    sigma(L o R) = sum_delta (1/delta!) d_p^delta sigma_L * d_x^delta sigma_R,

the Leibniz rule (f d^a)(g d^b) = sum_{delta <= a} binom(a, delta)
f (d^delta g) d^(a - delta + b) summed over all pairs of terms.  So a word
costs one kernel call per delta on whole symbols: {delta: (1/delta!)
d_p^delta sigma_L} comes from one pass over L's terms, and d_x^delta sigma_R
is a chain of unreduced x derivatives (``poly._raw_diff_x``); both are kept
in a ``Derivatives`` table for as long as its owner (one verify call) lives,
and only the finished sum is reduced.

The classical functions share the layout and the sum: their product f g is
the delta = 0 term, and the Poisson bracket {f, g} = sum_i df/dx_i dg/dp_i -
df/dp_i dg/dx_i is the |delta| = 1 part of sigma(g o f) - sigma(f o g).
``symbol_sum`` sums words (scale, f, g | None, part) on symbols for both
``combine`` and ``classical.combine_phase`` in one ``poly._Sum``: every
product is listed first, which fixes the sum's denominator, and each is
formed lifted onto it.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product as _iproduct
from math import comb

from .poly import (_MASK, BlockLayout, BlockPoly, Derivatives, _raw_diff_x, _raw_mul_into,
                   _Sum, _sum)
from .scalars import ParamScalar, Rational, packed

Beta = tuple[int, ...]


class DimensionMismatchError(ValueError):
    """Raised when operands were built for different (N, n) splits."""


def _check_split(a: BlockLayout, b: BlockLayout) -> None:
    if not a.same_split(b):
        raise DimensionMismatchError(
            f"operands built for different splits: ({a.N},{a.n}) vs ({b.N},{b.n})")


class DiffOp:
    """A normal-ordered differential operator for a concrete (N, n) split."""

    __slots__ = ("symbol",)

    def __init__(self, layout: BlockLayout, terms: dict[Beta, BlockPoly] | None = None):
        self.symbol = _symbol_of(layout, terms or {})

    @classmethod
    def _of(cls, symbol: BlockPoly) -> DiffOp:
        op = object.__new__(cls)
        op.symbol = symbol
        return op

    @property
    def layout(self) -> BlockLayout:
        return self.symbol.layout

    # -- constructors ----------------------------------------------------------

    @classmethod
    def zero(cls, layout: BlockLayout) -> DiffOp:
        return cls._of(BlockPoly.zero(layout))

    @classmethod
    def identity(cls, layout: BlockLayout) -> DiffOp:
        # the symbol 1: key 0, the monomial with every exponent zero
        return cls._of(BlockPoly._make(layout, {0: 1}, 1, 0, 0, rewrite=False))

    @classmethod
    def multiplication(cls, layout: BlockLayout, value: BlockPoly) -> DiffOp:
        return cls(layout, {(0,) * layout.N: value})

    @classmethod
    def derivative(cls, layout: BlockLayout, i: int, order: int = 1) -> DiffOp:
        beta = tuple(order if t == i else 0 for t in range(layout.N))
        return cls(layout, {beta: BlockPoly.scalar(layout, 1)})

    # -- linear structure -------------------------------------------------------

    def __add__(self, other: DiffOp) -> DiffOp:
        _check_split(self.layout, other.layout)
        return DiffOp._of(self.symbol + other.symbol)

    def __sub__(self, other: DiffOp) -> DiffOp:
        return self + (-other)

    def __neg__(self) -> DiffOp:
        return DiffOp._of(-self.symbol)

    def scaled(self, value: ParamScalar | Rational) -> DiffOp:
        return DiffOp._of(self.symbol.scaled(value))

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
        """The coefficient of each d^beta, split anew from the symbol: its terms
        with p^beta, the p fields masked off."""
        sym = self.symbol
        layout, pmask = sym.layout, sym.layout.pmask
        slots: dict[int, dict[int, int]] = {}
        for key, coeff in sym.num.items():
            p = key & pmask
            slots.setdefault(p, {})[key - p] = coeff
        return {layout.unpack(p)[1]: BlockPoly._make(layout, num, sym.den, sym.j, sym.k)
                for p, num in slots.items()}

    def is_zero(self) -> bool:
        return not self.symbol.num

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiffOp):
            return NotImplemented
        return self.symbol == other.symbol

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
        return DiffOp._of(self.symbol.substitute_params(values))

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
    """sum_beta c_beta p^beta in one accumulator: each coefficient's keys gain the
    p fields of beta.  A coefficient must be free of the momenta."""
    parts = []
    for beta, coeff in terms.items():
        _check_split(layout, coeff.layout)
        if any(key & layout.pmask for key in coeff.num):
            raise ValueError("an operator coefficient holds a momentum")
        momenta = sum(layout.p_key(i, b) for i, b in enumerate(beta))
        parts.append((coeff.den, coeff.j, coeff.k, 1,
                      {key + momenta: c for key, c in coeff.num.items()}))
    return _sum(layout, parts)


_MISSING = object()

# The Leibniz part of sigma(f o g) that a word takes: delta = 0 (a phase-space
# product), |delta| = 1 (a Poisson bracket's words), delta > 0, or every delta.
_PRODUCT = 1
_FIRST = 2
_DERIVATIVES = 4
_ALL = _PRODUCT | _DERIVATIVES

# The one key of a composition accumulator, which maps the symbol's denominator
# (j, k, den) to its numerators; the benchmark's ``peak_terms`` hook reads this.
_SYMBOL = "symbol"


@lru_cache(maxsize=None)
def _leibniz(momenta: int, pshift: tuple[int, ...], part: int
             ) -> tuple[tuple[Beta, int, int], ...]:
    """(delta, binom(a, delta), delta packed in the p fields) for every nonzero
    delta <= a componentwise, or every |delta| = 1 one for ``_FIRST``, where
    ``momenta`` holds the p fields of a.  Only the nonzero fields of a are
    walked; delta is zero on the others."""
    fields = [(i, a) for i, s in enumerate(pshift) if (a := (momenta >> s) & _MASK)]
    out = []
    for ds in _iproduct(*(range(a + 1) for _, a in fields)):
        order = sum(ds)
        if order and (part == _DERIVATIVES or order == 1):
            delta, binom, packed = [0] * len(pshift), 1, 0
            for (i, a), d in zip(fields, ds):
                delta[i] = d
                binom *= comb(a, d)
                packed += d << pshift[i]
            out.append((tuple(delta), binom, packed))
    return tuple(out)


def _p_derivatives(f: BlockPoly, part: int) -> dict[Beta, dict[int, int]]:
    """{delta: numerators of (1/delta!) d_p^delta f over f's denominator} for
    the deltas of ``part``, in one pass over f's terms (one shift keeps
    distinct terms distinct, so none meet)."""
    pshift, pmask = f.layout.pshift, f.layout.pmask
    table: dict[Beta, dict[int, int]] = {}
    for key, coeff in f.num.items():
        if key & pmask:
            for delta, binom, shift in _leibniz(key & pmask, pshift, part):
                table.setdefault(delta, {})[key - shift] = binom * coeff
    return table


def _word_products(products: list, scale, f: BlockPoly, g: BlockPoly, part: int,
                   derivatives: Derivatives) -> None:
    """Append the products of scale * (``part`` of sigma(f o g)), one per delta
    and parameter key of the scale's packed (num, den), as ``_Sum.lifted``
    arguments: the monomial rides on the kernel as a key shift, so
    ``derivatives`` holds the right factors' raw x derivatives and the left
    factors' p-derivative tables, each built once, whatever scales them."""
    if not (f.num and g.num):
        return
    scales, sden = packed(scale)

    def add(den: int, j: int, k: int, a: dict[int, int], b: dict[int, int]) -> None:
        for shift, coeff in scales.items():
            products.append((den * sden, j, k, coeff, a, b, shift))

    if part & _PRODUCT:
        add(f.den * g.den, f.j + g.j, f.k + g.k, f.num, g.num)
        if part == _PRODUCT:
            return
    kind = part & ~_PRODUCT
    memo = derivatives.of(f)
    table = memo.get(kind)
    if table is None:
        table = memo[kind] = _p_derivatives(f, kind)
    memo = derivatives.of(g)
    for delta, terms in table.items():
        gd = _cached_derivative(memo, g, delta)
        if gd is not None:
            num, den, j, k = gd
            add(f.den * den, f.j + j, f.k + k, terms, num)


def _compose_into(total: _Sum, products: list[tuple]) -> None:
    """Form every planned product in the accumulator: one kernel call each."""
    for product in products:
        a, b, scale, shift = total.lifted(*product)
        _raw_mul_into(total.terms, a, b, scale, shift=shift)


def _cached_derivative(memo: dict, g: BlockPoly, delta: Beta) -> tuple | None:
    """d_x^delta g as a raw (num, den, j, k) (``poly._raw_diff_x``), or None when
    its numerator vanishes, memoized with every lower derivative."""
    val = memo.get(delta, _MISSING)
    if val is _MISSING:
        i = next((i for i, d in enumerate(delta) if d), None)
        if i is None:
            val = memo[delta] = (g.num, g.den, g.j, g.k)
        else:
            prev = _cached_derivative(memo, g, delta[:i] + (delta[i] - 1,) + delta[i + 1:])
            val = prev and _raw_diff_x(g.layout, prev, i)
            if val and not val[0]:
                val = None
            memo[delta] = val
    return val


def symbol_sum(words: list[tuple], derivatives: Derivatives | None = None) -> _Sum:
    """sum_i scale_i * (part_i of sigma(f_i o g_i)) in one ``poly._Sum``.

    ``words`` are (scale, f, g | None, part) over symbols of one split, g = None
    standing for 1.  Like words are one word with the summed scale, dropped
    when that is zero.  A word and its reverse, (s, f, g) and (s', g, f), share
    their delta = 0 product: it is formed once with scale s + s', and not at all
    when that is zero, as in a commutator.  ``derivatives`` is a fresh table if
    None."""
    if not words:
        raise ValueError("empty combination")
    layout = words[0][1].layout
    one = None
    like: dict[tuple[int, int, int], list] = {}
    for scale, f, g, part in words:
        if g is None:
            if one is None:
                one = BlockPoly._make(layout, {0: 1}, 1, 0, 0, rewrite=False)
            f, g = one, f
        else:
            _check_split(f.layout, g.layout)
        key = (id(f), id(g), part)
        word = like.get(key)
        if word is None:
            like[key] = [scale, f, g]
        else:
            word[0] = word[0] + scale
    if derivatives is None:
        derivatives = Derivatives()
    products: list[tuple] = []
    for (a, b, part), (scale, f, g) in like.items():
        if not scale:
            continue
        if part & _PRODUCT and a != b:
            mirror = like.get((b, a, part))
            if mirror is not None and mirror[0]:
                if a < b and scale + mirror[0]:
                    _word_products(products, scale + mirror[0], f, g, _PRODUCT, derivatives)
                part &= ~_PRODUCT
                if not part:
                    continue
        _word_products(products, scale, f, g, part, derivatives)
    total = _Sum(layout, products)
    _compose_into(total, products)
    total.settle()
    return total


def _finalize(layout: BlockLayout, acc: dict) -> DiffOp:
    """The accumulated symbol, reduced once."""
    ((j, k, den), terms), = acc[_SYMBOL].items()
    return DiffOp._of(BlockPoly._make(layout, terms, den, j, k))


def commutator(left: DiffOp, right: DiffOp,
               derivatives: Derivatives | None = None) -> DiffOp:
    return combine([(1, left, right), (-1, right, left)], derivatives)


def combine(words: list[tuple[ParamScalar | Rational, DiffOp, DiffOp | None]],
            derivatives: Derivatives | None = None) -> DiffOp:
    """sum_i scale_i * left_i o right_i, accumulated in one pass and reduced once.

    A word whose right factor is None stands for scale_i * left_i."""
    total = symbol_sum([(scale, left.symbol, None if right is None else right.symbol, _ALL)
                        for scale, left, right in words], derivatives)
    return _finalize(words[0][1].layout, {_SYMBOL: {(total.j, total.k, total.den): total.terms}})
