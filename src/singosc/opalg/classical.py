"""Classical phase-space functions and the Poisson bracket.

A PhaseFn is a polynomial in x_1..x_N, p_1..p_N over the parameter ring,
divided by powers of r1^2 and r2^2, backed by the same packed representation
as the operator coefficients (momenta carry no denominators).  Operators live
on this layout too, as standard-ordered symbols, p^beta for d^beta (``diffop``).
In the symbol product sum_delta (1/delta!) d_p^delta sigma_L d_x^delta sigma_R
(Folland, *Harmonic Analysis in Phase Space*, 1989, ch. 2), each delta > 0
term is hbar^|delta| below sigma_L sigma_R once d = (i/hbar) p, so the leading
order of a product is the product of the leading orders.

Sums of products are written as words (scale, f, g | None).  ``combine_phase``
adds every word's product, lifted onto the common rho powers and denominator
of all the products, into one ``poly._Sum`` and reduces the total once;
words with the same two factors, in either order, are summed first, so words
that cancel form no product.  The Poisson bracket is the sum of the 2N words
df/dx_i dg/dp_i and -df/dp_i dg/dx_i, reduced once; a ``Derivatives`` table
keeps each function's gradient for as long as its owner (one verify call) lives.

``classical_limit`` maps an operator to its leading hbar order, which is how
the classical integrals of motion are built.  Order rule: a derivative d^beta
of order m = |beta| keeps only the hbar^m part of its coefficient; higher
powers are subleading and drop, and a lower one raises.  Sign rule: with
d = (i/hbar) p, hbar^m d^beta is i^m p^beta, and an odd-order operator is the
real form L = hbar (x_i d_j - x_j d_i) of the physical generator -i L, so the
kept part, hbar^m stripped, takes p^beta and (-1)^floor(m/2).  Since the
symbol already holds p^beta, the limit maps each of its terms in place and
reduces the kept ones once.
"""

from __future__ import annotations

from fractions import Fraction

from .diffop import DiffOp
from .poly import _MASK, BlockLayout, BlockPoly, Derivatives, _sum
from .scalars import ParamScalar


class PhaseFn:
    """Rational phase-space function on a concrete (N, n) split."""

    __slots__ = ("value",)

    def __init__(self, value: BlockPoly):
        if not value.layout.momenta:
            raise ValueError("PhaseFn requires a layout with momenta")
        self.value = value

    @classmethod
    def layout(cls, N: int, n: int) -> BlockLayout:
        return BlockLayout(N, n, momenta=True)

    @classmethod
    def zero(cls, layout: BlockLayout) -> PhaseFn:
        return cls(BlockPoly.zero(layout))

    @classmethod
    def scalar(cls, layout: BlockLayout, value) -> PhaseFn:
        return cls(BlockPoly.scalar(layout, value))

    @classmethod
    def coordinate(cls, layout: BlockLayout, i: int, power: int = 1) -> PhaseFn:
        return cls(BlockPoly.monomial(layout, layout.x_key(i, power)))

    @classmethod
    def momentum(cls, layout: BlockLayout, i: int, power: int = 1) -> PhaseFn:
        return cls(BlockPoly.monomial(layout, layout.p_key(i, power)))

    def _check(self, other: PhaseFn) -> None:
        if not self.value.layout.same_split(other.value.layout):
            raise ValueError("phase functions built for different splits")

    def __add__(self, other: PhaseFn) -> PhaseFn:
        self._check(other)
        return PhaseFn(self.value + other.value)

    def __sub__(self, other: PhaseFn) -> PhaseFn:
        self._check(other)
        return PhaseFn(self.value - other.value)

    def __neg__(self) -> PhaseFn:
        return PhaseFn(-self.value)

    def __mul__(self, other: PhaseFn) -> PhaseFn:
        self._check(other)
        return PhaseFn(self.value * other.value)

    def scaled(self, value: ParamScalar | Fraction | int) -> PhaseFn:
        return PhaseFn(self.value.scaled(value))

    def is_zero(self) -> bool:
        return self.value.is_zero()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PhaseFn):
            return NotImplemented
        return self.value == other.value

    def __hash__(self):
        return hash(self.value)

    def term_count(self) -> int:
        return self.value.term_count()

    def momentum_degree(self) -> int:
        return self.value.p_degree()

    def __repr__(self) -> str:
        return f"PhaseFn<{self.value!r}>"


def combine_phase(words: list[tuple[ParamScalar | Fraction | int, PhaseFn, PhaseFn | None]]
                  ) -> PhaseFn:
    """sum_i scale_i * f_i * g_i, accumulated in one pass and reduced once.

    A word whose g is None stands for scale_i * f_i.  Since f g = g f, words
    with the same two factors in either order are one word with the summed
    scale, and words whose scales cancel form no product.  An int scale goes
    to the kernel; any other is folded into whichever factor has fewer terms."""
    if not words:
        raise ValueError("empty combination")
    layout = words[0][1].value.layout
    one = PhaseFn(BlockPoly._make(layout, {0: 1}, 1, 0, 0, rewrite=False))
    like: dict[tuple[int, int], list] = {}
    for scale, f, g in words:
        if g is None:
            f, g = one, f
        f._check(g)
        key = (id(f), id(g)) if id(f) <= id(g) else (id(g), id(f))
        word = like.get(key)
        if word is None:
            like[key] = [scale, f.value, g.value]
        else:
            word[0] = word[0] + scale
    products = []
    for scale, f, g in like.values():
        if scale and f.num and g.num:
            if len(f.num) > len(g.num):
                f, g = g, f
            if not isinstance(scale, int):
                f, scale = f.scaled(scale), 1
            products.append((f.den * g.den, f.j + g.j, f.k + g.k, scale, f.num, g.num))
    return PhaseFn(_sum(layout, products))


def classical_limit(op: DiffOp) -> PhaseFn:
    """The leading hbar order of an operator, as a phase-space function.

    Each symbol term with p^beta, |beta| = m, keeps its hbar^m part, divided by
    hbar^m and times (-1)^floor(m/2) (the rules of the module docstring).  A
    part below hbar^m has no classical limit and raises ``ValueError``."""
    symbol = op.symbol
    layout = symbol.layout
    hbar_shift = layout.param_shift[0]
    terms = {}
    for key, c in symbol.num.items():
        order = sum((key >> s) & _MASK for s in layout.pshift)
        power = (key >> hbar_shift) & _MASK
        if power < order:
            raise ValueError(f"hbar^{power} coefficient of a derivative of order "
                             f"{order}: no classical limit")
        if power == order:
            terms[key - (order << hbar_shift)] = (-1) ** (order // 2) * c
    return PhaseFn(BlockPoly._make(layout, terms, symbol.den, symbol.j, symbol.k))


def _gradient(fn: PhaseFn, derivatives: Derivatives
              ) -> tuple[list[PhaseFn], list[PhaseFn]]:
    """(df/dx_i, df/dp_i for i < N), taken once per table."""
    memo = derivatives.of(fn)
    grad = memo.get("gradient")
    if grad is None:
        value = fn.value
        coords = range(value.layout.N)
        grad = memo["gradient"] = ([PhaseFn(value.diff_x(i)) for i in coords],
                                   [PhaseFn(value.diff_p(i)) for i in coords])
    return grad


def bracket_words(f: PhaseFn, g: PhaseFn, derivatives: Derivatives | None = None
                  ) -> list[tuple[int, PhaseFn, PhaseFn]]:
    """{f, g} as the words df/dx_i dg/dp_i and -df/dp_i dg/dx_i, for combine_phase.

    The partial derivatives come from ``derivatives`` (a fresh table if None)."""
    f._check(g)
    if derivatives is None:
        derivatives = Derivatives()
    fx, fp = _gradient(f, derivatives)
    gx, gp = _gradient(g, derivatives)
    words = []
    for i in range(len(fx)):
        words.append((1, fx[i], gp[i]))
        words.append((-1, fp[i], gx[i]))
    return words


def poisson_bracket(f: PhaseFn, g: PhaseFn, derivatives: Derivatives | None = None
                    ) -> PhaseFn:
    """{f, g} = sum_i df/dx_i dg/dp_i - df/dp_i dg/dx_i."""
    return combine_phase(bracket_words(f, g, derivatives))
