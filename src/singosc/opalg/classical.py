"""Classical phase-space functions and the Poisson bracket.

A PhaseFn is a polynomial in x_1..x_N, p_1..p_N over the parameter ring,
divided by powers of r1^2 and r2^2 (momenta carry no denominators), a
``BlockPoly`` on its split's one layout.  Operators live there too, as
standard-ordered symbols, p^beta for d^beta, and their coefficients are the
values with no momentum (``diffop``).
In the symbol product sum_delta (1/delta!) d_p^delta sigma_L d_x^delta sigma_R
(Folland, *Harmonic Analysis in Phase Space*, 1989, ch. 2), each delta > 0
term is hbar^|delta| below sigma_L sigma_R once d = (i/hbar) p, so the leading
order of a product is the product of the leading orders.

Sums of products are written as words (scale, f, g | None).  ``combine_phase``
sums them as the delta = 0 terms of their symbol products, with the operators'
planner ``diffop.symbol_sum``, and reduces once.  The Poisson bracket {f, g} is
the |delta| = 1 part of sigma(g o f) - sigma(f o g): two words, whose
derivatives a ``Derivatives`` table keeps for as long as its owner (one verify
call) lives.

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

from .diffop import _FIRST, _PRODUCT, DiffOp, _check_split, symbol_sum
from .poly import _MASK, BlockLayout, BlockPoly, Derivatives
from .scalars import PARAM_SHIFT, ParamScalar, Rational


class PhaseFn:
    """Rational phase-space function on a concrete (N, n) split."""

    __slots__ = ("value",)

    def __init__(self, value: BlockPoly):
        self.value = value

    @property
    def layout(self) -> BlockLayout:
        return self.value.layout

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

    def __add__(self, other: PhaseFn) -> PhaseFn:
        _check_split(self.value.layout, other.value.layout)
        return PhaseFn(self.value + other.value)

    def __sub__(self, other: PhaseFn) -> PhaseFn:
        _check_split(self.value.layout, other.value.layout)
        return PhaseFn(self.value - other.value)

    def __neg__(self) -> PhaseFn:
        return PhaseFn(-self.value)

    def __mul__(self, other: PhaseFn) -> PhaseFn:
        _check_split(self.value.layout, other.value.layout)
        return PhaseFn(self.value * other.value)

    def scaled(self, value: ParamScalar | Rational) -> PhaseFn:
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


def combine_phase(words: list[tuple], derivatives: Derivatives | None = None) -> PhaseFn:
    """sum_i scale_i * f_i * g_i, accumulated in one pass and reduced once.

    A word (scale, f, g | None) is the delta = 0 part of the symbol product,
    g = None standing for 1, and a word (scale, f, g, part) of
    ``bracket_words`` takes that part; ``diffop.symbol_sum`` sums them, with
    the derivatives of ``derivatives`` (a fresh table if None)."""
    total = symbol_sum([(word[0], word[1].value, None if word[2] is None else word[2].value,
                         word[3] if len(word) == 4 else _PRODUCT) for word in words],
                       derivatives)
    return PhaseFn(BlockPoly._make(total.layout, total.terms, total.den, total.j, total.k))


def classical_limit(op: DiffOp) -> PhaseFn:
    """The leading hbar order of an operator, as a phase-space function.

    Each symbol term with p^beta, |beta| = m, keeps its hbar^m part, divided by
    hbar^m and times (-1)^floor(m/2) (the rules of the module docstring).  A
    part below hbar^m has no classical limit and raises ``ValueError``."""
    symbol = op.symbol
    layout = symbol.layout
    hbar_shift = PARAM_SHIFT[0]
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


def bracket_words(f: PhaseFn, g: PhaseFn) -> list[tuple]:
    """{f, g} as two words for combine_phase: the |delta| = 1 parts of
    sigma(g o f) - sigma(f o g), sum_i dg/dp_i df/dx_i - df/dp_i dg/dx_i."""
    return [(1, g, f, _FIRST), (-1, f, g, _FIRST)]


def poisson_bracket(f: PhaseFn, g: PhaseFn, derivatives: Derivatives | None = None
                    ) -> PhaseFn:
    """{f, g} = sum_i df/dx_i dg/dp_i - df/dp_i dg/dx_i, with the derivatives
    of ``derivatives`` (a fresh table if None)."""
    return combine_phase(bracket_words(f, g), derivatives)
