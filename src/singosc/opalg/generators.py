"""Construction of the quantum and classical integrals of motion.

With p_i = -i*hbar*d_i every operator below is even in the momenta or built
from angular-momentum squares, so all of them are stored with real rational
coefficients.  The first-order angular generators are kept in the real form
L_ij = hbar (x_i d_j - x_j d_i); the physical (anti-Hermitian-free) generator
is -i L_ij, hence the angular Casimirs are J2 = -sum L_ij^2 over the first
block and K2 = -sum L_ij^2 over the second, with non-negative spectrum
hbar^2 l (l + m - 2).

The classical integrals are not written a second time: each is the leading
hbar order of its operator (``classical.classical_limit``), and both kinds are
one ``Generators`` type.  Order rule: a derivative d^beta of order m = |beta|
keeps the hbar^m part of its coefficient; a higher power is subleading and
drops, like the (N-1) hbar^2/4 sum x_i d_i term of A.  Sign rule: since
d = (i/hbar) p, hbar^m d^beta becomes i^m p^beta, and an odd-order L is the
real form of the physical generator -i L, so every order takes (-1)^floor(m/2).
"""

from fractions import Fraction
from typing import NamedTuple

from .classical import PhaseFn, classical_limit
from .diffop import DiffOp, combine
from .poly import BlockLayout, BlockPoly
from .scalars import ParamScalar


Generator = DiffOp | PhaseFn


class Generators(NamedTuple):
    """All integrals of motion of the double singular oscillator, as operators
    or as their classical phase-space functions."""

    H: Generator
    A: Generator
    B: Generator
    J: dict[tuple[int, int], Generator]
    K: dict[tuple[int, int], Generator]
    J2: Generator
    K2: Generator

    @property
    def layout(self) -> BlockLayout:
        return self.H.layout

    @property
    def N(self) -> int:
        return self.layout.N

    @property
    def n(self) -> int:
        return self.layout.n

    def mapped(self, fn) -> "Generators":
        """fn applied to every generator."""
        return Generators(H=fn(self.H), A=fn(self.A), B=fn(self.B),
                          J={key: fn(op) for key, op in self.J.items()},
                          K={key: fn(op) for key, op in self.K.items()},
                          J2=fn(self.J2), K2=fn(self.K2))


def _rho(layout: BlockLayout, block: int) -> BlockPoly:
    """r_block^2, the single monomial rho_block."""
    return BlockPoly.monomial(layout, layout.rho_key(block))


def _singular_terms(layout: BlockLayout, sign2: int = 1) -> BlockPoly:
    """c1/r1^2 + sign2 * c2/r2^2 as a single canonical value."""
    return (BlockPoly.monomial(layout, 0, ParamScalar.c1(), j=1)
            + BlockPoly.monomial(layout, 0, ParamScalar.c2(1, sign2), k=1))


def angular_momentum(layout: BlockLayout, i: int, jdx: int) -> DiffOp:
    """Real-form generator hbar (x_i d_j - x_j d_i), zero-based indices."""
    hbar = ParamScalar.hbar()
    xi = BlockPoly.monomial(layout, layout.x_key(i), hbar)
    xj = BlockPoly.monomial(layout, layout.x_key(jdx), hbar)
    ei = tuple(1 if t == jdx else 0 for t in range(layout.N))
    ej = tuple(1 if t == i else 0 for t in range(layout.N))
    return DiffOp(layout, {ei: xi, ej: -xj})


def build_quantum(N: int, n: int) -> Generators:
    """Build H, A, B, the angular generators and their Casimirs for (N, n)."""
    layout = BlockLayout(N, n)
    hbar2 = ParamScalar.hbar(2)
    omega2 = ParamScalar.omega(2)
    zero_beta = (0,) * N

    # H = -(hbar^2/2) sum_i d_i^2 + (omega^2/2) r^2 + c1/r1^2 + c2/r2^2
    h_terms: dict[tuple[int, ...], BlockPoly] = {}
    for i in range(N):
        beta = tuple(2 if t == i else 0 for t in range(N))
        h_terms[beta] = BlockPoly.scalar(layout, hbar2 * Fraction(-1, 2))
    r1, r2 = _rho(layout, 1), _rho(layout, 2)
    r2_all = r1 + r2
    h_terms[zero_beta] = r2_all.scaled(omega2 * Fraction(1, 2)) + _singular_terms(layout)
    H = DiffOp(layout, h_terms)

    # A = -(hbar^2/4)[ sum_j (r^2 - x_j^2) d_j^2 - 2 sum_{i<j} x_i x_j d_i d_j
    #                  - (N-1) sum_i x_i d_i ] + (r^2/2)(c1/r1^2 + c2/r2^2)
    quarter = hbar2 * Fraction(-1, 4)
    a_terms: dict[tuple[int, ...], BlockPoly] = {}
    for jdx in range(N):
        beta = tuple(2 if t == jdx else 0 for t in range(N))
        coeff = r2_all - BlockPoly.monomial(layout, layout.x_key(jdx, 2))
        a_terms[beta] = coeff.scaled(quarter)
    for i in range(N):
        for jdx in range(i + 1, N):
            beta = tuple(1 if t in (i, jdx) else 0 for t in range(N))
            mono = BlockPoly.monomial(layout, layout.x_key(i) + layout.x_key(jdx))
            a_terms[beta] = mono.scaled(quarter * Fraction(-2))
    for i in range(N):
        beta = tuple(1 if t == i else 0 for t in range(N))
        mono = BlockPoly.monomial(layout, layout.x_key(i))
        a_terms[beta] = mono.scaled(quarter * Fraction(-(N - 1)))
    a_terms[zero_beta] = (r2_all * _singular_terms(layout)).scaled(Fraction(1, 2))
    A = DiffOp(layout, a_terms)

    # B = H_1 - H_2 = -(hbar^2/2)(sum_{i<=n} d_i^2 - sum_{i>n} d_i^2)
    #     + (omega^2/2)(r1^2 - r2^2) + c1/r1^2 - c2/r2^2
    # (the antisymmetric singular sign is forced by [H, B] = 0)
    b_terms: dict[tuple[int, ...], BlockPoly] = {}
    for i in range(N):
        beta = tuple(2 if t == i else 0 for t in range(N))
        sign = Fraction(-1, 2) if i < n else Fraction(1, 2)
        b_terms[beta] = BlockPoly.scalar(layout, hbar2 * sign)
    b_terms[zero_beta] = ((r1 - r2).scaled(omega2 * Fraction(1, 2))
                          + _singular_terms(layout, sign2=-1))
    B = DiffOp(layout, b_terms)

    J = {(i + 1, jdx + 1): angular_momentum(layout, i, jdx)
         for i in range(n) for jdx in range(i + 1, n)}
    K = {(i + 1, jdx + 1): angular_momentum(layout, i, jdx)
         for i in range(n, N) for jdx in range(i + 1, N)}

    # J2 = -sum L_ij^2 over a block, one word sum; a one-coordinate block has none
    J2, K2 = (combine([(-1, op, op) for op in block.values()]) if block
              else DiffOp.zero(layout) for block in (J, K))

    return Generators(H=H, A=A, B=B, J=J, K=K, J2=J2, K2=K2)


def build_classical(N: int, n: int) -> Generators:
    """Classical H, A, B, angular generators and Casimirs for (N, n): the
    leading hbar order of the quantum ones."""
    return build_quantum(N, n).mapped(classical_limit)
