"""Construction of the quantum and classical integrals of motion.

With p_i = -i*hbar*d_i every operator below is even in the momenta or built
from angular-momentum squares, so all of them are stored with real rational
coefficients.  The first-order angular generators are kept in the real form
L_ij = hbar (x_i d_j - x_j d_i); the physical (anti-Hermitian-free) generator
is -i L_ij, hence the angular Casimirs are J2 = -sum L_ij^2 over the first
block and K2 = -sum L_ij^2 over the second, with non-negative spectrum
hbar^2 l (l + m - 2).

The integrals are built as the paper defines them.  Block 1 holds the
coordinates 1..n and block 2 the rest; each has its Hamiltonian
H_b = -(hbar^2/2) sum_{i in b} d_i^2 + (omega^2/2) rho_b + c_b/rho_b, and
H = H_1 + H_2, B = H_1 - H_2.  Every rotation L_ij, i < j <= N, is built once,
and J and K are those inside block 1 and block 2.  A = -(1/4) sum_{i<j} L_ij^2
+ (r^2/2)(c1/rho_1 + c2/rho_2) is the so(N) Casimir plus the singular term;
it, J2 and K2 are each one ``combine`` word sum.

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
from .scalars import ParamScalar, Rational


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


def angular_momentum(layout: BlockLayout, i: int, jdx: int) -> DiffOp:
    """Real-form generator hbar (x_i d_j - x_j d_i), zero-based indices."""
    hbar = ParamScalar.hbar()
    xi = BlockPoly.monomial(layout, layout.x_key(i), hbar)
    xj = BlockPoly.monomial(layout, layout.x_key(jdx), hbar)
    ei = tuple(1 if t == jdx else 0 for t in range(layout.N))
    ej = tuple(1 if t == i else 0 for t in range(layout.N))
    return DiffOp(layout, {ei: xi, ej: -xj})


def _block_hamiltonian(layout: BlockLayout, coords: range, rho: BlockPoly,
                       singular: BlockPoly) -> DiffOp:
    """H_b = -(hbar^2/2) sum_{i in b} d_i^2 + (omega^2/2) rho_b + c_b/rho_b."""
    kinetic = BlockPoly.scalar(layout, ParamScalar.hbar(2, Fraction(-1, 2)))
    terms = {tuple(2 if t == i else 0 for t in range(layout.N)): kinetic for i in coords}
    terms[(0,) * layout.N] = rho.scaled(ParamScalar.omega(2, Fraction(1, 2))) + singular
    return DiffOp(layout, terms)


def _squares(layout: BlockLayout, rotations: dict, scale: Rational, *extra: tuple) -> DiffOp:
    """scale * sum L^2 over ``rotations`` plus the ``extra`` words, as one
    ``combine`` word sum; zero when there is no word."""
    words = [(scale, op, op) for op in rotations.values()] + list(extra)
    return combine(words) if words else DiffOp.zero(layout)


def build_quantum(N: int, n: int) -> Generators:
    """Build H, A, B, the angular generators and their Casimirs for (N, n):
    H = H_1 + H_2, B = H_1 - H_2, A = -(1/4) sum_{i<j<=N} L_ij^2
    + (r^2/2)(c1/rho_1 + c2/rho_2), and J2, K2 = -sum L_ij^2 over J and K."""
    layout = BlockLayout(N, n)
    rho = (BlockPoly.monomial(layout, layout.rho_key(1)),
           BlockPoly.monomial(layout, layout.rho_key(2)))
    singular = (BlockPoly.monomial(layout, 0, ParamScalar.c1(), j=1),
                BlockPoly.monomial(layout, 0, ParamScalar.c2(), k=1))
    H1 = _block_hamiltonian(layout, range(n), rho[0], singular[0])
    H2 = _block_hamiltonian(layout, range(n, N), rho[1], singular[1])

    L = {(i + 1, jdx + 1): angular_momentum(layout, i, jdx)
         for i in range(N) for jdx in range(i + 1, N)}
    J = {key: op for key, op in L.items() if key[1] <= n}
    K = {key: op for key, op in L.items() if key[0] > n}
    potential = DiffOp.multiplication(
        layout, ((rho[0] + rho[1]) * (singular[0] + singular[1])).scaled(Fraction(1, 2)))
    A = _squares(layout, L, Fraction(-1, 4), (1, potential, None))

    return Generators(H=H1 + H2, A=A, B=H1 - H2, J=J, K=K,
                      J2=_squares(layout, J, -1), K2=_squares(layout, K, -1))


def build_classical(N: int, n: int) -> Generators:
    """Classical H, A, B, angular generators and Casimirs for (N, n): the
    leading hbar order of the quantum ones."""
    return build_quantum(N, n).mapped(classical_limit)
