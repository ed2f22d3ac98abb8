"""Deformed-oscillator realization: structure functions, unirreps, algebraic spectrum.

The structure function is handled in two independent forms: the raw degree-6
polynomial assembled from the quadratic algebra and both Casimir expressions,
and the factorized form whose roots encode the finite-representation
constraints.  m1 and m2 are square roots of rationals, so u, E, the
coefficients and the values of Phi all lie in the field Q(sqrt(m1^2),
sqrt(m2^2)) and are computed there exactly (``exact.Biquadratic``); the two
agreement checks (``StructureFn.agrees_with`` and ``recursion_consistency``)
test exact equality, for rational and irrational m alike.

The unirrep solver decides every verdict exactly, in integers, for rational
and irrational m alike, without building the field.  Everything that depends
only on the central elements is derived once per ``CentralEigs`` and cached
on it: its ``MQuantum`` (m1^2, m2^2 and, on first read, m1 and m2 in the
field) and its branch table, which places each root of Phi's six linear
factors, and s/2 = (eps1 m1 + eps2 m2)/2, among the integers by exact floors
and signs of c + a sqrt(A) + b sqrt(B) (``exact.sqrt_sum_floor`` and
``exact.sqrt_sum_sign``).  Per p the solver only shifts those placements by
multiples of p + 1.  u, E and the values of Phi are computed only when a
solution is read, and all solutions of one ``CentralEigs`` share its m1, m2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .exact import Biquadratic, exact_sqrt, sqrt_sum_floor, sqrt_sum_sign


# -- central-element data ------------------------------------------------------


@dataclass(frozen=True)
class CentralEigs:
    """Angular/coupling data that fixes the central elements of the algebra."""

    N: int
    n: int
    l_n: int
    l_Nn: int
    c1: Fraction = Fraction(0)
    c2: Fraction = Fraction(0)
    hbar: Fraction = Fraction(1)
    omega: Fraction = Fraction(1)

    def __post_init__(self):
        if not 1 <= self.n <= self.N - 1:
            raise ValueError(f"invalid split ({self.N}, {self.n})")
        if self.l_n < 0 or self.l_Nn < 0:
            raise ValueError("angular numbers must be non-negative")
        if self.n == 1 and self.l_n > 1:
            raise ValueError("a one-coordinate block only carries parity labels 0 and 1")
        if self.N - self.n == 1 and self.l_Nn > 1:
            raise ValueError("a one-coordinate block only carries parity labels 0 and 1")
        for name in ("c1", "c2", "hbar", "omega"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        if self.c1 < 0 or self.c2 < 0:
            raise ValueError("couplings must be non-negative")
        if self.hbar <= 0 or self.omega <= 0:
            raise ValueError("hbar and omega must be positive")

    @property
    def j2(self) -> Fraction:
        return self.hbar ** 2 * self.l_n * (self.l_n + self.n - 2)

    @property
    def k2(self) -> Fraction:
        m = self.N - self.n
        return self.hbar ** 2 * self.l_Nn * (self.l_Nn + m - 2)

    @cached_property
    def mq(self) -> MQuantum:
        """m_i >= 0 with hbar^2 m1^2 = 8 c1 + 4 J2 + hbar^2 (n-2)^2 (and the
        block-2 twin)."""
        h2 = self.hbar ** 2
        m1_sq = (8 * self.c1 + 4 * self.j2) / h2 + (self.n - 2) ** 2
        m2_sq = (8 * self.c2 + 4 * self.k2) / h2 + (self.N - self.n - 2) ** 2
        if m1_sq < 0 or m2_sq < 0:
            raise ValueError("negative radicand for m1/m2")
        return MQuantum(m1_squared=m1_sq, m2_squared=m2_sq)

    @cached_property
    def branches(self) -> tuple:
        """The placement table of ``solve_unirreps``, built by ``_branch_table``."""
        return _branch_table(self.mq)


@dataclass(frozen=True)
class MQuantum:
    """Positive roots m1, m2 of the central-element combinations, from their
    exact squares; a root is built, in the field of both, on first read."""

    m1_squared: Fraction
    m2_squared: Fraction

    @cached_property
    def m1(self) -> Biquadratic:
        return Biquadratic.sqrt_pair(self.m1_squared, self.m2_squared)[0]

    @cached_property
    def m2(self) -> Biquadratic:
        return Biquadratic.sqrt_pair(self.m1_squared, self.m2_squared)[1]

    @cached_property
    def exact(self) -> bool:
        return (exact_sqrt(self.m1_squared) is not None
                and exact_sqrt(self.m2_squared) is not None)


def m_values(ce: CentralEigs) -> MQuantum:
    """The m1, m2 of ``ce``: one ``MQuantum`` per ``CentralEigs``, so every
    solution of it shares one pair of field roots."""
    return ce.mq


# -- dense degree-6 polynomials ---------------------------------------------------


def poly_mul(a: Sequence, b: Sequence) -> list:
    out = [a[0] * 0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for jdx, cb in enumerate(b):
            out[i + jdx] = out[i + jdx] + ca * cb
    return out


def poly_eval(coeffs: Sequence, x):
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * x + c
    return acc


def poly_shift(coeffs: Sequence, shift) -> list:
    """Coefficients of p(x + shift) given those of p(y)."""
    out = [coeffs[0] * 0] * len(coeffs)
    for d, c in enumerate(coeffs):
        # c * (x + shift)^d
        for kdx in range(d + 1):
            out[kdx] = out[kdx] + c * math.comb(d, kdx) * shift ** (d - kdx)
    return out


@dataclass(frozen=True)
class StructureFn:
    """Degree-6 structure polynomial, by its coefficients in x."""

    coeffs: tuple

    def __call__(self, x):
        return poly_eval(self.coeffs, x)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def agrees_with(self, other: "StructureFn") -> bool:
        """Exact coefficient equality."""
        return self.coeffs == other.coeffs


def structure_poly_raw(u: Biquadratic | Fraction, energy: Biquadratic | Fraction,
                       ce: CentralEigs) -> StructureFn:
    """The raw structure polynomial, assembled term by term in y = x + u."""
    h2 = ce.hbar ** 2
    h4 = h2 ** 2
    w2 = ce.omega ** 2
    j2, k2 = ce.j2, ce.k2
    c1, c2 = ce.c1, ce.c2
    N, n = ce.N, ce.n

    const_block = (
        64 * c1 ** 2 + 64 * c2 ** 2 - 48 * h4 - 32 * h2 * j2 + 16 * j2 ** 2
        - 32 * h2 * k2 - 32 * j2 * k2 + 16 * k2 ** 2 - 64 * h2 * j2 * n
        + 64 * h2 * k2 * n + 48 * h4 * n ** 2 + 32 * h4 * N + 32 * h2 * j2 * N
        - 32 * h2 * k2 * N - 48 * h4 * n * N + 16 * h2 * j2 * n * N
        - 16 * h2 * k2 * n * N - 32 * h4 * n ** 2 * N + 8 * h4 * N ** 2
        - 8 * h2 * j2 * N ** 2 + 8 * h2 * k2 * N ** 2 + 32 * h4 * n * N ** 2
        + 4 * h4 * n ** 2 * N ** 2 - 8 * h4 * N ** 3 - 4 * h4 * n * N ** 3
        + h4 * N ** 4
    )

    q = [Fraction(0)] * 5
    q[0] = const_block
    # -16 c2 [4 (J2 - K2) + hbar^2 {(N-4)(2n-N) + 4 (1 - 2y)^2}]
    q[0] += -16 * c2 * (4 * (j2 - k2) + h2 * ((N - 4) * (2 * n - N) + 4))
    q[1] += -16 * c2 * h2 * (-16)
    q[2] += -16 * c2 * h2 * 16
    # -16 c1 [8 c2 - 4 J2 + 4 K2 + hbar^2 {(N-4)(N-2n) + 4 (1 - 2y)^2}]
    q[0] += -16 * c1 * (8 * c2 - 4 * j2 + 4 * k2 + h2 * ((N - 4) * (N - 2 * n) + 4))
    q[1] += -16 * c1 * h2 * (-16)
    q[2] += -16 * c1 * h2 * 16
    # + 32 hbar^2 [4 (J2 + K2) + hbar^2 {2 n^2 + (N-2)^2 - 2 n N}] y
    q[1] += 32 * h2 * (4 * (j2 + k2) + h2 * (2 * n ** 2 + (N - 2) ** 2 - 2 * n * N))
    # - 32 hbar^2 [4 (J2 + K2) + hbar^2 {2 (n^2 - 2) - 2 (n+2) N + N^2}] y^2
    q[2] += -32 * h2 * (4 * (j2 + k2) + h2 * (2 * (n ** 2 - 2) - 2 * (n + 2) * N + N ** 2))
    q[3] += -512 * h4
    q[4] += 256 * h4

    # trailing factor E^2 - hbar^2 omega^2 (1 - 2y)^2
    e2 = energy * energy
    t = [e2 - h2 * w2, 4 * h2 * w2, -4 * h2 * w2]

    coeffs_y = poly_mul(q, t)
    pref = 12288 * h2 ** 6
    coeffs_y = [pref * c for c in coeffs_y]
    coeffs_x = poly_shift(coeffs_y, u)
    return StructureFn(coeffs=tuple(coeffs_x))


def factored_roots(energy: Biquadratic | Fraction, ce: CentralEigs) -> list:
    """The six root locations of x + u in the factorized structure function: the
    four (2 +- m1 +- m2)/4, which depend on the central elements only (the m
    of ``ce``), and the two roots (hbar omega -+ E)/(2 hbar omega) of the
    energy factor."""
    m1, m2, hw = ce.mq.m1, ce.mq.m2, ce.hbar * ce.omega
    return [(2 + m1 + m2) / 4, (2 - m1 + m2) / 4, (2 + m1 - m2) / 4, (2 - m1 - m2) / 4,
            (-energy + hw) / (2 * hw), (energy + hw) / (2 * hw)]


def _lead(ce: CentralEigs) -> Fraction:
    """Leading coefficient of the factorized structure polynomial."""
    return -12582912 * ce.hbar ** 18 * ce.omega ** 2


def structure_poly_factored(u: Biquadratic | Fraction, energy: Biquadratic | Fraction,
                            ce: CentralEigs,
                            root_offsets: Sequence | None = None) -> StructureFn:
    """Factorized structure polynomial, with the roots of ``factored_roots``.

    The last factor is read as (x + u - (E + hbar omega)/(2 hbar omega)).
    ``root_offsets`` perturbs individual roots (mutation testing).
    """
    roots = factored_roots(energy, ce)
    if root_offsets is not None:
        roots = [r + d for r, d in zip(roots, root_offsets)]
    coeffs = [_lead(ce)]
    for root in roots:
        coeffs = poly_mul(coeffs, [u - root, 1])
    return StructureFn(coeffs=tuple(coeffs))


# -- finite unirreps -------------------------------------------------------------


_SIGNS = ((1, 1), (1, -1), (-1, 1), (-1, -1))


@dataclass(frozen=True, init=False)
class UnirrepSolution:
    """One (set, sign) branch of the finite-representation constraints.

    The verdict is decided when the branch is solved; u, the energy and the
    values of Phi at x = 0..p+1 are computed on first read, from the m1, m2
    of ``ce``.
    """

    set_id: int
    eps1: int
    eps2: int
    p: int
    admissible: bool
    failing_x: int | None
    exact: bool
    ce: CentralEigs = field(repr=False, compare=False)

    def __init__(self, set_id: int, eps1: int, eps2: int, p: int, admissible: bool,
                 failing_x: int | None, exact: bool, ce: CentralEigs):
        # The generated frozen __init__ sets each field by object.__setattr__;
        # filling the instance dict gives the same instance at a third of the
        # cost, and solve_unirreps builds twelve per call.
        attrs = self.__dict__
        attrs["set_id"], attrs["eps1"], attrs["eps2"], attrs["p"] = set_id, eps1, eps2, p
        attrs["admissible"], attrs["failing_x"] = admissible, failing_x
        attrs["exact"], attrs["ce"] = exact, ce

    @cached_property
    def _closed_form(self) -> tuple[Biquadratic, Biquadratic]:
        return set_solution(self.set_id, self.eps1, self.eps2, self.p, self.ce)

    @property
    def u(self) -> Biquadratic:
        return self._closed_form[0]

    @property
    def energy(self) -> Biquadratic:
        return self._closed_form[1]

    @cached_property
    def phi_values(self) -> tuple:
        """Phi(x) = lead * prod_i (x + u - r_i) at x = 0..p+1."""
        shifts = [self.u - r for r in factored_roots(self.energy, self.ce)]
        return tuple(_lead(self.ce) * math.prod(x + s for s in shifts)
                     for x in range(self.p + 2))

    def record(self) -> dict:
        ce = self.ce
        return {
            "N": ce.N, "n": ce.n, "c1": str(ce.c1), "c2": str(ce.c2),
            "p": self.p, "l_n": ce.l_n, "l_Nn": ce.l_Nn,
            "set": self.set_id, "eps1": self.eps1, "eps2": self.eps2,
            "u": _num_str(self.u, self.exact), "energy": _num_str(self.energy, self.exact),
            "admissible": self.admissible,
            "failing_x": self.failing_x,
        }


def _num_str(value: Biquadratic, exact: bool) -> str:
    """A Fraction's string when m1 and m2 are rational, else 17 significant digits."""
    return str(value.rational()) if exact else str(value)


def set_solution(set_id: int, eps1: int, eps2: int, p: int,
                 ce: CentralEigs) -> tuple[Biquadratic, Biquadratic]:
    """Closed-form (u, E) for one of the three solution sets, from the m1, m2
    of ``ce``: with s = eps1 m1 + eps2 m2, E = 2 hbar omega (p + 1 + s/4) and
    u = (hbar omega -+ E) / (2 hbar omega) for sets 1 and 2, and (2 + s)/4
    for set 3."""
    quarter = (eps1 * ce.mq.m1 + eps2 * ce.mq.m2) / 4
    energy = (p + 1 + quarter) * (2 * ce.hbar * ce.omega)
    if set_id == 1:
        u = -(quarter + Fraction(2 * p + 1, 2))
    elif set_id == 2:
        u = quarter + Fraction(2 * p + 3, 2)
    elif set_id == 3:
        u = quarter + Fraction(1, 2)
    else:
        raise ValueError(f"unknown set id {set_id}")
    return u, energy


def solve_unirreps(p: int, ce: CentralEigs) -> list[UnirrepSolution]:
    """All 12 (set, sign) branches with their structure-function positivity status.

    Every verdict is exact and computed in integers, for rational and
    irrational m1, m2 alike, from the branch table ``ce.branches`` that each
    ``CentralEigs`` builds once (``_branch_table``); per p the solver only
    evaluates its placements at q = p + 1.  With s = eps1 m1 + eps2 m2,
    E / (2 hbar omega) = q + s/4, so E > 0 exactly when s/2 > -2q: when
    floor(s/2) > -2q, or floor(s/2) = -2q and s/2 is not an integer.  Since
    eta = 24576 hbar^18 omega^2 = -lead / 512 > 0, Phi / eta = -512 prod_i
    (x + u - r_i) vanishes at an integer x that is a root and is otherwise
    positive exactly when an odd number of roots lie above x.  u, E and Phi
    are not built here.
    """
    if p < 0:
        raise ValueError("p must be non-negative")
    q = p + 1
    exact = ce.mq.exact
    out: list[UnirrepSolution] = []
    for set_id, eps1, eps2, (half_s_floor, half_s_integral), roots in ce.branches:
        if half_s_floor > -2 * q or (half_s_floor == -2 * q and not half_s_integral):
            admissible, failing = _verdict(
                [(slope * q + offset, integral) for slope, offset, integral in roots], p)
        else:
            admissible, failing = False, None
        out.append(UnirrepSolution(set_id, eps1, eps2, p, admissible, failing, exact, ce))
    return out


def _branch_table(mq: MQuantum) -> tuple:
    """For each (set, eps1, eps2), in the order of ``solve_unirreps``: the tuple
    (set, eps1, eps2, placement of s/2, roots of Phi).

    The placement of s/2 = (eps1 m1 + eps2 m2)/2 is (floor, is an integer).
    u, the four m-roots (2 +- m1 +- m2)/4 and the two energy roots each read
    1/2 + j q + (k1 m1 + k2 m2)/4 with q = p + 1 and j in {-1, 0, 1}, so each
    factor x + u - r_i of Phi(x) = lead * prod_i (x + u - r_i) vanishes at
    x = (j_i - j_u) q - t with t = (K1 m1 + K2 m2)/4 and K1, K2 in {-2, 0, 2}.
    A root is held as (slope, offset, is an integer), its ceiling being
    slope q + offset; ``_placements`` places each t among the integers.
    """
    m1_sq, m2_sq = mq.m1_squared, mq.m2_squared
    den = math.lcm(m1_sq.denominator, m2_sq.denominator)
    # m_i = sqrt(rad_i) / den with integer radicands
    rad1 = m1_sq.numerator * (den // m1_sq.denominator) * den
    rad2 = m2_sq.numerator * (den // m2_sq.denominator) * den
    placed = _placements(rad1, rad2, den)
    table = []
    for set_id, u_slope in ((1, -1), (2, 1), (3, 0)):
        for eps1, eps2 in _SIGNS:
            # u and the six roots r_i as (j, k1, k2)
            uk1, uk2 = (-eps1, -eps2) if set_id == 1 else (eps1, eps2)
            factors = [(0, a, b) for a, b in _SIGNS] + [(-1, -eps1, -eps2), (1, eps1, eps2)]
            roots = []
            for slope, k1, k2 in factors:
                floor, integral = placed[uk1 - k1, uk2 - k2]
                roots.append((slope - u_slope, -floor, integral))
            table.append((set_id, eps1, eps2, placed[2 * eps1, 2 * eps2], tuple(roots)))
    return tuple(table)


def _placements(rad1: int, rad2: int, den: int) -> dict[tuple[int, int], tuple[int, bool]]:
    """(floor(t), t is an integer) for t = (K1 m1 + K2 m2)/4 and K1, K2 in {-2, 0, 2},
    where m_i = sqrt(rad_i) / den.  The placement of -t follows from that of t."""
    placed = {(0, 0): (0, True)}
    for k1, k2 in ((2, 0), (0, 2), (2, 2), (2, -2)):
        floor = sqrt_sum_floor((0, k1, k2, 0), 4 * den, (rad1, rad2))
        integral = sqrt_sum_sign(-4 * den * floor, k1, rad1, k2, rad2) == 0
        placed[k1, k2] = floor, integral
        placed[-k1, -k2] = -floor - (not integral), integral
    return placed


def _verdict(roots: list[tuple[int, bool]], p: int) -> tuple[bool, int | None]:
    """(admissible, failing x) of a branch with E > 0, from the roots of Phi
    given as (ceiling, is an integer): Phi must vanish at x = 0 and x = p + 1
    and Phi / eta, whose sign is that of (-1)^(roots above x + 1), be
    positive on 1..p."""
    zeros = {ceil for ceil, integral in roots if integral}
    if 0 not in zeros:
        return False, 0
    if p + 1 not in zeros:
        return False, p + 1
    for x in range(1, p + 1):
        if x in zeros or not sum(x < ceil for ceil, _ in roots) % 2:
            return False, x
    return True, None


# -- harmonic (c1 = c2 = 0) limit -------------------------------------------------


@dataclass(frozen=True)
class HarmonicCheck:
    n: int
    l: int
    p: int
    l_n: int
    l_Nn: int
    energy: Fraction
    expected: Fraction
    passed: bool


def harmonic_limit_check(N: int, l_max: int, hbar: Fraction = Fraction(1),
                         omega: Fraction = Fraction(1)) -> list[HarmonicCheck]:
    """At c1 = c2 = 0 every (p, l_n, l_Nn) with 2p + l_n + l_Nn = l must give
    E = hbar omega (l + N/2), across every partition n.

    Each energy is that of the set-1 solution from ``set_solution``.  At
    c = 0 the m of a block of dimension d and label l is |2l + d - 2|, and
    its sign eps (+ at 0) picks the branch: a one-coordinate block with
    parity label 0 takes eps = -1.
    """
    hbar, omega = Fraction(hbar), Fraction(omega)
    checks: list[HarmonicCheck] = []
    for n in range(1, N):
        dims = (n, N - n)
        l1_max = 1 if dims[0] == 1 else l_max
        l2_max = 1 if dims[1] == 1 else l_max
        for l in range(l_max + 1):
            for l_n in range(min(l, l1_max) + 1):
                for l_nn in range(min(l - l_n, l2_max) + 1):
                    rem = l - l_n - l_nn
                    if rem % 2:
                        continue
                    p = rem // 2
                    ce = CentralEigs(N=N, n=n, l_n=l_n, l_Nn=l_nn, hbar=hbar, omega=omega)
                    eps1, eps2 = (1 if 2 * label + dim - 2 >= 0 else -1
                                  for label, dim in ((l_n, dims[0]), (l_nn, dims[1])))
                    energy = set_solution(1, eps1, eps2, p, ce)[1].rational()
                    expected = hbar * omega * (l + Fraction(N, 2))
                    checks.append(HarmonicCheck(
                        n=n, l=l, p=p, l_n=l_n, l_Nn=l_nn,
                        energy=energy, expected=expected,
                        passed=energy == expected))
    return checks


# -- deformed-oscillator realization (diagonal data) -------------------------------


def realization_a(x_plus_u: Biquadratic, ce: CentralEigs) -> Biquadratic:
    """Diagonal value of the first generator in the number-operator realization."""
    return ce.hbar ** 2 * (x_plus_u ** 2 - Fraction((ce.N - 2) ** 2, 16))


def realization_b_diag(x_plus_u: Biquadratic, ce: CentralEigs) -> Biquadratic:
    """Diagonal part of the second generator in the same realization."""
    N, n = ce.N, ce.n
    h2 = ce.hbar ** 2
    numer = (8 * ce.c1 - 8 * ce.c2 + 4 * ce.j2 - 4 * ce.k2
             + (4 * N - 8 * n + 2 * n * N - N * N) * h2)
    return numer / (16 * h2 * (x_plus_u ** 2 - Fraction(1, 4)))


def rho_squared_shape(x_plus_u: Biquadratic) -> Biquadratic:
    """x-dependence of the squared ladder normalization rho(x)^2.

    The printed closed form 1/(3*2^20 hbar^16 (x+u)(1+x+u)(1+2(x+u))^2) only
    closes the algebra when read as rho^2; the constant prefactor is recovered
    independently by recursion_consistency below.
    """
    return 1 / (x_plus_u * (1 + x_plus_u) * (1 + 2 * x_plus_u) ** 2)


# The x + u at which a term of the recursion has a pole: realization_b_diag(y)
# at y^2 = 1/4, rho_squared_shape(y) at y in {0, -1, -1/2} and
# rho_squared_shape(y - 1) at y in {1, 0, 1/2}.
_RECURSION_POLES = tuple(Fraction(k, 2) for k in range(-2, 3))


def recursion_consistency(p: int, ce: CentralEigs, set_id: int = 1,
                          eps: tuple[int, int] = (1, 1)) -> tuple[bool, list]:
    """Fock-diagonal consistency of the second quadratic relation.

    Realizing the algebra with the diagonal A(x), the diagonal of the second
    quadratic relation becomes a two-term recursion tying Phi(x+1) to Phi(x)
    through rho(x)^2 = rho0^2 * rho_squared_shape(x+u).  The energy factor on
    the printed diagonal of the ladder generator is restored (it is forced by
    the first quadratic relation's diagonal).  rho0^2 is solved point by
    point; success means it is constant in x, positive, and equal to the
    bookkeeping constant 1/(3*2^20 hbar^16).  Points where a term has a pole
    or the denominator vanishes are skipped.

    Returns (ok, solved rho0^2 values).
    """
    u, energy = set_solution(set_id, eps[0], eps[1], p, ce)
    phi = structure_poly_factored(u, energy, ce)
    h2 = ce.hbar ** 2
    w2 = ce.omega ** 2
    j2k2 = ce.j2 + ce.k2
    coup = ce.c1 + ce.c2 - Fraction(ce.n * (ce.N - ce.n), 4) * h2

    def delta_a(y):
        return realization_a(y + 1, ce) - realization_a(y, ce)

    ratios = []
    for x in range(0, p + 1):
        y = u + x
        if y in _RECURSION_POLES:
            continue
        phi_x = phi(x)
        phi_x1 = phi(x + 1)
        denom = (rho_squared_shape(y) * phi_x1 * (delta_a(y) + h2)
                 - rho_squared_shape(y - 1) * phi_x * (delta_a(y - 1) - h2))
        g = energy * realization_b_diag(y, ce)
        rhs = (h2 * energy ** 2 - h2 * g ** 2 - 8 * h2 * w2 * realization_a(y, ce)
               + 2 * h2 * w2 * j2k2 + 4 * h2 * w2 * coup)
        if denom != 0:
            ratios.append(rhs / denom)
    if len(ratios) < 2:
        return False, ratios
    expected = Fraction(1, 3 * 2 ** 20) / ce.hbar ** 16
    return all(r == expected for r in ratios), ratios
