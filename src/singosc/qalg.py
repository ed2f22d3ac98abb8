"""Deformed-oscillator realization: structure functions, unirreps, algebraic spectrum.

The structure function is handled in two independent forms: the raw degree-6
polynomial assembled from the quadratic algebra and both Casimir expressions,
and the factorized form whose roots encode the finite-representation
constraints.  Coefficients and values are exact (Fraction) whenever the
angular/coupling data make m1, m2 rational, and 60-digit mpmath otherwise;
the two agreement checks on mpf (``StructureFn.agrees_with`` and
``recursion_consistency``) then read "equals zero" as smaller than 1e-30
relative to the scale.

The unirrep solver decides every verdict exactly, in integers, for rational
and irrational m alike: it places the roots of Phi's six linear factors among
the integers by exact sign tests on c + a sqrt(A) + b sqrt(B)
(``exact.sqrt_sum_sign``).  u, E and the values of Phi are computed only when
a solution is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Sequence, Union

import mpmath as mp

from .exact import exact_sqrt, sqrt_sum_sign

mp.mp.dps = 60

Number = Union[Fraction, mp.mpf]
ZERO_TOL = mp.mpf("1e-30")


def sqrt_number(value: Fraction) -> Number:
    root = exact_sqrt(value)
    if root is not None:
        return root
    return mp.sqrt(mp.mpf(value.numerator) / value.denominator)


def to_mpf(value: Number) -> mp.mpf:
    if isinstance(value, Fraction):
        return mp.mpf(value.numerator) / value.denominator
    return mp.mpf(value)


def unify(*values: Number) -> tuple:
    """Promote everything to mpf as soon as any value is inexact."""
    if any(not isinstance(v, Fraction) for v in values):
        return tuple(to_mpf(v) for v in values)
    return values


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


@dataclass(frozen=True)
class MQuantum:
    """Positive roots m1, m2 of the central-element combinations, from their
    exact squares; an irrational root is taken in 60-digit mpf on first read."""

    m1_squared: Fraction
    m2_squared: Fraction

    @cached_property
    def m1(self) -> Number:
        return sqrt_number(self.m1_squared)

    @cached_property
    def m2(self) -> Number:
        return sqrt_number(self.m2_squared)

    @property
    def exact(self) -> bool:
        return (exact_sqrt(self.m1_squared) is not None
                and exact_sqrt(self.m2_squared) is not None)


def m_values(ce: CentralEigs) -> MQuantum:
    """m_i >= 0 with hbar^2 m1^2 = 8 c1 + 4 J2 + hbar^2 (n-2)^2 (and the block-2 twin)."""
    h2 = ce.hbar ** 2
    m1_sq = (8 * ce.c1 + 4 * ce.j2) / h2 + (ce.n - 2) ** 2
    m2_sq = (8 * ce.c2 + 4 * ce.k2) / h2 + (ce.N - ce.n - 2) ** 2
    if m1_sq < 0 or m2_sq < 0:
        raise ValueError("negative radicand for m1/m2")
    return MQuantum(m1_squared=m1_sq, m2_squared=m2_sq)


# -- dense degree-6 polynomials over the numeric tower ---------------------------


def poly_mul(a: Sequence, b: Sequence) -> list:
    out = [a[0] * 0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for jdx, cb in enumerate(b):
            out[i + jdx] = out[i + jdx] + ca * cb
    return out


def poly_eval(coeffs: Sequence, x) -> Number:
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
    """Degree-6 structure polynomial with its provenance and defining parameters."""

    coeffs: tuple
    provenance: str  # "raw" | "factored"
    u: Number
    energy: Number
    ce: CentralEigs
    mq: MQuantum | None = None

    def __call__(self, x) -> Number:
        return poly_eval(self.coeffs, x)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def agrees_with(self, other: "StructureFn") -> bool:
        """Exact coefficient equality (up to the working-precision zero)."""
        pairs = list(zip(self.coeffs, other.coeffs))
        if all(isinstance(a, Fraction) and isinstance(b, Fraction) for a, b in pairs):
            return all(a == b for a, b in pairs)
        scale = max((abs(to_mpf(a)) for a, _ in pairs), default=mp.mpf(1)) + 1
        return all(abs(to_mpf(a) - to_mpf(b)) <= ZERO_TOL * scale for a, b in pairs)


def structure_poly_raw(u: Number, energy: Number, ce: CentralEigs) -> StructureFn:
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

    if isinstance(energy, Fraction) and isinstance(u, Fraction):
        coeffs_y = poly_mul(q, t)
        pref = 12288 * h2 ** 6
        coeffs_y = [pref * c for c in coeffs_y]
        coeffs_x = poly_shift(coeffs_y, u)
    else:
        qm = [to_mpf(c) for c in q]
        tm = [to_mpf(c) for c in t]
        coeffs_y = poly_mul(qm, tm)
        pref = to_mpf(12288 * h2 ** 6)
        coeffs_y = [pref * c for c in coeffs_y]
        coeffs_x = poly_shift(coeffs_y, to_mpf(u))
    return StructureFn(coeffs=tuple(coeffs_x), provenance="raw", u=u, energy=energy, ce=ce)


def _m_roots(m1: Number, m2: Number) -> list:
    """The four roots (2 +- m1 +- m2)/4, which depend on the central elements only."""
    return [(2 + m1 + m2) / 4, (2 - m1 + m2) / 4, (2 + m1 - m2) / 4, (2 - m1 - m2) / 4]


def _energy_roots(energy: Number, hw: Number) -> list:
    """The two roots (hbar omega -+ E)/(2 hbar omega) of the energy factor."""
    return [(-energy + hw) / (2 * hw), (energy + hw) / (2 * hw)]


def factored_roots(u: Number, energy: Number, ce: CentralEigs,
                   mq: MQuantum) -> list:
    """The six root locations of x + u in the factorized structure function."""
    m1, m2, _, energy = unify(mq.m1, mq.m2, u, energy)
    hw = ce.hbar * ce.omega
    if not isinstance(m1, Fraction):
        hw = to_mpf(hw)
    return _m_roots(m1, m2) + _energy_roots(energy, hw)


def _lead(ce: CentralEigs) -> Fraction:
    """Leading coefficient of the factorized structure polynomial."""
    return -12582912 * ce.hbar ** 18 * ce.omega ** 2


def structure_poly_factored(u: Number, energy: Number, ce: CentralEigs,
                            mq: MQuantum | None = None,
                            root_offsets: Sequence | None = None,
                            shift_last_factor: bool = True) -> StructureFn:
    """Factorized structure polynomial.

    The last factor is read as (x + u - (E + hbar omega)/(2 hbar omega)); set
    ``shift_last_factor=False`` for the variant without the + u shift.
    ``root_offsets`` perturbs individual roots (mutation testing).
    """
    if mq is None:
        mq = m_values(ce)
    roots = factored_roots(u, energy, ce, mq)
    if root_offsets is not None:
        roots = [r + d for r, d in zip(roots, root_offsets)]
    exact = all(isinstance(r, Fraction) for r in roots) and isinstance(u, Fraction)
    uu = u if exact else to_mpf(u)
    lead = _lead(ce)
    coeffs = [lead if exact else to_mpf(lead)]
    for idx, root in enumerate(roots):
        offset = uu if (shift_last_factor or idx < 5) else (uu * 0)
        coeffs = poly_mul(coeffs, [offset - root, coeffs[0] * 0 + 1])
    return StructureFn(coeffs=tuple(coeffs), provenance="factored",
                       u=u, energy=energy, ce=ce, mq=mq)


def structure_fn_raw(x: Number, u: Number, energy: Number, ce: CentralEigs) -> Number:
    return structure_poly_raw(u, energy, ce)(x)


def structure_fn_factored(x: Number, u: Number, energy: Number, ce: CentralEigs,
                          shift_last_factor: bool = True) -> Number:
    return structure_poly_factored(u, energy, ce,
                                   shift_last_factor=shift_last_factor)(x)


# -- finite unirreps -------------------------------------------------------------


_SIGNS = ((1, 1), (1, -1), (-1, 1), (-1, -1))


@dataclass(frozen=True)
class UnirrepSolution:
    """One (set, sign) branch of the finite-representation constraints.

    The verdict is decided when the branch is solved; u, the energy and the
    values of Phi at x = 0..p+1 are computed on first read.
    """

    set_id: int
    eps1: int
    eps2: int
    p: int
    admissible: bool
    failing_x: int | None
    exact: bool
    ce: CentralEigs = field(repr=False, compare=False)
    mq: MQuantum = field(repr=False, compare=False)

    @cached_property
    def _closed_form(self) -> tuple[Number, Number]:
        return set_solution(self.set_id, self.eps1, self.eps2, self.p, self.ce, self.mq)

    @property
    def u(self) -> Number:
        return self._closed_form[0]

    @property
    def energy(self) -> Number:
        return self._closed_form[1]

    @cached_property
    def phi_values(self) -> tuple:
        """Phi(x) = lead * prod_i (x + u - r_i) at x = 0..p+1, as Fractions when
        m1 and m2 are rational and as 60-digit mpf otherwise."""
        lead, hw = _lead(self.ce), self.ce.hbar * self.ce.omega
        m1, m2 = self.mq.m1, self.mq.m2
        if not self.exact:
            lead, hw, m1, m2 = to_mpf(lead), to_mpf(hw), to_mpf(m1), to_mpf(m2)
        shifts = [self.u - r for r in _m_roots(m1, m2) + _energy_roots(self.energy, hw)]
        factor_values = _factor_values_exact if self.exact else _factor_values_mpf
        return factor_values(shifts, lead, range(self.p + 2))

    def record(self) -> dict:
        ce = self.ce
        return {
            "N": ce.N, "n": ce.n, "c1": str(ce.c1), "c2": str(ce.c2),
            "p": self.p, "l_n": ce.l_n, "l_Nn": ce.l_Nn,
            "set": self.set_id, "eps1": self.eps1, "eps2": self.eps2,
            "u": _num_str(self.u), "energy": _num_str(self.energy),
            "admissible": self.admissible,
            "failing_x": self.failing_x,
        }


def _num_str(value: Number) -> str:
    if isinstance(value, Fraction):
        return str(value)
    return mp.nstr(value, 17)


def set_solution(set_id: int, eps1: int, eps2: int, p: int,
                 ce: CentralEigs, mq: MQuantum) -> tuple[Number, Number]:
    """Closed-form (u, E) for one of the three solution sets."""
    s = eps1 * mq.m1 + eps2 * mq.m2
    hw = ce.hbar * ce.omega
    if not isinstance(s, Fraction):
        hw = to_mpf(hw)
    energy = 2 * hw * (p + 1) + hw * s / 2
    if set_id == 1:
        u = (-energy + hw) / (2 * hw)
    elif set_id == 2:
        u = (energy + hw) / (2 * hw)
    elif set_id == 3:
        u = (2 + s) / 4 if isinstance(s, Fraction) else (2 + s) / mp.mpf(4)
    else:
        raise ValueError(f"unknown set id {set_id}")
    return u, energy


def solve_unirreps(p: int, ce: CentralEigs) -> list[UnirrepSolution]:
    """All 12 (set, sign) branches with their structure-function positivity status.

    Every verdict is exact and computed in integers, for rational and
    irrational m1, m2 alike.  With s = eps1 m1 + eps2 m2, E / (2 hbar omega)
    = p + 1 + s/4, so E > 0 exactly when 4 (p + 1) + s > 0.  u, the four
    m-roots (2 +- m1 +- m2)/4 and the two energy roots each read 1/2 + an
    integer + (k1 m1 + k2 m2)/4, so each factor x + u - r_i of
    Phi(x) = lead * prod_i (x + u - r_i) is x + n_i + (K1 m1 + K2 m2)/4 with
    an integer n_i and K1, K2 in {-2, 0, 2}.  ``_placements`` puts its root
    among the integers once per distinct (K1, K2).  Since eta = 24576 hbar^18
    omega^2 = -lead / 512 > 0, Phi / eta = -512 prod_i (x + u - r_i) vanishes
    at an integer x that is a root and is otherwise positive exactly when an
    odd number of roots lie above x.  u, E and Phi are not built here.
    """
    if p < 0:
        raise ValueError("p must be non-negative")
    mq = m_values(ce)
    exact = mq.exact
    m1_sq, m2_sq = mq.m1_squared, mq.m2_squared
    den = math.lcm(m1_sq.denominator, m2_sq.denominator)
    # m_i = sqrt(rad_i) / den with integer radicands
    rad1 = m1_sq.numerator * (den // m1_sq.denominator) * den
    rad2 = m2_sq.numerator * (den // m2_sq.denominator) * den
    placed = _placements(rad1, rad2, den)
    q = p + 1
    energy_positive = {eps: sqrt_sum_sign(4 * q * den, eps[0], rad1, eps[1], rad2) > 0
                       for eps in _SIGNS}
    out: list[UnirrepSolution] = []
    for set_id in (1, 2, 3):
        for eps1, eps2 in _SIGNS:
            if not energy_positive[eps1, eps2]:
                admissible, failing = False, None
            else:
                # u and the six roots r_i as (n, k1, k2) in 1/2 + n + (k1 m1 + k2 m2)/4
                un, uk1, uk2 = ((-q, -eps1, -eps2) if set_id == 1
                                else (q if set_id == 2 else 0, eps1, eps2))
                factors = [(0, a, b) for a, b in _SIGNS] + [(-q, -eps1, -eps2), (q, eps1, eps2)]
                roots = []
                for n, k1, k2 in factors:
                    floor, integral = placed[uk1 - k1, uk2 - k2]
                    # x + u - r_i vanishes at x = n - un - (K1 m1 + K2 m2)/4
                    roots.append((n - un - floor, integral))
                admissible, failing = _verdict(roots, p)
            out.append(UnirrepSolution(
                set_id=set_id, eps1=eps1, eps2=eps2, p=p, admissible=admissible,
                failing_x=failing, exact=exact, ce=ce, mq=mq))
    return out


def _placements(rad1: int, rad2: int, den: int) -> dict[tuple[int, int], tuple[int, bool]]:
    """(floor(t), t is an integer) for t = (K1 m1 + K2 m2)/4 and K1, K2 in {-2, 0, 2},
    where m_i = sqrt(rad_i) / den.

    isqrt bounds 4 den t to [low, low + |K1| + |K2|], an interval no longer
    than 4 den, so floor(t) is low // (4 den) or one more; one or two exact
    signs settle which, and whether t equals it.  The placement of -t follows
    from that of t.
    """
    step = 4 * den
    root1, root2 = math.isqrt(rad1), math.isqrt(rad2)
    placed = {(0, 0): (0, True)}
    for k1, k2 in ((2, 0), (0, 2), (2, 2), (2, -2)):
        low = k1 * root1 + k2 * root2 + min(k1, 0) + min(k2, 0)
        floor = low // step + 1
        sign = sqrt_sum_sign(-step * floor, k1, rad1, k2, rad2)
        if sign < 0:
            floor -= 1
            sign = sqrt_sum_sign(-step * floor, k1, rad1, k2, rad2)
        placed[k1, k2] = floor, sign == 0
        placed[-k1, -k2] = -floor - (sign != 0), sign == 0
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


def _factor_values_mpf(shifts: list, lead: mp.mpf, points: range) -> tuple:
    """lead * prod_i (x + shift_i) per point x."""
    values = []
    for x in points:
        s1, s2, s3, s4, s5, s6 = (x + s for s in shifts)
        values.append(lead * (s1 * s2 * s3 * s4 * s5 * s6))
    return tuple(values)


def _factor_values_exact(shifts: list, lead: Fraction, points: range) -> tuple:
    """The exact twin of ``_factor_values_mpf``, in integer arithmetic.

    Over one common denominator D the shifts are a_i / D, so
    prod = P(x) / D^6 with the integer P(x) = prod_i (x D + a_i), and each
    value is the one Fraction lead * P(x) / D^6.
    """
    den = math.lcm(*(s.denominator for s in shifts))
    a1, a2, a3, a4, a5, a6 = (s.numerator * (den // s.denominator) for s in shifts)
    lead_num, lead_den = lead.numerator, lead.denominator * den ** 6
    values = []
    for x in points:
        xd = x * den
        prod = (xd + a1) * (xd + a2) * (xd + a3) * (xd + a4) * (xd + a5) * (xd + a6)
        values.append(Fraction(lead_num * prod, lead_den))
    return tuple(values)


# -- harmonic (c1 = c2 = 0) limit -------------------------------------------------


def signed_m(block_dim: int, l: int) -> int:
    """Signed branch value 2l + m - 2 whose magnitude is the c = 0 quantum m."""
    return 2 * l + block_dim - 2


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

    For one-coordinate blocks the parity label l in {0, 1} selects the sign
    branch eps = sign(2l + m - 2) of the corresponding set-1 solution.
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
                    s = signed_m(dims[0], l_n) + signed_m(dims[1], l_nn)
                    energy = 2 * hbar * omega * (p + 1 + Fraction(s, 4))
                    expected = hbar * omega * (l + Fraction(N, 2))
                    checks.append(HarmonicCheck(
                        n=n, l=l, p=p, l_n=l_n, l_Nn=l_nn,
                        energy=energy, expected=expected,
                        passed=energy == expected))
    return checks


# -- deformed-oscillator realization (diagonal data) -------------------------------


def realization_a(x_plus_u: Number, ce: CentralEigs) -> Number:
    """Diagonal value of the first generator in the number-operator realization."""
    h2 = ce.hbar ** 2
    if isinstance(x_plus_u, Fraction):
        return h2 * (x_plus_u ** 2 - Fraction((ce.N - 2) ** 2, 16))
    return to_mpf(h2) * (x_plus_u ** 2 - mp.mpf((ce.N - 2) ** 2) / 16)


def realization_b_diag(x_plus_u: Number, ce: CentralEigs) -> Number:
    """Diagonal part of the second generator in the same realization."""
    N, n = ce.N, ce.n
    h2 = ce.hbar ** 2
    numer = (8 * ce.c1 - 8 * ce.c2 + 4 * ce.j2 - 4 * ce.k2
             + (4 * N - 8 * n + 2 * n * N - N * N) * h2)
    if isinstance(x_plus_u, Fraction):
        return numer / (16 * h2 * (x_plus_u ** 2 - Fraction(1, 4)))
    return to_mpf(numer) / (16 * to_mpf(h2) * (x_plus_u ** 2 - mp.mpf("0.25")))


def rho_squared_shape(x_plus_u: Number) -> Number:
    """x-dependence of the squared ladder normalization rho(x)^2.

    The printed closed form 1/(3*2^20 hbar^16 (x+u)(1+x+u)(1+2(x+u))^2) only
    closes the algebra when read as rho^2; the constant prefactor is recovered
    independently by recursion_consistency below.
    """
    one = 1 if isinstance(x_plus_u, Fraction) else mp.mpf(1)
    return one / (x_plus_u * (1 + x_plus_u) * (1 + 2 * x_plus_u) ** 2)


def recursion_consistency(p: int, ce: CentralEigs, set_id: int = 1,
                          eps: tuple[int, int] = (1, 1)) -> tuple[bool, list]:
    """Fock-diagonal consistency of the second quadratic relation.

    Realizing the algebra with the diagonal A(x), the diagonal of the second
    quadratic relation becomes a two-term recursion tying Phi(x+1) to Phi(x)
    through rho(x)^2 = rho0^2 * rho_squared_shape(x+u).  The energy factor on
    the printed diagonal of the ladder generator is restored (it is forced by
    the first quadratic relation's diagonal).  rho0^2 is solved point by
    point; success means it is constant in x, positive, and equal to the
    bookkeeping constant 1/(3*2^20 hbar^16).

    Returns (ok, solved rho0^2 values).
    """
    mq = m_values(ce)
    u, energy = set_solution(set_id, eps[0], eps[1], p, ce, mq)
    phi = structure_poly_factored(u, energy, ce, mq)
    exact = all(isinstance(c, Fraction) for c in phi.coeffs)

    def nm(v):
        return v if exact else to_mpf(v)

    h2 = nm(ce.hbar ** 2)
    w2 = nm(ce.omega ** 2)
    j2k2 = nm(ce.j2 + ce.k2)
    coup = nm(ce.c1 + ce.c2 - Fraction(ce.n * (ce.N - ce.n), 4) * ce.hbar ** 2)
    e_val = nm(energy)
    u_val = nm(u)

    def delta_a(y):
        return realization_a(y + 1, ce) - realization_a(y, ce)

    ratios = []
    for x in range(0, p + 1):
        y = u_val + x
        phi_x = phi(nm(Fraction(x)) if exact else mp.mpf(x))
        phi_x1 = (phi(nm(Fraction(x + 1)) if exact else mp.mpf(x + 1))
                  if x + 1 <= p + 1 else phi_x * 0)
        denom = (rho_squared_shape(y) * phi_x1 * (delta_a(y) + h2)
                 - rho_squared_shape(y - 1) * phi_x * (delta_a(y - 1) - h2))
        g = e_val * realization_b_diag(y, ce)
        rhs = (h2 * e_val ** 2 - h2 * g ** 2 - 8 * h2 * w2 * realization_a(y, ce)
               + 2 * h2 * w2 * j2k2 + 4 * h2 * w2 * coup)
        if exact:
            if denom == 0:
                continue
            ratios.append(rhs / denom)
        else:
            if abs(denom) < ZERO_TOL:
                continue
            ratios.append(rhs / denom)
    if len(ratios) < 2:
        return False, ratios
    expected = Fraction(1, 3 * 2 ** 20) / ce.hbar ** 16
    first = ratios[0]
    if exact:
        ok = all(r == first for r in ratios) and first == expected
    else:
        exp_mp = to_mpf(expected)
        ok = (all(abs(r - first) <= ZERO_TOL * (1 + abs(first)) for r in ratios)
              and abs(first - exp_mp) <= ZERO_TOL * (1 + abs(exp_mp)))
    return ok, ratios
