"""Deformed-oscillator realization: structure functions, unirreps, algebraic spectrum.

The structure function has two independent forms: ``structure_poly_raw``
derives it, like A(x), b(x) and the ladder recursion, from the relation table
of ``singosc.relations`` that ``opalg.verify`` proves (``Realization``), and
``structure_poly_factored`` is the paper's factorization, whose six roots and
leading coefficient encode the finite-representation constraints.  Both are
functions of x, of degree 6, so agreeing at x = 0..6 makes them equal
(``structure_functions_agree``).  Both, and the recursion, are exact in
Q(sqrt(m1^2), sqrt(m2^2)) (``exact.Biquadratic``), so the agreement checks
test equality, for irrational m too.  ``verify_spectrum`` hands them, with the
c = 0 counts and energies, to ``report.run_checks`` as one check table.

The unirrep solver decides every verdict in integers, without the field, from
what each ``CentralEigs`` caches: m1^2 and m2^2 (m1 and m2 on first read) and
its branch table, which places each root of Phi's six linear factors, and
s/2 = (eps1 m1 + eps2 m2)/2, among the integers by exact floors and signs
(``exact.sqrt_sum_floor``, ``exact.sqrt_sum_sign``).  Per p the solver only
shifts those by multiples of p + 1; u, E and Phi are computed when a solution
is read.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from typing import Callable, NamedTuple, Sequence

from . import relations
from .exact import Biquadratic, exact_sqrt, sqrt_sum_floor, sqrt_sum_sign
from .levels import LevelTable, enumerate_levels
from .report import VerificationReport, run_checks


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
    def m1_squared(self) -> Fraction:
        """m1^2 with hbar^2 m1^2 = 8 c1 + 4 J2 + hbar^2 (n-2)^2; never negative,
        as c1 >= 0 and l_n (l_n + n - 2) >= 0 on every label accepted."""
        return (8 * self.c1 + 4 * self.j2) / self.hbar ** 2 + (self.n - 2) ** 2

    @cached_property
    def m2_squared(self) -> Fraction:
        """The block-2 twin of ``m1_squared``."""
        return (8 * self.c2 + 4 * self.k2) / self.hbar ** 2 + (self.N - self.n - 2) ** 2

    @cached_property
    def _m_pair(self) -> tuple[Biquadratic, Biquadratic]:
        return Biquadratic.sqrt_pair(self.m1_squared, self.m2_squared)

    @property
    def m1(self) -> Biquadratic:
        """m1 >= 0; m1 and m2 are built together, in one field, on first read."""
        return self._m_pair[0]

    @property
    def m2(self) -> Biquadratic:
        return self._m_pair[1]

    @cached_property
    def exact(self) -> bool:
        """Whether m1 and m2 are both rational."""
        return (exact_sqrt(self.m1_squared) is not None
                and exact_sqrt(self.m2_squared) is not None)

    @cached_property
    def branches(self) -> tuple:
        """The placement table of ``solve_unirreps``, built by ``_branch_table``."""
        return _branch_table(self)

    @cached_property
    def quarters(self) -> dict[tuple[int, int], Biquadratic]:
        """s/4 = (eps1 m1 + eps2 m2)/4 per sign pair (eps1, eps2)."""
        m1, m2 = self.m1, self.m2
        return {(eps1, eps2): (eps1 * m1 + eps2 * m2) / 4 for eps1, eps2 in _SIGNS}

    @cached_property
    def _energies(self) -> dict[tuple[int, int, int], Biquadratic]:
        return {}

    @cached_property
    def _energy_texts(self) -> dict[tuple[int, int, int], str]:
        return {}

    def energy(self, p: int, eps1: int, eps2: int) -> Biquadratic:
        """E = 2 hbar omega (p + 1 + s/4), built once per (p, eps1, eps2): the
        three solution sets of one (p, eps1, eps2) share it."""
        key = p, eps1, eps2
        if key not in self._energies:
            hw = self.hbar * self.omega
            self._energies[key] = (p + 1 + self.quarters[eps1, eps2]) * (2 * hw)
        return self._energies[key]

    def energy_text(self, p: int, eps1: int, eps2: int) -> str:
        """The printed form of ``energy(p, eps1, eps2)``, also built once."""
        key = p, eps1, eps2
        if key not in self._energy_texts:
            self._energy_texts[key] = _num_str(self.energy(*key), self.exact)
        return self._energy_texts[key]


def m_values(ce: CentralEigs) -> CentralEigs:
    """``ce``, which holds m1, m2 and their squares; the benchmark reads them here."""
    return ce


# -- the structure function ---------------------------------------------------------


def structure_functions_agree(phi: Callable, other: Callable) -> bool:
    """Whether two structure functions are equal: both are polynomials of
    degree 6 in x, so they are exactly when they agree at x = 0..6."""
    return all(phi(x) == other(x) for x in range(7))


def structure_poly_raw(u: Biquadratic | Fraction, energy: Biquadratic | Fraction,
                       ce: CentralEigs) -> Callable:
    """x -> Phi(x + u), the structure function of the proved relations
    (``Realization.phi``)."""
    phi = Realization(energy, ce).phi
    return lambda x: phi(x + u)


def factored_roots(energy: Biquadratic | Fraction, ce: CentralEigs) -> list:
    """The six root locations of x + u in the factorized structure function: the
    four (2 +- m1 +- m2)/4, which depend on the central elements only (the m
    of ``ce``), and the two roots (hbar omega -+ E)/(2 hbar omega) of the
    energy factor."""
    m1, m2, hw = ce.m1, ce.m2, ce.hbar * ce.omega
    return [(2 + m1 + m2) / 4, (2 - m1 + m2) / 4, (2 + m1 - m2) / 4, (2 - m1 - m2) / 4,
            (-energy + hw) / (2 * hw), (energy + hw) / (2 * hw)]


def structure_poly_factored(u: Biquadratic | Fraction, energy: Biquadratic | Fraction,
                            ce: CentralEigs,
                            root_offsets: Sequence | None = None) -> Callable:
    """x -> lead * prod_i (x + u - r_i), the factorized structure function, with
    lead = -12582912 hbar^18 omega^2 and the roots r_i of ``factored_roots``.

    The last factor is read as (x + u - (E + hbar omega)/(2 hbar omega)).
    ``root_offsets`` perturbs individual roots (mutation testing).
    """
    roots = factored_roots(energy, ce)
    if root_offsets is not None:
        roots = [r + d for r, d in zip(roots, root_offsets)]
    lead, shifts = -12582912 * ce.hbar ** 18 * ce.omega ** 2, [u - root for root in roots]
    return lambda x: math.prod((x + shift for shift in shifts), start=lead)


# -- finite unirreps -------------------------------------------------------------


_SIGNS = ((1, 1), (1, -1), (-1, 1), (-1, -1))


class UnirrepSolution(NamedTuple):
    """One (set, sign) branch of the finite-representation constraints.

    The verdict is decided when the branch is solved; u and the energy are
    read from ``set_solution``, which takes E from those ``ce`` keeps.
    """

    set_id: int
    eps1: int
    eps2: int
    p: int
    admissible: bool
    failing_x: int | None
    exact: bool
    ce: CentralEigs

    @property
    def u(self) -> Biquadratic:
        return set_solution(self.set_id, self.eps1, self.eps2, self.p, self.ce)[0]

    @property
    def energy(self) -> Biquadratic:
        return set_solution(self.set_id, self.eps1, self.eps2, self.p, self.ce)[1]

    def record(self) -> dict:
        ce = self.ce
        return {
            "N": ce.N, "n": ce.n, "c1": str(ce.c1), "c2": str(ce.c2),
            "p": self.p, "l_n": ce.l_n, "l_Nn": ce.l_Nn,
            "set": self.set_id, "eps1": self.eps1, "eps2": self.eps2,
            "u": _num_str(self.u, self.exact),
            "energy": ce.energy_text(self.p, self.eps1, self.eps2),
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
    for set 3.  s/4 and E are those that ``ce`` keeps."""
    quarter = ce.quarters[eps1, eps2]
    energy = ce.energy(p, eps1, eps2)
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
    compares q = p + 1 with each branch's first q of positive energy and
    places its roots at that q (``_verdict``).  Since eta = 24576 hbar^18
    omega^2 = -lead / 512 > 0, Phi / eta = -512 prod_i (x + u - r_i) vanishes
    at an integer x that is a root and is otherwise positive exactly when an
    odd number of roots lie above x.  u, E and Phi are not built here.
    """
    if p < 0:
        raise ValueError("p must be non-negative")
    q = p + 1
    exact = ce.exact
    out: list[UnirrepSolution] = []
    for set_id, eps1, eps2, q_min, roots in ce.branches:
        admissible, failing = _verdict(roots, q) if q >= q_min else (False, None)
        out.append(UnirrepSolution(set_id, eps1, eps2, p, admissible, failing, exact, ce))
    return out


def _branch_table(ce: CentralEigs) -> tuple:
    """For each (set, eps1, eps2), in the order of ``solve_unirreps``: the tuple
    (set, eps1, eps2, q_min, roots of Phi), none of which depends on p.

    With s = eps1 m1 + eps2 m2, E / (2 hbar omega) = q + s/4, so E > 0 exactly
    when s/2 > -2q: when floor(s/2) > -2q, or floor(s/2) = -2q and s/2 is not
    an integer, which holds from q = q_min on.

    u, the four m-roots (2 +- m1 +- m2)/4 and the two energy roots each read
    1/2 + j q + (k1 m1 + k2 m2)/4 with q = p + 1 and j in {-1, 0, 1}, so each
    factor x + u - r_i of Phi(x) = lead * prod_i (x + u - r_i) vanishes at
    x = (j_i - j_u) q - t with t = (K1 m1 + K2 m2)/4 and K1, K2 in {-2, 0, 2}.
    A root is held as (slope, offset, is an integer), its ceiling being
    slope q + offset; ``_placements`` places each t among the integers.
    """
    m1_sq, m2_sq = ce.m1_squared, ce.m2_squared
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
            half_s_floor, half_s_integral = placed[2 * eps1, 2 * eps2]
            q_min = -half_s_floor // 2 + 1 if half_s_integral else -(half_s_floor // 2)
            table.append((set_id, eps1, eps2, q_min, tuple(roots)))
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


def _verdict(roots: tuple, q: int) -> tuple[bool, int | None]:
    """(admissible, failing x) at q = p + 1 of a branch with E > 0, from the
    roots of Phi as (slope, offset, is an integer), their ceilings being
    slope q + offset: Phi must vanish at x = 0 and x = q, and Phi / eta, whose
    sign is that of (-1)^(roots above x + 1), be positive on 1..p.

    One pass over the roots finds the zeros, the roots above x = 1 and the
    ceilings in 2..p.  The count above x drops by the number of ceilings
    equal to x, so Phi / eta changes sign at an x of 2..p exactly when an odd
    number of ceilings equal x; the first x of 1..p to fail is 1 when the count
    above 1 is even, else the first zero or sign change."""
    zero_0 = zero_q = False
    above = 0
    first = q  # the first zero in 1..p, q for none
    inner = []
    for slope, offset, integral in roots:
        ceil = slope * q + offset
        if ceil > 1:
            above += 1
            if ceil < q:
                inner.append(ceil)
        if integral:
            if ceil == 0:
                zero_0 = True
            elif ceil == q:
                zero_q = True
            elif 0 < ceil < first:
                first = ceil
    if not zero_0:
        return False, 0
    if not zero_q:
        return False, q
    if q > 1 and not above % 2:
        return False, 1
    for ceil in inner:
        if ceil < first and inner.count(ceil) % 2:
            first = ceil
    return (True, None) if first == q else (False, first)


# -- deformed-oscillator realization ----------------------------------------------


class Realization:
    """Daskaloyannis's deformed-oscillator realization of Q(3) where H = E.

    With H, J2 and K2 at their values, the relations of ``singosc.relations``
    read [A, C] = gamma {A, B} + eps B + zeta and [B, C] = -gamma' B^2 + z A
    + eta, and the Casimir is the number K.  On the number states, y = N + u,
    A = A(y) and B = b(y) + b^+ rho(y) + rho(y) b realize them for
    A(y) = (gamma/2)(y^2 - 1/4 - eps/gamma^2), b(y) = -zeta/(2 gamma A(y) + eps)
    and rho(y)^2 = rho0^2 ``rho_squared_shape(y)``, rho0^2 = 1/(3 2^12 gamma^8).
    The diagonals of the Casimir and of [B, C] then fix rho(y - 1)^2 Phi(y),
    consistently under y -> y + 1, with w = 2y - 1 and

        Phi(y) = [256 zeta^2 - 64 gamma^2 K w^2 + 16 gamma eta w^2 (gamma^2 w^2 - 4 eps)
                  + z w^2 ((gamma^2 w^2 - 4 eps)^2 - 4 gamma^4 w^2)] / (256 gamma^4 rho0^2).
    """

    def __init__(self, energy: Biquadratic | Fraction, ce: CentralEigs):
        args = (ce.c1, ce.c2, ce.omega ** 2)
        consts = relations.QuadraticConstants.for_dims(ce.N, ce.n)
        values = {None: 1, "1": 1, "H": energy, "J2": ce.j2, "K2": ce.k2,
                  "H2": energy * energy, "J2H": ce.j2 * energy, "K2H": ce.k2 * energy}
        ac, bc, k = (_at_center(words, values, ce.hbar) for words in (
            relations.quadratic_ac_words(consts, *args),
            relations.quadratic_bc_words(consts, *args),
            relations.casimir_central_words(ce.N, ce.n, *args)))
        self.gamma, self.eps, self.zeta = ac["A", "B"], ac["B",], ac[()]
        self.gamma_b, self.z, self.eta, self.casimir = -bc["B2",], bc["A",], bc[()], k[()]
        self.rho0_squared = 1 / (3 * 2 ** 12 * self.gamma ** 8)
        g, e, z, g2 = self.gamma, self.eps, self.z, self.gamma ** 2
        scale = 1 / (256 * g2 * g2 * self.rho0_squared)
        # Phi's coefficients in w^2, lowest first
        self._phi_cubic = tuple(c * scale for c in (
            256 * self.zeta ** 2,
            -64 * g2 * self.casimir - 64 * g * e * self.eta + 16 * z * e * e,
            16 * g * g2 * self.eta - z * (8 * g2 * e + 4 * g2 * g2),
            z * g2 * g2))

    def a(self, y):
        return self.gamma / 2 * (y * y - Fraction(1, 4)) - self.eps / (2 * self.gamma)

    def b(self, y):
        return -self.zeta / (2 * self.gamma * self.a(y) + self.eps)

    def phi(self, y):
        """Phi(y), the cubic in w^2 = (2y - 1)^2 of the class docstring."""
        w2 = (2 * y - 1) ** 2
        c0, c1, c2, c3 = self._phi_cubic
        return ((c3 * w2 + c2) * w2 + c1) * w2 + c0


def _at_center(words: list, values: dict, hbar: Fraction) -> dict:
    """The sum of graded ``words`` with the central elements at ``values``, by the
    factors left over: ("A", "B"), ("B",), ... and () for the central part."""
    out: dict = {}
    for power, scale, *names in words:
        left = tuple(name for name in names if name not in values)
        out[left] = out.get(left, 0) + math.prod(
            (values[name] for name in names if name in values), start=hbar ** power * scale)
    return out


def rho_squared_shape(y: Biquadratic) -> Biquadratic:
    """rho(y)^2 / rho0^2 = 1/(y (1 + y) (1 + 2y)^2) of ``Realization``."""
    return 1 / (y * (1 + y) * (1 + 2 * y) ** 2)


def recursion_consistency(p: int, ce: CentralEigs, set_id: int = 1,
                          eps: tuple[int, int] = (1, 1)) -> tuple[bool, list]:
    """Fock-diagonal consistency of the second quadratic relation.

    In the ``Realization`` the diagonal of [B, C] on the state x, y = x + u, is
    the two-term recursion

        rho(y)^2 Phi(x+1) (A(y+1) - A(y) + gamma'/2)
            - rho(y-1)^2 Phi(x) (A(y) - A(y-1) - gamma'/2) = (eta + z A(y) - gamma' b(y)^2)/2.

    Phi is the paper's factorized form, so the recursion ties its roots to the
    proved relations independently of ``structure_poly_raw``.  rho0^2 is solved
    point by point, skipping the points where a term has a pole (y in {0, +-1/2,
    +-1}) or the left factor vanishes; returns (ok, the solved values), ok when
    there are at least two and each equals 1/(3 2^12 gamma^8).
    """
    u, energy = set_solution(set_id, eps[0], eps[1], p, ce)
    phi = structure_poly_factored(u, energy, ce)
    alg = Realization(energy, ce)
    half = alg.gamma_b / 2
    ratios = []
    for x in range(0, p + 1):
        y = u + x
        try:
            denom = (rho_squared_shape(y) * phi(x + 1) * (alg.a(y + 1) - alg.a(y) + half)
                     - rho_squared_shape(y - 1) * phi(x) * (alg.a(y) - alg.a(y - 1) - half))
            ratios.append((alg.eta + alg.z * alg.a(y) - alg.gamma_b * alg.b(y) ** 2) / 2 / denom)
        except ZeroDivisionError:
            continue
    if len(ratios) < 2:
        return False, ratios
    return all(r == alg.rho0_squared for r in ratios), ratios


# -- the spectrum check table ------------------------------------------------------


def _physical_branches(table: LevelTable):
    """(p, ce, (eps1, eps2), level) for each (p, l_n, l_Nn) label of ``table``
    and the level holding it, with one ``CentralEigs`` per (l_n, l_Nn), on the
    set-1 branch that separation of variables gives: eps_i = + when c_i > 0,
    else the sign of 2 l_i + d_i - 2, with + at 0."""
    branches: dict[tuple[int, int], tuple] = {}
    for level in table.levels:
        for p, l_n, l_nn, _ in level.labels:
            if (l_n, l_nn) not in branches:
                ce = CentralEigs(table.N, table.n, l_n, l_nn, table.c1, table.c2,
                                 table.hbar, table.omega)
                branches[l_n, l_nn] = ce, tuple(
                    1 if c > 0 or 2 * l + d - 2 >= 0 else -1
                    for c, l, d in ((ce.c1, l_n, ce.n), (ce.c2, l_nn, ce.N - ce.n)))
            yield (p, *branches[l_n, l_nn], level)


# Each check below yields one verdict per case, True (holds), False (fails) or
# None (skipped), from the c = 0 tables of every split, their physical branches
# or those of the table at the given couplings.

def _oscillator_counts(harmonic: list[LevelTable]):
    """At c = 0 the level E = hbar omega (l + N/2) of each split has the
    degeneracy C(l + N - 1, N - 1) of the isotropic oscillator, for each l
    up to the cut."""
    for split in harmonic:
        hw, ground = split.hbar * split.omega, Fraction(split.N, 2)
        counted = {level.energy_exact / hw - ground: level.degeneracy for level in split.levels}
        for l in range(math.floor(split.e_cut / hw - ground) + 1):
            yield counted.get(l, 0) == math.comb(l + split.N - 1, split.N - 1)


def _harmonic_energies(branches: list):
    """At c = 0 each label's energy is hbar omega (2p + l_n + l_Nn + N/2)."""
    for p, ce, eps, _ in branches:
        l = 2 * p + ce.l_n + ce.l_Nn
        yield set_solution(1, *eps, p, ce)[1] == ce.hbar * ce.omega * (l + Fraction(ce.N, 2))


def _energies(branches: list):
    """The algebraic energy of each label is the exact energy of its level."""
    for p, ce, eps, level in branches:
        yield set_solution(1, *eps, p, ce)[1] == level.energy_exact


def _structure_functions(branches: list):
    """The raw and factorized structure functions agree at each label."""
    for p, ce, eps, _ in branches:
        u, energy = set_solution(1, *eps, p, ce)
        yield structure_functions_agree(structure_poly_raw(u, energy, ce),
                                        structure_poly_factored(u, energy, ce))


def _recursions(branches: list):
    """The ladder recursion holds at each label; a label with fewer than two
    usable points (p = 0, or poles), which ``recursion_consistency`` fails, is
    skipped."""
    for p, ce, eps, _ in branches:
        ok, ratios = recursion_consistency(p, ce, 1, eps)
        yield ok if len(ratios) >= 2 else None


# Every spectrum check, in run order: its name, what one case is, its verdicts
# and the key of their input in ``verify_spectrum``.
_SPECTRUM_CHECKS = (
    ("oscillator-count[c=0]", "(n, l) pairs", _oscillator_counts, "harmonic"),
    ("harmonic-limit[c=0]", "(n, p, l_n, l_Nn) labels", _harmonic_energies, "harmonic branches"),
    ("energies", "(p, l_n, l_Nn) labels", _energies, "branches"),
    ("structure-functions", "(p, l_n, l_Nn) labels", _structure_functions, "branches"),
    ("recursion", "(p, l_n, l_Nn) labels", _recursions, "branches"),
)


def verify_spectrum(N: int, n: int, c1: Fraction | int = 0, c2: Fraction | int = 0,
                    e_cut: Fraction | int = 10, hbar: Fraction | int = 1,
                    omega: Fraction | int = 1) -> VerificationReport:
    """Every check of ``_SPECTRUM_CHECKS`` up to ``e_cut``, run by ``run_checks``:
    the c = 0 ones over every split of N, the others over the labels of
    ``enumerate_levels`` at the split and couplings given, each on its physical
    branch.  Each table's branches are listed once, for every check to share.
    A record's ``residual_terms`` counts its failing cases and its ``detail``
    the cases checked (and skipped); a check of no case fails.
    """
    table = enumerate_levels(N, n, c1, c2, e_cut, hbar, omega)
    if not table.levels:
        raise ValueError(f"no level lies at or below e_cut {e_cut}")
    harmonic = [enumerate_levels(N, split, e_cut=e_cut, hbar=hbar, omega=omega)
                for split in range(1, N)]
    inputs = {"harmonic": harmonic,
              "harmonic branches": [b for split in harmonic for b in _physical_branches(split)],
              "branches": list(_physical_branches(table))}

    def check(verdicts, cases, read):
        tally = Counter(verdicts(inputs[read]))
        checked, failed = tally[True] + tally[False], tally[False]
        skipped = f", {tally[None]} skipped" if tally[None] else ""
        return checked > 0 and not failed, failed, f"{checked} {cases} checked{skipped}"

    return run_checks(
        {"family": "spectrum", "N": N, "n": n, "c1": str(table.c1), "c2": str(table.c2)},
        ((name, partial(check, verdicts, cases, read))
         for name, cases, verdicts, read in _SPECTRUM_CHECKS))
