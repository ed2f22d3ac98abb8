"""Closed-form radial solutions and an independent finite-difference eigensolver.

Each component of the model is a singular oscillator in its own dimension m:

    R'' + (m-1)/r R' + (2E' - w'^2 r^2 - (2c' + l(l+m-2))/r^2) R = 0

with c' = c/hbar^2, w' = omega/hbar, E' = E/hbar^2.  The closed form gives
E = 2 hbar omega (Nr + alpha/2 + 1/2) with alpha = sqrt((l+(m-2)/2)^2 + 2c').

The FD solver is a genuine oracle: it never uses the spectrum formula.  After
the standard substitution R = r^{-(m-1)/2} chi the effective potential picks
up ((m-1)(m-3)/4)/(2r^2); for fractional indicial exponents a plain Dirichlet
grid cannot represent the regular branch at the origin (the operator is in
the limit-circle regime for alpha < 1), so the default scheme factors out the
indicial power r^{alpha+1/2} and discretizes the remaining smooth problem in
conservative form with weight r^{2 alpha + 1}.  The literal chi-grid scheme
is kept as an option for the smooth cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .qalg import exact_sqrt

Rational = Fraction | int


@dataclass(frozen=True)
class ComponentSpec:
    """One singular-oscillator component: dimension, coupling, angular number."""

    m: int
    c: Fraction = Fraction(0)
    l: int = 0
    hbar: Fraction = Fraction(1)
    omega: Fraction = Fraction(1)

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("component dimension must be >= 1")
        if self.l < 0:
            raise ValueError("angular number must be non-negative")
        if self.m == 1 and self.l != 0:
            raise ValueError("a one-coordinate component is solved in its l = 0 form")
        for name in ("c", "hbar", "omega"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        if self.c < 0:
            raise ValueError("coupling must be non-negative")
        if self.hbar <= 0 or self.omega <= 0:
            raise ValueError("hbar and omega must be positive")

    @property
    def c_reduced(self) -> Fraction:
        return self.c / self.hbar ** 2

    @property
    def omega_reduced(self) -> Fraction:
        return self.omega / self.hbar

    @property
    def alpha_squared(self) -> Fraction:
        """(l + (m-2)/2)^2 + 2 c', exact."""
        return (Fraction(2 * self.l + self.m - 2, 2)) ** 2 + 2 * self.c_reduced

    @property
    def flags(self) -> tuple[str, ...]:
        if self.m == 1:
            return ("half-line-regular-sector",)
        return ()


@dataclass(frozen=True)
class RadialMode:
    """Closed-form level data for one component."""

    spec: ComponentSpec
    Nr: int
    delta: float
    alpha: float
    energy: float
    alpha_exact: Fraction | None
    flags: tuple[str, ...] = ()

    @property
    def exact(self) -> bool:
        return self.alpha_exact is not None

    @property
    def energy_exact(self) -> Fraction | None:
        if self.alpha_exact is None:
            return None
        return 2 * self.spec.hbar * self.spec.omega * (
            self.Nr + self.alpha_exact / 2 + Fraction(1, 2))

    def record(self) -> dict:
        rec = {
            "m": self.spec.m, "c": str(self.spec.c), "l": self.spec.l,
            "Nr": self.Nr, "delta": self.delta, "alpha": self.alpha,
            "energy": self.energy,
        }
        if self.flags:
            rec["flags"] = ",".join(self.flags)
        return rec


def closed_form(spec: ComponentSpec, Nr: int) -> RadialMode:
    """delta, alpha and the discrete energy of radial level Nr."""
    if Nr < 0:
        raise ValueError("the radial quantum number must be a non-negative integer")
    alpha_sq = spec.alpha_squared
    alpha_exact = exact_sqrt(alpha_sq)
    alpha = float(alpha_exact) if alpha_exact is not None else math.sqrt(float(alpha_sq))
    base = Fraction(2 * spec.l + spec.m - 2, 2)
    delta = (alpha - float(base)) / 2.0
    energy = 2.0 * float(spec.hbar * spec.omega) * (Nr + alpha / 2.0 + 0.5)
    return RadialMode(spec=spec, Nr=Nr, delta=delta, alpha=alpha, energy=energy,
                      alpha_exact=alpha_exact, flags=spec.flags)


def kummer(Nr: int, b, z):
    """The polynomial confluent hypergeometric value 1F1(-Nr; b; z).

    Ascending term recurrence; exact when b and z are Fractions.
    """
    if Nr < 0 or Nr != int(Nr):
        raise ValueError("first parameter must be the non-positive integer -Nr")
    if b <= 0:
        raise ValueError("lower parameter must be positive")
    total = 1 + z * 0  # one, in the arithmetic of z
    term = total
    for k in range(Nr):
        term = term * (k - Nr) * z / ((b + k) * (k + 1))
        total = total + term
    return total


def wavefunction(mode: RadialMode, r: float) -> float:
    """Radial wavefunction value at r > 0, normalization prefactor as printed."""
    if r <= 0:
        raise ValueError("r must be positive")
    spec = mode.spec
    a = float(spec.omega_reduced)
    u = a * r * r
    b = 2.0 * (mode.delta + spec.l / 2.0 + spec.m / 4.0)
    pref = math.sqrt(2.0 * math.gamma(mode.Nr + b) / math.factorial(mode.Nr))
    body = a * math.exp(-u / 2.0) * u ** ((mode.delta + spec.l / 2.0) / 2.0) / math.sqrt(b)
    return pref * body * float(kummer(mode.Nr, b, u))


def wavefunction_norm(mode: RadialMode, r_max: float | None = None,
                      tol: float = 1e-10) -> tuple[float, float]:
    """Adaptive quadrature of |psi|^2 r^{m-1}; returns (value, error estimate)."""
    from scipy.integrate import quad
    spec = mode.spec
    if r_max is None:
        r_max = 8.0 / math.sqrt(float(spec.omega_reduced))
    value, err = quad(lambda r: wavefunction(mode, r) ** 2 * r ** (spec.m - 1),
                      0.0, r_max, epsabs=tol, epsrel=tol, limit=200)
    return value, err


def wavefunction_sign_changes(mode: RadialMode, r_max: float | None = None,
                              samples: int = 4000) -> int:
    """Sign changes of psi on (0, r_max), the Sturm oscillation count."""
    spec = mode.spec
    if r_max is None:
        r_max = 8.0 / math.sqrt(float(spec.omega_reduced))
    rs = np.linspace(r_max / samples, r_max, samples)
    vals = np.array([wavefunction(mode, r) for r in rs])
    scale = np.max(np.abs(vals))
    signs = np.sign(vals[np.abs(vals) > 1e-9 * scale])
    return int(np.count_nonzero(signs[1:] != signs[:-1]))


# -- finite-difference oracle -----------------------------------------------------


# Both schemes are built to be second order in h; an observed order further
# than this from 2 means the grids are not in the asymptotic regime or the
# scheme cannot represent the solution (chi at m = 2, c = 0 shows about 0.27).
ORDER_TOL = 0.5


class GridError(ValueError):
    """Raised when the grid cannot resolve the requested levels."""


@dataclass(frozen=True)
class GridSpec:
    """Discretization request for the FD eigensolver."""

    nodes: int = 512
    r_max: float | None = None
    levels: int = 3
    scheme: str = "regularized"  # or "chi": literal second-order grid on chi

    def __post_init__(self):
        if self.nodes < 64:
            raise GridError("need at least 64 nodes")
        if self.levels < 1:
            raise GridError("need at least one grid level")
        if self.scheme not in ("regularized", "chi"):
            raise ValueError(f"unknown scheme {self.scheme!r}")


@dataclass(frozen=True)
class FdResult:
    """Extrapolated FD eigenvalues plus per-level diagnostics."""

    energies: tuple[float, ...]
    raw_levels: tuple[tuple[float, ...], ...] = field(repr=False)
    h_values: tuple[float, ...]
    observed_orders: tuple[float, ...]
    r_max: float
    scheme: str

    @property
    def converged(self) -> bool:
        """Every observed order lies within ORDER_TOL of 2.  An order that
        could not be observed (fewer than three grid levels) is not converged."""
        return all(abs(order - 2.0) <= ORDER_TOL for order in self.observed_orders)

    def record(self) -> list[dict]:
        out = []
        for idx, e in enumerate(self.energies):
            out.append({
                "index": idx,
                "energy": e,
                "raw": [lev[idx] for lev in self.raw_levels],
                "h": list(self.h_values),
                "observed_order": self.observed_orders[idx],
                "r_max": self.r_max,
                "scheme": self.scheme,
            })
        return out


def _chi_tridiagonal(spec: ComponentSpec, M: int, r_max: float):
    """Literal scheme: chi(0) = chi(r_max) = 0 on a uniform grid, singular
    potential (2c' + l(l+m-2) + (m-1)(m-3)/4)/(2 r^2) kept in place."""
    h = r_max / M
    r = np.arange(1, M) * h
    s = (2.0 * float(spec.c_reduced) + spec.l * (spec.l + spec.m - 2)
         + (spec.m - 1) * (spec.m - 3) / 4.0)
    w = float(spec.omega_reduced)
    v = 0.5 * w * w * r * r + 0.5 * s / (r * r)
    diag = 1.0 / (h * h) + v
    off = np.full(M - 2, -0.5 / (h * h))
    return diag, off


def _regularized_tridiagonal(spec: ComponentSpec, M: int, r_max: float):
    """Conservative scheme for the smooth factor phi = chi / r^{alpha+1/2}.

    Cell centers r_i = (i-1/2)h, exact cell integrals of the weight
    r^{2 alpha + 1}, midpoint fluxes, Dirichlet half-cell at r_max.  The zero
    flux through the r = 0 face enforces the regular branch exactly.
    """
    h = r_max / M
    alpha = math.sqrt(float(spec.alpha_squared))
    centers = (np.arange(1, M + 1) - 0.5) * h
    faces = np.arange(0, M + 1) * h
    a_face = faces ** (2.0 * alpha + 1.0)
    p = 2.0 * alpha + 2.0
    w_cell = (faces[1:] ** p - faces[:-1] ** p) / p
    wq = float(spec.omega_reduced)
    v = 0.5 * wq * wq * centers * centers
    diag = (a_face[:-1] + a_face[1:]) / (2.0 * h)
    diag[-1] += a_face[-1] / h  # half-cell Dirichlet closure at r_max
    diag = (diag + v * w_cell) / w_cell
    off = -a_face[1:-1] / (2.0 * h) / np.sqrt(w_cell[:-1] * w_cell[1:])
    return diag, off


def fd_eigenvalues(spec: ComponentSpec, grid: GridSpec | None = None,
                   count: int = 1) -> FdResult:
    """Lowest eigenvalues of the radial operator, Richardson-extrapolated.

    The discretized operator acts on the reduced radial function with
    regularity at 0 and a Dirichlet cutoff at r_max; eigenvalues are returned
    in energy units (multiplied back by hbar^2).
    """
    from scipy.linalg import eigh_tridiagonal
    if count < 1:
        raise ValueError("need at least one eigenvalue")
    grid = grid or GridSpec()
    w = float(spec.omega_reduced)
    top_estimate = closed_form(spec, count + 3)
    e_top = top_estimate.energy / float(spec.hbar ** 2)  # reduced units
    turning = math.sqrt(2.0 * e_top) / w
    r_max = grid.r_max if grid.r_max is not None else 2.0 * turning
    highest_requested = closed_form(spec, count - 1).energy / float(spec.hbar ** 2)
    if r_max <= math.sqrt(2.0 * highest_requested) / w:
        raise GridError(f"r_max={r_max:.3g} is below the classical turning point")
    wavelength = math.pi / math.sqrt(2.0 * e_top)
    if (r_max / grid.nodes) > wavelength / 4.0:
        raise GridError("grid too coarse to resolve the requested levels")

    build = _regularized_tridiagonal if grid.scheme == "regularized" else _chi_tridiagonal
    raw = []
    hs = []
    for level in range(grid.levels):
        M = grid.nodes * (2 ** level)
        diag, off = build(spec, M, r_max)
        vals = eigh_tridiagonal(diag, off, select="i",
                                select_range=(0, count - 1), eigvals_only=True)
        raw.append(tuple(float(v) for v in vals))
        hs.append(r_max / M)

    energies, orders = _richardson(raw)
    h2 = float(spec.hbar ** 2)
    return FdResult(energies=tuple(e * h2 for e in energies),
                    raw_levels=tuple(raw), h_values=tuple(hs),
                    observed_orders=tuple(orders), r_max=r_max, scheme=grid.scheme)


def _richardson(raw: list[tuple[float, ...]]) -> tuple[list[float], list[float]]:
    """h^2-Richardson across grid halvings (one or two stages as available)."""
    count = len(raw[0])
    energies = []
    orders = []
    for idx in range(count):
        seq = [lev[idx] for lev in raw]
        if len(seq) == 1:
            energies.append(seq[0])
            orders.append(float("nan"))
            continue
        stage1 = [(4.0 * seq[i + 1] - seq[i]) / 3.0 for i in range(len(seq) - 1)]
        if len(stage1) >= 2:
            energies.append((16.0 * stage1[-1] - stage1[-2]) / 15.0)
        else:
            energies.append(stage1[-1])
        if len(seq) >= 3 and seq[-2] != seq[-1]:
            num = seq[-3] - seq[-2]
            den = seq[-2] - seq[-1]
            orders.append(math.log2(abs(num / den)) if den and num / den > 0
                          else float("nan"))
        else:
            orders.append(float("nan"))
    return energies, orders


def fd_eigenvector(spec: ComponentSpec, grid: GridSpec | None = None,
                   index: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """(radial nodes, eigenvector samples) on the finest grid, for node counting."""
    from scipy.linalg import eigh_tridiagonal
    grid = grid or GridSpec()
    w = float(spec.omega_reduced)
    e_top = closed_form(spec, index + 4).energy / float(spec.hbar ** 2)
    r_max = grid.r_max if grid.r_max is not None else 2.0 * math.sqrt(2.0 * e_top) / w
    M = grid.nodes * (2 ** (grid.levels - 1))
    build = _regularized_tridiagonal if grid.scheme == "regularized" else _chi_tridiagonal
    diag, off = build(spec, M, r_max)
    _, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(index, index))
    h = r_max / M
    if grid.scheme == "regularized":
        nodes = (np.arange(1, M + 1) - 0.5) * h
    else:
        nodes = np.arange(1, M) * h
    return nodes, vecs[:, 0]


def sign_changes(vector: np.ndarray, rel_floor: float = 1e-8) -> int:
    scale = np.max(np.abs(vector))
    signs = np.sign(vector[np.abs(vector) > rel_floor * scale])
    return int(np.count_nonzero(signs[1:] != signs[:-1]))


# -- assembling two components ------------------------------------------------------


@dataclass(frozen=True)
class TotalEnergy:
    """Sum of two component levels, with the p-form cross-check."""

    energy: float
    p: int
    energy_exact: Fraction | None
    mode1: RadialMode
    mode2: RadialMode


def total_energy(mode1: RadialMode, mode2: RadialMode) -> TotalEnergy:
    """E = E1 + E2 = 2 hbar omega (p + 1 + (alpha1 + alpha2)/2), p = N1 + N2."""
    s1, s2 = mode1.spec, mode2.spec
    if (s1.hbar, s1.omega) != (s2.hbar, s2.omega):
        raise ValueError("components must share hbar and omega")
    p = mode1.Nr + mode2.Nr
    e_sum = mode1.energy + mode2.energy
    e_pform = 2.0 * float(s1.hbar * s1.omega) * (p + 1 + (mode1.alpha + mode2.alpha) / 2.0)
    if not math.isclose(e_sum, e_pform, rel_tol=1e-12, abs_tol=1e-12):
        raise AssertionError("sum form and p-form disagree beyond roundoff")
    exact = None
    if mode1.energy_exact is not None and mode2.energy_exact is not None:
        exact = mode1.energy_exact + mode2.energy_exact
    return TotalEnergy(energy=e_sum, p=p, energy_exact=exact, mode1=mode1, mode2=mode2)
