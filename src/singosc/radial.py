"""Closed-form radial solutions and an independent finite-difference eigensolver.

Each component of the model is a singular oscillator in its own dimension m:

    R'' + (m-1)/r R' + (2E' - w'^2 r^2 - (2c' + l(l+m-2))/r^2) R = 0

with c' = c/hbar^2, w' = omega/hbar, E' = E/hbar^2.  The closed form gives
E = 2 hbar omega (Nr + alpha/2 + 1/2) with alpha = sqrt((l+(m-2)/2)^2 + 2c'),
and the regular solution R = C e^(-u/2) u^(delta + l/2) L_Nr^alpha(u) with
u = w' r^2, its Laguerre polynomial evaluated by the three-term recurrence.

The FD solver is a genuine oracle: it never uses the spectrum formula.  After
the standard substitution R = r^{-(m-1)/2} chi the effective potential picks
up ((m-1)(m-3)/4)/(2r^2); for fractional indicial exponents a plain Dirichlet
grid cannot represent the regular branch at the origin (the operator is in
the limit-circle regime for alpha < 1), so the solver factors out the
indicial power r^{alpha+1/2} and discretizes the remaining smooth problem in
conservative form with weight r^{2 alpha + 1}.  It solves three grids, of
nodes, 2 nodes and 4 nodes cells, and extrapolates each level by two h^2
Richardson stages; the three raw values also give its observed order.  The
grids share one set of face powers r^{2 alpha + 1} and r^{2 alpha + 2},
computed on the finest grid: the faces of the coarser two are its every 4th
and every 2nd face, bit for bit, so each grid is the one it would be if built
on its own.

Each grid's lowest levels come from inverse iteration (LAPACK dstein) started
at one guess per level: a loose bisection on the coarse grid, the coarse
levels on the mid grid, and the h^2 prediction from the two on the fine
grid.  A level is the
Rayleigh quotient of its vector, certified by its residual interval and one
Sturm count; when a certificate fails the grid is bisected to full precision
instead.  The quotients are not limited by bisection's ulp * ||T|| stop, so
FD agrees with the closed form to about 1e-13 relative at 512 nodes (m = 2,
c = 1, Nr <= 2), where bisection left 2e-12 to 5e-12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .exact import exact_sqrt


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

    @cached_property
    def c_reduced(self) -> Fraction:
        return self.c / self.hbar ** 2

    @property
    def omega_reduced(self) -> Fraction:
        return self.omega / self.hbar

    @cached_property
    def alpha_squared(self) -> Fraction:
        """(l + (m-2)/2)^2 + 2 c', exact."""
        return (Fraction(2 * self.l + self.m - 2, 2)) ** 2 + 2 * self.c_reduced

    @cached_property
    def alpha(self) -> float:
        root = exact_sqrt(self.alpha_squared)
        return float(root) if root is not None else math.sqrt(float(self.alpha_squared))

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
    flags: tuple[str, ...] = ()

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
    base = Fraction(2 * spec.l + spec.m - 2, 2)
    delta = (spec.alpha - float(base)) / 2.0
    return RadialMode(spec=spec, Nr=Nr, delta=delta, alpha=spec.alpha,
                      energy=_energy(spec, Nr), flags=spec.flags)


def _energy(spec: ComponentSpec, Nr: int) -> float:
    """2 hbar omega (Nr + alpha/2 + 1/2), in floats."""
    return 2.0 * float(spec.hbar * spec.omega) * (Nr + spec.alpha / 2.0 + 0.5)


def wavefunction(mode: RadialMode, r):
    """Normalized radial wavefunction at r > 0, a float or an array of them.

    With u = a r^2, a = omega/hbar, the solution regular at the origin is
    R = C e^(-u/2) u^(delta + l/2) L_Nr^alpha(u), which goes as
    r^(alpha - (m-2)/2) near 0.  The Laguerre norm, the integral of
    e^(-u) u^alpha L_Nr^alpha(u)^2 over u > 0, is Gamma(Nr + alpha + 1)/Nr!,
    so the integral of R^2 r^(m-1) over r > 0 is 1 at
    C^2 = 2 a^(m/2) Nr! / Gamma(Nr + alpha + 1).

    L comes from the three-term recurrence (DLMF 18.9.13)
    (k + 1) L_(k+1) = (2k + 1 + alpha - u) L_k - (k + alpha) L_(k-1), run on
    every sample at once with each sample's growth carried as a power of two,
    so R is finite at every Nr and r and underflows to 0.0 only where its true
    value does.  An array of r gives an array of the same shape; each sample is
    finished with ``math``, so it is bit for bit the float call's value."""
    spec = mode.spec
    a = float(spec.omega_reduced)
    log_c2 = (math.log(2.0) + spec.m / 2.0 * math.log(a) + math.lgamma(mode.Nr + 1.0)
              - math.lgamma(mode.Nr + mode.alpha + 1.0))
    power = mode.delta + spec.l / 2.0

    def finish(r: float, u: float, lag: float, scale: int) -> float:
        if u > 2.0 ** 511 or lag == 0.0:
            # e^(-u/2) is far below the smallest float, or r is a node
            return 0.0
        # log u as log a + 2 log r, finite where a r^2 underflows
        log_u = math.log(a) + 2.0 * math.log(r)
        return math.copysign(math.exp(log_c2 / 2.0 - u / 2.0 + power * log_u
                                      + scale * math.log(2.0) + math.log(abs(lag))), lag)

    if isinstance(r, (int, float)):
        if r <= 0:
            raise ValueError("r must be positive")
        u = a * r * r
        return finish(r, u, *_laguerre(mode.Nr, mode.alpha, u))
    r = np.asarray(r, dtype=float)
    if (r <= 0).any():
        raise ValueError("r must be positive")
    # past u = 2^511 the recurrence may overflow, silently for floats and with a
    # warning for arrays; ``finish`` gives those samples 0.0 whatever L comes to
    with np.errstate(over="ignore", invalid="ignore"):
        u = a * r * r
        lag, scale = _laguerre(mode.Nr, mode.alpha, u)
    samples = (column.ravel().tolist() for column in np.broadcast_arrays(r, u, lag, scale))
    return np.array([finish(*sample) for sample in zip(*samples)]).reshape(r.shape)


def _laguerre(n: int, alpha: float, u):
    """L_n^alpha(u) = lag 2^scale as (lag, scale), each |lag| kept below 2^512,
    for a float u or elementwise for an array."""
    prev, lag, scale = 0.0, 1.0, 0
    for k in range(n):
        prev, lag = lag, ((2 * k + 1 + alpha - u) * lag - (k + alpha) * prev) / (k + 1)
        over = abs(lag) > 2.0 ** 512
        # 2^-512 where |lag| passed 2^512, else an exact 1, per sample
        shrink = 2.0 ** (-512 * over)
        prev, lag, scale = prev * shrink, lag * shrink, scale + 512 * over
    return lag, scale


def default_r_max(mode: RadialMode) -> float:
    """Where sampling and quadrature of the wavefunction end by default: twice
    the classical turning radius, u = a r^2 = 4 (4 Nr + 2 alpha + 2), since the
    last node lies near u = 4 Nr + 2 alpha + 2, and never below u = 64."""
    turning = math.sqrt(4 * mode.Nr + 2 * mode.alpha + 2)
    return max(8.0, 2.0 * turning) / math.sqrt(float(mode.spec.omega_reduced))


def wavefunction_norm(mode: RadialMode) -> tuple[float, float]:
    """Adaptive quadrature of |psi|^2 r^{m-1} on (0, ``default_r_max``);
    returns (value, error estimate)."""
    from scipy.integrate import quad
    m = mode.spec.m
    return quad(lambda r: wavefunction(mode, r) ** 2 * r ** (m - 1),
                0.0, default_r_max(mode), epsabs=1e-10, epsrel=1e-10, limit=200)


def wavefunction_sign_changes(mode: RadialMode) -> int:
    """Sign changes of psi at 4000 even steps up to ``default_r_max``, the
    Sturm oscillation count."""
    r_max = default_r_max(mode)
    rs = np.linspace(r_max / 4000, r_max, 4000)
    return sign_changes(wavefunction(mode, rs), 1e-9)


# -- finite-difference oracle -----------------------------------------------------


# The scheme is built to be second order in h; an observed order further than
# this from 2 means the grids are not in the asymptotic regime.
ORDER_TOL = 0.5


# An FD solve peaks near 32 bytes per finest-grid cell and per level requested
# plus five (tracemalloc: 8.1 MB at 1,024 nodes and count 60).  A grid far past
# the default gains nothing: at m = 2, c = 1 and count 3 the worst relative
# error is 1.8e-13 at 512 nodes, 2.0e-12 at 2,048 and 1.3e-11 at 16,384, as
# rounding grows with ||T||.  64 MiB admits 65,536 nodes at count 3.
FD_MEMORY_LIMIT = 2 ** 26


class GridError(ValueError):
    """Raised when the grid cannot resolve the requested levels, or would need
    more memory than ``FD_MEMORY_LIMIT``."""


@dataclass(frozen=True)
class GridSpec:
    """Discretization request for the FD eigensolver: the cells of the coarsest
    of its three grids, and the cutoff radius (None for the default)."""

    nodes: int = 512
    r_max: float | None = None

    def __post_init__(self):
        if self.nodes < 64:
            raise GridError("need at least 64 nodes")


@dataclass(frozen=True)
class FdResult:
    """Extrapolated FD eigenvalues plus per-level diagnostics; ``raw_levels``
    and ``h_values`` hold one entry per grid, coarsest first.  ``vectors`` are
    the finest grid's certified eigenvectors, column k for level k, sampled at
    its cell centers (i - 1/2) h_values[-1]."""

    energies: tuple[float, ...]
    raw_levels: tuple[tuple[float, ...], ...] = field(repr=False)
    h_values: tuple[float, ...]
    observed_orders: tuple[float, ...]
    r_max: float
    vectors: np.ndarray = field(repr=False, compare=False)

    @property
    def converged(self) -> bool:
        """Every observed order lies within ORDER_TOL of 2.  An order that
        could not be observed (NaN: two grids agree, or the level's differences
        change sign between halvings) is not converged."""
        return all(abs(order - 2.0) <= ORDER_TOL for order in self.observed_orders)


def _regularized_tridiagonals(spec: ComponentSpec, cells: list[int], r_max: float):
    """Conservative scheme for the smooth factor phi = chi / r^{alpha+1/2}, as
    (diag, off) for each grid of ``cells`` cells on (0, r_max).

    Cell centers r_i = (i-1/2)h, exact cell integrals of the weight
    r^{2 alpha + 1}, midpoint fluxes, Dirichlet half-cell at r_max.  The zero
    flux through the r = 0 face enforces the regular branch exactly.

    The face powers r^{2 alpha + 1} and r^{2 alpha + 2} are computed once, on
    the finest grid, the last of ``cells``; every other count must be that one
    over a power of two.  A grid's h is then the finest h times a power of two,
    exactly, so its faces and centers are the finest grid's faces and centers
    at a stride, bit for bit, and so are the powers.
    """
    fine = cells[-1]
    alpha = math.sqrt(float(spec.alpha_squared))
    # the faces (even) and centers (odd) of the finest grid
    points = np.arange(0, 2 * fine + 1) * (r_max / (2 * fine))
    a_fine = points[::2] ** (2.0 * alpha + 1.0)
    p = 2.0 * alpha + 2.0
    p_fine = points[::2] ** p
    wq = float(spec.omega_reduced)
    grids = []
    for M in cells:
        h = r_max / M
        step = fine // M
        a_face, p_face, centers = a_fine[::step], p_fine[::step], points[step::2 * step]
        w_cell = (p_face[1:] - p_face[:-1]) / p
        v = 0.5 * wq * wq * centers * centers
        diag = (a_face[:-1] + a_face[1:]) / (2.0 * h)
        diag[-1] += a_face[-1] / h  # half-cell Dirichlet closure at r_max
        diag = (diag + v * w_cell) / w_cell
        off = a_face[1:-1] / (-2.0 * h) / np.sqrt(w_cell[:-1] * w_cell[1:])
        grids.append((diag, off))
    return grids


def _fd_grid(spec: ComponentSpec, grid: GridSpec, count: int) -> tuple[float, list[int]]:
    """(r_max, cells of the three grids, finest last) for the lowest ``count`` levels.

    The default r_max is twice the classical turning point of level count + 3.
    Raises ``GridError`` when the solve would need more than ``FD_MEMORY_LIMIT``
    bytes, when r_max lies below the turning point of the highest requested
    level, or when the coarsest grid cannot resolve level count + 3."""
    need = 32 * 4 * grid.nodes * (count + 5)
    if need > FD_MEMORY_LIMIT:
        raise GridError(f"{grid.nodes} nodes at count {count} need about {need} bytes, "
                        f"above the FD limit of {FD_MEMORY_LIMIT} bytes")
    w = float(spec.omega_reduced)
    h2 = float(spec.hbar ** 2)
    e_top = _energy(spec, count + 3) / h2  # reduced units
    turning = math.sqrt(2.0 * e_top) / w
    r_max = grid.r_max if grid.r_max is not None else 2.0 * turning
    highest_requested = _energy(spec, count - 1) / h2
    if r_max <= math.sqrt(2.0 * highest_requested) / w:
        raise GridError(f"r_max={r_max:.3g} is below the classical turning point")
    wavelength = math.pi / math.sqrt(2.0 * e_top)
    if (r_max / grid.nodes) > wavelength / 4.0:
        raise GridError("grid too coarse to resolve the requested levels")
    return r_max, [grid.nodes, 2 * grid.nodes, 4 * grid.nodes]


# Absolute tolerance of the coarse grid's guesses, relative to ||T||_inf, and
# the rounds of inverse iteration before the certificate is tried.
GUESS_TOL = 1e-7
REFINE_ROUNDS = 3
_EPS = np.finfo(float).eps


def _gershgorin(diag: np.ndarray, off: np.ndarray) -> tuple[float, float]:
    """(lower bound of T's spectrum, ||T||_inf) for T = (diag, off), from its
    Gershgorin discs."""
    size = np.abs(off)
    radius = np.zeros_like(diag)
    radius[:-1] += size
    radius[1:] += size
    return float((diag - radius).min()), float((np.abs(diag) + radius).max())


def _bisect(diag: np.ndarray, off: np.ndarray, count: int, tol: float = 0.0) -> np.ndarray:
    """Levels 0..count-1 of T by LAPACK dstebz bisection to absolute ``tol``;
    0 bisects to full precision, ulp * ||T||."""
    from scipy.linalg import lapack
    # range 2: by index, levels il..iu = 1..count (1-based)
    m, w, _, _, info = lapack.dstebz(diag, off, 2, 0.0, 1.0, 1, count, tol, b"E")
    if info != 0 or m != count:
        raise np.linalg.LinAlgError(f"dstebz returned info={info}, {m} of {count} levels")
    return w[:count]


def _rayleigh(diag: np.ndarray, off: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Rayleigh quotient of each column of z, T z) for T = (diag, off)."""
    tz = diag[:, None] * z
    tz[:-1] += off[:, None] * z[1:]
    tz[1:] += off[:, None] * z[:-1]
    return np.einsum("ij,ij->j", z, tz) / np.einsum("ij,ij->j", z, z), tz


def _lowest(diag: np.ndarray, off: np.ndarray, count: int, guess,
            bounds: tuple[float, float]) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs 0..count-1 of T = (diag, off), refined from one guess per
    level, as (levels, vectors) with column k of vectors for level k;
    ``bounds`` is ``_gershgorin(diag, off)``.

    Inverse iteration (LAPACK dstein, all levels in one call) turns the guesses
    into vectors z, and each level is its Rayleigh quotient q with residual
    r = ||Tz - qz||; while some r exceeds the rounding floor the quotients are
    the next shifts.  For symmetric T each interval q +- (r + floor) holds an
    eigenvalue, so when the intervals ascend disjointly and one Sturm count
    finds exactly ``count`` eigenvalues up to the top of the last one, the
    quotients are levels 0..count-1.  Any other outcome bisects instead, and
    pairs the bisected levels with dstein's vectors at them; a guess list that
    does not strictly ascend is never passed to dstein: LAPACK rejects it with
    a message on stdout."""
    from scipy.linalg import lapack
    n = diag.size
    bottom, norm = bounds
    floor = 8.0 * n * _EPS * norm
    shifts = np.asarray(guess, dtype=float)
    block = np.ones(n, dtype=np.int32)
    split = np.full(n, n, dtype=np.int32)
    for _ in range(REFINE_ROUNDS):
        if not (shifts[1:] > shifts[:-1]).all():
            break
        z, info = lapack.dstein(diag, off, shifts, block, split)
        if info != 0:
            break
        q, tz = _rayleigh(diag, off, z)
        tz -= q * z
        residual = np.sqrt((tz * tz).sum(axis=0))
        if residual.max() <= floor:
            radius = residual + floor
            lower, upper = q - radius, q + radius
            # range 1: by value over (below, upper[-1]]; a tolerance wider than
            # that interval leaves it unbisected, so the call is one Sturm count
            # per end
            below = bottom - floor
            width = upper[-1] - below
            if (lower[1:] > upper[:-1]).all():
                m, _, _, _, info = lapack.dstebz(diag, off, 1, below, upper[-1], 1, 1,
                                                 2.0 * width, b"E")
                if info == 0 and m == count:
                    return q, z
            break
        shifts = q
    levels = _bisect(diag, off, count)
    z, info = lapack.dstein(diag, off, levels, block, split)
    if info != 0:
        raise np.linalg.LinAlgError(f"dstein returned info={info} at the bisected levels")
    return levels, z


def fd_eigenvalues(spec: ComponentSpec, grid: GridSpec | None = None,
                   count: int = 1) -> FdResult:
    """Lowest eigenvalues of the radial operator, Richardson-extrapolated from
    the grids of ``grid.nodes``, twice and four times that many cells.

    The discretized operator acts on the reduced radial function with
    regularity at 0 and a Dirichlet cutoff at r_max; eigenvalues are returned
    in energy units (multiplied back by hbar^2).  Each grid's guesses for
    ``_lowest`` come from a loose bisection (coarse), the coarse levels (mid),
    or the h^2 prediction mid - (coarse - mid)/4 (fine).
    """
    if count < 1:
        raise ValueError("need at least one eigenvalue")
    r_max, cells = _fd_grid(spec, grid or GridSpec(), count)
    raw = []
    for diag, off in _regularized_tridiagonals(spec, cells, r_max):
        bounds = _gershgorin(diag, off)
        if not raw:
            guess = _bisect(diag, off, count, GUESS_TOL * bounds[1])
        elif len(raw) == 1:
            guess = raw[0]
        else:
            guess = [mid - (coarse - mid) / 4.0 for coarse, mid in zip(*raw)]
        levels, vectors = _lowest(diag, off, count, guess, bounds)
        raw.append(tuple(levels.tolist()))

    energies, orders = _richardson(raw)
    h2 = float(spec.hbar ** 2)
    return FdResult(energies=tuple(e * h2 for e in energies),
                    raw_levels=tuple(raw), h_values=tuple(r_max / M for M in cells),
                    observed_orders=tuple(orders), r_max=r_max, vectors=vectors)


def _richardson(raw: list[tuple[float, ...]]) -> tuple[list[float], list[float]]:
    """Per level, the two-stage h^2-Richardson value and the observed order from
    its values on the three grids of ``raw`` (coarsest first, h halving).

    Stage one removes the h^2 term from each pair of neighbouring grids, stage
    two the h^4 term from the two stage-one values.  The order is
    log2((coarse - mid) / (mid - fine)), NaN when mid and fine agree or that
    ratio is not positive."""
    energies = []
    orders = []
    for coarse, mid, fine in zip(*raw):
        stage1_coarse = (4.0 * mid - coarse) / 3.0
        stage1_fine = (4.0 * fine - mid) / 3.0
        energies.append((16.0 * stage1_fine - stage1_coarse) / 15.0)
        ratio = (coarse - mid) / (mid - fine) if mid != fine else math.nan
        orders.append(math.log2(ratio) if ratio > 0 else math.nan)
    return energies, orders


def sign_changes(vector: np.ndarray, rel_floor: float = 1e-8) -> int:
    scale = np.max(np.abs(vector))
    signs = np.sign(vector[np.abs(vector) > rel_floor * scale])
    return int(np.count_nonzero(signs[1:] != signs[:-1]))


# -- assembling two components ------------------------------------------------------


@dataclass(frozen=True)
class TotalEnergy:
    """Sum of two component levels."""

    energy: float
    p: int


def total_energy(mode1: RadialMode, mode2: RadialMode) -> TotalEnergy:
    """E = E1 + E2 = 2 hbar omega (p + 1 + (alpha1 + alpha2)/2), p = N1 + N2."""
    if (mode1.spec.hbar, mode1.spec.omega) != (mode2.spec.hbar, mode2.spec.omega):
        raise ValueError("components must share hbar and omega")
    return TotalEnergy(energy=mode1.energy + mode2.energy, p=mode1.Nr + mode2.Nr)
