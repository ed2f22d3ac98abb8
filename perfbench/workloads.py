"""The benchmark workloads: seeded inputs, program set-up, and the checked body.

Inputs depend only on the seed and are generated here, never by calling the
program.  Each body counts every check it attempts and every check that
fails; an exception counts as a failure and the run goes on.  singosc is
imported lazily so that importing this module costs nothing that set-up
timing would have to exclude.
"""

from __future__ import annotations

import contextlib
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter

SPECTRUM_TUPLES = 50
SPECTRUM_P_MAX = 6
FD_P_MAX = 4
FD_NODES = 256
# Pinned by tests/test_acceptance.py: float cross-checks of exact identities
# at 1e-12 relative, FD against closed form at 1e-6 relative.
ALG_REL_TOL = 1e-12
FD_REL_TOL = 1e-6
# Tuples per part of the spectrum body (a part lasts about half a second).
TUPLES_PER_PART = 10
# Terms per factor of the reference product: about 40 ms on an uncontended
# x86-64 core.
REFERENCE_TERMS = 115


@dataclass
class Tally:
    """Checks attempted and failed in one run, with the reason for each failure."""

    attempted: int = 0
    failed: int = 0
    known: list[str] = field(default_factory=list)
    unexpected: list[str] = field(default_factory=list)
    reports: list = field(default_factory=list)
    unit_times: list[float] = field(default_factory=list)

    def check(self, ok: bool, label: str, known_defect: bool = False) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            (self.known if known_defect else self.unexpected).append(label)

    @property
    def correct(self) -> bool:
        """True when every failure is a recorded known defect."""
        return not self.unexpected


def _span(tracer, name: str, unit: str):
    return tracer.span(name, unit) if tracer is not None else contextlib.nullcontext()


def reference() -> dict:
    """A fixed pure-Python load that uses no singosc code: the product of two
    sparse polynomials with Fraction coefficients and tuple exponent keys, the
    kernel shape of opalg.  Timing it next to each part of a body measures how
    fast this machine runs such code right then."""
    a = {(i, i % 7): Fraction(i % 11 + 1, i % 5 + 1) for i in range(REFERENCE_TERMS)}
    b = {(i % 13, i): Fraction(i % 7 - 3, i % 3 + 1) for i in range(REFERENCE_TERMS)}
    out: dict = {}
    for (a0, a1), ca in a.items():
        for (b0, b1), cb in b.items():
            key = (a0 + b0, a1 + b1)
            out[key] = out.get(key, 0) + ca * cb
    return out


# -- verify workloads ------------------------------------------------------------


def draw_rationals(rng: random.Random) -> dict:
    """hbar, omega, c1, c2 drawn in the order and ranges of the CLI's sampled mode."""
    def draw():
        return Fraction(rng.randrange(1, 40), rng.randrange(1, 12))
    return {"hbar": draw(), "omega": draw(), "c1": draw(), "c2": draw()}


@dataclass(frozen=True)
class VerifyWorkload:
    """verify_q3 (quantum) or verify_qp3 (classical) on fixed (N, n) splits."""

    name: str
    why: str
    quantum: bool
    splits: tuple[tuple[int, int], ...]
    sampled: bool = False

    def inputs(self, seed: int) -> list[tuple[int, int, dict | None]]:
        rng = random.Random(seed)
        return [(N, n, draw_rationals(rng) if self.sampled else None)
                for N, n in self.splits]

    def setup(self) -> dict:
        import singosc.cli  # noqa: F401  (part of set-up: numpy, scipy, mpmath)
        from singosc.opalg import generators
        build = generators.build_quantum if self.quantum else generators.build_classical
        return {(N, n): build(N, n) for N, n in self.splits}

    def parts(self, inputs: list) -> list[list]:
        """One verify call per part."""
        return [[split] for split in inputs]

    def run(self, gens: dict, part: list, tally: Tally, tracer=None) -> None:
        from singosc.opalg import verify
        for N, n, subs in part:
            label = f"({N},{n})"
            try:
                with _span(tracer, "verify.run", label):
                    if self.quantum:
                        report = verify.verify_q3(N, n, gens=gens[(N, n)],
                                                  substitutions=subs)
                    else:
                        report = verify.verify_qp3(N, n, gens=gens[(N, n)])
            except Exception as exc:  # counted, reported, and the run goes on
                tally.check(False, f"{label} raised {exc!r}")
                continue
            tally.reports.append(report)
            for result in report.results:
                tally.unit_times.append(result.wall_time)
                ok = result.passed and result.residual_terms == 0
                tally.check(ok, f"{label} {result.name}",
                            known_defect=self.known_defect(N, n, result.name))

    def known_defect(self, N: int, n: int, check: str) -> bool:
        """Sampled mode fails so-rotations on every block of dimension >= 3: the
        right-hand side keeps a symbolic hbar after the generators were
        substituted (a checker bug, not a broken identity)."""
        if not (self.quantum and self.sampled):
            return False
        return ((check == "so-rotations[block1]" and n >= 3)
                or (check == "so-rotations[block2]" and N - n >= 3))

    def describe(self) -> dict:
        return {"call": "verify_q3" if self.quantum else "verify_qp3",
                "splits": [list(s) for s in self.splits],
                "substitutions": "per split, draw_rationals(Random(seed))"
                if self.sampled else None,
                "casimir": True}


# -- spectrum sweep ----------------------------------------------------------------


@dataclass(frozen=True)
class SpectrumTuple:
    N: int
    n: int
    l1: int
    l2: int
    c1: Fraction
    c2: Fraction
    hbar: Fraction
    omega: Fraction
    rational_m: bool
    p_fd: int
    n1: int


def _block_draw(rng: random.Random):
    N = rng.randrange(2, 9)
    n = rng.randrange(1, N)
    l1 = 0 if n == 1 else rng.randrange(0, 4)
    l2 = 0 if N - n == 1 else rng.randrange(0, 4)
    hbar = Fraction(rng.randrange(1, 4), rng.randrange(1, 3))
    omega = Fraction(rng.randrange(1, 5), rng.randrange(1, 4))
    return N, n, l1, l2, hbar, omega


def rational_tuple(rng: random.Random) -> tuple:
    """As tests/test_acceptance.py::_random_rational_tuple: m_i = m_min + q with q
    rational, and c_i = hbar^2 (m_i^2 - m_min^2) / 8, so m1 and m2 are exact.

    Two differences keep every check well posed: a one-coordinate block carries
    l = 0 (the form radial.ComponentSpec solves), and q > 0, so c1, c2 > 0 and
    the level table, FD and closed form all use the regular sector."""
    N, n, l1, l2, hbar, omega = _block_draw(rng)
    couplings = []
    for dim, l in ((n, l1), (N - n, l2)):
        m_min = abs(2 * l + dim - 2)
        m = m_min + Fraction(rng.randrange(1, 9), rng.randrange(1, 5))
        couplings.append(hbar ** 2 * (m ** 2 - m_min ** 2) / 8)
    return N, n, l1, l2, couplings[0], couplings[1], hbar, omega


def irrational_tuple(rng: random.Random) -> tuple:
    """Couplings redrawn until m1^2 and m2^2 are both non-squares (mpmath path)."""
    N, n, l1, l2, hbar, omega = _block_draw(rng)
    couplings = []
    for dim, l in ((n, l1), (N - n, l2)):
        m_min_sq = (2 * l + dim - 2) ** 2
        while True:
            c = Fraction(rng.randrange(1, 41), rng.randrange(1, 5))
            m_sq = 8 * c / hbar ** 2 + m_min_sq
            if not (_is_square(m_sq.numerator) and _is_square(m_sq.denominator)):
                break
        couplings.append(c)
    return N, n, l1, l2, couplings[0], couplings[1], hbar, omega


def _is_square(value: int) -> bool:
    return math.isqrt(value) ** 2 == value


@dataclass(frozen=True)
class SpectrumWorkload:
    """Algebraic, separation-of-variables and FD spectra on seeded tuples."""

    name: str
    why: str

    def inputs(self, seed: int) -> list[SpectrumTuple]:
        rng = random.Random(seed)
        out = []
        for idx in range(SPECTRUM_TUPLES):
            rational = idx % 2 == 0
            base = rational_tuple(rng) if rational else irrational_tuple(rng)
            p_fd = rng.randrange(0, FD_P_MAX + 1)
            out.append(SpectrumTuple(*base, rational_m=rational, p_fd=p_fd,
                                     n1=rng.randrange(0, p_fd + 1)))
        return out

    def setup(self) -> dict:
        import singosc.cli  # noqa: F401  (part of set-up: numpy, scipy, mpmath)
        return {}

    def parts(self, inputs: list) -> list[list]:
        """Consecutive runs of TUPLES_PER_PART indexed tuples."""
        indexed = list(enumerate(inputs))
        return [indexed[i:i + TUPLES_PER_PART]
                for i in range(0, len(indexed), TUPLES_PER_PART)]

    def run(self, gens: dict, part: list, tally: Tally, tracer=None) -> None:
        for idx, tup in part:
            label = f"tuple-{idx}"
            start = perf_counter()
            try:
                with _span(tracer, "sweep.tuple", label):
                    self._run_tuple(tup, label, tally)
            except Exception as exc:  # counted, reported, and the run goes on
                tally.check(False, f"{label} raised {exc!r}")
            tally.unit_times.append(perf_counter() - start)

    @staticmethod
    def _run_tuple(t: SpectrumTuple, label: str, tally: Tally) -> None:
        from singosc import levels, qalg, radial
        ce = qalg.CentralEigs(N=t.N, n=t.n, l_n=t.l1, l_Nn=t.l2, c1=t.c1, c2=t.c2,
                              hbar=t.hbar, omega=t.omega)
        spec1 = radial.ComponentSpec(m=t.n, c=t.c1, l=t.l1, hbar=t.hbar, omega=t.omega)
        spec2 = radial.ComponentSpec(m=t.N - t.n, c=t.c2, l=t.l2, hbar=t.hbar,
                                     omega=t.omega)
        mq = qalg.m_values(ce)
        tally.check(mq.exact == t.rational_m
                    and mq.m1_squared == 4 * spec1.alpha_squared
                    and mq.m2_squared == 4 * spec2.alpha_squared, f"{label} m-squares")

        e_alg = None
        for p in range(SPECTRUM_P_MAX + 1):
            sols = qalg.solve_unirreps(p, ce)
            plus = [s for s in sols if (s.eps1, s.eps2) == (1, 1) and s.set_id != 2]
            tally.check(len(plus) == 2 and all(s.admissible and s.failing_x is None
                                               for s in plus),
                        f"{label} admissible p={p}")
            if p == t.p_fd:
                e_alg = float(next(s.energy for s in plus if s.set_id == 1))

        n2 = t.p_fd - t.n1
        total = radial.total_energy(radial.closed_form(spec1, t.n1),
                                    radial.closed_form(spec2, n2)).energy
        tally.check(abs(total - e_alg) <= ALG_REL_TOL * abs(total),
                    f"{label} algebraic = closed form")

        grid = radial.GridSpec(nodes=FD_NODES)
        e_fd = (radial.fd_eigenvalues(spec1, grid, count=t.n1 + 1).energies[t.n1]
                + radial.fd_eigenvalues(spec2, grid, count=n2 + 1).energies[n2])
        tally.check(abs(e_fd - total) < FD_REL_TOL * abs(total), f"{label} FD = closed form")

        table = levels.enumerate_levels(t.N, t.n, t.c1, t.c2, e_cut=total * (1 + 1e-9),
                                        hbar=t.hbar, omega=t.omega)
        found = any(abs(level.energy - total) <= 1e-9 * total and any(
            (c.N1, c.N2, c.l_n, c.l_Nn) == (t.n1, n2, t.l1, t.l2)
            for c in level.contributors) for level in table.levels)
        tally.check(found, f"{label} level table holds the level")

    def describe(self) -> dict:
        return {"tuples": SPECTRUM_TUPLES,
                "mix": "even index: rational m1, m2; odd index: irrational m1, m2",
                "per_tuple": f"solve_unirreps for p <= {SPECTRUM_P_MAX}; closed form "
                             f"and FD ({FD_NODES} nodes) at one seeded p <= {FD_P_MAX}; "
                             "enumerate_levels up to that level"}


# Bodies take a few seconds each, so that a run repeats them several times and
# reports the median.  On a shared 2-CPU x86 VM one 16 s body of verify_q3 at
# (4,1), (5,2) and (6,3) fitted only once in a run and spread 24% between runs.
WORKLOADS = {w.name: w for w in (
    VerifyWorkload(
        "q3-symbolic",
        "verify_q3 symbolic with Casimir on (4,1),(4,2): main load on diffop and poly, "
        "small-denominator Fractions; (4,1) adds the one-coordinate divisor path",
        quantum=True, splits=((4, 1), (4, 2))),
    VerifyWorkload(
        "q3-sampled",
        "verify_q3 with seeded rational hbar,omega,c1,c2 on (4,1),(4,2): same layers, "
        "growing rationals; known defect: so-rotations false failure, 1 of 28 checks",
        quantum=True, splits=((4, 1), (4, 2)), sampled=True),
    VerifyWorkload(
        "qp3-classical",
        "verify_qp3 on (4,1),(4,2): Poisson brackets and chained BlockPoly add/reduce/"
        "divide, no DiffOp composition",
        quantum=False, splits=((4, 1), (4, 2))),
    SpectrumWorkload(
        "spectrum-sweep",
        "50 seeded tuples, half with irrational m1,m2: unirreps p<=6, closed form vs "
        "FD, level tables; the only load on qalg, radial and levels"),
)}
