"""Closed-form radial levels, Laguerre wavefunctions, FD oracle."""

from __future__ import annotations

import dataclasses
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from level_oracles import regular_level
from singosc import radial
from singosc.exact import Biquadratic, exact_sqrt
from singosc.qalg import CentralEigs, m_values, set_solution
from singosc.radial import (ComponentSpec, GridError, GridSpec, closed_form,
                            default_r_max, fd_eigenvalues, sign_changes,
                            total_energy, wavefunction, wavefunction_norm,
                            wavefunction_sign_changes)


def _exact_energy(spec: ComponentSpec, Nr: int) -> Biquadratic:
    """The exact energy of spec's mode Nr, from the level of (m + 2, m) that
    holds it next to the ground mode of an uncoupled m = 2 block, of energy
    hbar omega."""
    hw = spec.hbar * spec.omega
    level = regular_level(spec.m + 2, spec.m, spec.c, Fraction(0), Nr, spec.l, 0,
                          closed_form(spec, Nr).energy + float(hw), spec.hbar, spec.omega)
    return level.energy_exact - hw


def test_closed_form_examples():
    mode = closed_form(ComponentSpec(m=2), 0)
    assert (mode.delta, mode.alpha, mode.energy) == (0.0, 0.0, 1.0)
    assert _exact_energy(ComponentSpec(m=2), 0) == 1

    spec = ComponentSpec(m=2, c=Fraction(1))
    mode = closed_form(spec, 0)
    assert mode.alpha == pytest.approx(math.sqrt(2.0), abs=0, rel=1e-15)
    assert mode.energy == pytest.approx(1.0 + math.sqrt(2.0), rel=1e-15)
    assert exact_sqrt(spec.alpha_squared) is None
    assert _exact_energy(spec, 0) == 1 + Biquadratic.sqrt_pair(Fraction(2), Fraction(0))[0]

    mode = closed_form(ComponentSpec(m=3, l=1), 0)
    assert mode.alpha == 1.5
    assert mode.energy == 2.5
    assert _exact_energy(ComponentSpec(m=3, l=1), 0) == Fraction(5, 2)


def test_alpha_identity_against_direct_delta_formula():
    # independent oracle: delta = sqrt((l/2 + (m-2)/4)^2 + c'/2) - (m-2)/4 - l/2,
    # then alpha must equal both 2 delta + l + (m-2)/2 and the radicand route
    rng = random.Random(2)
    for _ in range(30):
        m = rng.randrange(1, 8)
        l = 0 if m == 1 else rng.randrange(0, 4)
        base = Fraction(2 * l + m - 2, 2)
        alpha_target = abs(base) + rng.randrange(0, 4)
        c_red = (alpha_target ** 2 - base ** 2) / 2
        spec = ComponentSpec(m=m, c=c_red, l=l)
        mode = closed_form(spec, 0)
        assert _exact_energy(spec, 0) == alpha_target + 1
        radicand = (Fraction(l, 2) + Fraction(m - 2, 4)) ** 2 + c_red / 2
        delta_direct = math.sqrt(float(radicand)) - (m - 2) / 4.0 - l / 2.0
        assert mode.delta == pytest.approx(delta_direct, rel=1e-13, abs=1e-13)
        assert mode.alpha == pytest.approx(2 * mode.delta + l + (m - 2) / 2.0,
                                           rel=1e-13, abs=1e-13)


def test_m_quantum_equals_twice_alpha():
    # cross-module identity via the exact squares
    rng = random.Random(77)
    for _ in range(50):
        N = rng.randrange(2, 9)
        n = rng.randrange(1, N)
        dims = (n, N - n)
        l1 = 0 if dims[0] == 1 else rng.randrange(0, 4)
        l2 = 0 if dims[1] == 1 else rng.randrange(0, 4)
        c1 = Fraction(rng.randrange(0, 17), 4)
        c2 = Fraction(rng.randrange(0, 17), 4)
        hbar = Fraction(rng.randrange(1, 4))
        omega = Fraction(rng.randrange(1, 4), 2)
        ce = CentralEigs(N=N, n=n, l_n=l1, l_Nn=l2, c1=c1, c2=c2,
                         hbar=hbar, omega=omega)
        mq = m_values(ce)
        s1 = ComponentSpec(m=dims[0], c=c1, l=l1, hbar=hbar, omega=omega)
        s2 = ComponentSpec(m=dims[1], c=c2, l=l2, hbar=hbar, omega=omega)
        assert mq.m1_squared == 4 * s1.alpha_squared
        assert mq.m2_squared == 4 * s2.alpha_squared


def test_fd_matches_closed_form_spec_cases():
    cases = [
        (ComponentSpec(m=2), 3),
        (ComponentSpec(m=4, c=Fraction(3, 2)), 1),
        (ComponentSpec(m=2, c=Fraction(1)), 1),
    ]
    for spec, count in cases:
        result = fd_eigenvalues(spec, count=count)
        for idx in range(count):
            exact = closed_form(spec, idx).energy
            assert result.energies[idx] == pytest.approx(exact, rel=1e-6)


def test_fd_second_order_convergence_and_richardson_gain():
    spec = ComponentSpec(m=3, c=Fraction(5, 4), l=1)
    result = fd_eigenvalues(spec, GridSpec(nodes=256), count=1)
    exact = closed_form(spec, 0).energy
    raw_err = abs(result.raw_levels[-1][0] - exact / float(spec.hbar ** 2))
    extr_err = abs(result.energies[0] - exact)
    assert 1.8 < result.observed_orders[0] < 2.2
    assert extr_err < raw_err / 100.0  # at least two digits from extrapolation


def test_fd_convergence_flag():
    regular = fd_eigenvalues(ComponentSpec(m=2), count=3)
    assert regular.converged
    assert all(abs(order - 2.0) < 0.01 for order in regular.observed_orders)


def _random_fd_spec(rng: random.Random) -> ComponentSpec:
    m = rng.randint(1, 4)
    return ComponentSpec(m=m, c=Fraction(rng.randint(0, 12), rng.randint(1, 7)),
                         l=0 if m == 1 else rng.randint(0, 2))


def test_fd_solves_three_halving_grids():
    rng = random.Random(25)
    for _ in range(12):
        spec, nodes = _random_fd_spec(rng), rng.choice((128, 256, 512))
        result = fd_eigenvalues(spec, GridSpec(nodes=nodes), count=rng.randint(1, 3))
        assert len(result.raw_levels) == 3
        h = result.h_values
        assert h == (result.r_max / nodes, h[0] / 2, h[1] / 2)


def test_fd_energies_and_orders_are_two_stage_richardson_of_the_raw_levels():
    rng = random.Random(7)
    specs = [_random_fd_spec(rng) for _ in range(20)]
    assert any(exact_sqrt(spec.alpha_squared) is None for spec in specs)
    for spec in specs:
        result = fd_eigenvalues(spec, GridSpec(nodes=256), count=3)
        h2 = float(spec.hbar ** 2)
        for idx in range(3):
            e_h, e_h2, e_h4 = (level[idx] for level in result.raw_levels)
            # an error c h^2 + d h^4: one stage per power
            r_h = e_h2 + (e_h2 - e_h) / 3
            r_h2 = e_h4 + (e_h4 - e_h2) / 3
            assert result.energies[idx] == pytest.approx(
                (r_h2 + (r_h2 - r_h) / 15) * h2, rel=1e-13)
            # the error shrinks by 2^order per halving
            order = math.log((e_h - e_h2) / (e_h2 - e_h4)) / math.log(2)
            assert result.observed_orders[idx] == pytest.approx(order, abs=1e-9)


def test_fd_scaled_units():
    spec = ComponentSpec(m=2, c=Fraction(1, 2), hbar=Fraction(2), omega=Fraction(3))
    result = fd_eigenvalues(spec, count=2)
    for idx in range(2):
        assert result.energies[idx] == pytest.approx(
            closed_form(spec, idx).energy, rel=1e-6)


def test_fd_eigenvector_oscillation():
    spec = ComponentSpec(m=2, c=Fraction(1))
    vectors = fd_eigenvalues(spec, GridSpec(nodes=256), count=4).vectors
    assert vectors.shape == (4 * 256, 4)
    for k in range(4):
        assert sign_changes(vectors[:, k]) == k


def test_fd_grid_errors():
    spec = ComponentSpec(m=2)
    with pytest.raises(GridError):
        fd_eigenvalues(spec, GridSpec(r_max=0.5), count=3)
    with pytest.raises(GridError):
        GridSpec(nodes=16)
    with pytest.raises(GridError):
        fd_eigenvalues(spec, GridSpec(nodes=64, r_max=40.0), count=8)
    with pytest.raises(ValueError, match="need at least one eigenvalue"):
        fd_eigenvalues(spec, count=0)
    # past radial.FD_MEMORY_LIMIT the grid is refused before any array is built
    assert radial._fd_grid(spec, GridSpec(nodes=2 ** 16), 3)[1][-1] == 2 ** 18
    for nodes, count in ((2 ** 16 + 1, 3), (2 ** 15, 12), (10 ** 8, 3)):
        with pytest.raises(GridError, match=f"above the FD limit of {radial.FD_MEMORY_LIMIT}"):
            radial._fd_grid(spec, GridSpec(nodes=nodes), count)


def test_wavefunction_gaussian_ground_state():
    mode = closed_form(ComponentSpec(m=2), 0)
    rs = [0.3, 0.7, 1.1, 1.9]
    vals = [wavefunction(mode, r) for r in rs]
    ratios = [v / math.exp(-r * r / 2.0) for v, r in zip(vals, rs)]
    for ratio in ratios:
        assert ratio == pytest.approx(ratios[0], rel=1e-12)
    assert wavefunction_sign_changes(mode) == 0
    with pytest.raises(ValueError):
        wavefunction(mode, 0.0)


def test_wavefunction_node_counts():
    for spec in (ComponentSpec(m=2, c=Fraction(1)), ComponentSpec(m=3, l=1),
                 ComponentSpec(m=5, c=Fraction(1, 3))):
        # the default range grows with Nr, so the highest modes keep every node
        for nr in (*range(4), 12, 16, 20, 30, 40, 60):
            mode = closed_form(spec, nr)
            assert wavefunction_sign_changes(mode) == nr


def test_wavefunction_normalization_quadrature():
    # the printed prefactor normalizes the two-dimensional family exactly
    for nr in range(3):
        mode = closed_form(ComponentSpec(m=2), nr)
        assert wavefunction_norm(mode) == pytest.approx(1.0, abs=1e-12)
    # and every other dimension too, alpha irrational here (alpha^2 = 13/4)
    mode = closed_form(ComponentSpec(m=3, l=1, c=Fraction(1, 2)), 1)
    assert wavefunction_norm(mode) == pytest.approx(1.0, abs=1e-12)
    # one adaptive quadrature of psi^2 r^2 itself, which assumes no weight
    # function, so an envelope the rule would divide out is still caught
    value, err = quad(lambda r: wavefunction(mode, r) ** 2 * r ** 2, 0.0, default_r_max(mode),
                      epsabs=1e-10, epsrel=1e-10, limit=200)
    assert err < 1e-8
    assert value == pytest.approx(1.0, abs=1e-9)
    # excited modes that fill u = a r^2 past 64
    for spec, nr in [*((ComponentSpec(m=3, l=1), nr) for nr in (12, 16, 30, 60)),
                     (ComponentSpec(m=3, l=1, c=Fraction(1, 3)), 150),
                     (ComponentSpec(m=2), 184)]:
        assert wavefunction_norm(closed_form(spec, nr)) == pytest.approx(1.0, abs=1e-12), nr
    # from Nr = 185 at alpha = 0 the rule's smallest weight is below the
    # smallest normal double
    with pytest.raises(ValueError, match="186-node Gauss-Laguerre rule underflows a double"):
        wavefunction_norm(closed_form(ComponentSpec(m=2), 185))


def test_a_wrong_envelope_or_prefactor_fails_the_norm(monkeypatch):
    for spec, nr in _wavefunction_sweep()[:8]:
        mode = closed_form(spec, nr)
        # delta + 1/2 multiplies psi by u^(1/2), so the norm is the mean of u
        shifted = dataclasses.replace(mode, delta=mode.delta + 0.5)
        assert abs(wavefunction_norm(shifted) - 1.0) > 0.5
    psi = radial.wavefunction
    monkeypatch.setattr(radial, "wavefunction", lambda mode, r: 2.0 * psi(mode, r))
    for spec, nr in _wavefunction_sweep()[:8]:
        assert wavefunction_norm(closed_form(spec, nr)) == pytest.approx(4.0, rel=1e-12)


def test_the_norm_loads_no_adaptive_quadrature():
    # a fresh interpreter: this one has imported scipy.integrate for the spot check
    script = ("import sys\n"
              "from singosc.radial import ComponentSpec, closed_form, wavefunction_norm\n"
              "mode = closed_form(ComponentSpec(m=3, l=1), 5)\n"
              "assert abs(wavefunction_norm(mode) - 1) < 1e-12\n"
              "assert 'scipy.integrate' not in sys.modules\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(radial.__file__).parent.parent),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def _wavefunction_sweep():
    """Seeded (m, l, c, Nr, hbar, omega), about half with an irrational alpha."""
    rng = random.Random(71)
    specs = []
    while len(specs) < 24:
        m = rng.randrange(1, 7)
        l = 0 if m == 1 else rng.randrange(4)
        c = Fraction(rng.randrange(0, 12), rng.randrange(1, 5)) if rng.random() < 0.8 else 0
        spec = ComponentSpec(m=m, l=l, c=c, hbar=Fraction(rng.randrange(1, 5), 3),
                             omega=Fraction(rng.randrange(1, 7), 2))
        specs.append((spec, rng.randrange(5)))
    assert sum(exact_sqrt(spec.alpha_squared) is None for spec, _ in specs) >= 8
    return specs


@pytest.mark.parametrize("spec, nr", _wavefunction_sweep()
                         + [(spec, 60) for spec, _ in _wavefunction_sweep()])
def test_wavefunction_solves_the_radial_equation_and_is_normalized(spec, nr):
    mode = closed_form(spec, nr)
    # small-r power: the indicial root alpha - (m - 2)/2 of the radial equation
    r1 = 1e-6 / math.sqrt(float(spec.omega_reduced))
    slope = (math.log(abs(wavefunction(mode, 2 * r1))) - math.log(abs(wavefunction(mode, r1)))
             ) / math.log(2.0)
    assert slope == pytest.approx(mode.alpha - (spec.m - 2) / 2, abs=1e-8)
    assert wavefunction_norm(mode) == pytest.approx(1.0, abs=1e-12)


def _mp_wavefunction(mode, r):
    """R at r in 50-digit mpmath, from alpha^2, a and r alone."""
    spec = mode.spec
    a = mpmath.mpf(spec.omega_reduced.numerator) / spec.omega_reduced.denominator
    alpha = mpmath.sqrt(mpmath.mpf(spec.alpha_squared.numerator) / spec.alpha_squared.denominator)
    u = a * mpmath.mpf(r) ** 2
    c2 = 2 * a ** (mpmath.mpf(spec.m) / 2) * mpmath.factorial(mode.Nr) / mpmath.gamma(
        mode.Nr + alpha + 1)
    return (mpmath.sqrt(c2) * mpmath.exp(-u / 2) * u ** (alpha / 2 - mpmath.mpf(spec.m - 2) / 4)
            * mpmath.laguerre(mode.Nr, alpha, u))


@pytest.mark.parametrize("spec", [spec for spec, _ in _wavefunction_sweep()]
                         + [ComponentSpec(m=1, c=Fraction(5, 3))])
def test_wavefunction_matches_mpmath(spec):
    with mpmath.workdps(50):
        for nr in (0, 1, 5, 16, 30, 60, 150):
            mode = closed_form(spec, nr)
            rs = [default_r_max(mode) * i / 16 for i in range(1, 17)]
            want = [_mp_wavefunction(mode, r) for r in rs]
            scale = max(abs(w) for w in want)
            for r, got, w in zip(rs, wavefunction(mode, np.array(rs)).tolist(), want):
                assert abs(got - w) <= 1e-12 * scale, (nr, r)


def test_wavefunction_is_finite_at_every_radius():
    # the recurrence carries L's growth as a power of two: no overflow at high
    # Nr, and 0.0 only where e^(-u/2) is below the smallest float
    for nr in (0, 200, 2000):
        mode = closed_form(ComponentSpec(m=3, l=1), nr)
        values = wavefunction(mode, np.array([1e-200, 1.0, 30.0, 1e100, 1e200, math.inf])).tolist()
        assert all(math.isfinite(v) for v in values)
        assert values[0] != 0 and values[1] != 0 and values[-3:] == [0.0] * 3
    mode = closed_form(ComponentSpec(m=2), 1)
    assert wavefunction(mode, 1.0) == 0.0  # L_1^0(1) = 0, the node itself


@pytest.mark.parametrize("spec, nr", _wavefunction_sweep()[:8]
                         + [(ComponentSpec(m=3, l=1), 200), (ComponentSpec(m=3, l=1), 2000)])
def test_an_array_of_radii_gives_each_float_call_bit_for_bit(spec, nr):
    # one recurrence over every sample, each with its own power-of-two scale;
    # past u = 2^511 a sample is 0.0; a float r is a 0-d array and gives a float
    mode = closed_form(spec, nr)
    rs = np.r_[np.linspace(0.01, 1.5, 46) * default_r_max(mode), 1e-200, 1e100, 1e200, np.inf]
    got = wavefunction(mode, rs.reshape(2, 25))
    assert got.shape == (2, 25)
    assert got.ravel().tolist() == wavefunction(mode, rs).tolist()
    for i in (0, 23, 48):  # a small, a middle and a 0.0 sample
        one = wavefunction(mode, float(rs[i]))
        assert type(one) is float
        assert one == wavefunction(mode, rs[i:i + 1])[0] == got.flat[i]
    with pytest.raises(ValueError):
        wavefunction(mode, np.array([1.0, 0.0]))


def test_total_energy_examples():
    s2 = ComponentSpec(m=2)
    both_ground = total_energy(closed_form(s2, 0), closed_form(s2, 0))
    assert both_ground.energy == 2.0 and both_ground.p == 0
    assert regular_level(4, 2, 0, 0, 0, 0, 0, both_ground.energy).energy_exact == 2

    shifted = total_energy(closed_form(s2, 1), closed_form(s2, 0))
    assert shifted.energy == 4.0 and shifted.p == 1

    with pytest.raises(ValueError):
        total_energy(closed_form(ComponentSpec(m=2, hbar=Fraction(2)), 0),
                     closed_form(s2, 0))


def test_total_energy_matches_algebraic_set1():
    rng = random.Random(123)
    for _ in range(10):
        N = rng.randrange(2, 9)
        n = rng.randrange(1, N)
        dims = (n, N - n)
        l1 = 0 if dims[0] == 1 else rng.randrange(0, 4)
        l2 = 0 if dims[1] == 1 else rng.randrange(0, 4)
        c1 = Fraction(rng.randrange(0, 9), 2)
        c2 = Fraction(rng.randrange(0, 9), 2)
        ce = CentralEigs(N=N, n=n, l_n=l1, l_Nn=l2, c1=c1, c2=c2)
        n1 = rng.randrange(0, 3)
        n2 = rng.randrange(0, 3)
        tot = total_energy(
            closed_form(ComponentSpec(m=dims[0], c=c1, l=l1), n1),
            closed_form(ComponentSpec(m=dims[1], c=c2, l=l2), n2))
        p = n1 + n2
        _, algebraic = set_solution(1, 1, 1, p, ce)
        assert algebraic == regular_level(N, n, c1, c2, p, l1, l2, tot.energy).energy_exact
        # the float closed form, within rounding of the exact energy
        assert tot.energy == pytest.approx(float(algebraic), rel=1e-12)


def test_component_spec_validation():
    with pytest.raises(ValueError):
        ComponentSpec(m=0)
    with pytest.raises(ValueError):
        ComponentSpec(m=1, l=1)
    with pytest.raises(ValueError):
        ComponentSpec(m=2, c=Fraction(-1))
    with pytest.raises(ValueError, match="angular number must be non-negative"):
        ComponentSpec(m=3, l=-1)
    with pytest.raises(ValueError, match="hbar and omega must be positive"):
        ComponentSpec(m=3, hbar=0)
    spec = ComponentSpec(m=1, c=Fraction(1))
    assert spec.flags == ("half-line-regular-sector",)
    mode = closed_form(spec, 0)
    assert "half-line-regular-sector" in mode.flags
    assert "flags" in mode.record()


def test_alpha_is_computed_once_per_spec(monkeypatch):
    import singosc.radial as radial
    calls = []
    original = radial.exact_sqrt
    monkeypatch.setattr(radial, "exact_sqrt", lambda value: calls.append(value) or original(value))
    spec = ComponentSpec(m=3, c=Fraction(5, 7), l=1)
    fd_eigenvalues(spec, GridSpec(nodes=128), count=3)
    modes = [closed_form(spec, nr) for nr in range(3)]
    assert len(calls) == 1
    assert original(spec.alpha_squared) is None
    assert modes[0].alpha == math.sqrt(float(spec.alpha_squared))
