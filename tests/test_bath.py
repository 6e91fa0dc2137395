"""Tests for the first-principles environment layer.

The converged oracles (a few thousand bath modes) are built once per
module and shared across tests.  The oracle's eigensolver and resolvent
are checked against a dense np.linalg.eigh of the full Hamiltonian on
baths of a few hundred modes, where eigh is cheap.
"""

from functools import partial

import numpy as np
import pytest
from scipy import optimize

from ioxsim import SystemParams, eigen_branches, effective_hamiltonian
from ioxsim.bath import (
    BathOracle,
    BathSpec,
    DiscretizedBath,
    bath_for_rates,
    discretize_bath,
    env_density_of_states,
    full_matrix,
    green_matrix,
    kernel_freq,
)
from ioxsim.core import bic_condition, kinetic_energies
from ioxsim.dynamics import bic_amplitudes
from ioxsim.errors import (
    EvanescentRegionError,
    KernelAccuracyError,
    RecurrenceLimitError,
    SingularMatrixError,
)
from ioxsim.spectra import lorentzian_pair_fit

WINDOW = (500.0, 1500.0)
EPS0 = 1000.0
PV_POINTS_DEFAULT = 4001


@pytest.fixture(scope="module")
def attract_oracle():
    p = SystemParams(delta=3.0, gamma_c=1.0, gamma_x=1.8)
    b = bath_for_rates(1.0, 1.8, EPS0, WINDOW)
    return BathOracle(discretize_bath(b, 4000), p), p


@pytest.fixture(scope="module")
def bic_oracle():
    p = SystemParams(delta=2.1 / np.sqrt(0.3), g_rabi=3.0,
                     gamma_c=1.0, gamma_x=0.3)
    b = bath_for_rates(1.0, 0.3, EPS0, (800.0, 1200.0))
    return BathOracle(discretize_bath(b, 2000), p), p


class TestBathSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            BathSpec(1.0, 1.0, (1500.0, 500.0))
        with pytest.raises(ValueError):
            BathSpec(1.0, 1.0, (-5.0, 500.0))
        with pytest.raises(ValueError):
            BathSpec(-1.0, 1.0, WINDOW)
        with pytest.raises(ValueError):
            BathSpec(1.0, 1.0, WINDOW, c_light=0.0)
        with pytest.raises(ValueError):
            BathSpec(1.0, 1.0, WINDOW, taper_frac=0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("field", ["kappa_c", "kappa_x", "c_light"])
    def test_rejects_non_finite(self, field, bad):
        kwargs = dict(kappa_c=1.0, kappa_x=1.0, omega_window=WINDOW)
        kwargs[field] = bad
        with pytest.raises(ValueError, match="%s must be finite" % field):
            BathSpec(**kwargs)

    def test_taper_profile(self):
        b = BathSpec(1.0, 1.0, (100.0, 1100.0), taper_frac=0.1)
        lo, hi = b.omega_window
        assert b.taper(600.0) == 1.0
        assert b.taper(lo) == 0.0 and b.taper(hi) == 0.0
        ramp = b.taper(np.linspace(lo, lo + 100.0, 21))
        assert np.all(np.diff(ramp) > 0.0)
        assert float(b.taper(lo - 1.0)) == 0.0

    def test_zero_taper_is_hard_window(self):
        b = BathSpec(1.0, 1.0, WINDOW, taper_frac=0.0)
        assert float(b.taper(WINDOW[0] + 1.0)) == 1.0
        assert float(b.taper(WINDOW[0] - 1.0)) == 0.0


class TestDensityOfStates:
    def test_k_zero_flat(self):
        b = BathSpec(1.0, 1.0, WINDOW, c_light=2.0)
        w = np.array([10.0, 500.0, 1500.0])
        assert np.allclose(env_density_of_states(b, 0.0, w), 0.5)

    def test_sqrt2_point(self):
        b = BathSpec(1.0, 1.0, WINDOW)
        k = 600.0
        assert env_density_of_states(b, k, np.sqrt(2.0) * k) == pytest.approx(
            np.sqrt(2.0), rel=1e-14)

    def test_matches_finite_difference(self):
        # rho = (d omega/dq)^{-1} along omega(q) = c sqrt(k^2 + q^2)
        b = BathSpec(1.0, 1.0, WINDOW, c_light=1.7)
        k, q, h = 300.0, 440.0, 1e-4
        wq = lambda qq: b.c_light * np.hypot(k, qq)
        slope = (wq(q + h) - wq(q - h)) / (2.0 * h)
        assert env_density_of_states(b, k, wq(q)) == pytest.approx(
            1.0 / slope, rel=1e-8)

    def test_light_cone_divergence(self):
        b = BathSpec(1.0, 1.0, WINDOW)
        k = 700.0
        vals = [env_density_of_states(b, k, k * (1.0 + 10.0 ** -m))
                for m in range(2, 8)]
        assert np.all(np.diff(vals) > 0.0)
        # rho ~ 1/sqrt(2 (omega/ck - 1)): five decades in the offset give
        # a factor sqrt(1e5) in the density
        assert vals[-1] > 100.0 * vals[0]

    def test_evanescent_rejected(self):
        b = BathSpec(1.0, 1.0, WINDOW)
        with pytest.raises(EvanescentRegionError):
            env_density_of_states(b, 700.0, 650.0)


class TestKernelFreq:
    def test_center_reproduces_markov_rates(self):
        # at the carrier the real part is the golden-rule rate matrix the
        # bath was built for: gamma_c, gamma_x and sqrt(gamma_c gamma_x)
        b = bath_for_rates(1.0, 1.8, EPS0, WINDOW)
        g = kernel_freq(b, 0.0, EPS0)
        assert g[0, 0].real == pytest.approx(1.0, rel=1e-12)
        assert g[1, 1].real == pytest.approx(1.8, rel=1e-12)
        assert g[0, 1].real == pytest.approx(np.sqrt(1.8), rel=1e-12)
        assert g[0, 1] == g[1, 0]
        # symmetric window, k=0 flat density: principal value cancels
        assert abs(g[0, 0].imag) < 1e-10

    def test_flat_window_closed_form(self):
        # taper off, k=0: spectral weight is exactly kappa^2 on the window,
        # so Im = kappa^2 log((w-a)/(b-w)) with no regular remainder
        b = BathSpec(0.4, 0.0, WINDOW, taper_frac=0.0)
        w = 1200.0
        g = kernel_freq(b, 0.0, w)
        expect = 0.4 ** 2 * np.log((w - WINDOW[0]) / (WINDOW[1] - w))
        assert g[0, 0].imag == pytest.approx(expect, rel=1e-9)
        assert g[0, 0].real == pytest.approx(np.pi * 0.4 ** 2, rel=1e-12)

    def test_below_light_cone_no_emission(self):
        b = BathSpec(0.5, 0.5, (700.0, 1500.0))
        k = 600.0  # ck = 600 < window start, omega below the cone
        g = kernel_freq(b, k, 550.0)
        assert np.all(g.real == 0.0)
        assert np.all(np.isfinite(g.imag))

    def test_pole_near_endpoint_rejected(self):
        b = bath_for_rates(1.0, 0.0, EPS0, WINDOW)
        cell = (WINDOW[1] - WINDOW[0]) / (PV_POINTS_DEFAULT - 1)
        with pytest.raises(KernelAccuracyError):
            kernel_freq(b, 0.0, WINDOW[0] + 0.5 * cell)

    def test_kramers_kronig_staggered(self):
        # Im from the principal value agrees with the Hilbert transform of
        # Re over the window, summed on a grid staggered around each probe
        # frequency so the pole cell cancels by symmetry
        b = bath_for_rates(1.0, 0.7, EPS0, WINDOW)
        sub = np.linspace(*WINDOW, 201)
        # Re Gamma~_cc = pi kappa_c^2 rho taper^2, written out: the kernel's
        # own principal value is undefined at the window endpoints
        re_cc = (np.pi * b.kappa_c ** 2 * env_density_of_states(b, 0.0, sub)
                 * b.taper(sub) ** 2)
        mids = 0.5 * (sub[:-1] + sub[1:])[40:-40:20]
        for w in mids:
            hil = np.trapezoid(re_cc / np.pi / (w - sub), sub)
            im = kernel_freq(b, 0.0, float(w))[0, 0].imag
            assert im == pytest.approx(hil, abs=2e-3 * np.pi)

    def test_array_omega_matches_scalar(self):
        b = bath_for_rates(1.0, 0.7, EPS0, WINDOW)
        grid = np.linspace(995.0, 1005.0, 11)
        kern = kernel_freq(b, 0.0, grid, npoints=801)
        assert kern.shape == (11, 2, 2)
        assert np.allclose(kern[:, 0, 1], kern[:, 1, 0])
        direct = kernel_freq(b, 0.0, 1000.0, npoints=801)
        assert np.allclose(kern[5], direct)

    def test_memoryless_limit_wide_window(self):
        # kernel flattens to the rate matrix near the carrier as the
        # window widens; the log tail keeps this just under 1% only for
        # windows somewhat beyond +-500 rates, so probe +-700
        b = bath_for_rates(1.0, 1.8, EPS0, (EPS0 - 700.0, EPS0 + 700.0))
        gmat = np.array([[1.0, np.sqrt(1.8)], [np.sqrt(1.8), 1.8]])
        for w in np.linspace(EPS0 - 10.0, EPS0 + 10.0, 9):
            g = kernel_freq(b, 0.0, float(w))
            assert np.max(np.abs(g - gmat)) < 0.01 * (1.0 + 1.8)


PV_POINTS_DEFAULT = 4001


PASSIVE = SystemParams(delta=2.0, g_rabi=1.0, gamma_c=1.0, gamma_x=0.8)


class TestKernelInputs:
    """NaN or inf frequencies and momenta are rejected, not turned into
    zero kernels or zero couplings that look like a valid answer."""

    @pytest.mark.parametrize("fn, args", [
        pytest.param(kernel_freq, (0.0, np.inf), id="freq-inf"),
        pytest.param(kernel_freq, (0.0, np.nan), id="freq-nan"),
        pytest.param(kernel_freq, (0.0, np.array([EPS0, -np.inf])),
                     id="freq-array"),
        pytest.param(kernel_freq, (np.nan, EPS0), id="freq-k-nan"),
        pytest.param(kernel_freq, (np.inf, EPS0), id="freq-k-inf"),
        pytest.param(full_matrix, (PASSIVE, np.nan, EPS0), id="full-k-nan"),
        pytest.param(partial(full_matrix, memoryless=True),
                     (PASSIVE, np.nan, EPS0), id="memoryless-k-nan"),
        pytest.param(discretize_bath, (2000, np.nan), id="discretize-k-nan"),
        pytest.param(discretize_bath, (2000, np.inf), id="discretize-k-inf"),
    ])
    def test_non_finite_rejected(self, fn, args):
        with pytest.raises(ValueError, match="must be finite"):
            fn(bath_for_rates(1.0, 0.8, EPS0, WINDOW), *args)


class TestFullMatrixAndGreen:
    def test_memoryless_equals_core(self):
        p = SystemParams(delta=3.0, g_rabi=0.4, gamma_c=1.0, gamma_x=1.8)
        b = bath_for_rates(1.0, 1.8, EPS0, WINDOW)
        for w in (995.0, 1000.0, 1004.2):
            m = full_matrix(b, p, 0.0, w, memoryless=True)
            m_core = w * np.eye(2) - effective_hamiltonian(p, 0.0)
            assert np.max(np.abs(m - m_core)) < 1e-12

    def test_uncoupled_bath_is_bare_problem(self):
        p = SystemParams(delta=1.0, g_rabi=2.0, gamma_c=0.0, gamma_x=0.0)
        b = BathSpec(0.0, 0.0, WINDOW)
        m = full_matrix(b, p, 0.0, 1001.0)
        assert np.allclose(m.imag, 0.0)
        assert np.allclose(m, 1001.0 * np.eye(2) - effective_hamiltonian(p, 0.0))

    def test_det_roots_near_eigen_branches(self):
        # complex roots of det M with the kernel frozen at Re omega agree
        # with the closed-form branches deep in the Markov regime
        p = SystemParams(delta=3.0, g_rabi=0.7, gamma_c=1.0, gamma_x=1.8)
        b = bath_for_rates(1.0, 1.8, EPS0, WINDOW)

        def det(v):
            m = full_matrix(b, p, 0.0, v[0], npoints=1001)
            m = m + 1j * v[1] * np.eye(2)
            d = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
            return [d.real, d.imag]

        for branch in eigen_branches(p, 0.0):
            guess = [branch.omega.real, branch.omega.imag]
            sol = optimize.root(det, guess, tol=1e-12)
            assert sol.success
            err = abs(complex(sol.x[0], sol.x[1]) - branch.omega)
            assert err < 0.01 * p.total_rate

    def test_green_identity_sampled(self):
        rng = np.random.default_rng(41)
        p = SystemParams(delta=2.0, g_rabi=1.0, gamma_c=1.0, gamma_x=0.8)
        b = bath_for_rates(1.0, 0.8, EPS0, WINDOW)
        worst = 0.0
        for _ in range(300):
            w = float(rng.uniform(940.0, 1060.0))
            m = full_matrix(b, p, 0.0, w, npoints=801)
            g = green_matrix(b, p, 0.0, w, npoints=801)
            worst = max(worst, np.max(np.abs(m @ g - np.eye(2))))
        assert worst < 1e-12

    def test_green_retarded_sign(self):
        p = SystemParams(delta=2.0, g_rabi=1.0, gamma_c=1.0, gamma_x=0.8)
        b = bath_for_rates(1.0, 0.8, EPS0, WINDOW)
        for w in np.linspace(960.0, 1040.0, 17):
            g = green_matrix(b, p, 0.0, float(w), npoints=801)
            assert g[0, 0].imag <= 0.0
            assert g[1, 1].imag <= 0.0

    def test_singular_response_raises(self):
        # no bath, no Rabi coupling: M is diagonal and vanishes at eps_x
        p = SystemParams(delta=1.0, g_rabi=0.0, gamma_c=0.0, gamma_x=0.0)
        b = BathSpec(0.0, 0.0, WINDOW)
        with pytest.raises(SingularMatrixError):
            green_matrix(b, p, 0.0, p.eps0)
        # on a frequency stack the error names the first singular entry
        with pytest.raises(SingularMatrixError, match="omega = %g" % p.eps0):
            green_matrix(b, p, 0.0, [p.eps0 - 0.5, p.eps0, p.eps0 + 0.5])

    def test_decoupled_green_diagonal(self):
        p = SystemParams(delta=2.0, g_rabi=0.0, gamma_c=1.0, gamma_x=0.0)
        b = bath_for_rates(1.0, 0.0, EPS0, WINDOW)
        g = green_matrix(b, p, 0.0, 998.5)
        assert g[0, 1] == 0.0 and g[1, 0] == 0.0

    @pytest.mark.parametrize("memoryless", [True, False])
    @pytest.mark.parametrize("omega", [[999.0], [999.0, 1001.0],
                                       [999.0, 1001.0, 1003.5]])
    def test_omega_array_matches_scalar(self, omega, memoryless):
        p = SystemParams(delta=2.0, g_rabi=1.0, gamma_c=1.0, gamma_x=0.8)
        b = bath_for_rates(1.0, 0.8, EPS0, WINDOW)
        for fn in (full_matrix, green_matrix):
            out = fn(b, p, 0.0, np.array(omega), npoints=801,
                     memoryless=memoryless)
            assert out.shape == (len(omega), 2, 2)
            for w, got in zip(omega, out):
                ref = fn(b, p, 0.0, w, npoints=801, memoryless=memoryless)
                assert ref.shape == (2, 2)
                assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))

    @pytest.mark.parametrize("memoryless", [True, False])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_omega_rejected(self, bad, memoryless):
        p = SystemParams(delta=2.0, g_rabi=1.0, gamma_c=1.0, gamma_x=0.8)
        b = bath_for_rates(1.0, 0.8, EPS0, WINDOW)
        for fn in (full_matrix, green_matrix):
            for omega in (bad, np.array([1000.0, bad])):
                with pytest.raises(ValueError):
                    fn(b, p, 0.0, omega, npoints=801, memoryless=memoryless)


class TestDiscretizedBath:
    def test_golden_rule_exact_at_center(self):
        b = bath_for_rates(1.0, 1.8, EPS0, WINDOW)
        d = discretize_bath(b, 2000)
        j = np.argmin(np.abs(d.mode_freqs - EPS0))
        rate_c = np.pi * d.coupling_c[j] ** 2 / d.spacing
        rate_x = np.pi * d.coupling_x[j] ** 2 / d.spacing
        assert rate_c == pytest.approx(1.0, rel=1e-6)
        assert rate_x == pytest.approx(1.8, rel=1e-6)

    def test_needs_two_modes(self):
        b = bath_for_rates(1.0, 0.0, EPS0, WINDOW)
        with pytest.raises(ValueError):
            discretize_bath(b, 1)

    def test_oracle_rejects_sparse_bath(self):
        b = bath_for_rates(1.0, 0.0, EPS0, WINDOW)
        p = SystemParams(gamma_c=1.0)
        with pytest.raises(ValueError):
            BathOracle(discretize_bath(b, 200), p)

    @pytest.mark.parametrize("bad", ["delta", "k", "coupling"])
    def test_oracle_rejects_non_finite_input(self, bad):
        d = discretize_bath(bath_for_rates(1.0, 0.5, EPS0, WINDOW), 2000)
        p = SystemParams(delta=1.0, gamma_c=1.0, gamma_x=0.5)
        if bad == "delta":
            # SystemParams rejects NaN itself; force one past it to reach
            # the oracle's own guard
            object.__setattr__(p, "delta", np.nan)
        k = np.inf if bad == "k" else 0.0
        if bad == "coupling":
            gc = d.coupling_c.copy()
            gc[7] = np.nan
            d = DiscretizedBath(d.mode_freqs, gc, d.coupling_x)
        with pytest.raises(ValueError):
            BathOracle(d, p, k=k)

    def test_oracle_rejects_unshared_couplings(self):
        # couplings that are not proportional cannot share one bright mode
        d = discretize_bath(bath_for_rates(1.0, 0.5, EPS0, WINDOW), 2000)
        twisted = d.coupling_x * np.linspace(0.5, 1.5, d.n_modes)
        with pytest.raises(ValueError):
            BathOracle(DiscretizedBath(d.mode_freqs, d.coupling_c, twisted),
                       SystemParams(gamma_c=1.0, gamma_x=0.5))

    def test_oracle_rejects_narrow_window(self):
        b = bath_for_rates(1.0, 0.0, EPS0, (990.0, 1010.0))
        p = SystemParams(gamma_c=1.0)
        with pytest.raises(ValueError):
            BathOracle(discretize_bath(b, 2000), p)


class TestOracleWignerWeisskopf:
    def test_photon_decay_and_dark_exciton(self):
        # g_R = 0, kappa_x = 0: photon decays at gamma_c, exciton frozen
        b = bath_for_rates(1.0, 0.0, EPS0, WINDOW)
        p = SystemParams(delta=0.0, gamma_c=1.0, gamma_x=0.0)
        orc = BathOracle(discretize_bath(b, 2000), p)
        t = np.linspace(0.0, 3.0, 61)
        c, _ = orc.dynamics((1.0, 0.0), t)
        rate = -np.polyfit(t, np.log(np.abs(c)), 1)[0]
        assert rate == pytest.approx(1.0, rel=0.02)
        _, x = orc.dynamics((0.0, 1.0), t)
        assert np.max(np.abs(np.abs(x) - 1.0)) < 1e-12


class TestOracleLevelAttraction:
    def test_spectrum_peaks_on_branches(self, attract_oracle):
        orc, p = attract_oracle
        step = 0.05
        w = np.arange(995.0, 1011.0 + step / 2, step)
        ldos = orc.spectrum(w, eta=0.5)
        low, up = eigen_branches(p, 0.0)
        centers, widths, _ = lorentzian_pair_fit(
            w, ldos, (low.omega.real, up.omega.real))
        assert abs(centers[0] - low.omega.real) <= step
        assert abs(centers[1] - up.omega.real) <= step
        # level attraction: fitted separation below the bare detuning
        assert centers[1] - centers[0] < p.delta
        # linewidths: branch widths broadened by eta
        assert widths[0] == pytest.approx(-low.omega.imag + 0.5, rel=0.05)
        assert widths[1] == pytest.approx(-up.omega.imag + 0.5, rel=0.05)

    def test_effective_cross_damping(self, attract_oracle):
        # the central emergence claim: a common bath generates the
        # off-diagonal dissipative coupling sqrt(gamma_c gamma_x)
        orc, p = attract_oracle
        w = np.linspace(985.0, 1015.0, 7)
        gam = orc.effective_damping(w)
        cross = gam[:, 0, 1].real
        target = np.sqrt(p.gamma_c * p.gamma_x)
        assert np.max(np.abs(cross - target)) < 0.03 * target
        assert np.max(np.abs(gam[:, 0, 0].real - p.gamma_c)) < 0.03 * p.gamma_c
        assert np.max(np.abs(gam[:, 1, 1].real - p.gamma_x)) < 0.03 * p.gamma_x

    def test_spectrum_guard_against_mode_comb(self, attract_oracle):
        orc, _ = attract_oracle
        with pytest.raises(KernelAccuracyError):
            orc.spectrum(np.array([1000.0]), eta=0.1 * orc.bath.spacing)

    @pytest.mark.parametrize("method", ["spectrum", "green_system",
                                        "effective_damping"])
    def test_eta_and_omega_validated(self, attract_oracle, method):
        # N = 4000 modes on (500, 1500): twice the level spacing is 0.5
        orc, _ = attract_oracle
        call = getattr(orc, method)
        w = np.array([999.0, 1001.0])
        for eta in (-0.5, np.nan, 0.01, np.inf):
            with pytest.raises(KernelAccuracyError):
                call(w, eta=eta)
        for bad in (np.array([1000.0, np.nan]), np.array([1000.0, np.inf]),
                    1000.0, np.full((2, 2), 1000.0)):
            with pytest.raises(ValueError):
                call(bad)
        # the bound itself is allowed
        assert np.all(np.isfinite(call(w, eta=2.0 * orc.bath.spacing)))

    def test_recurrence_guard(self, attract_oracle):
        orc, _ = attract_oracle
        with pytest.raises(RecurrenceLimitError):
            orc.dynamics((1.0, 0.0), np.array([orc.recurrence_time]))

    @pytest.mark.parametrize("initial, times", [
        pytest.param((0.0, 1.0), [0.0, np.nan], id="time-nan"),
        pytest.param((0.0, 1.0), [0.0, np.inf], id="time-inf"),
        pytest.param((np.nan, 1.0), [0.0, 1.0], id="cavity-nan"),
        pytest.param((0.0, complex(1.0, np.inf)), [0.0, 1.0], id="emitter-inf"),
    ])
    def test_dynamics_rejects_non_finite(self, attract_oracle, initial, times):
        orc, _ = attract_oracle
        with pytest.raises(ValueError, match="must be finite"):
            orc.dynamics(initial, times)


class TestOracleBic:
    def test_plateau_matches_closed_form(self, bic_oracle):
        orc, p = bic_oracle
        t = np.linspace(12.0, 15.0, 7)
        c, x = orc.dynamics((0.0, 1.0), t)
        assert np.abs(x[-1]) ** 2 == pytest.approx(0.5917159763313609, rel=0.05)
        assert np.abs(c[-1]) ** 2 == pytest.approx(0.17751479289940827, rel=0.05)
        exact_c, exact_x = bic_amplitudes(p, t)
        assert np.max(np.abs(np.abs(x) ** 2 - exact_x)) < 0.05 * exact_x.max()

    def test_oscillation_frequency(self, bic_oracle):
        # beat note between the two branches: g_R (gamma_c+gamma_x)/sqrt(..)
        orc, p = bic_oracle
        t = np.linspace(0.0, 12.0, 2401)
        _, x = orc.dynamics((0.0, 1.0), t)
        sig = np.abs(x) ** 2 - np.mean(np.abs(x) ** 2)
        freqs = np.fft.rfftfreq(t.size, t[1] - t[0]) * 2.0 * np.pi
        spec = np.abs(np.fft.rfft(sig * np.hanning(t.size)))
        peak = freqs[np.argmax(spec[1:]) + 1]
        omega_beat = p.g_rabi * (p.gamma_c + p.gamma_x) / np.sqrt(
            p.gamma_c * p.gamma_x)
        assert peak == pytest.approx(omega_beat, rel=0.05)


class TestOracleSpectrum:
    def test_spectrum_normalizes(self):
        b = bath_for_rates(1.0, 0.0, EPS0, WINDOW)
        p = SystemParams(gamma_c=1.0)
        d = discretize_bath(b, 2000)
        w = np.linspace(900.0, 1100.0, 2001)
        ldos = BathOracle(d, p).spectrum(w)
        # two system levels' worth of weight, most of it inside the window
        assert np.trapezoid(ldos, w) == pytest.approx(2.0, rel=0.05)


SMALL_N = 300


def _small_oracle(case):
    """Oracle on a SMALL_N-mode bath for one named parameter regime."""
    k = 0.0
    if case == "attraction":
        p = SystemParams(delta=3.0, gamma_c=1.0, gamma_x=1.8)
        b = bath_for_rates(1.0, 1.8, EPS0, WINDOW)
    elif case == "dark-exciton":
        # kappa_x = 0 and g_R = 0: the emitter's border entry is zero
        p = SystemParams(delta=0.0, gamma_c=1.0, gamma_x=0.0)
        b = bath_for_rates(1.0, 0.0, EPS0, WINDOW)
    elif case == "uncoupled":
        p = SystemParams(delta=1.0, g_rabi=2.0, gamma_c=0.0, gamma_x=0.0)
        b = BathSpec(0.0, 0.0, WINDOW)
    elif case == "dark-mode-point":
        delta = bic_condition(SystemParams(g_rabi=3.0, gamma_x=0.3)).d_eps_bic
        p = SystemParams(delta=delta, g_rabi=3.0, gamma_c=1.0, gamma_x=0.3)
        b = bath_for_rates(1.0, 0.3, EPS0, (800.0, 1200.0))
    elif case == "emitter-on-mode":
        # kappa_x = 0 makes the emitter the dark mode; put its energy
        # exactly on a bath frequency
        b = bath_for_rates(1.0, 0.0, EPS0, WINDOW)
        freqs = discretize_bath(b, SMALL_N).mode_freqs
        on = float(freqs[np.argmin(np.abs(freqs - 1001.0))])
        p = SystemParams(eps0=on, delta=EPS0 + 0.7 - on, g_rabi=0.8,
                         gamma_c=1.0, gamma_x=0.0)
    elif case == "finite-k":
        k = 3.0
        p = SystemParams(delta=2.0, g_rabi=0.5, mass_ratio=0.3,
                         gamma_c=1.0, gamma_x=0.7)
        b = bath_for_rates(1.0, 0.7, EPS0, WINDOW)
    return BathOracle(discretize_bath(b, SMALL_N, k=k), p, k=k,
                      min_modes=SMALL_N)


SMALL_CASES = ("attraction", "dark-exciton", "uncoupled", "dark-mode-point",
               "emitter-on-mode", "finite-k")


def _bare(orc):
    eps_c, eps_x = kinetic_energies(orc.params, orc.k)
    return np.array([[eps_c, orc.params.g_rabi], [orc.params.g_rabi, eps_x]])


def _dense_eigh(orc):
    """Reference: dense eigh of the full (N+2) Hamiltonian (cavity,
    emitter, bath modes); returns energies and the two system rows."""
    d = orc.bath
    n = d.n_modes
    h = np.zeros((n + 2, n + 2))
    h[:2, :2] = _bare(orc)
    h[0, 2:] = h[2:, 0] = d.coupling_c
    h[1, 2:] = h[2:, 1] = d.coupling_x
    h[2:, 2:][np.diag_indices(n)] = d.mode_freqs
    energies, states = np.linalg.eigh(h)
    return energies, states[:2]


def _green_from_eigenpairs(energies, rows, omega, eta):
    denom = 1.0 / (omega[:, None] - energies[None, :] + 1j * eta)
    g = np.empty((omega.size, 2, 2), dtype=complex)
    for a in range(2):
        for b in range(2):
            g[:, a, b] = denom @ (rows[a] * rows[b])
    return g


def _assert_rel(value, ref, rel):
    # relative to the largest reference entry, floored at the unit rate
    scale = max(np.max(np.abs(ref)), 1.0)
    assert np.max(np.abs(value - ref)) <= rel * scale


@pytest.mark.parametrize("case", SMALL_CASES)
class TestOracleAgainstDenseEigh:
    def test_energies_and_system_weights(self, case):
        orc = _small_oracle(case)
        energies, rows = _dense_eigh(orc)
        assert np.max(np.abs(orc.energies - energies)) <= 1e-10
        # products of one eigenvector's components do not depend on its sign
        for a, b in ((0, 0), (0, 1), (1, 1)):
            got = orc.system_rows[a] * orc.system_rows[b]
            assert np.max(np.abs(got - rows[a] * rows[b])) <= 1e-10

    def test_dynamics(self, case):
        orc = _small_oracle(case)
        energies, rows = _dense_eigh(orc)
        t = np.linspace(0.0, 0.45 * orc.recurrence_time, 101)
        for init in ((1.0, 0.0), (0.0, 1.0), (0.6, -0.8j)):
            c, x = orc.dynamics(init, t)
            phases = np.exp(-1j * np.outer(t, energies)) * (
                rows[0] * init[0] + rows[1] * init[1])
            assert np.max(np.abs(c - phases @ rows[0])) <= 1e-10
            assert np.max(np.abs(x - phases @ rows[1])) <= 1e-10

    def test_resolvent_quantities(self, case):
        orc = _small_oracle(case)
        energies, rows = _dense_eigh(orc)
        eta = 2.0 * orc.bath.spacing
        omega = np.linspace(orc.params.eps0 - 40.0, orc.params.eps0 + 40.0, 81)
        g_ref = _green_from_eigenpairs(energies, rows, omega, eta)
        _assert_rel(orc.green_system(omega, eta), g_ref, 1e-11)
        ldos_ref = -(g_ref[:, 0, 0] + g_ref[:, 1, 1]).imag / np.pi
        _assert_rel(orc.spectrum(omega, eta), ldos_ref, 1e-11)
        # damping from inverting the eigen-sum Green's matrix to M-form
        gam_ref = -1j * (np.linalg.inv(g_ref) - omega[:, None, None] * np.eye(2)
                         + _bare(orc)) - eta * np.eye(2)
        _assert_rel(orc.effective_damping(omega, eta), gam_ref, 1e-11)


def test_emitter_on_bath_mode_keeps_its_weight():
    # the deflated eigenvalue sits exactly on the bath frequency and still
    # carries emitter weight; the secular roots strictly avoid it
    orc = _small_oracle("emitter-on-mode")
    on = orc.params.eps0
    at = np.flatnonzero(orc.energies == on)
    assert at.size == 1
    assert orc.system_rows[1, at[0]] ** 2 > 1e-3
