"""Tests for spectra: power spectrum, scattering amplitudes, R and A."""

import dataclasses
import os
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.optimize import curve_fit

from ioxsim import SystemParams, eigen_branches, spectra
from ioxsim.bath import BathOracle, BathSpec
from ioxsim.cli import load_config
from ioxsim.core import bic_condition
from ioxsim.errors import DivergentPointError, SingularMatrixError
from ioxsim.spectra import (
    InputOccupation,
    SpectrumGrid,
    absorption,
    absorption_components,
    absorption_grid,
    default_omega_window,
    lorentzian_pair_fit,
    power_absorption_relation_check,
    power_spectrum,
    power_spectrum_grid,
    reflection,
    scattering_amplitude_single_bath,
    scattering_matrix_three_bath,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ATTRACT = SystemParams(delta=3.0, gamma_c=1.0, gamma_x=1.8)
BIC = SystemParams(delta=2.1 / np.sqrt(0.3), g_rabi=3.0, gamma_c=1.0, gamma_x=0.3)
LOSSY = SystemParams(delta=3.0, gamma_c=1.0, gamma_x=1.8,
                     gamma_nr_c=0.15, gamma_nr_x=0.15)


def random_passive(rng, nonradiative=False):
    kwargs = dict(
        delta=rng.uniform(-4, 4),
        g_rabi=rng.uniform(0, 3),
        mass_ratio=rng.uniform(0, 1),
        gamma_c=rng.uniform(0.05, 2),
        gamma_x=rng.uniform(0.05, 2),
    )
    if nonradiative:
        kwargs["gamma_nr_c"] = rng.uniform(0.05, 0.5)
        kwargs["gamma_nr_x"] = rng.uniform(0.05, 0.5)
    return SystemParams(**kwargs)


class TestInputOccupation:
    def test_constant(self):
        n = InputOccupation(2.0)
        assert n(1000.0) == 2.0

    def test_callable_and_table(self):
        # only a constant or a table is an occupation, not a callable
        with pytest.raises(TypeError):
            InputOccupation(lambda w: 0.5)
        table = InputOccupation(([0.0, 1.0, 2.0], [0.0, 1.0, 0.0]))
        assert table(0.5) == pytest.approx(0.5)
        assert np.allclose(table(np.array([0.5, 1.5])), 0.5)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            InputOccupation(-1.0)
        # a tabulated negative value is rejected when built, not when called
        with pytest.raises(ValueError, match="non-negative"):
            InputOccupation(([0.0, 1.0], [1.0, -0.5]))

    @pytest.mark.parametrize("form", [
        pytest.param(np.nan, id="const-nan"),
        pytest.param(np.inf, id="const-inf"),
        pytest.param(([0.0, 1.0], [1.0, np.nan]), id="value-nan"),
        pytest.param(([0.0, 1.0], [1.0, np.inf]), id="value-inf"),
        pytest.param(([0.0, np.nan], [1.0, 1.0]), id="point-nan"),
        pytest.param(([0.0, np.inf], [1.0, 1.0]), id="point-inf"),
    ])
    def test_rejects_non_finite(self, form):
        with pytest.raises(ValueError, match="finite"):
            InputOccupation(form)


class TestPowerSpectrum:
    def test_vanishes_without_environment(self):
        p = SystemParams(delta=1.0, g_rabi=2.0, gamma_c=0.0, gamma_x=0.0,
                         gamma_nr_c=0.1, gamma_nr_x=0.1)
        w = np.linspace(*default_omega_window(p), 101)
        assert np.allclose(power_spectrum(p, 0.0, w), 0.0)

    def test_level_attraction_peak_separation(self):
        # the two fitted resonance centers sit closer than the bare detuning
        low, up = eigen_branches(ATTRACT, 0.0)
        w = np.linspace(*default_omega_window(ATTRACT), 2001)
        intensity = power_spectrum(ATTRACT, 0.0, w)
        centers, _, _ = lorentzian_pair_fit(
            w, intensity, (ATTRACT.eps0, ATTRACT.eps0 + ATTRACT.delta))
        sep = centers[1] - centers[0]
        assert sep == pytest.approx(up.omega.real - low.omega.real, rel=1e-6)
        assert sep < ATTRACT.delta

    def test_bic_inverse_square_divergence(self):
        # Approaching the undamped-mode condition, the surviving peak height
        # grows as the inverse square of its distance from the limiting dark
        # frequency: the branch linewidth closes quadratically in the detuning
        # offset while the peak position moves linearly.
        low0, _ = eigen_branches(BIC, 0.0)
        assert abs(low0.omega.imag) < 1e-12
        w0 = low0.omega.real
        dists, heights = [], []
        for m in (2, 3, 4, 5):
            p = SystemParams(delta=BIC.delta * (1.0 - 10.0 ** (-m)),
                             g_rabi=BIC.g_rabi, gamma_c=BIC.gamma_c,
                             gamma_x=BIC.gamma_x)
            low, _ = eigen_branches(p, 0.0)
            dists.append(abs(low.omega.real - w0))
            heights.append(power_spectrum(p, 0.0, np.array([low.omega.real]))[0])
        assert dists[0] / dists[-1] > 100.0  # spans more than two decades
        slope = np.polyfit(np.log(dists), np.log(heights), 1)[0]
        assert slope == pytest.approx(-2.0, abs=0.05)

    def test_driven_response_finite_at_exact_condition(self):
        # Exactly on the undamped-mode condition the *driven* spectrum stays
        # finite off the pole: the environment decouples from the dark mode,
        # so the numerator zero rides on the pole and cancels it.  The
        # limiting value is 4(gamma_c + gamma_x)/|omega_L - omega_U|^2.
        low, up = eigen_branches(BIC, 0.0)
        limit = 4.0 * (BIC.gamma_c + BIC.gamma_x) / abs(low.omega - up.omega) ** 2
        r = np.logspace(-5, -3, 9)
        intensity = power_spectrum(BIC, 0.0, low.omega.real + r)
        assert np.allclose(intensity, limit, rtol=1e-2)

    def test_divergence_flagged(self):
        low, _ = eigen_branches(BIC, 0.0)
        with pytest.raises(DivergentPointError):
            power_spectrum(BIC, 0.0, low.omega.real)

    def test_grid_flags_instead_of_raising(self):
        low, _ = eigen_branches(BIC, 0.0)
        w0 = low.omega.real
        grid = power_spectrum_grid(BIC, [0.0], [w0 - 1.0, w0, w0 + 1.0])
        assert grid.divergent[0].tolist() == [False, True, False]
        assert np.isnan(grid.intensity[0, 1])
        assert np.isfinite(grid.intensity[0, [0, 2]]).all()

    def test_positivity_sampled(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            p = random_passive(rng, nonradiative=rng.random() < 0.5)
            k = rng.uniform(-2, 2)
            w = p.eps0 + rng.uniform(-10, 10, size=100)
            assert np.all(power_spectrum(p, k, w) > -1e-12)

    def test_occupation_scales(self):
        w = np.linspace(*default_omega_window(ATTRACT), 51)
        base = power_spectrum(ATTRACT, 0.0, w)
        assert np.allclose(power_spectrum(ATTRACT, 0.0, w, 2.0), 2 * base)

    def test_peaks_on_branches_when_resolved(self):
        # well split branches: maxima within one grid step of Re omega_{L,U}
        p = SystemParams(delta=0.0, g_rabi=3.0, gamma_c=1.0, gamma_x=0.3)
        low, up = eigen_branches(p, 0.0)
        step = 0.01
        w = np.arange(p.eps0 - 8.0, p.eps0 + 8.0 + step / 2, step)
        intensity = power_spectrum(p, 0.0, w)
        inner = (intensity[1:-1] > intensity[:-2]) & (intensity[1:-1] > intensity[2:])
        peaks = w[1:-1][inner]
        assert len(peaks) == 2
        assert abs(peaks[0] - low.omega.real) <= step + 1e-12
        assert abs(peaks[1] - up.omega.real) <= step + 1e-12

    def test_cavity_only_lorentzian(self):
        # gamma_x = 0, g_rabi = 0: pure cavity decay lineshape away from the
        # dark exciton line (the formal pole there is flagged, not evaluated)
        p = SystemParams(delta=2.0, gamma_c=0.7, gamma_x=0.0)
        w = np.linspace(*default_omega_window(p), 300)
        assert not np.any(np.abs(w - p.eps0) < 1e-9)
        z_c = p.eps0 + 2.0 - 0.7j
        expect = 4.0 * 0.7 / np.abs(w - z_c) ** 2
        assert np.allclose(power_spectrum(p, 0.0, w), expect, rtol=1e-12)
        with pytest.raises(DivergentPointError):
            power_spectrum(p, 0.0, float(p.eps0))


def two_lorentzians(w, a1, x1, g1, a2, x2, g2):
    return (a1 * g1 ** 2 / ((w - x1) ** 2 + g1 ** 2)
            + a2 * g2 ** 2 / ((w - x2) ** 2 + g2 ** 2))


def fit_residual(w, values, centers, widths, amps):
    r = values - two_lorentzians(w, amps[0], centers[0], widths[0],
                                 amps[1], centers[1], widths[1])
    return float((r * r).sum())


def branch_energies(p, k=0.0):
    low, up = eigen_branches(p, k)
    return np.array([low.omega.real, up.omega.real])


def branch_spectrum(p, num=801):
    """The k = 0 power spectrum on the default window, and Re omega_{L,U}."""
    w = np.linspace(*default_omega_window(p), num)
    return w, power_spectrum(p, 0.0, w), branch_energies(p)


def oracle_spectra():
    """(omega, ldos, intensity, guesses) of the bundled oracle-compare run."""
    cfg = load_config(os.path.join(ROOT, "configs",
                                   "oracle_compare_attraction.json"))
    p = cfg.systems[0]
    orc = BathOracle(cfg.bath, cfg.n_modes, p)
    ldos = orc.spectrum(cfg.omega_grid)
    return (cfg.omega_grid, ldos, power_spectrum(p, 0.0, cfg.omega_grid),
            branch_energies(p))


def attraction_draws(seed, count):
    """Seeded systems whose branches attract: Re splitting below delta."""
    rng = np.random.default_rng(seed)
    while count:
        p = SystemParams(delta=rng.uniform(0.2, 4.0),
                         g_rabi=rng.uniform(0.0, 0.5),
                         gamma_x=rng.uniform(0.1, 2.5))
        low, up = branch_energies(p)
        if up - low < p.delta:
            count -= 1
            yield p


# the merged-peak draw: one visible maximum, branches 0.68 apart
MERGED = SystemParams(delta=1.86, g_rabi=0.08, gamma_x=0.89)
# a seeded draw that the fit, freeing the centers at once from its best
# start, turns into two coinciding components
COINCIDING_TRAP = SystemParams(delta=2.6381563517109727,
                               g_rabi=0.2799251347306856,
                               gamma_x=1.730436119971681)


def equivalence_cases():
    w, ldos, intensity, guesses = oracle_spectra()
    yield "bundled-oracle-ldos", w, ldos, guesses
    yield "bundled-oracle-analytic", w, intensity, guesses
    p = SystemParams(delta=3.0, gamma_x=1.8)
    w = np.linspace(p.eps0 - 8.0, p.eps0 + 8.0, 1601)
    yield ("anomalous-dispersion", w, power_spectrum(p, 0.0, w),
           branch_energies(p))
    b = BathSpec((500.0, 1500.0))
    w = np.arange(995.0, 1011.0 + 0.025, 0.05)
    yield ("rate-emergence", w, BathOracle(b, 4000, p).spectrum(w),
           branch_energies(p))
    yield ("merged",) + branch_spectrum(MERGED)
    yield ("coinciding-trap",) + branch_spectrum(COINCIDING_TRAP)
    for i, p in enumerate(attraction_draws(2718, 16)):
        yield ("draw-%d" % i,) + branch_spectrum(p)


class TestLorentzianPairFit:
    def test_merged_peaks_give_both_branches(self):
        # level attraction merges the lines into one maximum; the exact
        # two-pole lineshape still holds both branch energies
        w, intensity, branches = branch_spectrum(MERGED)
        assert np.count_nonzero((intensity[1:-1] > intensity[:-2])
                                & (intensity[1:-1] > intensity[2:])) == 1
        centers, widths, amps = lorentzian_pair_fit(w, intensity, branches)
        assert np.max(np.abs(centers - branches)) < 1e-6
        assert fit_residual(w, intensity, centers, widths, amps) < 1e-20

    def test_no_worse_than_curve_fit(self):
        # scipy's curve_fit on all six parameters from half-widths (1, 1),
        # the fit this function replaced, run to its tightest tolerances:
        # the same centers to 1e-8, or a residual no larger than its own
        checked = 0
        for name, w, values, guesses in equivalence_cases():
            centers, widths, amps = lorentzian_pair_fit(w, values, guesses)
            top = values.max()
            try:
                with warnings.catch_warnings():
                    # the reference may overflow on its way; only the new
                    # fit is held to the suite's no-warning rule
                    warnings.simplefilter("ignore")
                    ref, _ = curve_fit(two_lorentzians, w, values,
                                       p0=[top, guesses[0], 1.0,
                                           top, guesses[1], 1.0],
                                       maxfev=20000, ftol=1e-15, xtol=1e-15,
                                       gtol=1e-15)
            except RuntimeError:
                continue
            checked += 1
            ref_centers = np.sort(ref[[1, 4]])
            ref_residual = fit_residual(w, values, ref[[1, 4]], ref[[2, 5]],
                                        ref[[0, 3]])
            assert (np.max(np.abs(centers - ref_centers)) <= 1e-8
                    or fit_residual(w, values, centers, widths, amps)
                    <= ref_residual), name
        assert checked >= 19

    def test_sorted_and_deterministic(self):
        w, intensity, branches = branch_spectrum(ATTRACT)
        first = lorentzian_pair_fit(w, intensity, branches[::-1])
        again = lorentzian_pair_fit(w, intensity, branches[::-1])
        assert first[0][0] < first[0][1]
        for a, b in zip(first, again):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf],
                             ids=["nan", "inf", "minus-inf"])
    def test_rejects_non_finite_values(self, bad):
        w, intensity, branches = branch_spectrum(ATTRACT, num=101)
        intensity[50] = bad
        with pytest.raises(ValueError, match="values must be finite"):
            lorentzian_pair_fit(w, intensity, branches)

    @pytest.mark.parametrize("source, rule", [
        ("closed-form", "no convergence in 100 steps"),
        ("oracle", "center outside the sampled omega range"),
    ])
    def test_no_peak_in_window_raises(self, source, rule):
        # far above both lines the spectrum is a bare tail: the closed
        # form runs into the step cap, the oracle's fit leaves the window
        w = np.linspace(1100.0, 1150.0, 50)
        if source == "oracle":
            orc = BathOracle(BathSpec((500.0, 1500.0)), 4000, ATTRACT)
            values = orc.spectrum(w)
        else:
            values = power_spectrum(ATTRACT, 0.0, w)
        with pytest.raises(RuntimeError, match=rule):
            lorentzian_pair_fit(w, values, branch_energies(ATTRACT))


class TestSingleBathAmplitude:
    def test_no_coupling(self):
        p = SystemParams(gamma_c=0.0, gamma_x=0.0, g_rabi=1.0)
        assert scattering_amplitude_single_bath(p, 0.0, p.eps0 + 0.3) == 1.0

    def test_unimodular_sampled(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            p = random_passive(rng)
            k = rng.uniform(-2, 2)
            w = p.eps0 + rng.uniform(-8, 8)
            s = scattering_amplitude_single_bath(p, k, w)
            assert abs(abs(s) - 1.0) < 1e-12

    def test_cofactor_matches_lapack_inverse(self):
        p = BIC
        w = p.eps0
        s = scattering_amplitude_single_bath(p, 0.0, w)
        h = np.array(
            [[p.eps0 + p.delta - 1j * p.gamma_c,
              p.g_rabi - 1j * np.sqrt(p.gamma_c * p.gamma_x)],
             [p.g_rabi - 1j * np.sqrt(p.gamma_c * p.gamma_x),
              p.eps0 - 1j * p.gamma_x]])
        g = np.linalg.inv(w * np.eye(2) - h)
        s_ref = 1.0 - 2.0j * (p.gamma_c * g[0, 0] + p.gamma_x * g[1, 1]
                              + np.sqrt(p.gamma_c * p.gamma_x)
                              * (g[0, 1] + g[1, 0]))
        assert s == pytest.approx(s_ref, abs=1e-12)

    def test_rejects_nonradiative(self):
        with pytest.raises(ValueError):
            scattering_amplitude_single_bath(LOSSY, 0.0, LOSSY.eps0)


class TestThreeBathMatrix:
    def test_no_common_bath(self):
        p = SystemParams(delta=1.0, g_rabi=2.0, gamma_c=0.0, gamma_x=0.0,
                         gamma_nr_c=0.3, gamma_nr_x=0.2)
        s = scattering_matrix_three_bath(p, 0.0, p.eps0 + 0.5)
        assert s[0, 0] == pytest.approx(1.0, abs=1e-14)
        # channel 1 decouples entirely
        assert np.allclose(s[0, 1:], 0.0) and np.allclose(s[1:, 0], 0.0)
        # the independent-bath 2x2 sub-block is itself unitary
        sub = s[1:, 1:]
        assert np.allclose(sub @ sub.conj().T, np.eye(2), atol=1e-12)

    def test_no_loss_baths(self):
        s = scattering_matrix_three_bath(ATTRACT, 0.0, ATTRACT.eps0 + 1.0)
        assert s[1, 1] == 1.0 and s[2, 2] == 1.0
        off = [s[0, 1], s[1, 0], s[0, 2], s[2, 0], s[1, 2], s[2, 1]]
        assert np.allclose(off, 0.0)

    def test_column_power_balance(self):
        w = np.linspace(*default_omega_window(LOSSY), 97)
        stack = scattering_matrix_three_bath(LOSSY, 0.4, w)
        for wi, s_of_array in zip(w, stack):
            for s in (scattering_matrix_three_bath(LOSSY, 0.4, wi), s_of_array):
                total = abs(s[0, 0]) ** 2 + abs(s[1, 0]) ** 2 + abs(s[2, 0]) ** 2
                assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("p", [LOSSY, ATTRACT, BIC],
                             ids=["lossy", "attract", "bic"])
    def test_omega_array_matches_scalar(self, p):
        w = np.linspace(*default_omega_window(p), 41)
        stack = scattering_matrix_three_bath(p, 0.4, w)
        assert stack.shape == (41, 3, 3)
        for wi, s in zip(w, stack):
            assert np.array_equal(s, scattering_matrix_three_bath(p, 0.4, wi))
        # the other two public views read the same S
        assert np.array_equal(np.abs(stack[:, 0, 0]) ** 2, reflection(p, 0.4, w))
        if p.gamma_nr_c == p.gamma_nr_x == 0.0:
            assert np.array_equal(stack[:, 0, 0],
                                  scattering_amplitude_single_bath(p, 0.4, w))

    def test_matches_reflection_absorption(self):
        w = LOSSY.eps0 + 1.7
        s = scattering_matrix_three_bath(LOSSY, 0.0, w)
        assert abs(s[0, 0]) ** 2 == pytest.approx(reflection(LOSSY, 0.0, w),
                                                  abs=1e-14)
        a = abs(s[1, 0]) ** 2 + abs(s[2, 0]) ** 2
        assert a == pytest.approx(absorption(LOSSY, 0.0, w), abs=1e-12)


class TestReflectionAbsorption:
    def test_lossless_total_reflection(self):
        w = np.linspace(*default_omega_window(ATTRACT), 101)
        assert np.allclose(reflection(ATTRACT, 0.0, w), 1.0, atol=1e-12)
        assert np.allclose(absorption(ATTRACT, 0.0, w), 0.0, atol=1e-14)

    def test_flux_conservation_sampled(self):
        rng = np.random.default_rng(31)
        for _ in range(500):
            p = random_passive(rng, nonradiative=True)
            k = rng.uniform(-2, 2)
            w = p.eps0 + rng.uniform(-8, 8)
            r = reflection(p, k, w)
            a = absorption(p, k, w)
            assert abs(r + a - 1.0) < 1e-12
            assert 0.0 <= r <= 1.0 and 0.0 <= a <= 1.0

    def test_absorption_map_structure(self):
        # the absorption ridge follows the power-spectrum ridge
        k = np.linspace(-3, 3, 61)
        w = np.linspace(*default_omega_window(LOSSY), 801)
        amap = absorption_grid(LOSSY, k, w)
        pmap = power_spectrum_grid(LOSSY, k, w)
        assert np.all((amap.intensity >= 0) & (amap.intensity <= 1))
        ridge_a = np.argmax(amap.intensity, axis=1)
        ridge_p = np.argmax(pmap.intensity, axis=1)
        assert np.array_equal(ridge_a, ridge_p)

    def test_undamped_pole_flagged(self):
        # radiative losses only: A = 0 * inf on the dark pole, masked and
        # rejected as the power spectrum is, with no warnings
        k = np.array([-0.5, 0.0, 0.5])
        w0 = eigen_branches(BIC, 0.0)[0].omega.real
        w = np.array([w0 - 1.0, w0, w0 + 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grid = absorption_grid(BIC, k, w)
        assert grid.divergent.tolist() == [[False] * 3, [False, True, False],
                                           [False] * 3]
        assert np.isnan(grid.intensity[1, 1])
        assert np.array_equal(np.isnan(grid.intensity), grid.divergent)
        for (i, j), value in np.ndenumerate(grid.intensity):
            if grid.divergent[i, j]:
                with pytest.raises(DivergentPointError):
                    absorption(BIC, k[i], w[j])
                with pytest.raises(DivergentPointError):
                    absorption_components(BIC, k[i], w[j])
            else:
                assert absorption(BIC, k[i], w[j]) == value
        with pytest.raises(DivergentPointError):
            absorption(BIC, k, w)


class TestScatteringSingularPath:
    # the undamped-pole acceptance check's parameters: the lower branch is
    # a real pole, where M is singular and S is undefined
    DARK = SystemParams(
        delta=bic_condition(SystemParams(g_rabi=3.0, gamma_x=0.3)).d_eps_bic,
        g_rabi=3.0, gamma_x=0.3)

    @pytest.mark.parametrize("fn", [reflection, scattering_amplitude_single_bath,
                                    scattering_matrix_three_bath],
                             ids=lambda fn: fn.__name__)
    def test_raises_on_undamped_pole(self, fn):
        low, _ = eigen_branches(self.DARK, 0.0)
        assert low.omega.imag == 0.0
        with pytest.raises(SingularMatrixError):
            fn(self.DARK, 0.0, low.omega.real)

    @pytest.mark.parametrize("fn", [reflection, scattering_amplitude_single_bath,
                                    scattering_matrix_three_bath],
                             ids=lambda fn: fn.__name__)
    def test_array_with_pole_raises(self, fn):
        w0 = eigen_branches(self.DARK, 0.0)[0].omega.real
        fn(self.DARK, 0.0, np.array([w0 - 1.0, w0 + 1.0]))
        with pytest.raises(SingularMatrixError):
            fn(self.DARK, 0.0, np.array([w0 - 1.0, w0, w0 + 1.0]))

    @pytest.mark.parametrize("d", [1e-8, 1e-7, 1e-6, 1e-5])
    @pytest.mark.parametrize("side", [-1.0, 1.0], ids=["below", "above"])
    def test_conserving_near_undamped_pole(self, d, side):
        # the distances omega - z are measured from eps0, so no rounding at
        # the carrier scale leaks into |S| or R + A next to the pole
        w = eigen_branches(self.DARK, 0.0)[0].omega.real + side * d
        s = scattering_amplitude_single_bath(self.DARK, 0.0, w)
        assert abs(abs(s) - 1.0) <= 1e-12
        r = reflection(self.DARK, 0.0, w)
        assert abs(r + absorption(self.DARK, 0.0, w) - 1.0) <= 1e-12
        s3 = scattering_matrix_three_bath(self.DARK, 0.0, w)
        assert np.allclose(s3 @ s3.conj().T, np.eye(3), rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("toward", [0.0, 2000.0], ids=["below", "above"])
    def test_conserving_one_ulp_from_undamped_pole(self, toward):
        # absorption flags these points as on the pole; with no loss baths
        # it is zero there, so R alone must be 1
        w = np.nextafter(eigen_branches(self.DARK, 0.0)[0].omega.real, toward)
        s = scattering_amplitude_single_bath(self.DARK, 0.0, w)
        assert abs(abs(s) - 1.0) <= 1e-12
        assert abs(reflection(self.DARK, 0.0, w) - 1.0) <= 1e-12
        s3 = scattering_matrix_three_bath(self.DARK, 0.0, w)
        assert np.allclose(s3 @ s3.conj().T, np.eye(3), rtol=0.0, atol=1e-12)


class TestPowerAbsorptionRelation:
    def test_identity_at_point(self):
        assert power_absorption_relation_check(
            LOSSY, 0.0, LOSSY.eps0) < 1e-12

    def test_zero_occupation(self):
        assert power_absorption_relation_check(
            LOSSY, 0.0, LOSSY.eps0, n=0.0) == 0.0

    def test_identity_sampled(self):
        rng = np.random.default_rng(37)
        worst = 0.0
        for _ in range(1000):
            p = random_passive(rng, nonradiative=True)
            k = rng.uniform(-2, 2)
            w = p.eps0 + rng.uniform(-8, 8)
            worst = max(worst, power_absorption_relation_check(p, k, w))
        assert worst < 1e-10

    @pytest.mark.parametrize("n", [None, 2.5, ([990.0, 1010.0], [0.5, 3.0])],
                             ids=["none", "constant", "table"])
    @pytest.mark.parametrize("k, omega", [
        pytest.param(0.4, LOSSY.eps0 + 1.3, id="scalar"),
        pytest.param(0.4, np.linspace(992.0, 1008.0, 33), id="scalar-k"),
        pytest.param(np.linspace(-2.0, 2.0, 21),
                     np.linspace(992.0, 1008.0, 33), id="k-array"),
    ])
    def test_equals_the_public_calls_bit_for_bit(self, n, k, omega):
        p = SystemParams(delta=1.7, g_rabi=0.9, mass_ratio=0.3, gamma_c=1.1,
                         gamma_x=0.6, gamma_nr_c=0.2, gamma_nr_x=0.35)
        occupation = spectra.as_occupation(n)
        a_gamma, a_m = absorption_components(p, k, omega)
        ref = np.abs(power_spectrum(p, k, omega, occupation)
                     - (a_gamma + a_m) * occupation(omega))
        got = power_absorption_relation_check(p, k, omega, n)
        assert type(got) is type(ref.item() if ref.ndim == 0 else ref)
        assert np.array_equal(np.asarray(got).view(np.int64),
                              np.asarray(ref).view(np.int64))

    @pytest.mark.parametrize("k", [0.0, np.array([-0.5, 0.0, 0.5])],
                             ids=["scalar", "array"])
    def test_undamped_pole_raises(self, k):
        low, _ = eigen_branches(BIC, 0.0)
        with pytest.raises(DivergentPointError,
                           match="power spectrum diverges on an undamped pole"):
            power_absorption_relation_check(BIC, k, low.omega.real)

    @pytest.mark.parametrize("k", [0.4, np.linspace(-2.0, 2.0, 21)],
                             ids=["scalar", "array"])
    def test_modes_formed_once(self, monkeypatch, k):
        # I, A_gamma and A_m come from one pass over one set of modes
        calls = []
        modes = spectra._modes
        monkeypatch.setattr(spectra, "_modes",
                            lambda p, ks: calls.append(ks) or modes(p, ks))
        power_absorption_relation_check(
            LOSSY, k, np.linspace(995.0, 1005.0, 7), n=1.5)
        assert len(calls) == 1


UNFLAGGED = np.zeros((1, 2), bool)


class TestSpectrumGrid:
    def test_validates_axes(self):
        with pytest.raises(ValueError):
            SpectrumGrid([1.0, 0.0], [0.0, 1.0], np.zeros((2, 2)), "power",
                         np.zeros((2, 2), bool))
        with pytest.raises(ValueError):
            SpectrumGrid([0.0], [0.0, 1.0], np.zeros((2, 2)), "power",
                         np.zeros((2, 2), bool))

    def test_validates_kind_and_range(self):
        with pytest.raises(ValueError):
            SpectrumGrid([0.0], [0.0, 1.0], np.zeros((1, 2)), "bogus",
                         UNFLAGGED)
        with pytest.raises(ValueError):
            SpectrumGrid([0.0], [0.0, 1.0], np.zeros((1, 2)), "reflection",
                         UNFLAGGED)
        with pytest.raises(ValueError):
            SpectrumGrid([0.0], [0.0, 1.0], 2 * np.ones((1, 2)), "absorption",
                         UNFLAGGED)
        with pytest.raises(ValueError):
            SpectrumGrid([0.0], [0.0, 1.0], -np.ones((1, 2)), "power",
                         UNFLAGGED)

    def test_range_check_skips_only_divergent_nan(self):
        axes = ([0.0], [0.0, 1.0, 2.0, 3.0])
        flagged = [[False, False, False, True]]
        for kind in ("power", "absorption"):
            SpectrumGrid(*axes, np.array([[0.0, 0.5, 1.0, np.nan]]), kind,
                         flagged)
        SpectrumGrid(*axes, np.array([[-1e-12, 0.0, 5.0, np.nan]]), "power",
                     flagged)
        SpectrumGrid(*axes, np.array([[-1e-9, 1.0 + 1e-9, 1.0, np.nan]]),
                     "absorption", flagged)
        for kind, bad in (("power", -2e-12), ("absorption", -2e-9),
                          ("absorption", 1.0 + 2e-9)):
            with pytest.raises(ValueError):
                SpectrumGrid(*axes, np.array([[0.5, 0.5, bad, np.nan]]),
                             kind, flagged)

    @pytest.mark.parametrize("kind", ["power", "absorption"])
    @pytest.mark.parametrize("row, flagged", [
        ([0.5, np.nan], UNFLAGGED),
        ([0.5, np.nan], [[True, False]]),
        ([np.inf, 1.0], UNFLAGGED),
        ([0.5, -np.inf], UNFLAGGED),
        ([0.5, np.inf], [[False, True]]),
        ([0.5, 0.5], [[True, False]]),
    ], ids=["nan", "nan-unflagged", "inf", "minus-inf", "inf-flagged",
            "flag-on-finite"])
    def test_rejects_non_finite_intensity(self, kind, row, flagged):
        with pytest.raises(ValueError, match="finite"):
            SpectrumGrid([0.0], [1.0, 2.0], [row], kind, flagged)

    def test_rejects_non_finite_axes(self):
        with pytest.raises(ValueError, match="finite"):
            SpectrumGrid([np.nan], [1.0, np.nan], np.zeros((1, 2)), "power",
                         UNFLAGGED)
        with pytest.raises(ValueError, match="finite"):
            SpectrumGrid([0.0], [1.0, np.inf], np.zeros((1, 2)), "power",
                         UNFLAGGED)

    def test_rejects_mismatched_divergent_mask(self):
        with pytest.raises(ValueError, match="divergent"):
            SpectrumGrid([0.0], [1.0, 2.0], np.zeros((1, 2)), "power",
                         np.zeros((2, 1), bool))

    def test_range_check_copies_nothing(self):
        k = np.linspace(-3.0, 3.0, 241)
        w = np.linspace(990.0, 1010.0, 801)
        intensity = np.full((k.size, w.size), 0.5)
        intensity[0, 0] = np.nan
        divergent = np.zeros(intensity.shape, bool)
        divergent[0, 0] = True
        tracemalloc.start()
        try:
            SpectrumGrid(k, w, intensity, "absorption", divergent)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * intensity.nbytes


def test_pair_fit_scratch_per_sample():
    # the start's (W, W, n) Gram product took 1.16 kB a sample; formed one
    # row of widths at a time the fit needs 0.37 kB
    w = np.linspace(-10.0, 10.0, 20_000)
    values = two_lorentzians(w, 1.0, -1.0, 1.0, 0.5, 1.0, 0.7)
    tracemalloc.start()
    try:
        lorentzian_pair_fit(w, values, (-1.2, 0.8))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 500 * w.size


class TestAllClearGrids:
    """A call in which no branch is undamped forms no divergence mask."""

    K = np.linspace(-3.0, 3.0, 241)

    @pytest.mark.parametrize("p", [ATTRACT, LOSSY], ids=["attract", "lossy"])
    @pytest.mark.parametrize("grid", [power_spectrum_grid, absorption_grid])
    def test_mask_is_a_read_only_all_false_view(self, p, grid):
        w = np.linspace(*default_omega_window(p), 801)
        divergent = grid(p, self.K, w).divergent
        assert divergent.shape == (self.K.size, w.size)
        assert divergent.dtype == bool
        assert not divergent.any()
        assert not divergent.flags.writeable

    def test_grid_retains_only_its_intensity(self):
        w = np.linspace(*default_omega_window(ATTRACT), 801)
        power_spectrum_grid(ATTRACT, self.K, w)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            grid = power_spectrum_grid(ATTRACT, self.K, w)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # a (241, 801) bool mask would add 193 KB
        assert retained <= grid.intensity.nbytes + 64 * 1024


class TestGridAxesCheckedFirst:
    K = np.linspace(-3.0, 3.0, 241)
    W = np.linspace(990.0, 1010.0, 801)

    @pytest.mark.parametrize("grid", [power_spectrum_grid, absorption_grid])
    @pytest.mark.parametrize("k, omega, message", [
        (K[::-1], W, "k_values must be strictly increasing"),
        (K, W[::-1], "omega_values must be strictly increasing"),
        (K.reshape(-1, 1), W, "k_values must be a nonempty 1-d array"),
        (K, [], "omega_values must be a nonempty 1-d array"),
    ], ids=["reversed-k", "reversed-omega", "2-d-k", "empty-omega"])
    def test_bad_axis_raises_before_the_grid_is_computed(
            self, monkeypatch, grid, k, omega, message):
        def computed(*args):
            raise AssertionError("the grid was computed")

        monkeypatch.setattr(spectra, "_on_grid", computed)
        with pytest.raises(ValueError, match=message):
            grid(ATTRACT, k, omega)


# each public spectra entry point as f(p, k, omega), with the array forms
# taking k and omega as the second entry of a pair
NON_FINITE_CALLS = {
    fn.__name__: fn for fn in (
        power_spectrum, absorption, absorption_components, reflection,
        scattering_amplitude_single_bath, scattering_matrix_three_bath,
        power_absorption_relation_check)}
NON_FINITE_CALLS.update({
    "power_spectrum_k_array":
        lambda p, k, w: power_spectrum(p, [0.0, k], [999.0, w]),
    "power_spectrum_grid":
        lambda p, k, w: power_spectrum_grid(p, [0.0, k], [999.0, w]),
    "absorption_grid":
        lambda p, k, w: absorption_grid(p, [0.0, k], [999.0, w]),
    "reflection_omega_array": lambda p, k, w: reflection(p, k, [999.0, w]),
})


class TestNonFiniteInput:
    @pytest.mark.parametrize("name", sorted(NON_FINITE_CALLS))
    @pytest.mark.parametrize("axis", ["k", "omega"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf],
                             ids=["nan", "inf", "minus-inf"])
    def test_rejected(self, name, axis, bad):
        # a NaN or inf k or omega would otherwise give a NaN value or row
        p = SystemParams(delta=1.0, g_rabi=2.0, gamma_c=0.5, gamma_x=0.7)
        k, omega = (bad, 1000.0) if axis == "k" else (0.0, bad)
        with pytest.raises(ValueError, match="%s must be finite" % axis):
            NON_FINITE_CALLS[name](p, k, omega)


# omega = 1e160 overflows every row to NaN off any pole
OVERFLOW = SystemParams(delta=3.0, g_rabi=1.0, gamma_c=1.0, gamma_x=0.3)
OVERFLOW_OMEGA = [990.0, 1000.0, 1e160]
TWO_K = np.array([0.0, 0.5])


class TestOutputRule:
    """Scalar, k-array and grid calls refuse a value by one rule."""

    @pytest.mark.parametrize("fn, k", [
        pytest.param(fn, k, id="%s-%s" % (fn.__name__, k_id))
        for fn in (power_spectrum, absorption, absorption_components,
                   power_absorption_relation_check)
        for k, k_id in ((0.0, "scalar"), (TWO_K, "array"))
    ] + [pytest.param(power_spectrum_grid, TWO_K, id="power_spectrum_grid")])
    def test_overflow_is_not_finite(self, fn, k):
        # the overflow warnings are the subject here, not a silent path
        with np.errstate(all="ignore"), pytest.raises(
                ValueError, match="intensity must be finite"):
            fn(OVERFLOW, k, OVERFLOW_OMEGA)

    @pytest.mark.parametrize("rows, fn, value, message", [
        ("_power_rows", power_spectrum, -2e-12, "must be non-negative"),
        ("_total_absorption_rows", absorption, -2e-9, r"lie in \[0, 1\]"),
        ("_total_absorption_rows", absorption, 1.0 + 2e-9, r"lie in \[0, 1\]"),
        ("_absorption_rows", absorption_components, np.inf, "finite"),
        ("_relation_rows", power_absorption_relation_check, np.nan,
         "finite"),
    ], ids=["power", "absorption-low", "absorption-high", "lineshape",
            "residual"])
    @pytest.mark.parametrize("omega", [1000.0, [999.0, 1000.0]],
                             ids=["one-value", "values"])
    def test_value_outside_its_kind_is_refused(self, monkeypatch, rows, fn,
                                               value, message, omega):
        # one value takes the Python-float path of the rule, several the
        # array path
        def bad_rows(p, m, om, flag, *args):
            shape = (m.levels.shape[1], om.size)
            arrays = 2 if rows == "_absorption_rows" else 1
            return (np.full(shape, value),) * arrays + (None,)

        monkeypatch.setattr(spectra, rows, bad_rows)
        with pytest.raises(ValueError, match=message):
            fn(LOSSY, 0.0, omega)

    @pytest.mark.parametrize("fn, what", [
        pytest.param(fn, what, id=fn.__name__) for fn, what in (
            (power_spectrum, "power spectrum diverges"),
            (absorption, "absorption is undefined"),
            (absorption_components, "absorption lineshapes diverge"),
            (power_absorption_relation_check, "power spectrum diverges"))])
    @pytest.mark.parametrize("k, offsets", [
        (0.0, 0.0), (np.array([0.0, 0.5]), np.array([0.0, 0.25])),
    ], ids=["scalar", "array"])
    def test_on_pole_text_is_the_clis(self, fn, what, k, offsets):
        # the first on-pole (k, omega), as the CLI reports it; with equal
        # masses the dark mode is undamped at every k, shifted by k^2, so
        # the array call meets two poles
        p = dataclasses.replace(BIC, mass_ratio=1.0)
        pole = float(eigen_branches(p, 0.0)[0].omega.real)
        with pytest.raises(DivergentPointError) as info:
            fn(p, k, pole + offsets)
        assert str(info.value) == (
            "%s on an undamped pole at k = 0, omega = %r" % (what, pole))
