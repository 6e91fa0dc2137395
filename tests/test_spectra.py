"""Tests for spectra: power spectrum, scattering amplitudes, R and A."""

import tracemalloc
import warnings

import numpy as np
import pytest

from ioxsim import SystemParams, eigen_branches
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


class TestSpectrumGrid:
    def test_validates_axes(self):
        with pytest.raises(ValueError):
            SpectrumGrid([1.0, 0.0], [0.0, 1.0], np.zeros((2, 2)), "power")
        with pytest.raises(ValueError):
            SpectrumGrid([0.0], [0.0, 1.0], np.zeros((2, 2)), "power")

    def test_validates_kind_and_range(self):
        with pytest.raises(ValueError):
            SpectrumGrid([0.0], [0.0, 1.0], np.zeros((1, 2)), "bogus")
        with pytest.raises(ValueError):
            SpectrumGrid([0.0], [0.0, 1.0], np.zeros((1, 2)), "reflection")
        with pytest.raises(ValueError):
            SpectrumGrid([0.0], [0.0, 1.0], 2 * np.ones((1, 2)), "absorption")
        with pytest.raises(ValueError):
            SpectrumGrid([0.0], [0.0, 1.0], -np.ones((1, 2)), "power")

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
        ([0.5, np.nan], None),
        ([0.5, np.nan], [[True, False]]),
        ([np.inf, 1.0], None),
        ([0.5, -np.inf], None),
        ([0.5, np.inf], [[False, True]]),
    ], ids=["nan", "nan-unflagged", "inf", "minus-inf", "inf-flagged"])
    def test_rejects_non_finite_intensity(self, kind, row, flagged):
        with pytest.raises(ValueError, match="finite"):
            SpectrumGrid([0.0], [1.0, 2.0], [row], kind, flagged)

    def test_rejects_non_finite_axes(self):
        with pytest.raises(ValueError, match="finite"):
            SpectrumGrid([np.nan], [1.0, np.nan], np.zeros((1, 2)), "power")
        with pytest.raises(ValueError, match="finite"):
            SpectrumGrid([0.0], [1.0, np.inf], np.zeros((1, 2)), "power")

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
