"""Tests for the first-principles environment layer.

The converged oracles (a few thousand bath modes) are built once per
module and shared across tests.  The oracle's eigensolver and resolvent
are checked against a dense np.linalg.eigh of the full Hamiltonian on
baths of a few hundred modes, where eigh is cheap.
"""

import math
import os
import tracemalloc
import warnings
from functools import partial

import numpy as np
import pytest
from scipy import optimize

from ioxsim import SystemParams, eigen_branches, effective_hamiltonian
from ioxsim import bath, cli
from ioxsim.bath import (
    BathOracle,
    BathSpec,
    _green,
    _PoleSums,
    full_matrix,
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
BIC_WINDOW = (800.0, 1200.0)
EPS0 = 1000.0
PV_POINTS_DEFAULT = 4001
EPS = np.finfo(float).eps


def _rho(b, k, omega):
    """Reference density of environment modes, written out:
    rho = omega/(c sqrt(omega^2 - c^2 k^2)) above the light cone."""
    c = b.c_light
    return omega / (c * np.sqrt(omega ** 2 - (c * k) ** 2))


def _half_cosine(b, omega):
    """Reference taper, written out: sin(pi/2 * d/width) for the distance
    d of omega from the nearer window end, clipped to [0, 1], over the
    ramp width taper_frac * (hi - lo); a hard window is 1 on [lo, hi]."""
    lo, hi = b.omega_window
    d = np.minimum(np.asarray(omega, dtype=float) - lo, hi - omega)
    width = (hi - lo) * b.taper_frac
    if width == 0.0:
        return np.where(d >= 0.0, 1.0, 0.0)
    return np.sin(0.5 * np.pi * np.clip(d / width, 0.0, 1.0))


def _nudged(t, i):
    """The grid t with time i moved by 1e-9, far past the rounding that
    still counts as uniform."""
    t = t.copy()
    t[i] += 1e-9
    return t


@pytest.fixture(scope="module")
def attract_oracle():
    p = SystemParams(delta=3.0, gamma_c=1.0, gamma_x=1.8)
    return BathOracle(BathSpec(WINDOW), 4000, p), p


@pytest.fixture(scope="module")
def bic_oracle():
    p = SystemParams(delta=2.1 / np.sqrt(0.3), g_rabi=3.0,
                     gamma_c=1.0, gamma_x=0.3)
    return BathOracle(BathSpec(BIC_WINDOW), 2000, p), p


class TestBathSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            BathSpec((1500.0, 500.0))
        with pytest.raises(ValueError):
            BathSpec((-5.0, 500.0))
        with pytest.raises(ValueError):
            BathSpec(WINDOW, c_light=0.0)
        with pytest.raises(ValueError):
            BathSpec(WINDOW, taper_frac=0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("field", ["c_light"])
    def test_rejects_non_finite(self, field, bad):
        kwargs = dict(omega_window=WINDOW)
        kwargs[field] = bad
        with pytest.raises(ValueError, match="%s must be finite" % field):
            BathSpec(**kwargs)

    def test_taper_profile(self):
        b = BathSpec((100.0, 1100.0), taper_frac=0.1)
        lo, hi = b.omega_window
        taper = partial(bath._taper, b)
        assert taper(600.0) == 1.0
        assert taper(lo) == 0.0 and taper(hi) == 0.0
        omega = np.linspace(lo, lo + 100.0, 21)
        ramp = taper(omega)
        assert np.all(np.diff(ramp) > 0.0)
        assert np.allclose(ramp, _half_cosine(b, omega), rtol=0.0, atol=1e-15)
        assert float(taper(lo - 1.0)) == 0.0

    def test_taper_at_the_ramp_ends(self):
        # edge 0 at either window end and edge 1 at either ramp end are
        # exact: sin(0) = +0.0 and sin(pi/2) rounds to 1.0; beyond the
        # window the taper is +0.0, and on the ramp sin(pi/2 * edge)
        b = BathSpec((100.0, 1100.0), taper_frac=0.1)
        lo, hi = b.omega_window
        width = (hi - lo) * b.taper_frac
        ends = bath._taper(b, np.array([lo, hi, lo + width, hi - width,
                                         lo - 1.0, hi + 1.0, 600.0]))
        assert ends.tolist() == [0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0]
        assert not np.signbit(ends).any()
        ramp = np.array([np.nextafter(lo, hi), lo + width / 3.0,
                         np.nextafter(lo + width, lo),
                         np.nextafter(hi - width, hi), np.nextafter(hi, lo)])
        edge = np.minimum(ramp - lo, hi - ramp) / width
        assert (bath._taper(b, ramp).tolist()
                == np.sin(0.5 * np.pi * edge).tolist())

    def test_zero_taper_is_hard_window(self):
        b = BathSpec(WINDOW, taper_frac=0.0)
        assert float(bath._taper(b, WINDOW[0] + 1.0)) == 1.0
        assert float(bath._taper(b, WINDOW[0] - 1.0)) == 0.0

    @pytest.mark.parametrize("omega", [np.nan, np.inf, -np.inf,
                                       np.array([1000.0, np.nan])])
    @pytest.mark.parametrize("taper_frac", [0.05, 0.0])
    def test_taper_rejects_non_finite(self, omega, taper_frac):
        # the taper is private and unchecked; the kernel that evaluates it
        # rejects NaN and inf omega at entry, for either window edge
        b = BathSpec(WINDOW, taper_frac=taper_frac)
        with pytest.raises(ValueError, match="omega must be finite"):
            kernel_freq(b, SystemParams(gamma_c=1.0), 0.0, omega,
                        npoints=801)


class TestDensityOfStates:
    # bath._density takes the light-cone frequency ck = c|k|
    def test_k_zero_flat(self):
        b = BathSpec(WINDOW, c_light=2.0)
        w = np.array([10.0, 500.0, 1500.0])
        assert np.allclose(bath._density(b, 0.0, w), 0.5)

    def test_sqrt2_point(self):
        b = BathSpec(WINDOW)
        k = 600.0
        assert bath._density(b, k, np.sqrt(2.0) * k) == pytest.approx(
            np.sqrt(2.0), rel=1e-14)

    def test_matches_finite_difference(self):
        # rho = (d omega/dq)^{-1} along omega(q) = c sqrt(k^2 + q^2)
        b = BathSpec(WINDOW, c_light=1.7)
        k, q, h = 300.0, 440.0, 1e-4
        wq = lambda qq: b.c_light * np.hypot(k, qq)
        slope = (wq(q + h) - wq(q - h)) / (2.0 * h)
        assert bath._density(b, b.c_light * k, wq(q)) == pytest.approx(
            1.0 / slope, rel=1e-8)

    def test_light_cone_divergence(self):
        b = BathSpec(WINDOW)
        k = 700.0
        vals = [bath._density(b, k, k * (1.0 + 10.0 ** -m))
                for m in range(2, 8)]
        assert np.all(np.diff(vals) > 0.0)
        # rho ~ 1/sqrt(2 (omega/ck - 1)): five decades in the offset give
        # a factor sqrt(1e5) in the density
        assert vals[-1] > 100.0 * vals[0]

    def test_evanescent_rejected(self):
        # the density is never evaluated below the light cone: a kernel
        # whose window starts there is refused
        b = BathSpec(WINDOW)
        with pytest.raises(EvanescentRegionError):
            kernel_freq(b, SystemParams(gamma_c=1.0), 700.0, 650.0)

    @pytest.mark.parametrize("k, omega", [
        pytest.param(np.nan, 1000.0, id="k-nan"),
        pytest.param(np.inf, 1000.0, id="k-inf"),
        pytest.param(0.0, np.nan, id="omega-nan"),
        pytest.param(0.0, np.inf, id="omega-inf"),
        pytest.param(0.0, -np.inf, id="omega-minus-inf"),
        pytest.param(0.0, np.array([1000.0, np.nan]), id="omega-array"),
    ])
    def test_non_finite_rejected(self, k, omega):
        # a NaN density, or an evanescent verdict for a NaN input, would
        # look like an answer; the kernel that evaluates the density
        # rejects both at entry
        b = BathSpec(WINDOW)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="must be finite"):
                kernel_freq(b, SystemParams(gamma_c=1.0), k, omega,
                            npoints=801)


class TestKernelFreq:
    def test_center_reproduces_markov_rates(self):
        # at the carrier the real part is the golden-rule rate matrix the
        # bath was built for: gamma_c, gamma_x and sqrt(gamma_c gamma_x)
        p = SystemParams(gamma_c=1.0, gamma_x=1.8)
        g = kernel_freq(BathSpec(WINDOW), p, 0.0, EPS0)
        assert g[0, 0].real == pytest.approx(1.0, rel=1e-12)
        assert g[1, 1].real == pytest.approx(1.8, rel=1e-12)
        assert g[0, 1].real == pytest.approx(np.sqrt(1.8), rel=1e-12)
        assert g[0, 1] == g[1, 0]
        # symmetric window, k=0 flat density: principal value cancels
        assert abs(g[0, 0].imag) < 1e-10

    def test_flat_window_closed_form(self):
        # taper off, k=0: spectral weight is exactly kappa^2 on the window,
        # so Im = kappa^2 log((w-a)/(b-w)) with no regular remainder, and
        # the real part is the rate pi kappa^2 everywhere on it
        b = BathSpec(WINDOW, taper_frac=0.0)
        p = SystemParams(gamma_c=np.pi * 0.4 ** 2)
        w = 1200.0
        g = kernel_freq(b, p, 0.0, w)
        expect = 0.4 ** 2 * np.log((w - WINDOW[0]) / (WINDOW[1] - w))
        assert g[0, 0].imag == pytest.approx(expect, rel=1e-9)
        assert g[0, 0].real == pytest.approx(np.pi * 0.4 ** 2, rel=1e-12)

    def test_below_light_cone_no_emission(self):
        b = BathSpec((700.0, 1500.0))
        p = SystemParams(gamma_c=0.5, gamma_x=0.5)
        k = 600.0  # ck = 600 < window start, omega below the cone
        g = kernel_freq(b, p, k, 550.0)
        assert np.all(g.real == 0.0)
        assert np.all(np.isfinite(g.imag))

    def test_pole_near_endpoint_rejected(self):
        cell = (WINDOW[1] - WINDOW[0]) / (PV_POINTS_DEFAULT - 1)
        with pytest.raises(KernelAccuracyError):
            kernel_freq(BathSpec(WINDOW), SystemParams(gamma_c=1.0), 0.0,
                        WINDOW[0] + 0.5 * cell)

    @pytest.mark.parametrize("taper_frac", [0.05, 0.0], ids=["taper", "hard"])
    @pytest.mark.parametrize("end", [0, 1], ids=["lower", "upper"])
    def test_pole_on_endpoint_rejected(self, end, taper_frac):
        # on the endpoint itself the pole sits on a grid node: 0/0 or a
        # division by zero, not a kernel value
        b = BathSpec(WINDOW, taper_frac=taper_frac)
        p = SystemParams(gamma_c=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for fn in (kernel_freq, full_matrix):
                with pytest.raises(KernelAccuracyError):
                    fn(b, p, 0.0, WINDOW[end])

    @pytest.mark.parametrize("offset", [-1e-3, -1e-9, 1e-9, 1e-3])
    @pytest.mark.parametrize("end", [0, 1], ids=["lower", "upper"])
    def test_pole_beside_endpoint_rejected(self, end, offset):
        # within one cell on either side: outside the window the endpoint
        # node dominated the plain trapezoid, which read 2.0e7 at
        # 1500 + 1e-9 and 21.4 at 1500.001 (exact: 4.42 and 2.21)
        b = BathSpec(WINDOW, taper_frac=0.0)
        p = SystemParams(gamma_c=np.pi * 0.16)
        with pytest.raises(KernelAccuracyError, match="within one grid cell"):
            kernel_freq(b, p, 0.0, WINDOW[end] + offset)

    @pytest.mark.parametrize("cells", [1.0001, 2.0, 10.0])
    @pytest.mark.parametrize("end, side", [(0, -1.0), (1, 1.0)],
                             ids=["lower", "upper"])
    def test_pole_outside_window(self, end, side, cells):
        # the flat hard window integrates in closed form off the window:
        # kappa^2 log((w - a)/(w - b)) with kappa^2 = 0.16, and no rate.
        # Subtracting the endpoint's weight makes it exact; the plain
        # trapezoid read 9.3e-3, 2.7e-3 and 1.4e-4 off at 1.0001, 2 and
        # 10 cells out
        cell = (WINDOW[1] - WINDOW[0]) / (PV_POINTS_DEFAULT - 1)
        w = WINDOW[end] + side * cells * cell
        p = SystemParams(gamma_c=np.pi * 0.16)
        g = kernel_freq(BathSpec(WINDOW, taper_frac=0.0), p, 0.0, w)
        expect = 0.16 * np.log((w - WINDOW[0]) / (w - WINDOW[1]))
        assert g[0, 0].imag == pytest.approx(expect, rel=1e-14)
        assert g[0, 0].real == 0.0
        # a tapered weight vanishes at the endpoint: the plain trapezoid,
        # bit for bit
        b = BathSpec(WINDOW)
        grid = np.linspace(*WINDOW, PV_POINTS_DEFAULT)
        weight = bath._spectral_weight(b, 0.0, grid)
        plain = np.trapezoid(weight / (w - grid), grid)
        assert kernel_freq(b, p, 0.0, w)[0, 0].imag == (
            plain * bath._couplings(b, p)[0] ** 2)

    def test_kramers_kronig_staggered(self):
        # Im from the principal value agrees with the Hilbert transform of
        # Re over the window, summed on a grid staggered around each probe
        # frequency so the pole cell cancels by symmetry
        b = BathSpec(WINDOW)
        p = SystemParams(gamma_c=1.0, gamma_x=0.7)
        sub = np.linspace(*WINDOW, 201)
        # Re Gamma~_cc = pi kappa_c^2 rho taper^2, written out: the kernel's
        # own principal value is undefined at the window endpoints.  At k = 0
        # rho is flat and the carrier untapered, so pi kappa_c^2 rho = gamma_c
        re_cc = p.gamma_c * _half_cosine(b, sub) ** 2
        mids = 0.5 * (sub[:-1] + sub[1:])[40:-40:20]
        for w in mids:
            hil = np.trapezoid(re_cc / np.pi / (w - sub), sub)
            im = kernel_freq(b, p, 0.0, float(w))[0, 0].imag
            assert im == pytest.approx(hil, abs=2e-3 * np.pi)

    def test_array_omega_matches_scalar(self):
        b = BathSpec(WINDOW)
        p = SystemParams(gamma_c=1.0, gamma_x=0.7)
        grid = np.linspace(995.0, 1005.0, 11)
        kern = kernel_freq(b, p, 0.0, grid, npoints=801)
        assert kern.shape == (11, 2, 2)
        assert np.allclose(kern[:, 0, 1], kern[:, 1, 0])
        direct = kernel_freq(b, p, 0.0, 1000.0, npoints=801)
        assert np.allclose(kern[5], direct)

    def test_memoryless_limit_wide_window(self):
        # kernel flattens to the rate matrix near the carrier as the
        # window widens; the log tail keeps this just under 1% only for
        # windows somewhat beyond +-500 rates, so probe +-700
        b = BathSpec((EPS0 - 700.0, EPS0 + 700.0))
        p = SystemParams(gamma_c=1.0, gamma_x=1.8)
        gmat = np.array([[1.0, np.sqrt(1.8)], [np.sqrt(1.8), 1.8]])
        for w in np.linspace(EPS0 - 10.0, EPS0 + 10.0, 9):
            g = kernel_freq(b, p, 0.0, float(w))
            assert np.max(np.abs(g - gmat)) < 0.01 * (1.0 + 1.8)

    def test_principal_value_bits_pinned(self):
        # Im Gamma~_cc, the principal value times kappa_c^2, pinned bit for
        # bit; every probe sits within half a cell of a grid node, so each
        # reads the near-node derivative np.gradient gives
        b = BathSpec(WINDOW)
        p = SystemParams(delta=3.0, gamma_c=1.0, gamma_x=1.8)
        probes = np.append(np.linspace(900.0, 1100.0, 9), [530.3, 1470.7])
        for (k, npoints), pinned in PINNED_PV.items():
            im = kernel_freq(b, p, k, probes, npoints=npoints)[:, 0, 0].imag
            assert np.array_equal(im, [float.fromhex(v) for v in pinned])


# Im kernel_freq(BathSpec(WINDOW), SystemParams(delta=3, gamma_c=1,
# gamma_x=1.8), k, probes, npoints)[:, 0, 0], keyed by (k, npoints)
PINNED_PV = {
    (0.0, 1001): (
        "-0x1.16ced23df9575p-3", "-0x1.9f6d25e746173p-4", "-0x1.13a6c8baf3ad2p-4",
        "-0x1.12e1e0dca6160p-5", "0x0.0p+0", "0x1.12e1e0dca6164p-5",
        "0x1.13a6c8baf3ad5p-4", "0x1.9f6d25e746173p-4", "0x1.16ced23df9575p-3",
        "-0x1.918b12b41428ep+0", "0x1.93b399527b650p+0",
    ),
    (0.0, 4001): (
        "-0x1.16ceddd594aecp-3", "-0x1.9f6d36acb849bp-4", "-0x1.13a6d3a16c471p-4",
        "-0x1.12e1eb9950757p-5", "0x1.45f306dc9c882p-59", "0x1.12e1eb995075bp-5",
        "0x1.13a6d3a16c475p-4", "0x1.9f6d36acb849bp-4", "0x1.16ceddd594aebp-3",
        "-0x1.9189510fb631ep+0", "0x1.93b27ea60f0b8p+0",
    ),
    (0.7, 1001): (
        "-0x1.16cebc23f8728p-3", "-0x1.9f6cf8a360cc0p-4", "-0x1.13a69a9e14bf2p-4",
        "-0x1.12e18348e5ecep-5", "0x1.7a9f05f5bd1c9p-23", "0x1.12e240614f1f6p-5",
        "0x1.13a6f8d678948p-4", "0x1.9f6d564c1f2f2p-4", "0x1.16ceea8f81ce3p-3",
        "-0x1.918b21cb5550cp+0", "0x1.93b39e093c2b9p+0",
    ),
    (0.7, 4001): (
        "-0x1.16cec7bb94062p-3", "-0x1.9f6d0968d3510p-4", "-0x1.13a6a5848d8c0p-4",
        "-0x1.12e18e05907d9p-5", "0x1.7a9f05eb5066cp-23", "0x1.12e24b1df9a6ap-5",
        "0x1.13a703bcf156cp-4", "0x1.9f6d6711919c8p-4", "0x1.16cef6271d4cap-3",
        "-0x1.91896026cd2c1p+0", "0x1.93b2835cce920p+0",
    ),
}


PASSIVE = SystemParams(delta=2.0, g_rabi=1.0, gamma_c=1.0, gamma_x=0.8)


def green_of(b, p, k, omega, **kwargs):
    """G = M^-1 on the one response path: _green of the full_matrix."""
    return _green(full_matrix(b, p, k, omega, **kwargs), omega)


class TestCouplings:
    """The bath takes its coupling strengths from the system's radiative
    rates, through bath._couplings alone."""

    def test_bundled_system(self):
        # bit for bit the amplitudes the bundled oracle config used to
        # carry as bath.kappa_c and bath.kappa_x
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        cfg = cli.load_config(
            os.path.join(root, "configs", "oracle_compare_attraction.json"))
        kappa = bath._couplings(cfg.bath, cfg.systems[0])
        assert kappa.tolist() == [0.5641895835477563, 0.7569397566060481]

    @pytest.mark.parametrize("eps0", [EPS0, 520.0], ids=["centre", "ramp"])
    @pytest.mark.parametrize("taper_frac", [0.05, 0.0], ids=["taper", "hard"])
    def test_golden_rule_gives_the_rates_at_the_carrier(self, taper_frac,
                                                        eps0):
        # 520 sits on the tapered window's ramp, where taper^2 < 1 enters
        b = BathSpec(WINDOW, c_light=1.7, taper_frac=taper_frac)
        p = SystemParams(eps0=eps0, gamma_c=0.3, gamma_x=2.5)
        for gam in (bath._golden_rule(b, bath._couplings(b, p), 0.0, eps0),
                    kernel_freq(b, p, 0.0, eps0).real):
            assert gam[0, 0] == pytest.approx(p.gamma_c, rel=4 * EPS)
            assert gam[1, 1] == pytest.approx(p.gamma_x, rel=4 * EPS)
            assert gam[0, 1] == pytest.approx(np.sqrt(0.3 * 2.5), rel=4 * EPS)

    def test_zero_rates_give_zero_weights(self):
        p = SystemParams(gamma_c=0.0, gamma_x=0.0)
        assert bath._couplings(BathSpec(WINDOW), p).tolist() == [0.0, 0.0]
        orc = BathOracle(BathSpec(WINDOW), 2000, p)
        assert np.all(orc._weights == 0.0)
        assert orc._bright.tolist() == [1.0, 0.0]

    @pytest.mark.parametrize("call", [
        pytest.param(lambda b, p: BathOracle(b, 2000, p), id="oracle"),
        pytest.param(lambda b, p: kernel_freq(b, p, 0.0, EPS0), id="kernel"),
        pytest.param(lambda b, p: full_matrix(b, p, 0.0, EPS0,
                                              memoryless=True),
                     id="memoryless"),
    ])
    @pytest.mark.parametrize("rate", ["gamma_nr_c", "gamma_nr_x"])
    def test_nonradiative_rates_rejected(self, rate, call):
        # the oracle has no private loss baths; ignoring the rates would
        # compare it with a different system
        p = SystemParams(gamma_c=1.0, gamma_x=0.8, **{rate: 0.5})
        with pytest.raises(ValueError, match=rate):
            call(BathSpec(WINDOW), p)

    def test_carrier_outside_the_window_rejected(self):
        with pytest.raises(ValueError, match="outside the bath window"):
            kernel_freq(BathSpec(WINDOW), SystemParams(eps0=1600.0), 0.0,
                        EPS0)


def _counted(monkeypatch, module, name):
    """Replace module.name by a wrapper that records each call's
    arguments in the returned list."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, wrapper)
    return calls


class TestWorkCounts:
    """Each kernel call derives the couplings once and evaluates the
    spectral weight once per use: exact counts, independent of the host."""

    def test_couplings_once_per_call(self, monkeypatch):
        calls = _counted(monkeypatch, bath, "_couplings")
        b = BathSpec(WINDOW)
        for omega in (1003.0, np.linspace(990.0, 1010.0, 5)):
            for call in (partial(kernel_freq, npoints=1001),
                         partial(full_matrix, npoints=1001),
                         partial(full_matrix, memoryless=True)):
                calls.clear()
                call(b, PASSIVE, 0.3, omega)
                assert len(calls) == 1

    def test_spectral_weight_per_full_matrix(self, monkeypatch):
        # memoryless: the carrier for the couplings, the carrier at k;
        # full: the couplings, the quadrature grid and the probe omega
        calls = _counted(monkeypatch, bath, "_spectral_weight")
        for memoryless, expect in ((True, 2), (False, 3)):
            calls.clear()
            full_matrix(BathSpec(WINDOW), PASSIVE, 0.3, 1003.0, npoints=1001,
                        memoryless=memoryless)
            assert len(calls) == expect

    @pytest.mark.parametrize("t, rows", [
        pytest.param(np.linspace(0.0, 10.0, 401), 21 + 20, id="uniform"),
        pytest.param(np.linspace(6.0, 12.0, 61), 8 + 8, id="late-start"),
        pytest.param(_nudged(np.linspace(0.0, 10.0, 401), 200), 1 + 401,
                     id="nudged"),
    ])
    def test_exponentials_per_dynamics_call(self, monkeypatch, attract_oracle,
                                            t, rows):
        # T uniform times: B = ceil(sqrt(T)) offset rows and ceil(T/B)
        # anchor rows of exp(-i E t); any other grid takes B = 1, one unit
        # offset row and one anchor row per time
        orc, _ = attract_oracle
        orc._eigenpairs()  # solve first: only the time loop is counted
        sizes = []
        exp = np.exp

        def counted(x, *args, **kwargs):
            sizes.append(np.size(x))
            return exp(x, *args, **kwargs)

        monkeypatch.setattr(np, "exp", counted)
        orc.dynamics((0.0, 1.0), t)
        assert sum(sizes) == rows * orc._eigenpairs()[0].size

    def test_fft_per_solve(self, monkeypatch, attract_oracle):
        # one build of the pole sums: the weights' rfft, then one rfft and
        # one irfft per far-field coefficient C_0 .. C_FAR_TERMS, each of
        # one kernel row; no batched (FAR_TERMS + 1)-row transform
        orc, _ = attract_oracle
        forward = _counted(monkeypatch, np.fft, "rfft")
        inverse = _counted(monkeypatch, np.fft, "irfft")
        _PoleSums(orc.mode_freqs, orc._weights ** 2, orc.mode_freqs,
                  orc.spacing)
        assert len(forward) + len(inverse) == 1 + 2 * (bath.FAR_TERMS + 1)
        assert len(inverse) == bath.FAR_TERMS + 1
        assert all(np.ndim(args[0]) == 1 for args in forward + inverse)


def _masked_spectral_weight(b, k, omega):
    """The spectral weight rho * taper^2, written out, as a gather over the
    points inside the window and a scatter back into zeros: the bit-exact
    reference for bath._spectral_weight, which evaluates every point
    instead."""
    omega = np.asarray(omega, dtype=float)
    lo, hi = b.omega_window
    ck = b.c_light * abs(k)
    inside = (omega >= lo) & (omega <= hi) & (omega > ck)
    out = np.zeros(omega.shape)
    if np.any(inside):
        out[inside] = (_rho(b, k, omega[inside])
                       * _half_cosine(b, omega[inside]) ** 2)
    return out


class TestSpectralWeight:
    # window (500, 1500) at c = 1.3: k = 600 puts the light cone at 780,
    # inside the window, and k = 1200 puts it above the whole window
    @pytest.mark.parametrize("taper_frac", [0.05, 0.0], ids=["taper", "hard"])
    @pytest.mark.parametrize("k", [0.0, 600.0, -600.0, 1200.0])
    @pytest.mark.parametrize("omega", [
        pytest.param(np.linspace(300.0, 1700.0, 2001), id="across-window"),
        pytest.param(np.array([500.0, 1500.0, 780.0, np.nextafter(780.0, 1e3),
                               np.nextafter(500.0, 0.0),
                               np.nextafter(1500.0, 2e3), 549.9, 1450.1,
                               np.nan, np.inf, -np.inf, 0.0, -1e3]),
                     id="edges"),
        pytest.param(1000.0, id="scalar"),
        pytest.param(np.array(1000.0), id="0-d"),
        pytest.param(np.array([1000.0]), id="1-element"),
        pytest.param(520.0, id="scalar-on-ramp"),
        pytest.param(np.linspace(700.0, 900.0, 12).reshape(3, 4), id="2-d"),
    ])
    def test_bit_identical_to_the_masked_form(self, taper_frac, k, omega):
        b = BathSpec(WINDOW, c_light=1.3, taper_frac=taper_frac)
        got = bath._spectral_weight(b, k, omega)
        ref = _masked_spectral_weight(b, k, omega)
        assert type(got) is type(ref) and got.shape == ref.shape
        assert np.array_equal(got.view(np.int64), ref.view(np.int64))


class TestKernelInputs:
    """NaN or inf frequencies and momenta are rejected, not turned into
    zero kernels or zero couplings that look like a valid answer."""

    @pytest.mark.parametrize("fn, args", [
        pytest.param(kernel_freq, (PASSIVE, 0.0, np.inf), id="freq-inf"),
        pytest.param(kernel_freq, (PASSIVE, 0.0, np.nan), id="freq-nan"),
        pytest.param(kernel_freq, (PASSIVE, 0.0, np.array([EPS0, -np.inf])),
                     id="freq-array"),
        pytest.param(kernel_freq, (PASSIVE, np.nan, EPS0), id="freq-k-nan"),
        pytest.param(kernel_freq, (PASSIVE, np.inf, EPS0), id="freq-k-inf"),
        pytest.param(full_matrix, (PASSIVE, np.nan, EPS0), id="full-k-nan"),
        pytest.param(partial(full_matrix, memoryless=True),
                     (PASSIVE, np.nan, EPS0), id="memoryless-k-nan"),
        pytest.param(BathOracle, (2000, PASSIVE, np.nan),
                     id="discretize-k-nan"),
        pytest.param(BathOracle, (2000, PASSIVE, np.inf),
                     id="discretize-k-inf"),
    ])
    def test_non_finite_rejected(self, fn, args):
        with pytest.raises(ValueError, match="must be finite"):
            fn(BathSpec(WINDOW), *args)


class TestFullMatrixAndGreen:
    def test_memoryless_equals_core(self):
        p = SystemParams(delta=3.0, g_rabi=0.4, gamma_c=1.0, gamma_x=1.8)
        b = BathSpec(WINDOW)
        for w in (995.0, 1000.0, 1004.2):
            m = full_matrix(b, p, 0.0, w, memoryless=True)
            m_core = w * np.eye(2) - effective_hamiltonian(p, 0.0)
            assert np.max(np.abs(m - m_core)) < 1e-12

    def test_uncoupled_bath_is_bare_problem(self):
        p = SystemParams(delta=1.0, g_rabi=2.0, gamma_c=0.0, gamma_x=0.0)
        m = full_matrix(BathSpec(WINDOW), p, 0.0, 1001.0)
        assert np.allclose(m.imag, 0.0)
        assert np.allclose(m, 1001.0 * np.eye(2) - effective_hamiltonian(p, 0.0))

    def test_det_roots_near_eigen_branches(self):
        # complex roots of det M with the kernel frozen at Re omega agree
        # with the closed-form branches deep in the Markov regime
        p = SystemParams(delta=3.0, g_rabi=0.7, gamma_c=1.0, gamma_x=1.8)
        b = BathSpec(WINDOW)

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
        b = BathSpec(WINDOW)
        worst = 0.0
        for _ in range(300):
            w = float(rng.uniform(940.0, 1060.0))
            m = full_matrix(b, p, 0.0, w, npoints=801)
            g = green_of(b, p, 0.0, w, npoints=801)
            worst = max(worst, np.max(np.abs(m @ g - np.eye(2))))
        assert worst < 1e-12

    def test_green_retarded_sign(self):
        p = SystemParams(delta=2.0, g_rabi=1.0, gamma_c=1.0, gamma_x=0.8)
        b = BathSpec(WINDOW)
        for w in np.linspace(960.0, 1040.0, 17):
            g = green_of(b, p, 0.0, float(w), npoints=801)
            assert g[0, 0].imag <= 0.0
            assert g[1, 1].imag <= 0.0

    def test_singular_response_raises(self):
        # no bath, no Rabi coupling: M is diagonal and vanishes at eps_x
        p = SystemParams(delta=1.0, g_rabi=0.0, gamma_c=0.0, gamma_x=0.0)
        b = BathSpec(WINDOW)
        with pytest.raises(SingularMatrixError):
            green_of(b, p, 0.0, p.eps0)
        # on a frequency stack the error names the first singular entry
        with pytest.raises(SingularMatrixError, match="omega = %g" % p.eps0):
            green_of(b, p, 0.0, [p.eps0 - 0.5, p.eps0, p.eps0 + 0.5])

    def test_decoupled_green_diagonal(self):
        p = SystemParams(delta=2.0, g_rabi=0.0, gamma_c=1.0, gamma_x=0.0)
        g = green_of(BathSpec(WINDOW), p, 0.0, 998.5)
        assert g[0, 1] == 0.0 and g[1, 0] == 0.0

    @pytest.mark.parametrize("memoryless", [True, False])
    @pytest.mark.parametrize("omega", [[999.0], [999.0, 1001.0],
                                       [999.0, 1001.0, 1003.5]])
    def test_omega_array_matches_scalar(self, omega, memoryless):
        p = SystemParams(delta=2.0, g_rabi=1.0, gamma_c=1.0, gamma_x=0.8)
        b = BathSpec(WINDOW)
        for fn in (full_matrix, green_of):
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
        b = BathSpec(WINDOW)
        for fn in (full_matrix, green_of):
            for omega in (bad, np.array([1000.0, bad])):
                with pytest.raises(ValueError):
                    fn(b, p, 0.0, omega, npoints=801, memoryless=memoryless)


class TestDiscretizedBath:
    def test_golden_rule_exact_at_center(self):
        orc = BathOracle(BathSpec(WINDOW), 2000,
                         SystemParams(gamma_c=1.0, gamma_x=1.8))
        j = np.argmin(np.abs(orc.mode_freqs - EPS0))
        # the cavity and emitter couplings of mode j are u * w_j
        g = orc._bright * orc._weights[j]
        rate_c, rate_x = np.pi * g ** 2 / orc.spacing
        assert rate_c == pytest.approx(1.0, rel=1e-6)
        assert rate_x == pytest.approx(1.8, rel=1e-6)

    def test_needs_two_modes(self, monkeypatch):
        # the floor is the module's MIN_MODES, read at each construction
        monkeypatch.setattr(bath, "MIN_MODES", 2)
        with pytest.raises(ValueError, match=">= 2 bath modes"):
            BathOracle(BathSpec(WINDOW), 1, SystemParams(gamma_c=1.0))

    def test_oracle_rejects_sparse_bath(self):
        with pytest.raises(ValueError):
            BathOracle(BathSpec(WINDOW), 200, SystemParams(gamma_c=1.0))

    @pytest.mark.parametrize("bad", ["k"])
    def test_oracle_rejects_non_finite_input(self, bad):
        # SystemParams and BathSpec reject NaN and inf themselves
        p = SystemParams(delta=1.0, gamma_c=1.0, gamma_x=0.5)
        with pytest.raises(ValueError, match="k must be finite"):
            BathOracle(BathSpec(WINDOW), 2000, p, **{bad: np.inf})

    def test_oracle_rejects_narrow_window(self):
        with pytest.raises(ValueError, match="too narrow"):
            BathOracle(BathSpec((990.0, 1010.0)), 2000,
                       SystemParams(gamma_c=1.0))


class TestOracleWignerWeisskopf:
    def test_photon_decay_and_dark_exciton(self):
        # g_R = 0, gamma_x = 0: photon decays at gamma_c, exciton frozen
        p = SystemParams(delta=0.0, gamma_c=1.0, gamma_x=0.0)
        orc = BathOracle(BathSpec(WINDOW), 2000, p)
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
        ldos = orc.spectrum(w)  # eta = 2 level spacings = 0.5
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

    @pytest.mark.parametrize("method", ["spectrum", "green_system",
                                        "effective_damping"])
    def test_omega_validated(self, attract_oracle, method):
        orc, _ = attract_oracle
        call = getattr(orc, method)
        for bad in (np.array([1000.0, np.nan]), np.array([1000.0, np.inf]),
                    1000.0, np.full((2, 2), 1000.0)):
            with pytest.raises(ValueError):
                call(bad)
        assert np.all(np.isfinite(call(np.array([999.0, 1001.0]))))

    def test_dynamics_frees_each_time_block(self, attract_oracle):
        # 401 uniform times form B = 21 offset rows of phases, 1.3 MB at
        # N = 4000, exponentiated in place; the weighted terms are summed
        # in blocks of at most bath.BLOCK_BYTES (256 KB), each freed
        # before the next is formed
        orc, _ = attract_oracle
        orc._eigenpairs()  # solve first: only the time loop is measured
        tracemalloc.start()
        try:
            orc.dynamics((0.0, 1.0), np.linspace(0.0, 10.0, 401))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3e6

    def test_spectrum_memory_flat_in_modes(self):
        # 321 frequencies at N = 32000 sum in one-row blocks of 512 KB:
        # the 128-frequency blocks of before peaked at 125 MB
        p = SystemParams(delta=3.0, gamma_c=1.0, gamma_x=1.8)
        orc = BathOracle(BathSpec(WINDOW), 32000, p)
        w = np.linspace(960.0, 1040.0, 321)
        tracemalloc.start()
        try:
            orc.spectrum(w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3e6

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


class TestOracleBlockBudget:
    """Every output entry is one pairwise np.sum over the same products,
    so the block height that bath.BLOCK_BYTES sets moves no bit."""

    @pytest.mark.parametrize("budget", [1, 2 ** 40], ids=["row", "whole"])
    def test_self_energy_same_bits(self, monkeypatch, attract_oracle, budget):
        orc, _ = attract_oracle
        w = np.linspace(960.0, 1040.0, 41)
        calls = (partial(orc.spectrum, w), partial(orc.effective_damping, w),
                 partial(orc.green_system, w))
        ref = [call() for call in calls]
        monkeypatch.setattr(bath, "BLOCK_BYTES", budget)
        for call, want in zip(calls, ref):
            assert np.array_equal(call(), want)

    @pytest.mark.parametrize("budget", [1, 2 ** 40], ids=["row", "whole"])
    @pytest.mark.parametrize("t", [
        pytest.param(np.linspace(0.0, 10.0, 401), id="uniform"),
        pytest.param(np.linspace(6.0, 12.0, 61), id="late-start"),
        pytest.param(_nudged(np.linspace(0.0, 10.0, 401), 200), id="nudged"),
    ])
    def test_dynamics_same_bits(self, monkeypatch, attract_oracle, t, budget):
        orc, _ = attract_oracle
        ref = orc.dynamics((0.3, 0.8j), t)
        monkeypatch.setattr(bath, "BLOCK_BYTES", budget)
        got = orc.dynamics((0.3, 0.8j), t)
        assert np.array_equal(got[0], ref[0])
        assert np.array_equal(got[1], ref[1])

    @pytest.mark.parametrize("budget", [1, 2 ** 40], ids=["row", "whole"])
    def test_eigenpairs_same_bits(self, monkeypatch, attract_oracle, budget):
        # the secular solve sums each root's near and far field on its
        # own row, so its root blocks move no bit either
        orc, p = attract_oracle
        ref = orc._eigenpairs()
        monkeypatch.setattr(bath, "BLOCK_BYTES", budget)
        got = BathOracle(BathSpec(WINDOW), 4000, p)._eigenpairs()
        for want, have in zip(ref, got):
            assert np.array_equal(have, want)


def _mode_couplings(b, p, k, n_modes):
    """Reference discretization from the BathSpec and the system's
    rates: the midpoint modes of the window and their cavity and emitter
    couplings kappa * taper(omega_j) * sqrt(rho_k(omega_j) * dw), zero
    below the light cone."""
    lo, hi = b.omega_window
    dw = (hi - lo) / n_modes
    freqs = lo + (np.arange(n_modes) + 0.5) * dw
    radiative = freqs > b.c_light * abs(k)
    root = np.zeros(n_modes)
    root[radiative] = _half_cosine(b, freqs[radiative]) * np.sqrt(
        _rho(b, k, freqs[radiative]) * dw)
    kappa_c, kappa_x = bath._couplings(b, p)
    return freqs, kappa_c * root, kappa_x * root


def _self_energies(orc, spec, p, eta):
    """Sigma(omega + i*eta) from the oracle, at any eta, and from the mode
    sum sum_j g_j g_j^T/(z - omega_j) of the reference discretization of
    the BathSpec spec at k = 0 with p's rates."""
    freqs, *g = _mode_couplings(spec, p, 0.0, orc.mode_freqs.size)
    omega = p.eps0 + np.linspace(-60.0, 60.0, 13)
    z = omega + 1j * eta
    got = orc._self_energy(z)
    pole = 1.0 / (z[:, None] - freqs)
    ref = np.array([[np.sum(pole * (g[a] * g[b]), axis=1) for b in range(2)]
                    for a in range(2)]).transpose(2, 0, 1)
    return got, ref


@pytest.mark.parametrize("oracle, window", [("attract_oracle", WINDOW),
                                            ("bic_oracle", BIC_WINDOW)],
                         ids=["attract_oracle", "bic_oracle"])
class TestOracleSelfEnergy:
    @pytest.mark.parametrize("spacings", [2.0, 10.0])
    def test_bright_mode_sum_matches_mode_sum(self, request, oracle, window,
                                              spacings):
        orc, p = request.getfixturevalue(oracle)
        got, ref = _self_energies(orc, BathSpec(window), p,
                                  spacings * orc.spacing)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_rank_one(self, request, oracle, window):
        # a common bath: Sigma_cx^2 = Sigma_cc * Sigma_xx, so the damping's
        # off-diagonal entry is the dissipative sqrt(Gamma_cc * Gamma_xx)
        orc, p = request.getfixturevalue(oracle)
        sig, _ = _self_energies(orc, BathSpec(window), p, 10.0 * orc.spacing)
        cc, xx, cx = sig[:, 0, 0], sig[:, 1, 1], sig[:, 0, 1]
        assert np.array_equal(cx, sig[:, 1, 0])
        assert np.max(np.abs(cx * cx - cc * xx) / np.abs(cc * xx)) <= 8 * EPS
        gam = (1j * sig).real
        cross = np.sqrt(gam[:, 0, 0] * gam[:, 1, 1])
        assert np.max(np.abs(gam[:, 0, 1] - cross) / cross) <= 8 * EPS


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
        p = SystemParams(gamma_c=1.0)
        w = np.linspace(900.0, 1100.0, 2001)
        ldos = BathOracle(BathSpec(WINDOW), 2000, p).spectrum(w)
        # two system levels' worth of weight, most of it inside the window
        assert np.trapezoid(ldos, w) == pytest.approx(2.0, rel=0.05)


SMALL_N = 300


def _small_oracle(monkeypatch, case):
    """Oracle on a SMALL_N-mode bath for one named parameter regime, below
    the converged MIN_MODES the module requires, and its (b, p, k)."""
    monkeypatch.setattr(bath, "MIN_MODES", SMALL_N)
    k = 0.0
    b = BathSpec(WINDOW)
    if case == "attraction":
        p = SystemParams(delta=3.0, gamma_c=1.0, gamma_x=1.8)
    elif case == "dark-exciton":
        # gamma_x = 0 and g_R = 0: the emitter's border entry is zero
        p = SystemParams(delta=0.0, gamma_c=1.0, gamma_x=0.0)
    elif case == "uncoupled":
        p = SystemParams(delta=1.0, g_rabi=2.0, gamma_c=0.0, gamma_x=0.0)
    elif case == "dark-mode-point":
        delta = bic_condition(SystemParams(g_rabi=3.0, gamma_x=0.3)).d_eps_bic
        p = SystemParams(delta=delta, g_rabi=3.0, gamma_c=1.0, gamma_x=0.3)
        b = BathSpec((800.0, 1200.0))
    elif case == "emitter-on-mode":
        # gamma_x = 0 makes the emitter the dark mode; put its energy
        # exactly on a bath frequency
        lo, hi = WINDOW
        freqs = lo + (np.arange(SMALL_N) + 0.5) * (hi - lo) / SMALL_N
        on = float(freqs[np.argmin(np.abs(freqs - 1001.0))])
        p = SystemParams(eps0=on, delta=EPS0 + 0.7 - on, g_rabi=0.8,
                         gamma_c=1.0, gamma_x=0.0)
    elif case == "finite-k":
        k = 3.0
        p = SystemParams(delta=2.0, g_rabi=0.5, mass_ratio=0.3,
                         gamma_c=1.0, gamma_x=0.7)
    elif case == "light-cone":
        # c|k| = 700 inside the window: the modes below it carry no weight
        # and deflate, so the live poles start mid-window
        k = 3.0
        p = SystemParams(delta=2.0, g_rabi=0.5, mass_ratio=0.3,
                         gamma_c=1.0, gamma_x=0.7)
        b = BathSpec(WINDOW, c_light=700.0 / k)
    return BathOracle(b, SMALL_N, p, k=k), (b, p, k)


SMALL_CASES = ("attraction", "dark-exciton", "uncoupled", "dark-mode-point",
               "emitter-on-mode", "finite-k", "light-cone")


def _bare(p, k):
    eps_c, eps_x = kinetic_energies(p, k)
    return np.array([[eps_c, p.g_rabi], [p.g_rabi, eps_x]])


def _dense_eigh(b, p, k):
    """Reference: dense eigh of the full (N+2) Hamiltonian (cavity,
    emitter, bath modes), discretized from the oracle's BathSpec and
    rates, not read from the oracle; returns energies and the two system
    rows."""
    freqs, g_c, g_x = _mode_couplings(b, p, k, SMALL_N)
    n = SMALL_N
    h = np.zeros((n + 2, n + 2))
    h[:2, :2] = _bare(p, k)
    h[0, 2:] = h[2:, 0] = g_c
    h[1, 2:] = h[2:, 1] = g_x
    h[2:, 2:][np.diag_indices(n)] = freqs
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
    def test_energies_and_system_weights(self, monkeypatch, case):
        orc, setup = _small_oracle(monkeypatch, case)
        energies, rows = _dense_eigh(*setup)
        got_energies, system_rows, _ = orc._eigenpairs()
        assert np.max(np.abs(got_energies - energies)) <= 1e-10
        # products of one eigenvector's components do not depend on its sign
        for a, b in ((0, 0), (0, 1), (1, 1)):
            got = system_rows[a] * system_rows[b]
            assert np.max(np.abs(got - rows[a] * rows[b])) <= 1e-10

    def test_dynamics(self, monkeypatch, case):
        # uniform grids take the anchor x offset phases, every other grid
        # the direct sum; both against the dense eigenpairs
        orc, setup = _small_oracle(monkeypatch, case)
        energies, rows = _dense_eigh(*setup)
        end = 0.45 * orc.recurrence_time
        grids = (np.linspace(0.0, end, 101),
                 np.sort(np.random.default_rng(23).uniform(0.0, end, 64)),
                 _nudged(np.linspace(0.0, end, 101), 37),
                 np.linspace(0.4 * end, end, 61),
                 np.array([0.7 * end]),
                 np.array([0.2 * end, end]))
        for t in grids:
            for init in ((1.0, 0.0), (0.0, 1.0), (0.6, -0.8j)):
                c, x = orc.dynamics(init, t)
                phases = np.exp(-1j * np.outer(t, energies)) * (
                    rows[0] * init[0] + rows[1] * init[1])
                assert np.max(np.abs(c - phases @ rows[0])) <= 1e-10
                assert np.max(np.abs(x - phases @ rows[1])) <= 1e-10

    def test_resolvent_quantities(self, monkeypatch, case):
        # spectrum and green_system at eta = 2 level spacings,
        # effective_damping at eta = 10
        orc, (b, p, k) = _small_oracle(monkeypatch, case)
        energies, rows = _dense_eigh(b, p, k)
        omega = np.linspace(p.eps0 - 40.0, p.eps0 + 40.0, 81)
        eta = 2.0 * orc.spacing
        g_ref = _green_from_eigenpairs(energies, rows, omega, eta)
        _assert_rel(orc.green_system(omega), g_ref, 1e-11)
        ldos_ref = -(g_ref[:, 0, 0] + g_ref[:, 1, 1]).imag / np.pi
        _assert_rel(orc.spectrum(omega), ldos_ref, 1e-11)
        # damping from inverting the eigen-sum Green's matrix to M-form
        eta = 10.0 * orc.spacing
        g_ref = _green_from_eigenpairs(energies, rows, omega, eta)
        gam_ref = -1j * (np.linalg.inv(g_ref) - omega[:, None, None] * np.eye(2)
                         + _bare(p, k)) - eta * np.eye(2)
        _assert_rel(orc.effective_damping(omega), gam_ref, 1e-11)


def test_emitter_on_bath_mode_keeps_its_weight(monkeypatch):
    # the deflated eigenvalue sits exactly on the bath frequency and still
    # carries emitter weight; the secular roots strictly avoid it
    orc, (_, p, _) = _small_oracle(monkeypatch, "emitter-on-mode")
    at = np.flatnonzero(orc._eigenpairs()[0] == p.eps0)
    assert at.size == 1
    assert orc._eigenpairs()[1][1, at[0]] ** 2 > 1e-3


def _secular_problems(monkeypatch, oracle):
    """The (alpha, poles, z2, grid, dw) of every secular solve that building
    oracle's eigenpairs runs."""
    problems = []
    solve = bath._secular_roots

    def spy(*args):
        problems.append(args)
        return solve(*args)

    monkeypatch.setattr(bath, "_secular_roots", spy)
    oracle._eigenpairs()
    return problems


@pytest.mark.parametrize("case", SMALL_CASES)
def test_few_roots_take_the_direct_sum(monkeypatch, case):
    # the outer roots and the two next to an off-grid dark pole; the
    # deflated modes below a light cone leave every inner gap one step
    problems = _secular_problems(monkeypatch,
                                 _small_oracle(monkeypatch, case)[0])
    direct = sum(np.count_nonzero(~_PoleSums(*args[1:]).fast)
                 for args in problems)
    assert direct <= 4
    if case == "light-cone":
        _, poles, _, grid, _ = problems[0]
        assert poles[0] > grid[50]


@pytest.mark.parametrize("n_modes", [4000, 32000])
def test_pole_sums_match_exact_sums(n_modes):
    # f and f' at 64 seeded roots on the grid plus an off-grid pole,
    # against math.fsum of the same terms, each formed as in the direct
    # sum; the error is relative to sum |terms|
    orc = BathOracle(BathSpec(WINDOW), n_modes,
                     SystemParams(delta=3.0, gamma_c=1.0, gamma_x=1.8))
    poles = np.append(orc.mode_freqs, 1000.3)
    z2 = np.append(orc._weights ** 2, 0.7)
    order = np.argsort(poles)
    poles, z2 = poles[order], z2[order]
    sums = _PoleSums(poles, z2, orc.mode_freqs, orc.spacing)
    rng = np.random.default_rng(16)
    roots = rng.choice(np.flatnonzero(sums.fast), 64, replace=False)
    right = rng.random(64) < 0.5
    origin = roots - 1 + right
    tau = np.where(right, -1.0, 1.0) * rng.uniform(0.0, 0.5, 64) * orc.spacing
    f, fp = sums(roots, origin, tau)
    for i in range(64):
        r = 1.0 / np.delete((poles - poles[origin[i]]) - tau[i], origin[i])
        terms = np.delete(z2, origin[i]) * r
        assert abs(f[i] - math.fsum(terms)) <= 4 * EPS * np.sum(np.abs(terms))
        terms *= r
        assert abs(fp[i] - math.fsum(terms)) <= 4 * EPS * np.sum(terms)


def _batched_far_table(poles, z2, grid, dw):
    """The far-field coefficients of _PoleSums from one batched FFT over
    a (FAR_TERMS + 1)-row kernel matrix, written out: the reference for
    the one-term-at-a-time build."""
    n_grid, near = grid.size, bath.NEAR_FIELD
    index = np.clip(np.rint((poles - grid[0]) / dw).astype(int), 0,
                    n_grid - 1)
    on = grid[index] == poles
    weight = np.zeros(n_grid + 2 * near)
    weight[near + index[on]] = z2[on]
    size = 1 << (2 * n_grid - 2).bit_length()
    power = np.arange(1, bath.FAR_TERMS + 2)[:, None]
    kern = np.zeros((bath.FAR_TERMS + 1, size))
    dist = np.arange(near + 1, n_grid, dtype=float)
    kern[:, near + 1:n_grid] = (-1.0) ** power * dist ** -power
    kern[:, size - near - 1:size - n_grid:-1] = dist ** -power
    coef = np.fft.irfft(np.fft.rfft(weight[near:n_grid + near], size)
                        * np.fft.rfft(kern), size)[:, :n_grid]
    return np.stack((coef[:-1] / dw, power[:-1] * coef[1:] / dw ** 2),
                    axis=-1)


@pytest.mark.parametrize("n_modes", [2000, 4000, 4001, 8000, 32000])
def test_far_table_matches_batched(n_modes):
    # on the grid alone and with an off-grid pole; past N = 8192 each
    # transform is over 256 KB, where numpy would reuse a temporary for
    # a * and swap the complex factors
    orc = BathOracle(BathSpec(WINDOW), n_modes,
                     SystemParams(delta=3.0, gamma_c=1.0, gamma_x=1.8))
    grid, z2 = orc.mode_freqs, orc._weights ** 2
    poles = np.append(grid, 1000.3)
    order = np.argsort(poles)
    for args in ((grid, z2), (poles[order], np.append(z2, 0.7)[order])):
        sums = _PoleSums(*args, grid, orc.spacing)
        assert np.array_equal(
            sums.far, _batched_far_table(*args, grid, orc.spacing))


def test_solve_memory_bounded():
    # O(N) vectors and the far-field table, one kernel row at a time and
    # roots in blocks of bath.BLOCK_BYTES: about 18 MB traced at N = 32000,
    # where the batched FFT matrices and near-field tables peaked at 46 MB
    orc = BathOracle(BathSpec(WINDOW), 32000,
                     SystemParams(delta=3.0, gamma_c=1.0, gamma_x=1.8))
    tracemalloc.start()
    try:
        orc._eigenpairs()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 22e6


def _bundled_oracle():
    """The oracle and config of the bundled oracle-compare run."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    cfg = cli.load_config(
        os.path.join(root, "configs", "oracle_compare_attraction.json"))
    return BathOracle(cfg.bath, cfg.n_modes, cfg.systems[0]), cfg


def test_residual_certificate_on_bundled_bath():
    # |f(lam)|/sqrt(f'(lam)) is the residual norm of each eigenpair of the
    # arrowhead (Parlett, ch. 4); its maximum over all roots bounds every
    # eigenvalue's error without a dense reference
    orc, cfg = _bundled_oracle()
    energies, _, residual = orc._eigenpairs()
    assert energies.size == cfg.n_modes + 2
    assert 0.0 < residual < 1e-12


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="long double has no extra precision here")
def test_dynamics_against_long_double_phases_on_bundled_bath():
    # N = 4000 and 401 uniform times: the anchor x offset sum against every
    # phase E_j t_n, its exponential and the sums formed in long double
    # from the oracle's own eigenpairs, so only the phase sum is measured.
    # The direct float64 sum exp(-i t E) misses this reference by 1.95e-13
    orc, cfg = _bundled_oracle()
    energies, rows, _ = orc._eigenpairs()
    c, x = orc.dynamics((0.0, 1.0), cfg.t_grid)
    weights = (rows[1] * rows).astype(np.longdouble)
    e = energies.astype(np.longdouble)
    err = 0.0
    for i, t in enumerate(cfg.t_grid.astype(np.longdouble)):
        ref = np.sum(weights * np.exp(-1j * (t * e)), axis=1)
        err = max(err, abs(c[i] - ref[0]), abs(x[i] - ref[1]))
    assert err <= 2e-13
