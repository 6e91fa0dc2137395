"""Quantitative acceptance harness.

Eight end-to-end checks, each pinning one headline prediction of the
two-mode/common-environment theory against an independent computation:
anomalous dispersion with level attraction, the undamped-pole (dark state)
spectra and trapped-population plateau, an exceptional-point certificate,
scattering conservation laws, the Green's-matrix identity, emergence of the
Markov rates from a discretized bath, the absorption/power ridge match, and
closed-form dynamics against the exact matrix-exponential reference.

Every check returns a CheckResult with a pass flag, a one-line detail
string and its runtime; each also carries a wall-clock budget that is part
of the pass condition.  run_all prints one PASS/FAIL line per check.
Stochastic checks draw from numpy's Generator seeded by the seed argument
(--seed, default 1234).  The bath kernels are in frequency only.
"""

import sys
import time
from dataclasses import dataclass

import numpy as np

from .bath import BathOracle, _green, bath_for_rates, discretize_bath, full_matrix
from .core import (
    SystemParams,
    bic_condition,
    complex_poles,
    discriminant,
    eigen_branches,
    track_branches,
)
from .dynamics import AmplitudeState, analytic_trajectory, bic_amplitudes, evolve_ode
from .spectra import (
    absorption,
    absorption_grid,
    lorentzian_pair_fit,
    power_absorption_relation_check,
    power_spectrum,
    power_spectrum_grid,
    reflection,
    scattering_amplitude_single_bath,
)

DEFAULT_SEED = 1234


def resolve_seed(seed=None):
    """Explicit seed, else DEFAULT_SEED."""
    return DEFAULT_SEED if seed is None else int(seed)


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one acceptance check."""

    name: str
    passed: bool
    details: str
    elapsed: float
    budget: float

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        return "%s %-22s %6.1f s  %s" % (status, self.name, self.elapsed, self.details)


def _finish(name, budget, t0, ok, details):
    elapsed = time.perf_counter() - t0
    if elapsed > budget:
        ok = False
        details += " [over budget %.0f s]" % budget
    return CheckResult(name, bool(ok), details, elapsed, budget)


def check_anomalous_dispersion():
    """Level attraction: negative lower-branch curvature at k = 0 and a
    fitted peak separation below the bare detuning (< 2 gamma_c)."""
    t0 = time.perf_counter()
    p = SystemParams(delta=3.0, gamma_x=1.8)
    h = 0.01
    tracks = track_branches(p, np.array([-h, 0.0, h]))
    lower = min(tracks, key=lambda tr: tr[1].omega.real)
    re = [br.omega.real for br in lower]
    curv = (re[0] - 2.0 * re[1] + re[2]) / h ** 2

    low, up = eigen_branches(p, 0.0)
    omega = np.linspace(p.eps0 - 8.0, p.eps0 + 8.0, 1601)
    intensity = power_spectrum(p, 0.0, omega)
    centers, _, _ = lorentzian_pair_fit(
        omega, intensity, (low.omega.real, up.omega.real),
        (-low.omega.imag, -up.omega.imag))
    sep = centers[1] - centers[0]

    ok = curv < 0.0 and sep < 2.0 * p.gamma_c
    details = ("d2 Re(omega_L)/dk2 = %.3f; fitted peak separation %.4f"
               " (bare detuning %.1f)" % (curv, sep, p.delta))
    return _finish("anomalous-dispersion", 5.0, t0, ok, details)


def check_undamped_pole():
    """Dark-state point: lower branch loses its linewidth, emission peaks
    grow as the inverse square of their distance to the undamped pole along
    a detuning family, and the trapped-population plateau matches the
    closed form (1e-8) and the discretized-bath oracle (5%)."""
    t0 = time.perf_counter()
    base = SystemParams(g_rabi=3.0, gamma_x=0.3)
    delta_bic = bic_condition(base).d_eps_bic
    p = SystemParams(delta=delta_bic, g_rabi=3.0, gamma_x=0.3)

    low, _ = eigen_branches(p, 0.0)
    im_ok = abs(low.omega.imag) < 1e-12
    w0 = low.omega.real

    # emission peak heights along a detuning family approaching the
    # undamped point: height ~ |omega_peak - omega_0^L|^-2
    dists, heights = [], []
    for m in (2, 3, 4, 5):
        pm = SystemParams(delta=delta_bic * (1.0 - 10.0 ** -m),
                          g_rabi=3.0, gamma_x=0.3)
        wm = eigen_branches(pm, 0.0)[0].omega.real
        dists.append(abs(wm - w0))
        heights.append(power_spectrum(pm, 0.0, wm))
    decades = float(np.log10(dists[0] / dists[-1]))
    slope = float(np.polyfit(np.log10(dists), np.log10(heights), 1)[0])
    slope_ok = decades >= 2.0 and abs(slope + 2.0) <= 0.05

    gamma = p.gamma_c + p.gamma_x
    c_inf = p.gamma_c * p.gamma_x / gamma ** 2
    x_inf = p.gamma_c ** 2 / gamma ** 2
    t_tail = np.linspace(40.0, 50.0, 11)
    c2, x2 = bic_amplitudes(p, t_tail)
    c_traj, x_traj = analytic_trajectory(
        p, 0.0, AmplitudeState(0.0 + 0.0j, 1.0 + 0.0j), t_tail)
    closed_err = np.max([np.abs(c2 - c_inf), np.abs(x2 - x_inf),
                         np.abs(np.abs(c_traj) ** 2 - c_inf),
                         np.abs(np.abs(x_traj) ** 2 - x_inf)])

    b = bath_for_rates(p.gamma_c, p.gamma_x, p.eps0, (750.0, 1250.0))
    orc = BathOracle(discretize_bath(b, 4000), p)
    t_orc = np.linspace(18.0, 24.0, 61)
    c_orc, x_orc = orc.dynamics((0.0, 1.0), t_orc)
    orc_err = np.max([abs(np.mean(np.abs(c_orc) ** 2) - c_inf) / c_inf,
                      abs(np.mean(np.abs(x_orc) ** 2) - x_inf) / x_inf])

    ok = im_ok and slope_ok and closed_err < 1e-8 and orc_err < 0.05
    details = ("|Im omega_L| = %.1e; peak slope %.4f over %.1f decades; "
               "plateau closed-form err %.1e, oracle err %.2f%%"
               % (abs(low.omega.imag), slope, decades, closed_err,
                  100 * orc_err))
    return _finish("undamped-pole", 60.0, t0, ok, details)


def check_exceptional_point():
    """Coalescence certificate: vanishing discriminant, unit eigenvector
    overlap, and an exact matrix-exponential envelope growing as t before
    the common decay."""
    t0 = time.perf_counter()
    p = SystemParams(delta=2.0 * np.sqrt(2.0), g_rabi=0.5,
                     gamma_c=1.0, gamma_x=2.0)
    disc = abs(complex(discriminant(p, 0.0)))

    # independent certificate: kernel directions of (omega*1 - H) at the
    # two closed-form roots coincide
    pole = complex_poles(p, 0.0)
    half_sum = 0.5 * (pole.z_c + pole.z_x)
    half_sq = 0.5 * np.sqrt(complex(discriminant(p, 0.0)))
    vecs = []
    for omega in (half_sum - half_sq, half_sum + half_sq):
        v = np.array([pole.g_tilde, omega - pole.z_c])
        vecs.append(v / np.linalg.norm(v))
    overlap = abs(np.vdot(vecs[0], vecs[1]))
    degenerate = eigen_branches(p, 0.0)[0].degenerate

    # |x(t)| from (c, x)(0) = (1, 0) is exactly |g~| t e^{-Gamma t} at the
    # coalescence; fit the log-linearized envelope and its R^2
    t_grid = np.linspace(0.5, 15.0, 291)
    _, x = evolve_ode(p, 0.0, AmplitudeState(1.0 + 0.0j, 0.0 + 0.0j), t_grid)
    y = np.log(np.abs(x)) - np.log(t_grid)
    coef = np.polyfit(t_grid, y, 1)
    resid = y - np.polyval(coef, t_grid)
    r_sq = 1.0 - np.sum(resid ** 2) / np.sum((y - y.mean()) ** 2)
    rate = -coef[0]

    ok = (disc < 1e-10 and overlap > 1.0 - 1e-8 and degenerate
          and r_sq > 0.999)
    details = ("|D| = %.1e; eigenvector overlap 1 - %.1e; envelope "
               "R^2 = %.6f, Gamma = %.4f (expect %.4f)"
               % (disc, 1.0 - overlap, r_sq, rate,
                  0.5 * (p.gamma_c + p.gamma_x)))
    return _finish("exceptional-point", 5.0, t0, ok, details)


def check_conservation(seed=None):
    """|S| = 1 (single bath) and R + A = 1 (three baths) to 1e-12, and the
    emission/absorption identity to 1e-10, on 1000 random passive draws."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(resolve_seed(seed))
    worst_s = worst_ra = worst_id = 0.0
    for _ in range(1000):
        delta = rng.uniform(-5.0, 5.0)
        g = rng.uniform(0.0, 4.0)
        gc = rng.uniform(0.1, 3.0)
        gx = rng.uniform(0.0, 3.0)
        mr = rng.uniform(0.0, 1.0)
        k = rng.uniform(0.0, 2.0)
        w = 1000.0 + rng.uniform(-15.0, 15.0)
        occ = rng.uniform(0.1, 3.0)
        p1 = SystemParams(delta=delta, g_rabi=g, mass_ratio=mr,
                          gamma_c=gc, gamma_x=gx)
        s = scattering_amplitude_single_bath(p1, k, w)
        # np.max keeps a NaN residual (max() drops it), so NaN fails
        worst_s = np.max([worst_s, abs(abs(s) - 1.0)])
        p2 = SystemParams(delta=delta, g_rabi=g, mass_ratio=mr,
                          gamma_c=gc, gamma_x=gx,
                          gamma_nr_c=rng.uniform(0.02, 1.0),
                          gamma_nr_x=rng.uniform(0.02, 1.0))
        r = reflection(p2, k, w)
        a = absorption(p2, k, w)
        worst_ra = np.max([worst_ra, abs(r + a - 1.0)])
        worst_id = np.max([worst_id,
                           power_absorption_relation_check(p2, k, w, occ)])
    ok = worst_s < 1e-12 and worst_ra < 1e-12 and worst_id < 1e-10
    details = ("max ||S|-1| = %.1e; max |R+A-1| = %.1e; "
               "identity residual %.1e" % (worst_s, worst_ra, worst_id))
    return _finish("conservation", 5.0, t0, ok, details)


def check_green_identity(seed=None):
    """||M G - 1||_max < 1e-12 on 1000 random points, alternating between
    the memoryless and the full frequency-dependent-kernel response."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(resolve_seed(seed))
    ident = np.eye(2)
    worst = 0.0
    for i in range(1000):
        gc, gx = rng.uniform(0.1, 2.0, size=2)
        p = SystemParams(delta=rng.uniform(-4.0, 4.0),
                         g_rabi=rng.uniform(0.0, 3.0),
                         mass_ratio=rng.uniform(0.0, 1.0),
                         gamma_c=gc, gamma_x=gx)
        b = bath_for_rates(gc, gx, 1000.0, (500.0, 1500.0))
        k = rng.uniform(0.0, 2.0)
        w = 1000.0 + rng.uniform(-20.0, 20.0)
        memoryless = i % 2 == 0
        m = full_matrix(b, p, k, w, npoints=1001, memoryless=memoryless)
        g = _green(m, w)
        worst = np.max([worst, np.abs(m @ g - ident).max()])
    ok = worst < 1e-12
    details = "max ||M G - 1|| = %.1e over 1000 draws (half full-kernel)" % worst
    return _finish("green-identity", 10.0, t0, ok, details)


def check_rate_emergence():
    """A discretized bath reproduces the golden-rule rates (2%), the
    cross damping sqrt(gamma_c gamma_x) (3%), and puts its spectral peaks
    on the branch energies (one grid step)."""
    t0 = time.perf_counter()
    p = SystemParams(delta=3.0, gamma_x=1.8)
    b = bath_for_rates(p.gamma_c, p.gamma_x, p.eps0, (500.0, 1500.0))
    orc = BathOracle(discretize_bath(b, 4000), p)

    probe = np.linspace(985.0, 1015.0, 7)
    gam = orc.effective_damping(probe)
    err_c = np.max(np.abs(gam[:, 0, 0].real - p.gamma_c)) / p.gamma_c
    err_x = np.max(np.abs(gam[:, 1, 1].real - p.gamma_x)) / p.gamma_x
    cross = np.sqrt(p.gamma_c * p.gamma_x)
    err_cross = np.max(np.abs(gam[:, 0, 1].real - cross)) / cross

    step = 0.05
    w = np.arange(995.0, 1011.0 + step / 2, step)
    ldos = orc.spectrum(w, eta=0.5)
    low, up = eigen_branches(p, 0.0)
    centers, _, _ = lorentzian_pair_fit(
        w, ldos, (low.omega.real, up.omega.real))
    peak_err = np.max([abs(centers[0] - low.omega.real),
                       abs(centers[1] - up.omega.real)])

    ok = (err_c < 0.02 and err_x < 0.02 and err_cross < 0.03
          and peak_err <= step)
    details = ("rate errors %.2f%% / %.2f%%, cross %.2f%%; "
               "peak offset %.3f (grid step %.2f)"
               % (100 * err_c, 100 * err_x, 100 * err_cross, peak_err, step))
    return _finish("rate-emergence", 120.0, t0, ok, details)


def check_absorption_ridge():
    """With symmetric weak nonradiative losses the absorption map stays in
    [0, 1] and its ridge tracks the emission ridge at every momentum."""
    t0 = time.perf_counter()
    ks = np.linspace(-3.0, 3.0, 61)
    w = np.arange(995.0, 1015.0 + 1e-9, 0.02)
    worst_ridge = 0
    bounds_ok = True
    for delta in (3.0, 2.0):
        p = SystemParams(delta=delta, gamma_x=1.8,
                         gamma_nr_c=0.15, gamma_nr_x=0.15)
        amap = absorption_grid(p, ks, w)
        pmap = power_spectrum_grid(p, ks, w)
        bounds_ok &= bool(np.all((amap.intensity >= 0.0)
                                 & (amap.intensity <= 1.0)))
        ridge_a = np.argmax(amap.intensity, axis=1)
        ridge_p = np.argmax(pmap.intensity, axis=1)
        worst_ridge = max(worst_ridge, int(np.max(np.abs(ridge_a - ridge_p))))
    ok = bounds_ok and worst_ridge <= 1
    details = ("absorption in [0,1]: %s; max ridge offset %d grid step(s) "
               "across %d momenta x 2 detunings"
               % (bounds_ok, worst_ridge, ks.size))
    return _finish("absorption-ridge", 10.0, t0, ok, details)


def check_dynamics_agreement(seed=None):
    """Closed-form two-exponential dynamics and the independent exact
    matrix-exponential reference agree to 1e-8 sup-norm over t in [0, 20]
    for 100 random passive non-coalescing draws."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(resolve_seed(seed))
    t_grid = np.linspace(0.0, 20.0, 201)
    worst = 0.0
    for _ in range(100):
        while True:
            p = SystemParams(delta=rng.uniform(-4.0, 4.0),
                             g_rabi=rng.uniform(0.0, 3.0),
                             mass_ratio=rng.uniform(0.0, 1.0),
                             gamma_c=rng.uniform(0.05, 2.0),
                             gamma_x=rng.uniform(0.05, 2.0),
                             gamma_nr_c=rng.uniform(0.0, 0.5),
                             gamma_nr_x=rng.uniform(0.0, 0.5))
            k = rng.uniform(0.0, 1.5)
            low, up = eigen_branches(p, k)
            if not low.degenerate and abs(up.omega - low.omega) > 0.1:
                break
        v = rng.normal(size=4)
        v /= np.linalg.norm(v)
        init = AmplitudeState(complex(v[0], v[1]), complex(v[2], v[3]))
        ca, xa = analytic_trajectory(p, k, init, t_grid)
        co, xo = evolve_ode(p, k, init, t_grid)
        worst = np.max([worst, np.abs(ca - co).max(), np.abs(xa - xo).max()])
    ok = worst < 1e-8
    details = ("closed form vs exact matrix exponential: sup-norm %.1e "
               "over 100 draws, t in [0, 20]" % worst)
    return _finish("dynamics-agreement", 10.0, t0, ok, details)


# (name, callable, takes_seed) in reporting order
CHECKS = (
    ("anomalous-dispersion", check_anomalous_dispersion, False),
    ("undamped-pole", check_undamped_pole, False),
    ("exceptional-point", check_exceptional_point, False),
    ("conservation", check_conservation, True),
    ("green-identity", check_green_identity, True),
    ("rate-emergence", check_rate_emergence, False),
    ("absorption-ridge", check_absorption_ridge, False),
    ("dynamics-agreement", check_dynamics_agreement, True),
)


def run_all(seed=None, stream=None):
    """Run every check, print one PASS/FAIL line each, return the results."""
    stream = sys.stdout if stream is None else stream
    seed = resolve_seed(seed)
    results = []
    for name, fn, takes_seed in CHECKS:
        try:
            res = fn(seed) if takes_seed else fn()
        except Exception as exc:  # a crash is a failure, not a traceback
            res = CheckResult(name, False, "raised %r" % exc, 0.0, 0.0)
        results.append(res)
        print(res.line(), file=stream)
        stream.flush()
    n_pass = sum(r.passed for r in results)
    print("%d/%d checks passed (seed %d)" % (n_pass, len(results), seed),
          file=stream)
    return results


if __name__ == "__main__":
    # python -m ioxsim.acceptance is `ioxsim acceptance`: one parser, one
    # exit-code mapping
    from .cli import main

    sys.exit(main(["acceptance", *sys.argv[1:]]))
