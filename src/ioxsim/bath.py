"""First-principles photonic environment layer.

The emitter and cavity mode exchange excitations with a continuum of
out-of-plane photon modes dispersing as omega = c*sqrt(k^2 + q^2) with
q >= 0 (one emitting mirror).  This module computes the environment
density of states, the kernel in frequency only (principal value included)
and every system response on one path, G(z) = [z*1 - H_bare - Sigma(z)]^-1,
in which only the self-energy varies (input-output elimination: Gardiner &
Collett, Phys. Rev. A 31, 3761 (1985)): the golden rule frozen at the
carrier (Markov), the continuum kernel -i*Gamma~(omega), or the mode sum
Sigma(z) = sum_j g_j g_j^T/(z - omega_j) of a discretized bath.  Each
carries the dissipative coupling sqrt(gamma_c*gamma_x) that a common
environment generates and independent baths cannot.  The discretized bath
is the exact oracle for the closed forms; its dynamics comes from a
secular-equation solver for the arrowhead Hamiltonian of a shared bath.

Work in units hbar = 1; energies are measured in units of a reference
rate, the same convention as the rest of the package.
"""

import math
from dataclasses import astuple, dataclass

import numpy as np

from .core import SystemParams, kinetic_energies
from .errors import (
    EvanescentRegionError,
    KernelAccuracyError,
    RecurrenceLimitError,
    SingularMatrixError,
)

PV_GRID_POINTS = 4001
RECURRENCE_SAFETY = 0.5
WINDOW_MARGIN = 50.0      # total rates the system lines keep from the window ends
DYNAMICS_CHUNK = 256      # times per block of the oracle dynamics
SOLVER_CHUNK = 128        # roots or frequencies per block of the oracle
SOLVER_STEP_TOL = 1e-12   # relative step that ends a secular iteration
SOLVER_MAXIT = 100
FLOAT_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class BathSpec:
    """Flat-coupling photonic environment on a frequency window.

    kappa_c, kappa_x are the (real, non-negative) coupling amplitudes of
    the cavity mode and the emitter to each environment mode; the
    relative phase is zero because both sit at the same location.  The
    window restricts quadrature and discretization to omega in
    [omega_window[0], omega_window[1]]; coupling amplitudes roll off
    smoothly (half-cosine) over taper_frac of the window at each end to
    suppress hard-edge ringing.
    """

    kappa_c: float
    kappa_x: float
    omega_window: tuple
    c_light: float = 1.0
    taper_frac: float = 0.05

    def __post_init__(self):
        for name in ("kappa_c", "kappa_x", "c_light"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError("%s must be finite" % name)
        lo, hi = self.omega_window
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise ValueError("omega_window must be a finite increasing pair")
        if lo <= 0.0:
            raise ValueError("omega_window must be positive")
        if self.c_light <= 0.0:
            raise ValueError("c_light must be positive")
        if self.kappa_c < 0.0 or self.kappa_x < 0.0:
            raise ValueError("couplings must be non-negative")
        if not 0.0 <= self.taper_frac < 0.5:
            raise ValueError("taper_frac must lie in [0, 0.5)")

    def taper(self, omega):
        """Coupling-amplitude rolloff: 1 deep inside the window, 0 at its ends."""
        lo, hi = self.omega_window
        width = (hi - lo) * self.taper_frac
        omega = np.asarray(omega, dtype=float)
        if width == 0.0:
            return np.where((omega >= lo) & (omega <= hi), 1.0, 0.0)
        edge = np.minimum(omega - lo, hi - omega) / width
        return np.where(edge <= 0.0, 0.0,
                        np.where(edge >= 1.0, 1.0, np.sin(0.5 * np.pi * edge)))


def env_density_of_states(b, k, omega):
    """Density of environment modes rho_k(omega) = omega/(c sqrt(omega^2 - c^2 k^2)).

    Follows from inverting d(omega)/dq for the half-line dispersion
    omega = c sqrt(k^2 + q^2).  Only omega > c|k| is radiative; below the
    light cone there are no environment modes to emit into.
    """
    omega = np.asarray(omega, dtype=float)
    ck = b.c_light * abs(k)
    if np.any(omega <= ck):
        raise EvanescentRegionError(
            "no radiative environment modes at omega <= c|k| = %g" % ck)
    out = omega / (b.c_light * np.sqrt(omega * omega - ck * ck))
    return out if out.ndim else float(out)


def _coupling_matrix(b):
    kap = np.array([b.kappa_c, b.kappa_x])
    return np.outer(kap, kap)


def _spectral_weight(b, k, omega):
    """rho(omega) * taper(omega)^2 inside the window, 0 outside."""
    omega = np.asarray(omega, dtype=float)
    lo, hi = b.omega_window
    ck = b.c_light * abs(k)
    # endpoints count as inside so a hard (untapered) window is exactly
    # flat on quadrature grids
    inside = (omega >= lo) & (omega <= hi) & (omega > ck)
    out = np.zeros(omega.shape)
    if np.any(inside):
        out[inside] = (env_density_of_states(b, k, omega[inside])
                       * b.taper(omega[inside]) ** 2)
    return out


def _finite(value, name):
    """value as a float array; ValueError if any entry is NaN or inf."""
    value = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(value)):
        raise ValueError("%s must be finite" % name)
    return value


def _window_grid(b, k, npoints):
    if not math.isfinite(k):
        raise ValueError("k must be finite")
    lo, hi = b.omega_window
    ck = b.c_light * abs(k)
    if lo <= ck:
        raise EvanescentRegionError(
            "omega_window starts inside the evanescent zone (omega_min <= c|k|)")
    return np.linspace(lo, hi, npoints)


def _pv_integral(grid, f, omega):
    """Cauchy principal value of f(x)/(omega - x) over the grid's span.

    Pole subtraction: the regular remainder (f(x) - f(omega))/(omega - x)
    is integrated by the trapezoid rule and the subtracted pole carries
    the analytic term f(omega) * log((omega - a)/(b - omega)).
    """
    a, b_end = grid[0], grid[-1]
    if not a < omega < b_end:
        return float(np.trapezoid(f / (omega - grid), grid))
    cell = grid[1] - grid[0]
    if min(omega - a, b_end - omega) <= cell:
        raise KernelAccuracyError(
            "principal-value pole within one grid cell of a window endpoint")
    f_at = np.interp(omega, grid, f)
    diff = omega - grid
    near = np.abs(diff) < 0.5 * cell
    regular = np.where(near, 0.0, (f - f_at) / np.where(near, 1.0, diff))
    if np.any(near):
        # limit of the subtracted integrand at the pole is -f'(omega)
        regular[near] = -np.gradient(f, grid)[near]
    return float(np.trapezoid(regular, grid) + f_at * np.log((omega - a) / (b_end - omega)))


def _golden_rule(b, k, omega):
    """pi * rho(omega) * taper(omega)^2 * kappa kappa^T, shape omega.shape + (2, 2)."""
    weight = np.pi * _spectral_weight(b, k, omega)
    return weight[..., None, None] * _coupling_matrix(b)


def kernel_freq(b, k, omega, npoints=PV_GRID_POINTS):
    """Frequency-domain kernel Gamma~(omega), a 2x2 complex matrix per omega.

    Real part: pi * kappa^A kappa^B rho(omega) taper(omega)^2 on the
    radiative zone inside the window, zero elsewhere (no modes to emit
    into).  Imaginary part: principal-value integral of the spectral
    weight against 1/(omega - omega'), evaluated by pole subtraction.
    Raises KernelAccuracyError when the pole sits within one grid cell
    of a window endpoint, where the subtraction loses accuracy, and
    ValueError for NaN or inf omega or k.
    """
    omega = _finite(omega, "omega")
    grid = _window_grid(b, k, npoints)
    weight = _spectral_weight(b, k, grid)
    pv = np.array([_pv_integral(grid, weight, w) for w in omega.ravel().tolist()])
    return (_golden_rule(b, k, omega)
            + 1j * pv.reshape(omega.shape + (1, 1)) * _coupling_matrix(b))


def bath_for_rates(gamma_c, gamma_x, omega0, omega_window,
                   c_light=1.0, taper_frac=0.05):
    """Invert the golden rule: couplings that realize target rates at omega0."""
    if gamma_c < 0.0 or gamma_x < 0.0:
        raise ValueError("rates must be non-negative")
    unit = BathSpec(1.0, 1.0, omega_window, c_light, taper_frac)
    scale = _golden_rule(unit, 0.0, omega0)[0, 0]
    if scale <= 0.0:
        raise ValueError("omega0 must sit inside the untapered window interior")
    return BathSpec(np.sqrt(gamma_c / scale), np.sqrt(gamma_x / scale),
                    omega_window, c_light, taper_frac)


def _bare_hamiltonian(p, k):
    eps_c, eps_x = kinetic_energies(p, k)
    return np.array([[eps_c, p.g_rabi], [p.g_rabi, eps_x]])


def _response(h, z, sigma):
    """M(z) = z*1 - h - Sigma(z) over a stack of frequencies z, shape z.shape + (2, 2)."""
    return z[..., None, None] * np.eye(2) - h - sigma


def _green(m, z):
    """Cofactor inverses of a stack of 2x2 response matrices m; singular
    where |det| < 1e-14 * max(1, |m00| + |m11|)^2, reported at Re z."""
    det = m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
    scale = np.maximum(1.0, np.abs(m[..., 0, 0]) + np.abs(m[..., 1, 1])) ** 2
    bad = np.abs(det) < 1e-14 * scale
    if np.any(bad):
        raise SingularMatrixError("response matrix singular at omega = %g"
                                  % np.asarray(z).real[bad][0])
    adj = np.stack((m[..., 1, 1], -m[..., 0, 1], -m[..., 1, 0], m[..., 0, 0]),
                   axis=-1)
    return adj.reshape(m.shape) / det[..., None, None]


def full_matrix(b, p, k, omega, npoints=PV_GRID_POINTS, memoryless=False):
    """Response matrix M(k, omega) = omega*1 - H_bare - Sigma, one 2x2 per
    entry of omega, with the continuum self-energy Sigma = -i*Gamma~(omega).

    Damping comes entirely from the bath b; p supplies only the kinetic
    energies and Rabi coupling.  memoryless=True freezes the kernel at the
    carrier p.eps0 and drops its principal-value part, which reproduces
    the closed-form theory exactly; NaN or inf omega or k raises ValueError.
    """
    omega = _finite(omega, "omega")
    if not math.isfinite(k):
        raise ValueError("k must be finite")
    if memoryless:
        gam = _golden_rule(b, k, p.eps0)
    else:
        gam = kernel_freq(b, k, omega, npoints)
    return _response(_bare_hamiltonian(p, k), omega, -1j * gam)


def green_matrix(b, p, k, omega, npoints=PV_GRID_POINTS, memoryless=False):
    """System Green's matrix G = M^{-1}, one per entry of real omega."""
    return _green(full_matrix(b, p, k, omega, npoints, memoryless), omega)


@dataclass(frozen=True)
class DiscretizedBath:
    """Uniform-grid realization of a BathSpec with N discrete modes.

    Couplings g_j = kappa * taper(omega_j) * sqrt(rho(omega_j) * dw)
    make the Fermi-golden-rule decay rate of the discrete bath equal to
    the continuum rate by construction.
    """

    mode_freqs: np.ndarray
    coupling_c: np.ndarray
    coupling_x: np.ndarray

    @property
    def n_modes(self):
        return self.mode_freqs.size

    @property
    def spacing(self):
        return float(self.mode_freqs[1] - self.mode_freqs[0])


def discretize_bath(b, n_modes, k=0.0):
    """Midpoint discretization of the window into n_modes bath modes."""
    if n_modes < 2:
        raise ValueError("need at least two bath modes")
    if not math.isfinite(k):
        raise ValueError("k must be finite")
    lo, hi = b.omega_window
    dw = (hi - lo) / n_modes
    freqs = lo + (np.arange(n_modes) + 0.5) * dw
    root_weight = np.sqrt(_spectral_weight(b, k, freqs) * dw)
    return DiscretizedBath(freqs, b.kappa_c * root_weight, b.kappa_x * root_weight)


def _secular_terms(poles, z2, origin, tau):
    """Sums over i != origin of z2_i/(d_i - lam) and z2_i/(d_i - lam)^2.

    lam = d_origin + tau, one root per row.  Each difference is formed as
    (d_i - d_origin) - tau, so the distance from a root to the poles that
    bracket it keeps full relative accuracy however close they are.
    """
    r = poles - poles[origin, None]
    r -= tau[:, None]
    np.reciprocal(r, out=r)
    r[np.arange(origin.size), origin] = 0.0
    f = r @ z2
    np.square(r, out=r)
    return f, r @ z2


def _secular_step(f_rest, fp_rest, lin, s, tau, far):
    """Zero of a rational model that matches f and f' at tau.

    The origin pole keeps its true weight s.  Inside a gap, every other
    term is lumped into one pole at the far end of the gap, at offset far
    from the origin (the fixed-weight method of R.-C. Li, LAPACK Working
    Note 89).  Beyond the outermost pole (far = 0) they are lumped into a
    straight line instead.  Each model has exactly one zero on the side
    of the origin where tau lies; it is taken in a cancellation-free form.
    """
    sign = np.where(far != 0.0, np.sign(far), np.sign(tau))
    # outer roots: f ~ c + L*tau - s/tau
    c = f_rest + lin - fp_rest * tau
    disc = np.sqrt(c * c + 4.0 * fp_rest * s)
    outer = np.where(sign * c > 0.0, 2.0 * sign * s / (sign * c + disc),
                     (sign * disc - c) / (2.0 * fp_rest))
    # inner roots, mirrored onto far > 0: f ~ c + S/(far - tau) - s/tau
    gap = np.abs(far)
    cm = sign * (f_rest + lin - fp_rest * (far - tau))
    a = cm * gap + fp_rest * (far - tau) ** 2 + s
    b = s * gap
    disc = np.sqrt(np.maximum(a * a - 4.0 * b * cm, 0.0))
    inner = sign * np.where(a > 0.0, 2.0 * b / (a + disc),
                            (a - disc) / (2.0 * cm))
    return np.where(far != 0.0, inner, outer)


def _secular_roots(alpha, poles, z2):
    """All n + 1 roots of f(lam) = lam - alpha + sum_i z2_i/(d_i - lam).

    poles d_i must increase strictly and the weights z2_i be positive; f
    then rises monotonically across each gap between poles and beyond
    either end, so it has one root in every gap plus one on each side.
    Returns (origin, tau, fp): root j is poles[origin[j]] + tau[j] with
    origin the pole nearest to it, and fp = f'(root).  Roots are found in
    blocks of SOLVER_CHUNK, so the working memory is O(n * SOLVER_CHUNK).
    """
    n = poles.size
    reach = np.sqrt(z2.sum())
    origin_out = np.empty(n + 1, dtype=int)
    tau_out = np.empty(n + 1)
    fp_out = np.empty(n + 1)
    for start in range(0, n + 1, SOLVER_CHUNK):
        j = np.arange(start, min(start + SOLVER_CHUNK, n + 1))
        origin = np.clip(j - 1, 0, n - 1)
        inner = (j > 0) & (j < n)
        half = np.where(inner,
                        0.5 * (poles[np.minimum(j, n - 1)] - poles[origin]), 0.0)
        # first probe: mid-gap for inner roots; for the outer roots the
        # bound min(alpha, d_0) - |z| (or max(alpha, d_n) + |z|), past which
        # the pole sum is at most |z| and cannot cancel lam - alpha
        tau = np.where(inner, half, np.where(
            j == 0, min(alpha - poles[0], 0.0) - reach,
            max(alpha - poles[-1], 0.0) + reach))
        f_rest, fp_rest = _secular_terms(poles, z2, origin, tau)
        f = f_rest + (poles[origin] - alpha + tau) - z2[origin] / tau
        fp = 1.0 + fp_rest + z2[origin] / tau ** 2
        # mid-gap sign picks the nearer pole as origin for the rest
        right = inner & (f < 0.0)
        origin = origin + right
        tau = np.where(right, -half, tau)
        far = np.where(right, -2.0 * half, 2.0 * half)
        lo = np.where(inner, np.where(right, -half, 0.0), np.minimum(tau, 0.0))
        hi = np.where(inner, np.where(right, 0.0, half), np.maximum(tau, 0.0))
        s = z2[origin]
        lin = poles[origin] - alpha + tau
        fp_rest = fp - s / tau ** 2
        f_rest = f - lin + s / tau
        for _ in range(SOLVER_MAXIT):
            f = f_rest + lin - s / tau
            hi = np.where(f > 0.0, tau, hi)
            lo = np.where(f < 0.0, tau, lo)
            with np.errstate(divide="ignore", invalid="ignore"):
                new = _secular_step(f_rest, fp_rest, lin, s, tau, far)
            # stop on a tiny step, or once f is down to its rounding noise;
            # either may have put the step just outside the bracket
            small = np.abs(new - tau) <= SOLVER_STEP_TOL * np.abs(tau)
            noise = 16.0 * FLOAT_EPS * (np.abs(lin) + np.abs(f_rest)
                                        + s / np.abs(tau))
            done = small | (np.abs(f) <= noise)
            bad = ~(done | ((new >= lo) & (new <= hi) & (new != 0.0)))
            new = np.where(bad, 0.5 * (lo + hi), new)
            origin_out[j[done]] = origin[done]
            tau_out[j[done]] = np.where(small, new, tau)[done]
            fp_out[j[done]] = fp_rest[done] + s[done] / tau[done] ** 2
            keep = ~done
            if not keep.any():
                break
            j, origin, far, s = j[keep], origin[keep], far[keep], s[keep]
            lo, hi, tau = lo[keep], hi[keep], new[keep]
            lin = poles[origin] - alpha + tau
            f_rest, fp_rest = _secular_terms(poles, z2, origin, tau)
            fp_rest += 1.0
        else:
            raise ArithmeticError("secular equation did not converge")
    return origin_out, tau_out, fp_out


def _bright_direction(d):
    """Unit vector u with (coupling_c[j], coupling_x[j]) = u * w[j] for all j."""
    gc, gx = d.coupling_c, d.coupling_x
    norm_c, norm_x = np.sqrt(gc @ gc), np.sqrt(gx @ gx)
    kappa = np.hypot(norm_c, norm_x)
    if kappa == 0.0:
        return np.array([1.0, 0.0])
    u = np.array([norm_c, np.copysign(norm_x, gc @ gx)]) / kappa
    if np.max(np.abs(u[0] * gx - u[1] * gc)) > 1e-12 * kappa:
        raise ValueError("oracle needs cavity and emitter couplings that are"
                         " proportional, as discretize_bath makes them")
    return u


def _oracle_eigenpairs(h_sys, u, d):
    """Eigenvalues of the (N+2) single-excitation Hamiltonian, ascending,
    and the (2, N+2) cavity and emitter rows of its eigenvectors.

    In the basis (bright u, dark u-perp, bath modes) only the bright mode
    couples to the bath, so the matrix is an arrowhead: tip h_bb, diagonal
    {h_dd, omega_j}, border {h_bd, w_j}.  Zero border entries and
    coincident diagonal entries (to rounding) deflate: their eigenpairs
    are known in closed form.  Every other eigenvalue lam is a root of
    the secular equation f(lam) = 0, and its eigenvector is
    (1, z_i/(lam - d_i)) / sqrt(f'(lam)), so its bright amplitude is
    1/sqrt(f') and its dark amplitude h_bd / ((lam - h_dd) sqrt(f')).
    The full eigenvector matrix is never formed.
    """
    v = np.array([-u[1], u[0]])
    h_bb, h_bd, h_dd = u @ h_sys @ u, u @ h_sys @ v, v @ h_sys @ v
    diag = np.concatenate(([h_dd], d.mode_freqs))
    border = np.concatenate(([h_bd], u[0] * d.coupling_c + u[1] * d.coupling_x))
    order = np.argsort(diag, kind="stable")
    diag, border = diag[order], border[order]
    dark = int(np.flatnonzero(order == 0)[0])
    tol = 8.0 * FLOAT_EPS * max(abs(h_bb), np.max(np.abs(diag)),
                                np.max(np.abs(border)))
    is_live = np.abs(border) > tol
    live = np.flatnonzero(is_live)
    # a run of coincident live entries acts as one pole carrying their
    # combined weight; the rest of the run deflates
    first = np.diff(diag[live], prepend=-np.inf) > tol
    group = np.cumsum(first) - 1
    poles = diag[live[first]]
    z2 = np.bincount(group, border[live] ** 2)
    deflated = np.setdiff1d(np.arange(diag.size), live[first])
    deflated_dark = np.zeros(deflated.size)
    if poles.size:
        origin, tau, fp = _secular_roots(h_bb, poles, z2)
        energies = poles[origin] + tau
        bright = 1.0 / np.sqrt(fp)
    else:
        energies, bright = np.array([h_bb]), np.ones(1)
    dark_amp = np.zeros(energies.size)
    if not is_live[dark]:
        deflated_dark[np.searchsorted(deflated, dark)] = 1.0
    else:
        g = group[np.searchsorted(live, dark)]
        # lam - h_dd measured from the root's own pole, as the solver does
        dark_amp = h_bd * bright / ((poles[origin] - poles[g]) + tau)
        members = live[group == g]
        if members.size > 1:
            # one deflated partner carries the rest of the dark weight
            others = members[members != dark]
            deflated_dark[np.searchsorted(deflated, members[-1])] = np.sqrt(
                np.sum(border[others] ** 2) / z2[g])
    energies = np.concatenate((energies, diag[deflated]))
    bright = np.concatenate((bright, np.zeros(deflated.size)))
    dark_amp = np.concatenate((dark_amp, deflated_dark))
    order = np.argsort(energies, kind="stable")
    rows = np.outer(u, bright[order]) + np.outer(v, dark_amp[order])
    return energies[order], rows


class BathOracle:
    """Exact single-excitation model of the system plus a discretized bath.

    The (N+2)-dimensional real symmetric Hamiltonian in the basis (cavity,
    emitter, bath modes) is never stored.  Spectra and the Green's matrix
    come from the discrete self-energy Sigma(z) = sum_j g_j g_j^T/(z - w_j)
    in O(N) per frequency; dynamics uses the eigenvalues and the two system
    rows of the eigenvectors, found in O(N^2) by a secular-equation solver
    on first use.  Everything the memoryless theory predicts — branch
    positions, linewidths, the off-diagonal dissipative coupling, the
    undamped-state plateau — must emerge here from first principles, up to
    the discretization itself.
    """

    def __init__(self, d, p, k=0.0, min_modes=2000):
        if d.n_modes < min_modes:
            raise ValueError(
                "oracle needs >= %d bath modes for converged rates" % min_modes)
        if not all(np.all(np.isfinite(v)) for v in
                   (astuple(p), k, d.mode_freqs, d.coupling_c, d.coupling_x)):
            raise ValueError("oracle parameters and bath must be finite")
        eps_c, eps_x = kinetic_energies(p, k)
        lo, hi = d.mode_freqs[0], d.mode_freqs[-1]
        margin = WINDOW_MARGIN * max(p.total_rate, 1e-12)
        if min(eps_c, eps_x) - margin < lo or max(eps_c, eps_x) + margin > hi:
            raise ValueError("bath window too narrow around the system lines")
        self.params = p
        self.k = k
        self.bath = d
        self._h_sys = _bare_hamiltonian(p, k)
        self._bright = _bright_direction(d)
        self._eigen = None

    def _eigenpairs(self):
        if self._eigen is None:
            self._eigen = _oracle_eigenpairs(self._h_sys, self._bright, self.bath)
        return self._eigen

    @property
    def energies(self):
        """All N+2 eigenvalues, ascending (solved on first use)."""
        return self._eigenpairs()[0]

    @property
    def system_rows(self):
        """Cavity and emitter components of the eigenvectors, shape (2, N+2),
        one column per entry of energies."""
        return self._eigenpairs()[1]

    @property
    def recurrence_time(self):
        return 2.0 * np.pi / self.bath.spacing

    def _self_energy(self, z):
        """Sigma(z) = sum_j g_j g_j^T/(z - omega_j), shape (M, 2, 2)."""
        d = self.bath
        gg = np.stack((d.coupling_c ** 2, d.coupling_c * d.coupling_x,
                       d.coupling_x ** 2), axis=1)
        sig = np.empty((z.size, 3), dtype=complex)
        for start in range(0, z.size, SOLVER_CHUNK):
            block = z[start:start + SOLVER_CHUNK, None]
            sig[start:start + SOLVER_CHUNK] = (1.0 / (block - d.mode_freqs)) @ gg
        return sig[:, [0, 1, 1, 2]].reshape(-1, 2, 2)

    def _frequencies(self, omega_grid, eta):
        """z = omega + i*eta, eta wide enough to hide the discrete mode comb;
        the default, ten level spacings, washes it out."""
        eta = 10.0 * self.bath.spacing if eta is None else float(eta)
        if not 2.0 * self.bath.spacing <= eta < np.inf:
            raise KernelAccuracyError(
                "broadening must be finite and at least twice the level spacing")
        omega = np.asarray(omega_grid, dtype=float)
        if omega.ndim != 1 or not np.all(np.isfinite(omega)):
            raise ValueError("omega_grid must be a finite 1-d array")
        return omega + 1j * eta

    def spectrum(self, omega_grid, eta=None):
        """System-projected local density of states on omega_grid."""
        g = self.green_system(omega_grid, eta)
        return -(g[:, 0, 0] + g[:, 1, 1]).imag / np.pi

    def dynamics(self, initial, t_grid):
        """Exact amplitudes (c(t), x(t)) from an initial system excitation;
        NaN or inf times or amplitudes raise ValueError."""
        t_grid = _finite(t_grid, "times")
        _finite(np.abs(initial), "initial amplitudes")
        if np.any(t_grid < 0.0):
            raise ValueError("times must be non-negative")
        if np.max(t_grid, initial=0.0) > RECURRENCE_SAFETY * self.recurrence_time:
            raise RecurrenceLimitError(
                "requested times exceed %.0f%% of the recurrence time %.3g"
                % (100 * RECURRENCE_SAFETY, self.recurrence_time))
        energies, rows = self._eigenpairs()
        c0, x0 = initial
        coeff = rows[0] * c0 + rows[1] * x0  # V^T psi0, bath empty
        c_out = np.empty(t_grid.size, dtype=complex)
        x_out = np.empty(t_grid.size, dtype=complex)
        for start in range(0, t_grid.size, DYNAMICS_CHUNK):
            ts = t_grid[start:start + DYNAMICS_CHUNK]
            phases = np.exp(-1j * np.outer(ts, energies)) * coeff
            c_out[start:start + DYNAMICS_CHUNK] = phases @ rows[0]
            x_out[start:start + DYNAMICS_CHUNK] = phases @ rows[1]
        return c_out, x_out

    def green_system(self, omega_grid, eta=None):
        """Retarded 2x2 Green's matrix of the system block, eta-broadened:
        G(z) = [z - H_bare - Sigma(z)]^-1 at z = omega + i*eta."""
        z = self._frequencies(omega_grid, eta)
        return _green(_response(self._h_sys, z, self._self_energy(z)), z)

    def effective_damping(self, omega_grid, eta=None):
        """Damping matrix Gamma~(omega) the bath induces on the system.

        Matching G^-1 to the M-form M = omega*1 - H_bare + i*Gamma~ gives
        Gamma~(omega) = i*Sigma(omega + i*eta) exactly: the eta-broadened
        discrete self-energy, with the broadening itself removed.  The
        off-diagonal entry is the dissipative coupling generated by the
        common environment.
        """
        return 1j * self._self_energy(self._frequencies(omega_grid, eta))
