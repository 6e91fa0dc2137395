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
environment generates and independent baths cannot, with couplings that
give the system its own radiative rates.  The discretized bath
is the exact oracle for the closed forms.  The oracle builds it itself, at
its own momentum, on a uniform grid of modes that all couple to one bright
combination of cavity and emitter; its dynamics comes from a
secular-equation solver for the arrowhead Hamiltonian of that shared bath,
which sums over the uniform grid in O(N log N).  On a uniform time grid
the phases exp(-i E t) of the dynamics are products of anchor and offset
rows, about 2 sqrt(T) N exponentials for T times instead of T N.  The
oracle's mode sums, and the solver's sums over its roots, run in blocks of
at most BLOCK_BYTES: each output is one sum over its own row whatever the
block height, so scratch memory is flat in N and the bits are the same.

Every sum over the bath modes runs in numpy's own single-threaded loops
(the pairwise np.sum), never through BLAS.  Threaded BLAS splits a long
sum differently for each thread count, which moves its last bits, so the
oracle's results, and the CSVs built from them, would depend on the core
count; its helper thread also busy-waits between short calls, burning as
much CPU as the work itself.  The secular solver's far-field sums come
from np.fft, which is pocketfft: it calls no BLAS and starts no thread.

Work in units hbar = 1; energies are measured in units of a reference
rate, the same convention as the rest of the package.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import _finite, _response_det, _times, kinetic_energies
from .errors import (
    EvanescentRegionError,
    KernelAccuracyError,
    RecurrenceLimitError,
)

PV_GRID_POINTS = 4001
RECURRENCE_SAFETY = 0.5
WINDOW_MARGIN = 50.0      # total rates the system lines keep from the window ends
BLOCK_BYTES = 1 << 18     # bytes per block of the oracle mode sums, ~L2
NEAR_FIELD = 7            # grid steps each side that the solver sums directly
FAR_TERMS = 15            # Taylor terms of its far field, |tau/(m*dw)| <= 1/16
SOLVER_STEP_TOL = 1e-12   # relative step that ends a secular iteration
SOLVER_MAXIT = 100
MIN_MODES = 2000          # fewest bath modes for converged golden-rule rates
FLOAT_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class BathSpec:
    """Flat-coupling photonic environment on a frequency window.

    The window restricts quadrature and discretization to omega in
    [omega_window[0], omega_window[1]]; coupling amplitudes roll off
    smoothly (half-cosine) over taper_frac of the window at each end to
    suppress hard-edge ringing.  The coupling strengths come from the
    system's radiative rates (_couplings).
    """

    omega_window: tuple
    c_light: float = 1.0
    taper_frac: float = 0.05

    def __post_init__(self):
        if not math.isfinite(self.c_light):
            raise ValueError("c_light must be finite")
        lo, hi = self.omega_window
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise ValueError("omega_window must be a finite increasing pair")
        if lo <= 0.0:
            raise ValueError("omega_window must be positive")
        if self.c_light <= 0.0:
            raise ValueError("c_light must be positive")
        if not 0.0 <= self.taper_frac < 0.5:
            raise ValueError("taper_frac must lie in [0, 0.5)")


def _density(b, ck, omega):
    """rho = omega/(c sqrt(omega^2 - (ck)^2)) for omega > ck = c|k|,
    unchecked: d(omega)/dq inverted on omega = c sqrt(k^2 + q^2)."""
    return omega / (b.c_light * np.sqrt(omega * omega - ck * ck))


def _taper(b, omega):
    """Coupling-amplitude rolloff: 1 deep inside the window, 0 at its
    ends; omega a float array of finite values, unchecked."""
    lo, hi = b.omega_window
    width = (hi - lo) * b.taper_frac
    if width == 0.0:
        return np.where((omega >= lo) & (omega <= hi), 1.0, 0.0)
    # edge clipped to [0, 1]: sin(0) = 0 and sin(pi/2) rounds to 1.0.
    # np.minimum and np.maximum cost half of np.clip on one point
    edge = np.minimum(omega - lo, hi - omega) / width
    return np.sin(0.5 * np.pi * np.minimum(np.maximum(edge, 0.0), 1.0))


def _spectral_weight(b, k, omega):
    """rho(omega) * taper(omega)^2 inside the window, 0 outside."""
    omega = np.asarray(omega, dtype=float)
    lo, hi = b.omega_window
    ck = b.c_light * abs(k)
    if hi <= ck:
        # the whole window lies below the light cone
        return np.zeros(omega.shape)
    # endpoints count as inside so a hard (untapered) window is exactly
    # flat on quadrature grids
    inside = (omega >= lo) & (omega <= hi) & (omega > ck)
    # one pass over every point: those outside, NaN and inf among them,
    # are evaluated at the stand-in hi > ck and then zeroed
    at = np.where(inside, omega, hi)
    return np.where(inside, _density(b, ck, at) * _taper(b, at) ** 2, 0.0)


def _window_grid(b, k, npoints):
    _finite(k, "k")
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
    the analytic term f(omega) * log|(omega - a)/(b - omega)|.  A pole
    outside the span subtracts the nearer endpoint's weight instead, the
    value np.interp holds there, so a flat weight is exact on either side.
    """
    a, b_end = grid[0], grid[-1]
    cell = grid[1] - grid[0]
    # on either side of an endpoint the subtraction loses accuracy
    if min(abs(omega - a), abs(b_end - omega)) <= cell:
        raise KernelAccuracyError(
            "principal-value pole within one grid cell of a window endpoint")
    f_at = np.interp(omega, grid, f)
    diff = omega - grid
    near = np.abs(diff) < 0.5 * cell
    regular = np.where(near, 0.0, (f - f_at) / np.where(near, 1.0, diff))
    if np.any(near):
        # limit of the subtracted integrand at the pole is -f'(omega); the
        # guard keeps both end nodes over a cell away, so these are interior
        regular[near] = -np.gradient(f, grid)[near]
    return float(np.trapezoid(regular, grid)
                 + f_at * np.log(abs((omega - a) / (b_end - omega))))


def _couplings(b, p):
    """Coupling amplitudes (kappa_c, kappa_x) of cavity and emitter to
    every mode of b, the golden rule gamma = pi kappa^2 rho taper^2
    inverted at k = 0 and the carrier p.eps0, so that the bath gives the
    system its own radiative rates.  The relative phase is zero because
    both sit at the same location.  ValueError for nonradiative rates,
    which need private loss baths that b does not model, and for a
    carrier where b has no modes."""
    for name in ("gamma_nr_c", "gamma_nr_x"):
        if getattr(p, name):
            raise ValueError("%s = %g: the shared bath models no"
                             " nonradiative loss" % (name, getattr(p, name)))
    scale = np.pi * _spectral_weight(b, 0.0, p.eps0)
    if scale <= 0.0:
        raise ValueError("eps0 = %g lies outside the bath window" % p.eps0)
    return np.sqrt(np.array([p.gamma_c, p.gamma_x]) / scale)


def _golden_rule(b, kap, k, omega):
    """pi * rho(omega) * taper(omega)^2 * kappa kappa^T for the couplings
    kap of _couplings, shape omega.shape + (2, 2)."""
    weight = np.pi * _spectral_weight(b, k, omega)
    return weight[..., None, None] * np.outer(kap, kap)


def kernel_freq(b, p, k, omega, npoints=PV_GRID_POINTS):
    """Frequency-domain kernel Gamma~(omega), a 2x2 complex matrix per omega.

    Real part: pi * kappa^A kappa^B rho(omega) taper(omega)^2 on the
    radiative zone inside the window, zero elsewhere (no modes to emit
    into), kappa from p's rates (_couplings).  Imaginary part:
    principal-value integral of the spectral weight against
    1/(omega - omega'), evaluated by pole subtraction.
    Raises KernelAccuracyError when the pole sits within one grid cell
    of a window endpoint, on either side, where the quadrature loses
    accuracy, and ValueError for NaN or inf omega or k.
    """
    omega = _finite(omega, "omega")
    grid = _window_grid(b, k, npoints)
    weight = _spectral_weight(b, k, grid)
    pv = np.array([_pv_integral(grid, weight, w) for w in omega.ravel().tolist()])
    kap = _couplings(b, p)
    return (_golden_rule(b, kap, k, omega)
            + 1j * pv.reshape(omega.shape + (1, 1)) * np.outer(kap, kap))


def _bare_hamiltonian(p, k):
    eps_c, eps_x = kinetic_energies(p, k)
    return np.array([[eps_c, p.g_rabi], [p.g_rabi, eps_x]])


def _response(h, z, sigma):
    """M(z) = z*1 - h - Sigma(z) over a stack of frequencies z, shape z.shape + (2, 2)."""
    return z[..., None, None] * np.eye(2) - h - sigma


def _green(m, z):
    """Cofactor inverses of a stack of 2x2 response matrices m, under the
    singularity rule of core._response_det."""
    det = _response_det(m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1],
                        z)
    adj = np.stack((m[..., 1, 1], -m[..., 0, 1], -m[..., 1, 0], m[..., 0, 0]),
                   axis=-1)
    return adj.reshape(m.shape) / det[..., None, None]


def full_matrix(b, p, k, omega, npoints=PV_GRID_POINTS, memoryless=False):
    """Response matrix M(k, omega) = omega*1 - H_bare - Sigma, one 2x2 per
    entry of omega, with the continuum self-energy Sigma = -i*Gamma~(omega).

    Damping comes entirely from the bath b, coupled so that it gives p
    its radiative rates at the carrier; p also supplies the kinetic
    energies and Rabi coupling.  memoryless=True freezes the kernel at the
    carrier p.eps0 and drops its principal-value part, which reproduces
    the closed-form theory exactly; NaN or inf omega or k raises ValueError.
    """
    omega = _finite(omega, "omega")
    h = _bare_hamiltonian(p, k)  # kinetic_energies rejects a NaN or inf k
    if memoryless:
        gam = _golden_rule(b, _couplings(b, p), k, p.eps0)
    else:
        gam = kernel_freq(b, p, k, omega, npoints)
    return _response(h, omega, -1j * gam)


def _inverse_sums(gaps, z2):
    """Row sums of z2/gaps and z2/gaps^2, pairwise; gaps is overwritten."""
    r = np.reciprocal(gaps, out=gaps)
    terms = r * z2
    f = terms.sum(axis=1)
    terms *= r
    return f, terms.sum(axis=1)


def _secular_terms(poles, z2, origin, tau):
    """Sums over i != origin of z2_i/(d_i - lam) and z2_i/(d_i - lam)^2.

    lam = d_origin + tau, one root per row, in O(n) per root.  Each
    difference is formed as (d_i - d_origin) - tau, so the distance from a
    root to the poles that bracket it keeps full relative accuracy however
    close they are.
    """
    gaps = poles - poles[origin, None]
    gaps -= tau[:, None]
    gaps[np.arange(origin.size), origin] = np.inf
    return _inverse_sums(gaps, z2)


class _PoleSums:
    """The sums of _secular_terms, in O(1) per root on the uniform mode grid.

    The oracle builds its modes on the grid d_j = grid[0] + j*dw, to
    rounding, and passes its spacing dw.  Poles on the grid carry their
    weights W_j on it; every other pole (the dark pole h_dd, unless it
    falls on a mode) is one explicit term for every root.  For a root
    d_o + tau whose bracketing gap is one grid step, |tau| <= dw/2, and
    each grid sum splits in two:
    - near field, 0 < |m| <= NEAR_FIELD: summed directly in shifted
      coordinates, as _secular_terms does;
    - far field: with x = tau/dw, sum W_{o+m}/(m dw - tau) =
      sum_p x^p C_p[o]/dw and sum W_{o+m}/(m dw - tau)^2 =
      sum_p (p+1) x^p C_{p+1}[o]/dw^2, where C_p is W correlated with
      m^-(p+1) over |m| > NEAR_FIELD.  Since |x/m| <= 1/16, FAR_TERMS
      terms reach 2^-53; each C_p is one FFT convolution in O(N log N),
      one p at a time.
    The far field treats the grid as exactly uniform, which moves a far
    pole by at most the grid's rounding.  The outer roots and the roots in
    any other gap (next to an off-grid pole or to deflated modes) take the
    direct O(n) sum of _secular_terms; fast marks the roots that do not.
    Root j lies between poles j - 1 and j.  The grid roots are summed in
    blocks of at most BLOCK_BYTES of far-field coefficients, each root on
    its own row, so the scratch is O(N) vectors plus one block and the
    block height moves no bit.
    """

    def __init__(self, poles, z2, grid, dw):
        self.poles, self.z2 = poles, z2
        self.dw = dw
        n_grid = grid.size
        index = np.clip(np.rint((poles - grid[0]) / dw).astype(int), 0,
                        n_grid - 1)
        on = grid[index] == poles
        self.index = index
        self.fast = np.zeros(poles.size + 1, dtype=bool)
        self.fast[1:-1] = on[:-1] & on[1:] & (np.diff(index) == 1)
        self.off_poles, self.off_z2 = poles[~on], z2[~on]
        near = NEAR_FIELD
        self.weight = weight = np.zeros(n_grid + 2 * near)
        weight[near + index[on]] = z2[on]
        step = np.arange(1, near + 1) * dw
        self.grid = grid
        self.padded = np.concatenate((grid[0] - step[::-1], grid,
                                      grid[-1] + step))
        self.offsets = np.delete(np.arange(2 * near + 1), near)
        # C_p by FFT convolution with the kernel k_p[q] = (-q)^-(p+1),
        # zero-padded so that the circular convolution does not wrap, one
        # p at a time into one kernel buffer.  The powers stay one batched
        # expression: numpy's pow rounds a row taken on its own differently
        # at some N (q^-1 at N = 2000 and 4000).
        size = 1 << (2 * n_grid - 2).bit_length()
        dist = np.arange(near + 1, n_grid, dtype=float)
        table = dist ** -np.arange(1, FAR_TERMS + 2)[:, None]
        spectrum = np.fft.rfft(weight[near:n_grid + near], size)
        kern = np.zeros(size)
        self.far = np.empty((FAR_TERMS, n_grid, 2))
        for p, row in enumerate(table):
            kern[near + 1:n_grid] = (-1.0) ** (p + 1) * row
            kern[size - near - 1:size - n_grid:-1] = row
            # np.multiply, not *: past 256 KB numpy writes a * into the
            # temporary rfft and swaps the factors, and its complex product
            # is not commutative to the last bit
            coef = np.fft.irfft(np.multiply(spectrum, np.fft.rfft(kern)),
                                size)[:n_grid]
            if p < FAR_TERMS:
                self.far[p, :, 0] = coef / dw
            if p:
                self.far[p - 1, :, 1] = p * coef / dw ** 2

    def __call__(self, j, origin, tau):
        """The two sums at roots j, each poles[origin] + tau; the grid
        roots in blocks of at most BLOCK_BYTES of far-field terms."""
        f, fp = np.empty(tau.size), np.empty(tau.size)
        fast = self.fast[j]
        f[~fast], fp[~fast] = _secular_terms(self.poles, self.z2,
                                             origin[~fast], tau[~fast])
        fast = np.flatnonzero(fast)
        rows = max(1, BLOCK_BYTES // (16 * FAR_TERMS))
        for start in range(0, fast.size, rows):
            at = fast[start:start + rows]
            origin_at, tau_at = origin[at], tau[at]
            o = self.index[origin_at]
            near = o[:, None] + self.offsets
            gaps = self.padded[near]
            gaps -= self.grid[o, None]
            gaps -= tau_at[:, None]
            f_sum, fp_sum = _inverse_sums(gaps, self.weight[near])
            # far field by Horner's rule in x, f and f' side by side
            coef = np.take(self.far, o, axis=1)
            x = (tau_at / self.dw)[:, None]
            far = coef[-1]
            for c in coef[-2::-1]:
                far *= x
                far += c
            gaps = self.off_poles - self.poles[origin_at, None]
            gaps -= tau_at[:, None]
            off_f, off_fp = _inverse_sums(gaps, self.off_z2)
            f[at] = f_sum + far[:, 0] + off_f
            fp[at] = fp_sum + far[:, 1] + off_fp
        return f, fp


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


def _secular_roots(alpha, poles, z2, grid, dw):
    """All n + 1 roots of f(lam) = lam - alpha + sum_i z2_i/(d_i - lam).

    poles d_i must increase strictly and the weights z2_i be positive; f
    then rises monotonically across each gap between poles and beyond
    either end, so it has one root in every gap plus one on each side.
    The poles are modes of the uniform grid of spacing dw, apart from a
    few off it, and _PoleSums sums over them.  Returns (origin, tau, fp,
    residual): root j is poles[origin[j]] + tau[j] with origin the pole
    nearest to it, fp = f'(root), and residual = |f(root)|/sqrt(fp) is the
    residual norm of its eigenpair (Parlett, The Symmetric Eigenvalue
    Problem, ch. 4).
    All roots iterate together, in O(n) memory per step.
    """
    n = poles.size
    sums = _PoleSums(poles, z2, grid, dw)
    reach = np.sqrt(z2.sum())
    origin_out = np.empty(n + 1, dtype=int)
    tau_out = np.empty(n + 1)
    j = np.arange(n + 1)
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
    f_rest, fp_rest = sums(j, origin, tau)
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
        keep = ~done
        if not keep.any():
            break
        j, origin, far, s = j[keep], origin[keep], far[keep], s[keep]
        lo, hi, tau = lo[keep], hi[keep], new[keep]
        lin = poles[origin] - alpha + tau
        f_rest, fp_rest = sums(j, origin, tau)
        fp_rest += 1.0
    else:
        raise ArithmeticError("secular equation did not converge")
    # one more sweep at the roots themselves gives f' and the residuals
    f_rest, fp_rest = sums(np.arange(n + 1), origin_out, tau_out)
    s = z2[origin_out]
    f = f_rest + (poles[origin_out] - alpha + tau_out) - s / tau_out
    fp = 1.0 + fp_rest + s / tau_out ** 2
    return origin_out, tau_out, fp, np.abs(f) / np.sqrt(fp)


def _oracle_eigenpairs(h_sys, u, w, mode_freqs, dw):
    """Eigenvalues of the (N+2) single-excitation Hamiltonian, ascending,
    the (2, N+2) cavity and emitter rows of its eigenvectors, and the
    largest eigenpair residual norm.

    In the basis (bright u, dark u-perp, bath modes) only the bright mode
    couples to the bath, so the matrix is an arrowhead: tip h_bb, diagonal
    {h_dd, omega_j}, border {h_bd, w_j}.  Zero border entries and
    coincident diagonal entries (to rounding) deflate: their eigenpairs
    are known in closed form.  Every other eigenvalue lam is a root of
    the secular equation f(lam) = 0, and its eigenvector is
    (1, z_i/(lam - d_i)) / sqrt(f'(lam)), so its bright amplitude is
    1/sqrt(f') and its dark amplitude h_bd / ((lam - h_dd) sqrt(f')).
    The full eigenvector matrix is never formed.  The residual norm
    |f(lam)|/sqrt(f'(lam)) of each secular eigenpair certifies it without
    a dense reference; the deflated eigenpairs are exact.
    """
    v = np.array([-u[1], u[0]])
    h_bb, h_bd, h_dd = u @ h_sys @ u, u @ h_sys @ v, v @ h_sys @ v
    diag = np.concatenate(([h_dd], mode_freqs))
    border = np.concatenate(([h_bd], w))
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
    is_pole = np.zeros(diag.size, dtype=bool)
    is_pole[live[first]] = True
    deflated = np.flatnonzero(~is_pole)
    deflated_dark = np.zeros(deflated.size)
    if poles.size:
        origin, tau, fp, residual = _secular_roots(h_bb, poles, z2,
                                                   mode_freqs, dw)
        energies = poles[origin] + tau
        bright = 1.0 / np.sqrt(fp)
    else:
        energies, bright, residual = np.array([h_bb]), np.ones(1), np.zeros(1)
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
    return energies[order], rows, float(residual.max())


class BathOracle:
    """Exact single-excitation model of the system plus a discretized bath.

    The oracle discretizes the bath b itself, at its own momentum k: n_modes
    modes at the midpoints omega_j = lo + (j + 1/2)*dw of the window, a
    uniform grid of spacing dw = (hi - lo)/n_modes.  The couplings kappa
    are those that give p its radiative rates (_couplings).  A shared bath
    couples to one bright combination u = (kappa_c, kappa_x)/|kappa| of
    cavity and emitter, (1, 0) when both couplings vanish, with the weight
    w_j = |kappa| * taper(omega_j) * sqrt(rho_k(omega_j) * dw), zero below
    the light cone; the golden-rule rate of the discrete bath then equals
    the continuum rate by construction.

    The (N+2)-dimensional real symmetric Hamiltonian in the basis (cavity,
    emitter, bath modes) is never stored.  Spectra and the Green's matrix
    come from the discrete self-energy Sigma(z) = sum_j g_j g_j^T/(z - w_j)
    in O(N) per frequency, at z = omega + i*eta with eta a fixed multiple
    of the level spacing dw (2 for spectra, 10 for damping); dynamics uses
    the eigenvalues and the two system rows of the eigenvectors, found in
    O(N log N) on first use by a secular-equation solver that sums over
    the uniform grid, with its phases from anchor times offset rows on a
    uniform time grid.  The self-energy, the dynamics and the solver's
    sums over its roots all run in blocks of at most BLOCK_BYTES, whatever
    N, with the same bits.
    Everything the memoryless theory predicts — branch positions,
    linewidths, the off-diagonal dissipative coupling, the undamped-state
    plateau — must emerge here from first principles, up to the
    discretization itself.  Its sums over the modes run on one thread
    without BLAS (see the module docstring), so its results are the same
    bits on any number of cores.
    """

    def __init__(self, b, n_modes, p, k=0.0):
        if n_modes < MIN_MODES:
            raise ValueError("oracle needs >= %d bath modes for converged"
                             " rates" % MIN_MODES)
        eps_c, eps_x = kinetic_energies(p, k)
        lo, hi = b.omega_window
        self.spacing = dw = (hi - lo) / n_modes
        self.mode_freqs = freqs = lo + (np.arange(n_modes) + 0.5) * dw
        margin = WINDOW_MARGIN * max(p.total_rate, 1e-12)
        if (min(eps_c, eps_x) - margin < freqs[0]
                or max(eps_c, eps_x) + margin > freqs[-1]):
            raise ValueError("bath window too narrow around the system lines")
        self._h_sys = _bare_hamiltonian(p, k)
        kappa_c, kappa_x = _couplings(b, p)
        kappa = math.hypot(kappa_c, kappa_x)
        self._bright = u = (np.array([kappa_c, kappa_x]) / kappa if kappa
                            else np.array([1.0, 0.0]))
        # w_j = u . g_j, the bright part of the couplings g_j = kappa * root_j
        root = np.sqrt(_spectral_weight(b, k, freqs) * dw)
        self._weights = u[0] * (kappa_c * root) + u[1] * (kappa_x * root)
        self._eigen = None

    def _eigenpairs(self):
        """(energies, system rows, largest eigenpair residual norm)."""
        if self._eigen is None:
            self._eigen = _oracle_eigenpairs(self._h_sys, self._bright,
                                             self._weights, self.mode_freqs,
                                             self.spacing)
        return self._eigen

    @property
    def recurrence_time(self):
        return 2.0 * np.pi / self.spacing

    def _self_energy(self, z):
        """Sigma(z) = sum_j g_j g_j^T/(z - omega_j), shape (M, 2, 2).

        Every g_j is w_j along the bright direction u, so Sigma(z) =
        u u^T * sum_j w_j^2/(z - omega_j) is rank one: Sigma_cx^2 =
        Sigma_cc * Sigma_xx, the dissipative coupling sqrt(Gamma_cc *
        Gamma_xx) of a common bath.
        """
        freqs, w2 = self.mode_freqs, self._weights ** 2
        sig = np.empty(z.size, dtype=complex)
        rows = max(1, BLOCK_BYTES // (16 * freqs.size))
        for start in range(0, z.size, rows):
            terms = z[start:start + rows, None] - freqs
            sig[start:start + rows] = np.sum(
                np.divide(w2, terms, out=terms), axis=1)
        return sig[:, None, None] * np.outer(self._bright, self._bright)

    def _frequencies(self, omega_grid, spacings):
        """z = omega + i*eta with eta = spacings level spacings."""
        omega = _finite(omega_grid, "omega_grid")
        if omega.ndim != 1:
            raise ValueError("omega_grid must be a 1-d array")
        return omega + 1j * (spacings * self.spacing)

    def spectrum(self, omega_grid):
        """System-projected local density of states on omega_grid, at
        eta = 2 level spacings (see green_system)."""
        g = self.green_system(omega_grid)
        return -(g[:, 0, 0] + g[:, 1, 1]).imag / np.pi

    def dynamics(self, initial, t_grid):
        """Exact amplitudes (c(t), x(t)) from an initial system excitation,
        under the time-grid rule of the closed-form paths (core._times).

        c(t_n) = sum_j w_j exp(-i E_j t_n) over the eigenpairs.  On a
        uniform grid, t_n = t_0 + (qB + r)*dt with B = ceil(sqrt(T)) for T
        times, exp(-i E t_n) = exp(-i E a_q) * exp(-i E r dt): one row of
        anchor phases per a_q = t_{qB} and one row of offset phases per
        r < B, about 2 sqrt(T) N exponentials instead of T N.  The grid
        counts as uniform when max |t_n - (t_0 + n dt)| <= 4 eps max t,
        the rounding the product t*E makes anyway.  Any other grid takes
        B = 1: one anchor per time, the direct sum.
        """
        t = _times(initial, t_grid)
        if t[-1] > RECURRENCE_SAFETY * self.recurrence_time:
            raise RecurrenceLimitError(
                "requested times exceed %.0f%% of the recurrence time %.3g"
                % (100 * RECURRENCE_SAFETY, self.recurrence_time))
        energies, rows, _ = self._eigenpairs()
        c0, x0 = initial
        # V^T psi0 (bath empty) times the system rows
        coeff = (rows[0] * c0 + rows[1] * x0) * rows
        rate = -1j * energies
        n = t.size
        dt = (t[-1] - t[0]) / max(n - 1, 1)
        uniform = (np.max(np.abs(t - (t[0] + np.arange(n) * dt)))
                   <= 4.0 * FLOAT_EPS * t[-1])
        size = math.ceil(math.sqrt(n)) if uniform else 1
        offsets = np.arange(size)[:, None] * dt * rate
        np.exp(offsets, out=offsets)
        rows = max(1, BLOCK_BYTES // (32 * rate.size))  # (2, rows, N+2)
        out = np.empty((2, n), dtype=complex)
        # each sum is numpy's pairwise np.sum, the same bits on any core count
        for start in range(0, n, size):
            weights = coeff * np.exp(t[start] * rate)
            for first in range(start, min(start + size, n), rows):
                last = min(first + rows, start + size, n)
                out[:, first:last] = np.sum(
                    weights[:, None, :] * offsets[first - start:last - start],
                    axis=2)
        return out[0], out[1]

    def green_system(self, omega_grid):
        """Retarded 2x2 Green's matrix of the system block, eta-broadened:
        G(z) = [z - H_bare - Sigma(z)]^-1 at z = omega + i*eta.

        eta = 2 level spacings: narrow, so that peak centers stay sharp,
        which is what the spectrum is read for, yet wide enough that the
        mode comb leaves a ripple of relative size 2 exp(-2 pi eta/dw),
        7e-6, on each line.
        """
        z = self._frequencies(omega_grid, 2.0)
        return _green(_response(self._h_sys, z, self._self_energy(z)), z)

    def effective_damping(self, omega_grid):
        """Damping matrix Gamma~(omega) the bath induces on the system.

        Matching G^-1 to the M-form M = omega*1 - H_bare + i*Gamma~ gives
        Gamma~(omega) = i*Sigma(omega + i*eta) exactly: the eta-broadened
        discrete self-energy, with the broadening itself removed.  The
        off-diagonal entry is the dissipative coupling generated by the
        common environment.  eta = 10 level spacings washes the mode comb
        out of Gamma~ (a ripple of 2 exp(-20 pi), below rounding), and since
        eta is a fixed multiple of the spacing, the error it leaves is
        first order in the spacing.
        """
        return 1j * self._self_energy(self._frequencies(omega_grid, 10.0))
