"""Spectral observables of the memoryless model.

Power spectrum (emission into the common environment for a given input
occupation), single-bath scattering amplitude, the 3x3 scattering matrix
with two extra nonradiative baths, and reflection/absorption spectra.

Density-of-states ratios of the auxiliary baths are absorbed into the rate
parameters, so only decay rates appear in this API; with that convention
the single-bath amplitude is exactly unimodular and R + A = 1.

power_spectrum, absorption and absorption_components take k as a scalar
or a 1-d array and return one row per k; the grid functions are the same
call wrapped in a SpectrumGrid.  All of them form the core kernel once
over k and evaluate it in blocks of k rows, so a grid row equals the
scalar call at its k exactly; when one block holds every k, its rows are
the result.  power_absorption_relation_check forms I, A_gamma and A_m in
one such pass, from one kernel.
Exactly on an undamped pole the scalar and array calls raise
DivergentPointError naming the first such (k, omega), and the grids flag
it in SpectrumGrid.divergent; a call with no undamped branch at any k
forms no mask, and its grids carry a read-only all-False view.  Every
value then obeys one output rule, _output_rule: no inf, NaN only where
flagged, power >= -1e-12 and absorption in [-1e-9, 1 + 1e-9].

Scattering has one path, S = 1 - 2i W G W^T at one k over an omega scalar
or array: the single-bath amplitude is its S11, reflection |S11|^2 and
scattering_matrix_three_bath all of S.  k and omega obey the package's
one input rule (see core).
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import _axis, _finite, _k_axis, _modes, _response_det
from .errors import DivergentPointError

# an omega closer than this (times local scale) to an undamped pole is
# reported as divergent rather than as a huge float
POLE_TOL = 1e-12

# momenta evaluated together on a (k, omega) grid.  Each row carries four
# complex distance planes (two eigenvalues, two poles), so at 801 omega a
# block's temporaries stay near 0.4 MB.  Whole grids spill out of cache;
# on eight parameter draws, each a 241 x 801 power and absorption map,
# 16-row blocks ran a few percent faster but raised the peak RSS from
# 68.3 to 69.3 MB and the traced peak from 30.1 to 31.2 MB
_BLOCK_ROWS = 8

# SpectrumGrid kinds: (lowest, highest, error for a value outside)
_RANGES = {"power": (-1e-12, math.inf, "power spectrum must be non-negative"),
           "absorption": (-1e-9, 1.0 + 1e-9,
                          "absorption values must lie in [0, 1]")}

# lorentzian_pair_fit: a step shorter than _FIT_XTOL |theta| ends the fit
# and more than _FIT_MAX_STEPS trial steps fail it; a trial point whose
# second basis column keeps less than _FIT_RANK_TOL of its norm outside
# the first is never accepted.  The start tries _FIT_START_WIDTHS
# half-widths per component, then _FIT_WIDTH_STEPS trial steps in the
# widths alone
_FIT_XTOL = 1e-15
_FIT_MAX_STEPS = 100
_FIT_RANK_TOL = 1e-8
_FIT_START_WIDTHS = 11
_FIT_WIDTH_STEPS = 10


class InputOccupation:
    """Input photon distribution n(omega), dimensionless, finite and >= 0.

    Wraps a constant or a tabulated (omega_points, values) pair, a tuple
    or list, interpolated linearly, both validated here once.
    """

    def __init__(self, n_of_omega=1.0):
        if isinstance(n_of_omega, (tuple, list)):
            pts, vals = n_of_omega
            pts = _axis(pts, "tabulated omega points")
            vals = np.asarray(vals, dtype=float)
            if pts.shape != vals.shape:
                raise ValueError("tabulated occupation needs matching 1-d arrays")
            self._fn = lambda omega: np.interp(omega, pts, vals)
        else:
            vals = float(n_of_omega)
            self._fn = lambda omega: np.full_like(omega, vals)
        if (_finite(vals, "occupation") < 0).any():
            raise ValueError("occupation must be non-negative")

    def __call__(self, omega):
        n = self._fn(np.asarray(omega, dtype=float))
        return n if n.ndim else float(n)


def as_occupation(n):
    """Pass an InputOccupation through; wrap anything else."""
    return n if isinstance(n, InputOccupation) else InputOccupation(1.0 if n is None else n)


@dataclass(frozen=True)
class SpectrumGrid:
    """A spectrum sampled on a (k, omega) grid.

    kind is "power" or "absorption".  divergent marks grid points sitting
    exactly on an undamped pole (intensity NaN there); the power and
    absorption grids fill it, with a read-only all-False view (no storage)
    when no branch of the call is undamped.  The axes obey core._axis and
    the intensity the output rule of its kind (_output_rule).
    """

    k_values: np.ndarray
    omega_values: np.ndarray
    intensity: np.ndarray
    kind: str
    divergent: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "intensity", np.asarray(self.intensity, float))
        if self.kind not in _RANGES:
            raise ValueError("kind must be one of %s" % (tuple(_RANGES),))
        for name in ("k_values", "omega_values"):
            object.__setattr__(self, name, _axis(getattr(self, name), name))
        if self.intensity.shape != (self.k_values.size, self.omega_values.size):
            raise ValueError("intensity shape does not match the axes")
        flagged = np.asarray(self.divergent, bool)
        object.__setattr__(self, "divergent", flagged)
        if flagged.shape != self.intensity.shape:
            raise ValueError("divergent shape does not match the axes")
        _output_rule(self.kind, self.intensity, flagged)


def _output_rule(kind, values, flagged):
    """ValueError unless values hold no inf, NaN exactly where flagged
    (None flags none) and the rest in the range of kind (_RANGES; other
    kinds have none).  One unflagged value is checked as a Python float,
    as core._finite checks one."""
    lo, hi, message = _RANGES.get(kind, (-math.inf, math.inf, None))
    if flagged is None and values.size == 1:
        value = values.item()
        finite, inside = math.isfinite(value), lo <= value <= hi
    else:
        # a comparison with NaN is False, so the range checks need no mask
        finite = not (np.isinf(values).any() or np.any(
            np.isnan(values) != (flagged is not None and flagged)))
        inside = not (np.any(values < lo) or np.any(values > hi))
    if not finite:
        raise ValueError("intensity must be finite, with NaN exactly on "
                         "the divergent points")
    if not inside:
        raise ValueError(message)


def _on_grid(rows, p, k, omega, n=None):
    """Evaluate rows(p, modes, omega, flag[, n(omega)]) over k in blocks
    of _BLOCK_ROWS momenta, n(omega) only for an InputOccupation n.

    k is a scalar or a 1-d array and omega any shape; each returned array
    has shape np.shape(k) + np.shape(omega).  Scalar calls and grids share
    this one path, so a grid row equals the scalar call at its k.  The
    modes of all momenta are formed once, where k is checked.  flag is
    False when no branch at any k is undamped: no point can then sit on a
    pole, rows return None for their mask, and so does this call.
    """
    ks = _k_axis(k)
    modes = _modes(p, ks)
    flag = bool(_undamped(p, modes).any())
    om = _finite(omega, "omega")
    flat = om.reshape(-1)
    args = () if n is None else (n(flat),)
    if ks.size <= _BLOCK_ROWS:
        # one block covers every k: its rows are the result
        outs = rows(p, modes, flat, flag, *args)
    else:
        outs = None
        for start in range(0, ks.size, _BLOCK_ROWS):
            block = slice(start, start + _BLOCK_ROWS)
            parts = rows(p, modes.block(block), flat, flag, *args)
            if outs is None:
                outs = [None if part is None
                        else np.empty((ks.size, flat.size), part.dtype)
                        for part in parts]
            for out, part in zip(outs, parts):
                if out is not None:
                    out[block] = part
    shape = np.shape(k) + om.shape
    return [None if out is None else out.reshape(shape)[()] for out in outs]


def _pole_scale(p):
    # Imaginary parts of the eigenmodes live on the rate scale, not the
    # carrier-frequency scale, so the on-pole ball must use the former;
    # tying it to |omega| ~ eps0 would swallow genuinely resolvable
    # near-pole points.
    return POLE_TOL * max(1.0, p.total_rate + abs(p.g_rabi))


def _undamped(p, m):
    """Where the branches of m have |Im omega| inside the on-pole ball."""
    return np.abs(m.omega.imag) < _pole_scale(p)


def _divergence_mask(p, m, dist):
    undamped = _undamped(p, m)
    if not undamped.any():
        return np.zeros(dist.shape[1:], dtype=bool)
    near = undamped[:, :, None] & (dist < _pole_scale(p))
    return near[0] | near[1]


def _power_rows(p, m, om, flag, occupation):
    """Power spectrum rows plus a mask of on-pole (divergent) points, or
    None for the mask where flag is False."""
    gt = m.g_tilde
    # |omega - omega_L|, |omega - omega_U|, |omega - z_x|, |omega - z_c|
    dist = np.abs(om - m.levels[:, :, None])
    # |g~|^2 by C pow, the bits of abs(gt) ** 2, but inf where the Python
    # float power raises OverflowError
    a_b = 4.0 * (np.float_power(abs(gt), 2.0) + dist[2:] ** 2)
    z_c, z_x = m.z_c[:, None], m.z_x[:, None]
    d_term = 8.0 * ((2.0 * om - z_c - z_x) * np.conj(gt)).real
    num = (a_b[0] * p.gamma_c + a_b[1] * p.gamma_x
           + d_term * np.sqrt(p.gamma_c * p.gamma_x))
    den = dist[:2] ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        out = num * occupation / (den[0] * den[1])
    if not flag:
        return out, None
    mask = _divergence_mask(p, m, dist[:2])
    return np.where(mask, np.nan, out), mask


def _evaluated(rows, kind, what, p, k, omega, n=None):
    """The value arrays of rows over k (_on_grid) for the entries that
    raise: DivergentPointError naming the first on-pole point, then the
    output rule of kind on each array."""
    *values, mask = _on_grid(rows, p, k, omega, n)
    if mask is not None and mask.any():
        i, j = divmod(int(np.flatnonzero(mask)[0]), np.size(omega))
        raise DivergentPointError(
            "%s on an undamped pole at k = %g, omega = %r"
            % (what, _k_axis(k)[i], float(np.ravel(omega)[j])))
    for value in values:
        _output_rule(kind, value, None)
    return values


def _grid(rows, kind, p, k_values, omega_values, n=None):
    """rows on a (k, omega) grid as a SpectrumGrid of kind.  The axes are
    checked before any of it is computed, a NaN or inf first (named k or
    omega, as at every entry); a None mask becomes a read-only all-False
    view with no storage."""
    k_values = _finite(k_values, "k")
    omega_values = _finite(omega_values, "omega")
    k_values = _axis(k_values, "k_values")
    omega_values = _axis(omega_values, "omega_values")
    intensity, mask = _on_grid(rows, p, k_values, omega_values, n)
    return SpectrumGrid(k_values, omega_values, intensity, kind,
                        np.broadcast_to(False, intensity.shape)
                        if mask is None else mask)


def power_spectrum(p, k, omega, n=None):
    """Emission intensity I(k, omega) for input occupation n (default 1).

    I = [A gamma_c + B gamma_x + D sqrt(gamma_c gamma_x)] n(omega) /
    (|omega - omega_L|^2 |omega - omega_U|^2) with
    A = 4(|g~|^2 + |omega - z_x|^2), B = 4(|g~|^2 + |omega - z_c|^2),
    D = 8 Re[(2 omega - z_c - z_x) conj(g~)].  Nonradiative rates enter
    only through z_c, z_x.  k may be a 1-d array, giving one row per k.
    Raises DivergentPointError exactly on an undamped pole; use
    power_spectrum_grid to get flagged grids instead.
    """
    out, = _evaluated(_power_rows, "power", "power spectrum diverges",
                      p, k, omega, as_occupation(n))
    return out if np.ndim(out) else float(out)


def power_spectrum_grid(p, k_values, omega_values, n=None):
    """Power spectrum on a (k, omega) grid; on-pole points are flagged."""
    return _grid(_power_rows, "power", p, k_values, omega_values,
                 as_occupation(n))


def _scattering(p, k, omega, full=True):
    """S = 1 - 2i W G W^T among the common bath (1), the matter loss bath
    (2) and the photon loss bath (3), shape omega.shape + (3, 3), or S11
    alone, shape omega.shape, for full=False.  Row i of W = sqrt([[gamma_c,
    gamma_x], [0, gamma_nr_x], [gamma_nr_c, 0]]) couples channel i to
    (cavity, emitter); G = M^-1 with M = omega*1 - H_k, whose diagonals
    omega - z_c and omega - z_x are measured from omega - eps0, exact near
    the lines.  S11 = det(M - 2i Gamma) / det M with Gamma the common-bath
    damping; that bath alone gives M - 2i Gamma = conj(M), so |S11| = 1.
    """
    _finite(k, "k")
    om = _finite(omega, "omega")
    flat = om.reshape(-1)
    u = flat - p.eps0
    k2 = k * k
    gc, gx, gnc, gnx = p.gamma_c, p.gamma_x, p.gamma_nr_c, p.gamma_nr_x
    g_t = complex(p.g_rabi, -math.sqrt(gc * gx))
    # M = [[a, -g~], [-g~, b]] with a = omega - z_c, b = omega - z_x
    a = u - complex(p.delta + k2, -(gc + gnc))
    b = u - complex(p.mass_ratio * k2, -(gx + gnx))
    det = _response_det(a, -g_t, -g_t, b, flat)
    # the off-diagonal of M - 2i Gamma is -g~ - 2i sqrt(gc gx) = -conj(g~)
    det_out = (a - 2j * gc) * (b - 2j * gx) - g_t.conjugate() ** 2
    # det_out / det, with an exact numerator when det_out = conj(det)
    s11 = 1.0 + (det_out - det) / det
    if not full:
        return s11.reshape(om.shape)
    # G = adj / det with adj = [[b, g~], [g~, a]]
    adj = np.full((flat.size, 2, 2), g_t)
    adj[:, 0, 0], adj[:, 1, 1] = b, a
    w = np.sqrt([[gc, gx], [0.0, gnx], [gnc, 0.0]])
    smat = np.eye(3) + np.einsum("ia,nab,jb,n->nij", w, adj, w, -2j / det)
    smat[:, 0, 0] = s11
    return smat.reshape(om.shape + (3, 3))


def scattering_amplitude_single_bath(p, k, omega):
    """Amplitude S(k, omega) = det(M - 2i Gamma) / det M for the common
    bath alone; |S| = 1.  Requires purely radiative damping."""
    if p.gamma_nr_c != 0.0 or p.gamma_nr_x != 0.0:
        raise ValueError("single-bath amplitude requires zero nonradiative rates")
    amp = _scattering(p, k, omega, full=False)
    return amp if np.ndim(omega) else complex(amp)


def scattering_matrix_three_bath(p, k, omega):
    """3x3 scattering matrix among the common bath (1), the matter loss
    bath (2) and the photon loss bath (3), shape omega.shape + (3, 3)."""
    return _scattering(p, k, omega)


def reflection(p, k, omega):
    """R = |S11|^2, vectorized over omega."""
    out = np.abs(_scattering(p, k, omega, full=False)) ** 2
    return out if np.ndim(omega) else float(out)


def _absorption_rows(p, m, om, flag):
    """A_gamma and A_m rows for the momenta of m, plus a mask of on-pole
    (divergent) points, where both are NaN, or None for the mask where
    flag is False."""
    gt = m.g_tilde
    g2 = np.float_power(abs(gt), 2.0)  # inf on overflow, as in _power_rows
    # omega - omega_L, omega - omega_U, omega - z_x, omega - z_c
    to = om - m.levels[:, :, None]
    dist = np.abs(to)
    # A_gamma = [4 (gamma_c |omega - z_x|^2 + gamma_x |g~|^2)
    #            + 8 s Re(conj(g~) (omega - z_x))] / den, and A_m the same
    # with z_c and the rates swapped; the complex planes go once the cross
    # term is formed
    s = np.sqrt(p.gamma_c * p.gamma_x)
    cross = 8.0 * s * (np.conj(gt) * to[2:]).real
    del to
    mask = _divergence_mask(p, m, dist[:2]) if flag else None
    dist **= 2
    weight = np.array([p.gamma_c, p.gamma_x])[:, None, None]
    offset = np.array([p.gamma_x * g2, p.gamma_c * g2])[:, None, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        rows = ((4.0 * (weight * dist[2:] + offset) + cross)
                / (dist[0] * dist[1]))
    if flag:
        rows[:, mask] = np.nan
    return rows[0], rows[1], mask


def _total_absorption_rows(p, m, om, flag):
    a_gamma, a_m, mask = _absorption_rows(p, m, om, flag)
    return p.gamma_nr_c * a_gamma + p.gamma_nr_x * a_m, mask


def absorption_components(p, k, omega):
    """(A_gamma, A_m): absorption lineshapes of the photon and matter loss
    channels, vectorized over omega; k may be a 1-d array.  Raises
    DivergentPointError exactly on an undamped pole."""
    return tuple(_evaluated(_absorption_rows, "lineshape",
                            "absorption lineshapes diverge", p, k, omega))


def absorption(p, k, omega):
    """A = gamma_nr_c * A_gamma + gamma_nr_x * A_m, vectorized over omega;
    k may be a 1-d array.  Raises DivergentPointError exactly on an
    undamped pole; use absorption_grid to get flagged grids instead."""
    out, = _evaluated(_total_absorption_rows, "absorption",
                      "absorption is undefined", p, k, omega)
    return out if np.ndim(out) else float(out)


def absorption_grid(p, k_values, omega_values):
    """Absorption on a (k, omega) grid; on-pole points are flagged."""
    return _grid(_total_absorption_rows, "absorption", p, k_values,
                 omega_values)


def _relation_rows(p, m, om, flag, occupation):
    """|I - (A_gamma + A_m) n| rows from one block of modes, plus the
    on-pole mask of the power spectrum (None where flag is False)."""
    intensity, mask = _power_rows(p, m, om, flag, occupation)
    a_gamma, a_m, _ = _absorption_rows(p, m, om, flag)
    return np.abs(intensity - (a_gamma + a_m) * occupation), mask


def power_absorption_relation_check(p, k, omega, n=None):
    """|I - (A_gamma + A_m) n|; vanishes identically, returned as evidence.
    Raises DivergentPointError exactly on an undamped pole, as
    power_spectrum does."""
    resid, = _evaluated(_relation_rows, "residual", "power spectrum diverges",
                        p, k, omega, as_occupation(n))
    return resid if np.ndim(resid) else float(resid)


def default_omega_window(p):
    """(lo, hi) window around eps0 wide enough for every lineshape."""
    span = 8.0 * max(p.g_rabi, p.total_rate, 1.0)
    return p.eps0 - span, p.eps0 + span


def _lorentzian_projection(x, y, theta):
    """Variable projection of y onto a1 L1 + a2 L2 at fixed
    theta = (x1, g1, x2, g2), L_i = g_i^2 / ((x - x_i)^2 + g_i^2).

    Returns (residual, Kaufman Jacobian (4, n), amplitudes), or None where
    the two columns are not independent.  The QR of the two columns is
    Gram-Schmidt applied twice, in numpy reductions, so no BLAS call (and
    no thread count) enters the result.
    """
    u = x - theta[0::2, None]
    gg = theta[1::2, None] ** 2
    if not np.all(gg > 0.0):
        return None
    den = u * u + gg
    phi = gg / den
    n1 = np.sqrt((phi[0] * phi[0]).sum())
    q1 = phi[0] / n1
    c = (q1 * phi[1]).sum()
    v = phi[1] - c * q1
    c2 = (q1 * v).sum()
    v -= c2 * q1
    c += c2
    n2 = np.sqrt((v * v).sum())
    if not n2 > _FIT_RANK_TOL * np.sqrt((phi[1] * phi[1]).sum()):
        return None
    q = np.stack((q1, v / n2))
    b = (q * y).sum(axis=1)
    amps = np.array([(b[0] - c * b[1] / n2) / n1, b[1] / n2])
    # (dPhi/dtheta_k) a for k = x1, g1, x2, g2, then -P_perp of each
    scale = 2.0 * amps[:, None] * theta[1::2, None] * u / (den * den)
    d = np.stack((scale[0] * theta[1], scale[0] * u[0],
                  scale[1] * theta[3], scale[1] * u[1]))
    coef = (d[:, None, :] * q[None]).sum(axis=2)
    jac = (coef[:, :, None] * q[None]).sum(axis=1) - d
    return y - (b[:, None] * q).sum(axis=0), jac, amps


def _start_widths(x, y, centers):
    """The pair of half-widths, from a log grid between a quarter of the
    mean grid step and a quarter of the sampled range, whose two
    Lorentzians at the guessed centers leave the least least-squares
    residual.  Each pair is ranked from its 2x2 normal equations: the
    explained norm is b^T G^-1 b with G_ij = L_i . L_j and b_i = L_i . y.
    The grid reaches below the grid step because a branch narrows toward
    an undamped pole."""
    span = np.ptp(x)
    widths = np.geomspace(span / (4.0 * (x.size - 1)), span / 4.0,
                          _FIT_START_WIDTHS)[:, None]
    u = x - centers[:, None, None]
    phi = widths ** 2 / (u * u + widths ** 2)
    g11 = (phi[0] * phi[0]).sum(axis=1)[:, None]
    g22 = (phi[1] * phi[1]).sum(axis=1)[None]
    # G12 one row of widths at a time: a (W, W, n) product would hold
    # W = _FIT_START_WIDTHS times the samples
    g12 = np.array([(row * phi[1]).sum(axis=1) for row in phi[0]])
    b1 = (phi[0] * y).sum(axis=1)[:, None]
    b2 = (phi[1] * y).sum(axis=1)[None]
    det = g11 * g22 - g12 * g12
    explained = np.full(det.shape, -np.inf)
    ok = det > _FIT_RANK_TOL ** 2 * g11 * g22
    explained[ok] = ((g22 * b1 * b1 - 2.0 * g12 * b1 * b2 + g11 * b2 * b2)
                     [ok] / det[ok])
    i, j = np.unravel_index(np.argmax(explained), det.shape)
    return widths[i, 0], widths[j, 0]


def _lm_steps(x, y, theta, state, free, max_steps):
    """Levenberg-Marquardt on the parameters theta[free], at most max_steps
    trial steps.  Returns (theta, state, converged): converged once a step
    is shorter than _FIT_XTOL |theta|.  A trial point is accepted only if
    it lowers the residual and no half-width exceeds the sampled range."""
    widest = np.ptp(x)
    damping = 1e-3
    for _ in range(max_steps):
        res, jac, _ = state
        jac = jac[free]
        cost = (res * res).sum()
        jtj = (jac[:, None, :] * jac[None]).sum(axis=2)
        try:
            part = np.linalg.solve(jtj + damping * np.diag(np.diag(jtj)),
                                   -(jac * res).sum(axis=1))
        except np.linalg.LinAlgError:
            raise RuntimeError("a component dropped out of the fit")
        step = np.zeros(4)
        step[free] = part
        if np.sqrt((step * step).sum()) <= _FIT_XTOL * np.sqrt(
                (theta * theta).sum()):
            return theta, state, True
        trial = theta + step
        new = (_lorentzian_projection(x, y, trial)
               if np.all(np.abs(trial[1::2]) <= widest) else None)
        if new is not None and (new[0] * new[0]).sum() < cost:
            theta, state = trial, new
            damping /= 10.0
        else:
            damping *= 10.0
    return theta, state, False


def lorentzian_pair_fit(omega, values, centers_guess):
    """Least-squares fit of a gridded spectrum to two Lorentzian components.

    Returns (centers, half_widths, amplitudes) with centers sorted
    ascending; the model is sum_i a_i g_i^2 / ((omega - x_i)^2 + g_i^2).
    This is the standard way to quote "peak positions" for overlapping
    resonances; with level attraction the two components merge into a
    single visible maximum.  The memoryless lineshapes are exactly rational
    with two pole pairs, and from guesses at the branch energies the fit
    returns both.

    Variable projection (Golub & Pereyra 1973): the amplitudes are solved
    in closed form at each (x1, g1, x2, g2), and Levenberg-Marquardt runs
    on those four with the Jacobian of Kaufman (1975).  From a start far
    off in width it drifts to two coinciding components with huge
    cancelling amplitudes, or to one flat background, both worse fits
    than the true pair.  So it starts at the guessed centers with the
    half-widths of _start_widths, first steps in the widths alone, and
    never accepts a half-width beyond the sampled range.

    Deterministic.  RuntimeError when the fit fails: no step shorter than
    _FIT_XTOL |theta| within _FIT_MAX_STEPS trial steps, singular damped
    normal equations (a component has dropped out), or a fitted center
    outside the sampled omega range, which is no peak of this spectrum.
    """
    omega = _finite(omega, "omega")
    values = _finite(values, "values")
    theta = _finite(centers_guess, "centers_guess").repeat(2)
    theta[1::2] = _start_widths(omega, values, theta[0::2])
    state = _lorentzian_projection(omega, values, theta)
    if state is None:
        raise RuntimeError("the two guessed components coincide")
    theta, state, _ = _lm_steps(omega, values, theta, state, [1, 3],
                                _FIT_WIDTH_STEPS)
    theta, state, converged = _lm_steps(omega, values, theta, state,
                                        [0, 1, 2, 3], _FIT_MAX_STEPS)
    if not converged:
        raise RuntimeError("no convergence in %d steps" % _FIT_MAX_STEPS)

    order = np.argsort(theta[0::2], kind="stable")
    centers = theta[0::2][order]
    if centers[0] < omega.min() or centers[1] > omega.max():
        raise RuntimeError("fitted center outside the sampled omega range")
    return centers, np.abs(theta[1::2])[order], state[2][order]
