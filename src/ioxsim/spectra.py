"""Spectral observables of the memoryless model.

Power spectrum (emission into the common environment for a given input
occupation), single-bath scattering amplitude, the 3x3 scattering matrix
with two extra nonradiative baths, and reflection/absorption spectra.

Density-of-states ratios of the auxiliary baths are absorbed into the rate
parameters, so only decay rates appear in this API; with that convention
the single-bath amplitude is exactly unimodular and R + A = 1.

power_spectrum, absorption and absorption_components take k as a scalar
or a 1-d array and return one row per k; the grid functions are the same
call wrapped in a SpectrumGrid.  All of them evaluate the core kernel in
blocks of k rows, so a grid row equals the scalar call at its k exactly.
Exactly on an undamped pole the scalar calls raise DivergentPointError
and the grids flag the point in SpectrumGrid.divergent.

Scattering has one path, S = 1 - 2i W G W^T at one k over an omega scalar
or array: the single-bath amplitude is its S11, reflection |S11|^2 and
scattering_matrix_three_bath all of S.  The spectra and the scattering
functions raise ValueError for a NaN or inf k or omega.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import _k_axis, _modes, _response_det
from .errors import DivergentPointError

# an omega closer than this (times local scale) to an undamped pole is
# reported as divergent rather than as a huge float
POLE_TOL = 1e-12

# momenta evaluated together on a (k, omega) grid.  Each row carries four
# complex distance planes (two eigenvalues, two poles), so at 801 omega a
# block's temporaries stay near 0.4 MB.  Whole grids spill out of cache;
# 16-row blocks ran about 10% faster but raised the peak RSS of a dense
# sweep above that of the per-k loop they replace
_BLOCK_ROWS = 8

_KINDS = ("power", "absorption")


class InputOccupation:
    """Input photon distribution n(omega), dimensionless, finite and >= 0.

    Wraps a constant or a tabulated (omega_points, values) pair
    interpolated linearly, both validated here once.
    """

    def __init__(self, n_of_omega=1.0):
        if np.ndim(n_of_omega) == 0:
            vals = float(n_of_omega)
            self._fn = lambda omega: np.full_like(omega, vals)
        else:
            pts, vals = (np.asarray(a, dtype=float) for a in n_of_omega)
            if pts.ndim != 1 or pts.shape != vals.shape:
                raise ValueError("tabulated occupation needs matching 1-d arrays")
            if not np.all(np.isfinite(pts)) or np.any(np.diff(pts) <= 0):
                raise ValueError("tabulated omega points must be finite and increase")
            self._fn = lambda omega: np.interp(omega, pts, vals)
        if not np.all(np.isfinite(vals)):
            raise ValueError("occupation must be finite")
        if np.any(vals < 0):
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
    absorption grids fill it.  Axes and intensity must be finite, except
    NaN intensity on the points divergent marks.
    """

    k_values: np.ndarray
    omega_values: np.ndarray
    intensity: np.ndarray
    kind: str
    divergent: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "k_values", np.asarray(self.k_values, float))
        object.__setattr__(self, "omega_values",
                           np.asarray(self.omega_values, float))
        object.__setattr__(self, "intensity", np.asarray(self.intensity, float))
        if self.kind not in _KINDS:
            raise ValueError("kind must be one of %s" % (_KINDS,))
        for ax in (self.k_values, self.omega_values):
            if ax.ndim != 1 or ax.size == 0:
                raise ValueError("grid axes must be nonempty 1-d arrays")
            if not np.isfinite(ax).all():
                raise ValueError("grid axes must be finite")
            if ax.size > 1 and np.any(np.diff(ax) <= 0):
                raise ValueError("grid axes must be strictly increasing")
        if self.intensity.shape != (self.k_values.size, self.omega_values.size):
            raise ValueError("intensity shape does not match the axes")
        if self.divergent is not None:
            object.__setattr__(self, "divergent",
                               np.asarray(self.divergent, bool))
            if self.divergent.shape != self.intensity.shape:
                raise ValueError("divergent shape does not match the axes")
        # range-check the finite values in place: masks, not a copy
        values = self.intensity
        finite = np.isfinite(values)
        if not finite.all():
            stray = np.isnan(values)
            if self.divergent is not None:
                stray[self.divergent] = False
            if stray.any() or np.isinf(values).any():
                raise ValueError("intensity must be finite, or NaN on a "
                                 "divergent point")
        if self.kind == "power":
            if np.any(values < -1e-12, where=finite):
                raise ValueError("power spectrum must be non-negative")
        elif (np.any(values < -1e-9, where=finite)
              or np.any(values > 1 + 1e-9, where=finite)):
            raise ValueError("absorption values must lie in [0, 1]")


def _all_finite(a):
    """Whether no entry of the float array a is NaN or inf.  A single entry
    is checked as a Python float, at a tenth of the cost of a ufunc."""
    return math.isfinite(a.flat[0]) if a.size == 1 else np.isfinite(a).all()


def _on_grid(rows, p, k, omega, *args):
    """Evaluate rows(p, modes, omega, *args) over k in blocks of
    _BLOCK_ROWS momenta.

    k is a scalar or a 1-d array and omega any shape; each returned array
    has shape np.shape(k) + np.shape(omega).  Scalar calls and grids share
    this one path, so a grid row equals the scalar call at its k.  A NaN
    or inf k or omega raises ValueError.
    """
    ks = _k_axis(k)
    om = np.asarray(omega, dtype=float)
    if not _all_finite(ks):
        raise ValueError("k must be finite")
    if not _all_finite(om):
        raise ValueError("omega must be finite")
    flat = om.reshape(-1)
    outs = None
    for start in range(0, max(ks.size, 1), _BLOCK_ROWS):
        block = slice(start, start + _BLOCK_ROWS)
        parts = rows(p, _modes(p, ks[block]), flat, *args)
        if outs is None:
            outs = [np.empty((ks.size, flat.size), part.dtype)
                    for part in parts]
        for out, part in zip(outs, parts):
            out[block] = part
    shape = np.shape(k) + om.shape
    return [out.reshape(shape)[()] for out in outs]


def _divergence_mask(p, m, dist):
    # Imaginary parts of the eigenmodes live on the rate scale, not the
    # carrier-frequency scale, so the on-pole ball must use the former;
    # tying it to |omega| ~ eps0 would swallow genuinely resolvable
    # near-pole points.
    scale = POLE_TOL * max(1.0, p.total_rate + abs(p.g_rabi))
    undamped = np.abs(m.omega.imag) < scale
    if not undamped.any():
        return np.zeros(dist.shape[1:], dtype=bool)
    near = undamped[:, :, None] & (dist < scale)
    return near[0] | near[1]


def _power_rows(p, m, om, occupation):
    """Power spectrum rows plus a mask of on-pole (divergent) points."""
    gt = m.g_tilde
    # |omega - omega_L|, |omega - omega_U|, |omega - z_x|, |omega - z_c|
    dist = np.abs(om - m.levels[:, :, None])
    a_b = 4.0 * (abs(gt) ** 2 + dist[2:] ** 2)
    z_c, z_x = m.z_c[:, None], m.z_x[:, None]
    d_term = 8.0 * ((2.0 * om - z_c - z_x) * np.conj(gt)).real
    num = (a_b[0] * p.gamma_c + a_b[1] * p.gamma_x
           + d_term * np.sqrt(p.gamma_c * p.gamma_x))
    mask = _divergence_mask(p, m, dist[:2])
    den = dist[:2] ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(mask, np.nan, num * occupation / (den[0] * den[1]))
    return out, mask


def _power_with_mask(p, k, omega, n):
    """Power spectrum values plus a mask of on-pole (divergent) points."""
    # n = 1 multiplies exactly; skip evaluating it
    occupation = (1.0 if n is None
                  else as_occupation(n)(np.asarray(omega, float).reshape(-1)))
    return _on_grid(_power_rows, p, k, omega, occupation)


def _reject_on_pole(what, omega, mask):
    """Raise DivergentPointError naming the omega values that mask flags."""
    if np.any(mask):
        where = np.broadcast_to(np.asarray(omega, dtype=float), np.shape(mask))
        raise DivergentPointError(
            "%s on an undamped pole at omega = %s"
            % (what, where[mask] if np.ndim(mask) else omega))


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
    out, mask = _power_with_mask(p, k, omega, n)
    _reject_on_pole("power spectrum diverges", omega, mask)
    return out if np.ndim(out) else float(out)


def power_spectrum_grid(p, k_values, omega_values, n=None):
    """Power spectrum on a (k, omega) grid; on-pole points are flagged."""
    intensity, mask = _power_with_mask(p, k_values, omega_values, n)
    return SpectrumGrid(k_values, omega_values, intensity, "power", mask)


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
    om = np.asarray(omega, dtype=float)
    if not math.isfinite(k):
        raise ValueError("k must be finite")
    if not _all_finite(om):
        raise ValueError("omega must be finite")
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


def _absorption_rows(p, m, om):
    """A_gamma and A_m rows for the momenta of m, plus a mask of on-pole
    (divergent) points, where both are NaN."""
    gt = m.g_tilde
    g2 = abs(gt) ** 2
    # omega - omega_L, omega - omega_U, omega - z_x, omega - z_c
    to = om - m.levels[:, :, None]
    dist = np.abs(to)
    mask = _divergence_mask(p, m, dist[:2])
    dist **= 2
    # A_gamma = [4 (gamma_c |omega - z_x|^2 + gamma_x |g~|^2)
    #            + 8 s Re(conj(g~) (omega - z_x))] / den, and A_m the same
    # with z_c and the rates swapped
    weight = np.array([p.gamma_c, p.gamma_x])[:, None, None]
    offset = np.array([p.gamma_x * g2, p.gamma_c * g2])[:, None, None]
    s = np.sqrt(p.gamma_c * p.gamma_x)
    with np.errstate(divide="ignore", invalid="ignore"):
        rows = ((4.0 * (weight * dist[2:] + offset)
                 + 8.0 * s * (np.conj(gt) * to[2:]).real)
                / (dist[0] * dist[1]))
    rows[:, mask] = np.nan
    return rows[0], rows[1], mask


def _total_absorption_rows(p, m, om):
    a_gamma, a_m, mask = _absorption_rows(p, m, om)
    return p.gamma_nr_c * a_gamma + p.gamma_nr_x * a_m, mask


def absorption_components(p, k, omega):
    """(A_gamma, A_m): absorption lineshapes of the photon and matter loss
    channels, vectorized over omega; k may be a 1-d array.  Raises
    DivergentPointError exactly on an undamped pole."""
    a_gamma, a_m, mask = _on_grid(_absorption_rows, p, k, omega)
    _reject_on_pole("absorption lineshapes diverge", omega, mask)
    return a_gamma, a_m


def absorption(p, k, omega):
    """A = gamma_nr_c * A_gamma + gamma_nr_x * A_m, vectorized over omega;
    k may be a 1-d array.  Raises DivergentPointError exactly on an
    undamped pole; use absorption_grid to get flagged grids instead."""
    out, mask = _on_grid(_total_absorption_rows, p, k, omega)
    _reject_on_pole("absorption is undefined", omega, mask)
    return out if np.ndim(out) else float(out)


def absorption_grid(p, k_values, omega_values):
    """Absorption on a (k, omega) grid; on-pole points are flagged."""
    intensity, mask = _on_grid(_total_absorption_rows, p, k_values,
                               omega_values)
    return SpectrumGrid(k_values, omega_values, intensity, "absorption", mask)


def power_absorption_relation_check(p, k, omega, n=None):
    """|I - (A_gamma + A_m) n|; vanishes identically, returned as evidence."""
    occupation = as_occupation(n)
    intensity = power_spectrum(p, k, omega, occupation)
    a_gamma, a_m = absorption_components(p, k, omega)
    resid = np.abs(intensity - (a_gamma + a_m) * occupation(omega))
    return resid if np.ndim(resid) else float(resid)


def default_omega_window(p):
    """(lo, hi) window around eps0 wide enough for every lineshape."""
    span = 8.0 * max(p.g_rabi, p.total_rate, 1.0)
    return p.eps0 - span, p.eps0 + span


def lorentzian_pair_fit(omega, values, centers_guess, widths_guess=None):
    """Least-squares fit of a gridded spectrum to two Lorentzian components.

    Returns (centers, half_widths, amplitudes) with centers sorted
    ascending.  This is the standard way to quote "peak positions" for
    overlapping resonances; with level attraction the two components merge
    into a single visible maximum, but the fit still recovers both centers
    (the memoryless lineshapes are exactly rational with two pole pairs).
    Deterministic for a deterministic initial guess.
    """
    from scipy.optimize import curve_fit

    omega = np.asarray(omega, dtype=float)
    values = np.asarray(values, dtype=float)
    c1, c2 = centers_guess
    if widths_guess is None:
        widths_guess = (1.0, 1.0)
    w1, w2 = widths_guess
    top = values.max()

    def model(x, a1, x1, g1, a2, x2, g2):
        return (a1 * g1 ** 2 / ((x - x1) ** 2 + g1 ** 2)
                + a2 * g2 ** 2 / ((x - x2) ** 2 + g2 ** 2))

    p0 = [top, c1, w1, top, c2, w2]
    popt, _ = curve_fit(model, omega, values, p0=p0, maxfev=20000)
    comps = sorted([(popt[1], abs(popt[2]), popt[0]),
                    (popt[4], abs(popt[5]), popt[3])])
    centers = np.array([comps[0][0], comps[1][0]])
    widths = np.array([comps[0][1], comps[1][1]])
    amps = np.array([comps[0][2], comps[1][2]])
    return centers, widths, amps
