"""Field-amplitude dynamics of the coupled pair with vacuum input.

The mean amplitudes obey the linear system i d/dt (c, x) = H_k (c, x), so
away from an exceptional point they are sums of two complex exponentials
on the eigenvalue branches.  The undamped-pole (BiC) case has its own
closed form.  evolve_ode is the exact matrix-exponential reference: it
applies the propagator exp(-i H_k t), computed by a truncated Taylor
series with scaling and squaring in numpy alone, without diagonalising
H_k, so it is independent of the branch algebra and the two paths check
each other.
"""

from dataclasses import dataclass

import numpy as np

from .core import CONDITION_RTOL, bic_condition, complex_poles, detunings, eigen_branches
from .errors import DegenerateModesError

# Taylor degree and scaled 1-norm bound of the propagator (Moler and Van
# Loan, SIAM Rev. 45 (2003) 3, method 3).  A slice scaled to ||A||_1 <=
# theta has a degree-m remainder below theta^(m+1)/(m+1)! * 1/(1 -
# theta/(m+2)).  The smallest m that puts this under 2^-53 is 18, 14, 12
# and 10 for theta = 1, 1/2, 1/4 and 1/8: 2.3e-17 for theta = 1/2, m = 14
# (m = 13 leaves 7.0e-16).  A slice costs m products plus one squaring per
# halving of theta, and every squaring can double the rounding error, so
# theta = 1/2 buys one squaring fewer than 1/4 for two more terms.
_EXPM_THETA = 0.5
_EXPM_DEGREE = 14
_EYE = np.array([[1.0], [0.0], [0.0], [1.0]])


def _mul2(a, b):
    """Slice-wise products of 2x2 stacks held as rows (00, 01, 10, 11)."""
    return np.array([a[0] * b[0] + a[1] * b[2], a[0] * b[1] + a[1] * b[3],
                     a[2] * b[0] + a[3] * b[2], a[2] * b[1] + a[3] * b[3]])


def _expm2(a):
    """exp(a) for an (n, 2, 2) stack, with nothing diagonalised.

    Each slice is scaled by 2^-s so that its 1-norm is below
    _EXPM_THETA, the degree-_EXPM_DEGREE Taylor polynomial is evaluated
    in Horner form on the whole stack, and each slice is squared back s
    times.  A zero slice gives the identity exactly.
    """
    norm = np.abs(a).sum(axis=1).max(axis=1)
    # norm / theta = f 2^e with f < 1, so norm / 2^s < theta for s = e
    s = np.maximum(np.frexp(norm / _EXPM_THETA)[1], 0)
    a = (a * np.ldexp(1.0, -s)[:, None, None]).reshape(-1, 4).T
    x = _EYE
    for i in range(_EXPM_DEGREE, 0, -1):
        x = _EYE + _mul2(a, x) / i
    for j in range(s.max(initial=0)):
        more = s > j
        x[:, more] = _mul2(x[:, more], x[:, more])
    return x.T.reshape(-1, 2, 2)


@dataclass(frozen=True)
class AmplitudeState:
    """Mean photon and exciton amplitudes at time t (units hbar/rate)."""

    c: complex
    x: complex
    t: float = 0.0


def _branch_projection(p, k, initial):
    """Coefficients of the two-exponential solution.

    Decomposes the initial state on the spectral projectors of H_k;
    rejects coalesced branches where the decomposition is singular.
    """
    low, up = eigen_branches(p, k)
    if low.degenerate:
        raise DegenerateModesError(
            "branches coalesce at k = %g; use evolve_ode" % k)
    pole = complex_poles(p, k)
    den = up.omega - low.omega
    c0, x0 = initial.c, initial.x
    gt = pole.g_tilde
    # P_U psi0 and P_L psi0, written with omega_U - z = z - omega_L identities
    cu = (c0 * (up.omega - pole.z_x) + gt * x0) / den
    cl = (c0 * (up.omega - pole.z_c) - gt * x0) / den
    xu = (x0 * (up.omega - pole.z_c) + gt * c0) / den
    xl = (x0 * (up.omega - pole.z_x) - gt * c0) / den
    return low.omega, up.omega, (cl, cu), (xl, xu)


def _time_offsets(initial, t_grid):
    """Offsets t_grid - initial.t; rejects non-finite input and past times."""
    if not np.all(np.isfinite([initial.c, initial.x, initial.t])):
        raise ValueError("initial state must be finite")
    t_grid = np.asarray(t_grid, dtype=float)
    if not np.all(np.isfinite(t_grid)):
        raise ValueError("t_grid must be finite")
    dt = t_grid - initial.t
    if np.any(dt < 0):
        raise ValueError("t_grid must not precede the initial time")
    return dt


def analytic_trajectory(p, k, initial, t_grid):
    """Closed-form (c, x) arrays over a time grid (measured from initial.t)."""
    dt = _time_offsets(initial, t_grid)
    wl, wu, (cl, cu), (xl, xu) = _branch_projection(p, k, initial)
    el = np.exp(-1j * wl * dt)
    eu = np.exp(-1j * wu * dt)
    return cl * el + cu * eu, xl * el + xu * eu


def bic_amplitudes(p, t):
    """(|c|^2, |x|^2) at the undamped-pole condition, from x(0)=1, c(0)=0.

    With gamma = gamma_c + gamma_x and Omega = g_rabi * gamma / sqrt(gamma_c
    gamma_x):

        |c|^2 = (1 + e^{-2 gamma t} - 2 e^{-gamma t} cos(Omega t))
                * gamma_c gamma_x / gamma^2
        |x|^2 = (gamma_c/gamma_x + gamma_x/gamma_c e^{-2 gamma t}
                 + 2 e^{-gamma t} cos(Omega t)) * gamma_c gamma_x / gamma^2

    Both stay finite as t -> infinity: the initial excitation is partly
    trapped.  The parameters must sit on the condition returned by
    bic_condition (at k = 0) with purely radiative losses.
    """
    cond = bic_condition(p)  # also rejects gamma_c * gamma_x = 0
    if not cond.exact:
        raise ValueError("closed form requires purely radiative losses")
    d_eps = detunings(p, 0.0).d_eps
    if abs(d_eps - cond.d_eps_bic) > CONDITION_RTOL * max(
            1.0, abs(d_eps), abs(cond.d_eps_bic)):
        raise ValueError("parameters are off the undamped-pole condition")
    t = np.asarray(t, dtype=float)
    gamma = p.gamma_c + p.gamma_x
    s = np.sqrt(p.gamma_c * p.gamma_x)
    omega_osc = p.g_rabi * gamma / s
    decay = np.exp(-gamma * t)
    osc = 2.0 * decay * np.cos(omega_osc * t)
    weight = p.gamma_c * p.gamma_x / gamma ** 2
    abs2_c = (1.0 + decay ** 2 - osc) * weight
    abs2_x = (p.gamma_c / p.gamma_x + p.gamma_x / p.gamma_c * decay ** 2
              + osc) * weight
    return abs2_c, abs2_x


def evolve_ode(p, k, initial, t_grid):
    """Exact matrix-exponential (c, x) arrays over a time grid.

    Applies the propagator exp(-i H_k (t - initial.t)) of
    i d/dt (c, x) = H_k (c, x) to the initial state, exponentiating the
    whole grid as one stack.  Taylor scaling and squaring does not
    diagonalise H_k, so this is independent of the closed-form branch
    algebra and valid at exceptional points.  The fast common phase
    exp(-i eps0 t) is factored out (an exact change of variables) so the
    exponentiated matrices scale with the physical linewidths rather than
    eps0.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size == 0:
        raise ValueError("t_grid must be a nonempty 1-d array")
    if np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be strictly increasing")
    dt = _time_offsets(initial, t_grid)
    pole = complex_poles(p, k)
    shift = p.eps0
    h_rot = np.array([[pole.z_c - shift, pole.g_tilde],
                      [pole.g_tilde, pole.z_x - shift]])
    y0 = np.array([initial.c, initial.x], dtype=complex)
    y = _expm2(-1j * dt[:, None, None] * h_rot) @ y0
    phase = np.exp(-1j * shift * dt)
    return y[:, 0] * phase, y[:, 1] * phase
