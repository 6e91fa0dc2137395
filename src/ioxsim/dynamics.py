"""Field-amplitude dynamics of the coupled pair with vacuum input.

The mean amplitudes obey the linear system i d/dt (c, x) = H_k (c, x), so
away from an exceptional point they are sums of two complex exponentials
on the eigenvalue branches.  The undamped-pole (BiC) case has its own
closed form.  evolve_ode integrates the same equation numerically and is
deliberately independent of the branch algebra, so the two paths check
each other.
"""

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .core import CONDITION_RTOL, bic_condition, complex_poles, detunings, eigen_branches
from .errors import DegenerateModesError


@dataclass(frozen=True)
class AmplitudeState:
    """Mean photon and exciton amplitudes at time t (units hbar/rate)."""

    c: complex
    x: complex
    t: float = 0.0

    @property
    def norm_sq(self):
        return abs(self.c) ** 2 + abs(self.x) ** 2


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


def analytic_trajectory(p, k, initial, t_grid):
    """Closed-form (c, x) arrays over a time grid (measured from initial.t)."""
    wl, wu, (cl, cu), (xl, xu) = _branch_projection(p, k, initial)
    dt = np.asarray(t_grid, dtype=float) - initial.t
    if np.any(dt < 0):
        raise ValueError("t_grid must not precede the initial time")
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


def evolve_ode(p, k, initial, t_grid, rtol=1e-10, atol=1e-12):
    """Numerically integrated (c, x) arrays over a time grid.

    Integrates i d/dt (c, x) = H_k (c, x) with an adaptive high-order
    Runge-Kutta scheme, independent of the closed-form branch algebra;
    valid at exceptional points.  Internally the fast common phase
    exp(-i eps0 t) is factored out (an exact change of variables) so step
    sizes track the physical linewidths rather than eps0.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size == 0:
        raise ValueError("t_grid must be a nonempty 1-d array")
    if np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be strictly increasing")
    if t_grid[0] < initial.t:
        raise ValueError("t_grid must not precede the initial time")
    pole = complex_poles(p, k)
    shift = p.eps0
    h_rot = np.array([[pole.z_c - shift, pole.g_tilde],
                      [pole.g_tilde, pole.z_x - shift]])

    def rhs(_, y):
        return -1j * (h_rot @ y)

    y0 = np.array([initial.c, initial.x], dtype=complex)
    sol = solve_ivp(rhs, (initial.t, t_grid[-1]), y0, t_eval=t_grid,
                    method="DOP853", rtol=rtol, atol=atol)
    if not sol.success:
        raise RuntimeError("integration failed: %s" % sol.message)
    phase = np.exp(-1j * shift * (t_grid - initial.t))
    return sol.y[0] * phase, sol.y[1] * phase
