"""Field-amplitude dynamics of the coupled pair with vacuum input.

The mean amplitudes obey the linear system i d/dt (c, x) = H_k (c, x), so
away from an exceptional point they are sums of two complex exponentials
on the eigenvalue branches.  The undamped-pole (BiC) case has its own
closed form.  Both paths take the initial amplitudes as a pair (c0, x0)
at t = 0, the form BathOracle.dynamics takes, and times measured from
it.  evolve_ode is the exact matrix-exponential reference: it
applies the propagator exp(-i H_k t), computed by a truncated Taylor
series with scaling and squaring in numpy alone, without diagonalising
H_k, so it is independent of the branch algebra and the two paths check
each other.
"""

import numpy as np

from .core import (CONDITION_RTOL, _finite, _modes, _times, bic_condition,
                   detunings, effective_hamiltonian)
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


def _expm2(a):
    """exp(a) for an (n, 2, 2) stack, with nothing diagonalised.

    Each slice is scaled by 2^-s so that its 1-norm is below
    _EXPM_THETA, the degree-_EXPM_DEGREE Taylor polynomial is evaluated
    in Horner form on the whole stack, and each slice is squared back s
    times.  A zero slice gives the identity exactly.  Slices are held as
    rows (00, 01, 10, 11) of a (4, n) stack, on which the product a @ x
    is a[[0, 0, 2, 2]] * x[[0, 1, 0, 1]] + a[[1, 1, 3, 3]] * x[[2, 3, 2,
    3]]: two products per step, each factor of a on the left.
    """
    norm = np.abs(a).sum(axis=1).max(axis=1)
    # norm / theta = f 2^e with f < 1, so norm / 2^s < theta for s = e
    s = np.maximum(np.frexp(norm / _EXPM_THETA)[1], 0)
    a = (a * np.ldexp(1.0, -s)[:, None, None]).reshape(-1, 4).T
    left, right = a[[0, 0, 2, 2]], a[[1, 1, 3, 3]]
    x = _EYE
    for i in range(_EXPM_DEGREE, 0, -1):
        x = _mul2(left, right, x)
        x /= i
        x += _EYE
    for j in range(s.max(initial=0)):
        more = s > j
        y = x[:, more]
        x[:, more] = _mul2(y[[0, 0, 2, 2]], y[[1, 1, 3, 3]], y)
    return x.T.reshape(-1, 2, 2)


def _mul2(left, right, x):
    """a @ x slice-wise on (4, n) stacks, given left = a[[0, 0, 2, 2]] and
    right = a[[1, 1, 3, 3]]."""
    # np.multiply, not *: past 256 KB numpy writes a * into the temporary
    # gather and swaps the factors, and its complex product is not
    # commutative to the last bit
    out = np.multiply(left, x[[0, 1, 0, 1]])
    out += np.multiply(right, x[[2, 3, 2, 3]])
    return out


def _branch_projection(p, k, initial):
    """Coefficients of the two-exponential solution.

    Decomposes the initial state on the spectral projectors of H_k;
    rejects coalesced branches where the decomposition is singular.
    """
    m = _modes(p, np.array([float(k)]))
    if m.degenerate[0]:
        raise DegenerateModesError(
            "branches coalesce at k = %g; use evolve_ode" % k)
    w_l, w_u, z_x, z_c = m.levels[:, 0].tolist()
    den = w_u - w_l
    c0, x0 = initial
    gt = m.g_tilde
    # P_U psi0 and P_L psi0, written with omega_U - z = z - omega_L identities
    cu = (c0 * (w_u - z_x) + gt * x0) / den
    cl = (c0 * (w_u - z_c) - gt * x0) / den
    xu = (x0 * (w_u - z_c) + gt * c0) / den
    xl = (x0 * (w_u - z_x) - gt * c0) / den
    return w_l, w_u, (cl, cu), (xl, xu)


def analytic_trajectory(p, k, initial, t_grid):
    """Closed-form (c, x) arrays over a time grid, from the amplitudes
    initial = (c0, x0) at t = 0."""
    t = _times(initial, t_grid)
    wl, wu, (cl, cu), (xl, xu) = _branch_projection(p, k, initial)
    el = np.exp(-1j * wl * t)
    eu = np.exp(-1j * wu * t)
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
    t = _finite(t, "t")
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

    Applies the propagator exp(-i H_k t) of i d/dt (c, x) = H_k (c, x)
    to the amplitudes initial = (c0, x0) at t = 0, exponentiating the
    whole grid as one stack.  Taylor scaling and squaring does not
    diagonalise H_k, so this is independent of the closed-form branch
    algebra and valid at exceptional points.  The fast common phase
    exp(-i eps0 t) is factored out (an exact change of variables) so the
    exponentiated matrices scale with the physical linewidths rather than
    eps0.
    """
    t = _times(initial, t_grid)
    h_rot = effective_hamiltonian(p, k) - p.eps0 * np.eye(2)
    y0 = np.array(initial, dtype=complex)
    y = _expm2(-1j * t[:, None, None] * h_rot) @ y0
    phase = np.exp(-1j * p.eps0 * t)
    return y[:, 0] * phase, y[:, 1] * phase
