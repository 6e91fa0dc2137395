"""
Exceptional point: branch coalescence and the t*exp(-Gamma*t) envelope
======================================================================

The two complex branches coalesce where the discriminant
D = (z_c - z_x)^2 + 4*g_tilde^2 vanishes.  With complex coupling this
needs two real conditions at once: gamma_c - gamma_x = -sign * 2 * g_R
and d_eps = sign * 2 * sqrt(gamma_c * gamma_x) * g_R / ... reduced to
the closed forms reported by ep_conditions().  At the coalescence the
effective Hamiltonian is defective; amplitudes pick up a secular factor
linear in t, so |x(t)| follows t * exp(-Gamma*t) instead of a sum of
two exponentials.
"""

import numpy as np

from ioxsim import (
    SystemParams,
    ep_conditions,
    eigen_branches,
    complex_poles,
    evolve_ode,
)
from ioxsim.core import discriminant

p0 = SystemParams(g_rabi=0.5, gamma_c=1.0, gamma_x=2.0)
conds = {c.sign: c for c in ep_conditions(p0)}
cond = conds[+1]
print("damping condition gamma_c - gamma_x = %+.3f (need %+.3f): met"
      % (p0.gamma_c - p0.gamma_x, -2.0 * p0.g_rabi))
print("coalescence detuning d_eps = %.12f" % cond.d_eps_ep)

p = SystemParams(delta=cond.d_eps_ep, g_rabi=0.5, gamma_c=1.0, gamma_x=2.0)
print("|D| at the coalescence: %.3e" % abs(discriminant(p, 0.0)))

lo, up = eigen_branches(p, 0.0)
print("branches flagged degenerate: %s / %s" % (lo.degenerate, up.degenerate))
print("coalesced eigenvalue: %.6f %+.6fi" % (lo.omega.real, lo.omega.imag))

# the two eigenvector directions collapse onto one another
overlap = abs(np.vdot(lo.eigvec, up.eigvec))
print("eigenvector overlap |<v_L|v_U>| = %.12f" % overlap)

# propagate a photon-only initial state with the exact matrix exponential;
# at the coalescence x(t) = -i * g_tilde * t * exp(-i omega t) exactly
t = np.linspace(0.5, 15.0, 291)
c_t, x_t = evolve_ode(p, 0.0, (1.0, 0.0), t)
y = np.log(np.abs(x_t)) - np.log(t)
slope, intercept = np.polyfit(t, y, 1)
resid = y - (slope * t + intercept)
r2 = 1.0 - resid.var() / y.var()

g_tilde = complex_poles(p, 0.0).g_tilde
print("\nenvelope fit of ln|x| - ln t:")
print("  decay rate Gamma = %.6f (mean damping (gamma_c+gamma_x)/2 = %.6f)"
      % (-slope, 0.5 * (p.gamma_c + p.gamma_x)))
print("  prefactor exp(intercept) = %.6f (|g_tilde| = %.6f)"
      % (np.exp(intercept), abs(g_tilde)))
print("  R^2 = %.8f" % r2)

try:
    import matplotlib.pyplot as plt
except ImportError:
    plt = None

if plt is not None:
    fig, ax = plt.subplots(figsize=(6, 4))
    ax.semilogy(t, np.abs(x_t), label="|x(t)| from exp(-iHt)")
    ax.semilogy(t, abs(g_tilde) * t * np.exp(slope * t), "k--",
                label="t exp(-Gamma t) envelope")
    ax.set_xlabel("t")
    ax.set_ylabel("|x|")
    ax.legend()
    fig.tight_layout()
    fig.savefig("exceptional_point_envelope.png", dpi=150)
    print("wrote exceptional_point_envelope.png")
