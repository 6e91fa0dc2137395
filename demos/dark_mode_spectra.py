"""
Dark-mode formation: a pole reaches the real axis
=================================================

At the detuning d_eps = g_R * d_gamma / sqrt(gamma_c * gamma_x) the
lower eigenmode decouples from the environment: its imaginary part
vanishes exactly.  Approaching that detuning, the emitted-power peak at
the lower pole narrows and its height diverges like 1/distance^2; *at*
the critical detuning the pole cancels against a zero of the numerator
and the spectrum stays finite, while a finite fraction of any initial
excitation stays trapped forever.
"""

import numpy as np

from ioxsim import (
    SystemParams,
    eigen_branches,
    bic_condition,
    power_spectrum,
    analytic_trajectory,
)

def family(delta):
    return SystemParams(delta=delta, g_rabi=3.0, gamma_c=1.0, gamma_x=0.3)


crit = bic_condition(family(0.0)).d_eps_bic
print("critical detuning d_eps = %.12f" % crit)
p_crit = family(crit)
w_dark = eigen_branches(p_crit, 0.0)[0].omega.real

# family approaching the critical detuning from below
print("\n fraction    Im omega_L        peak height")
dists, heights = [], []
for frac in (0.6, 0.8, 0.95, 0.99, 0.999):
    p = family(frac * crit)
    lo, _ = eigen_branches(p, 0.0)
    height = power_spectrum(p, 0.0, np.array([lo.omega.real]))[0]
    print(" %7.3f   %13.6e   %13.6e" % (frac, lo.omega.imag, height))
    dists.append(abs(lo.omega.real - w_dark))
    heights.append(height)

slope = np.polyfit(np.log10(dists), np.log10(heights), 1)[0]
print("log-log slope of height vs distance to the trapped pole: %.4f"
      % slope)

# exactly at the critical detuning the pole is real but the spectrum
# is finite: the numerator vanishes there too
lo, up = eigen_branches(p_crit, 0.0)
print("\nat the critical detuning:")
print("  Im omega_L = %.3e (dark)" % lo.omega.imag)
print("  Im omega_U = %.6f (carries all the damping)" % up.omega.imag)
w = np.linspace(lo.omega.real - 0.5, lo.omega.real + 0.5, 2001)
w = w[np.abs(w - lo.omega.real) > 1e-9]
I = power_spectrum(p_crit, 0.0, w)
print("  spectrum near the real pole stays bounded: max I = %.6f" % I.max())

# trapped fractions from an initially excited emitter
gam = p_crit.gamma_c + p_crit.gamma_x
x_inf = p_crit.gamma_c**2 / gam**2
c_inf = p_crit.gamma_c * p_crit.gamma_x / gam**2
t = np.linspace(0.0, 60.0, 601)
c_t, x_t = analytic_trajectory(p_crit, 0.0, (0.0, 1.0), t)
print("\nlong-time occupations (t = %.0f):" % t[-1])
print("  |x|^2 = %.10f   closed form gamma_c^2/gamma^2     = %.10f"
      % (abs(x_t[-1])**2, x_inf))
print("  |c|^2 = %.10f   closed form gamma_c*gamma_x/gamma^2 = %.10f"
      % (abs(c_t[-1])**2, c_inf))

try:
    import matplotlib.pyplot as plt
except ImportError:
    plt = None

if plt is not None:
    fig, ax = plt.subplots(figsize=(6, 4))
    w = np.linspace(994.0, 1010.0, 3201)
    for frac in (0.6, 0.8, 0.95, 0.99):
        ax.semilogy(w, power_spectrum(family(frac * crit), 0.0, w),
                    label="%.2f of critical" % frac)
    ax.set_xlabel("omega")
    ax.set_ylabel("emitted power")
    ax.legend()
    fig.tight_layout()
    fig.savefig("dark_mode_spectra.png", dpi=150)
    print("wrote dark_mode_spectra.png")
