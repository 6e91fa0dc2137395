"""
First-principles check: damping rates emerge from a discretized bath
====================================================================

The library's closed-form branches and spectra take the radiative rates
gamma_c, gamma_x as inputs.  Here nothing is assumed: a flat photonic
continuum is discretized into a few thousand modes with golden-rule
couplings.  The self-energy those modes induce on the system gives the
damping matrix and the spectrum; the exact eigenpairs of the full
(system + bath) Hermitian problem give the amplitude decay.  Each is
compared against the closed forms, and the damping matrix also against
the continuum kernel as the number of modes grows.
"""

import numpy as np

from ioxsim import (
    SystemParams,
    eigen_branches,
    BathSpec,
    BathOracle,
    kernel_freq,
    power_spectrum,
    lorentzian_pair_fit,
    analytic_trajectory,
)

p = SystemParams(delta=3.0, gamma_c=1.0, gamma_x=1.8)
oracle = BathOracle(BathSpec((600.0, 1400.0)), 2000, p, k=0.0)
print("bath: %d modes on (%.0f, %.0f), spacing %.3f"
      % (oracle.mode_freqs.size, 600.0, 1400.0, oracle.spacing))
print("recurrence time %.1f" % oracle.recurrence_time)

# -- damping matrix recovered from the resolvent -------------------------
# one 2x2 matrix per probe frequency; report the worst deviation
probe = np.linspace(p.eps0 - 8.0, p.eps0 + 8.0, 5)
gam = oracle.effective_damping(probe)
target = np.array([[p.gamma_c, np.sqrt(p.gamma_c * p.gamma_x)],
                   [np.sqrt(p.gamma_c * p.gamma_x), p.gamma_x]])
rel = np.max(np.abs(gam.real - target) / target, axis=0)
mean = gam.real.mean(axis=0)
print("\ndamping matrix from the bath (worst relative errors):")
print("  gamma_c  %.4f  (%.2f%%)" % (mean[0, 0], 100 * rel[0, 0]))
print("  gamma_x  %.4f  (%.2f%%)" % (mean[1, 1], 100 * rel[1, 1]))
print("  cross    %.4f  (%.2f%%)" % (mean[0, 1], 100 * rel[0, 1]))

# -- convergence in the number of bath modes ------------------------------
# the damping matrix against the continuum kernel, on the bath of the
# rate-emergence acceptance check.  The error is the broadening itself,
# ten level spacings, so it falls at first order in the spacing as N grows
wide = BathSpec((500.0, 1500.0))
sweep_probe = np.linspace(900.0, 1100.0, 9)
ref = kernel_freq(wide, p, 0.0, sweep_probe)
print("\ndamping matrix vs continuum kernel on (500, 1500), max relative error:")
prev = None
for n in (2000, 4000, 8000, 16000, 32000):
    sweep = BathOracle(wide, n, p).effective_damping(sweep_probe)
    err = np.max(np.abs(sweep - ref) / np.abs(ref))
    order = "" if prev is None else "  (order %.3f)" % np.log2(prev / err)
    print("  N = %5d  %.2e%s" % (n, err, order))
    prev = err

# -- spectrum peaks land on the closed-form branch positions -------------
lo, up = eigen_branches(p, 0.0)
w = np.arange(995.0, 1011.0 + 1e-9, 0.05)
ldos = oracle.spectrum(w)
intensity = power_spectrum(p, 0.0, w)
guesses = (lo.omega.real, up.omega.real)
cen_orc, _, _ = lorentzian_pair_fit(w, ldos, guesses)
cen_ana, _, _ = lorentzian_pair_fit(w, intensity, guesses)
print("\npeak centers (oracle vs closed form):")
for i in range(2):
    print("  %.4f vs %.4f  (offset %.4f, grid step %.2f)"
          % (cen_orc[i], cen_ana[i],
             abs(cen_orc[i] - cen_ana[i]), w[1] - w[0]))

# -- amplitude decay matches the two-branch closed form -------------------
t = np.linspace(0.0, 6.0, 241)  # well inside the recurrence window
c_o, x_o = oracle.dynamics((0.0, 1.0), t)
c_a, x_a = analytic_trajectory(p, 0.0, (0.0, 1.0), t)
sup = max(np.abs(np.abs(c_o) ** 2 - np.abs(c_a) ** 2).max(),
          np.abs(np.abs(x_o) ** 2 - np.abs(x_a) ** 2).max())
print("\ndynamics sup deviation in occupations: %.2e" % sup)

try:
    import matplotlib.pyplot as plt
except ImportError:
    plt = None

if plt is not None:
    fig, axes = plt.subplots(1, 2, figsize=(9, 4))
    axes[0].plot(w, ldos / ldos.max(), label="discretized bath")
    axes[0].plot(w, intensity / intensity.max(), "k--", label="closed form")
    axes[0].set_xlabel("omega")
    axes[0].set_ylabel("normalized spectrum")
    axes[0].legend()
    axes[1].semilogy(t, np.abs(x_o) ** 2, label="|x|^2 bath")
    axes[1].semilogy(t, np.abs(x_a) ** 2, "k--", label="|x|^2 closed form")
    axes[1].set_xlabel("t")
    axes[1].legend()
    fig.tight_layout()
    fig.savefig("bath_oracle_convergence.png", dpi=150)
    print("wrote bath_oracle_convergence.png")
