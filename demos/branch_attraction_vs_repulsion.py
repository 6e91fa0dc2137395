"""
Complex eigenmode branches: level attraction vs. level repulsion
================================================================

Two modes coupled through a shared radiative environment acquire the
effective coupling g_tilde = g_R - i*sqrt(gamma_c*gamma_x).  When the
coherent part dominates (|g_R| >> sqrt(gamma_c*gamma_x)) the real parts
of the two branches repel (standard avoided crossing); when the
dissipative part dominates (g_R = 0) they attract, and the lower branch
bends *downward* at k = 0 even though neither bare dispersion does.
"""

import numpy as np

from ioxsim import SystemParams, eigen_branches, track_branches, kinetic_energies

# heavy-emitter limit: flat emitter dispersion, parabolic photon branch
attraction = SystemParams(delta=3.0, g_rabi=0.0, gamma_c=1.0, gamma_x=1.8)
repulsion = SystemParams(delta=3.0, g_rabi=3.0, gamma_c=1.0, gamma_x=0.3)

kgrid = np.linspace(-3.0, 3.0, 241)

for name, p in (("dissipative (attraction)", attraction),
                ("coherent   (repulsion)", repulsion)):
    lower, upper = track_branches(p, kgrid)
    re_lo = lower.omega.real
    re_up = upper.omega.real

    # curvature of the lower branch at k = 0 by central differences
    i0 = np.argmin(np.abs(kgrid))
    h = kgrid[1] - kgrid[0]
    curv = (re_lo[i0 - 1] - 2.0 * re_lo[i0] + re_lo[i0 + 1]) / h**2

    # narrowest real-part gap along the scan
    gap = re_up - re_lo
    i_min = int(np.argmin(gap))
    lo0, up0 = eigen_branches(p, 0.0)

    print(name)
    print("  omega_L(0) = %.6f %+.6fi" % (lo0.omega.real, lo0.omega.imag))
    print("  omega_U(0) = %.6f %+.6fi" % (up0.omega.real, up0.omega.imag))
    print("  d2 Re omega_L / dk2 at k=0: %+.4f" % curv)
    print("  min real gap %.4f at k = %.3f" % (gap[i_min], kgrid[i_min]))
    print()

# attraction pulls both real parts strictly inside the bare interval
# at k = 0; repulsion pushes them strictly outside
for name, p in (("attraction", attraction), ("repulsion", repulsion)):
    bare = sorted(kinetic_energies(p, 0.0))
    lo0, up0 = eigen_branches(p, 0.0)
    inside = bare[0] < lo0.omega.real and up0.omega.real < bare[1]
    print("%s: branch real parts inside the bare interval at k=0: %s"
          % (name, inside))

try:
    import matplotlib.pyplot as plt
except ImportError:
    plt = None

if plt is not None:
    fig, axes = plt.subplots(1, 2, figsize=(9, 4), sharey=True)
    for ax, (name, p) in zip(axes, (("dissipative", attraction),
                                    ("coherent", repulsion))):
        lo, up = track_branches(p, kgrid)
        ax.plot(kgrid, lo.omega.real, "C0", label="lower")
        ax.plot(kgrid, up.omega.real, "C1", label="upper")
        ax.plot(kgrid, [kinetic_energies(p, k)[0] for k in kgrid],
                "k--", lw=0.8)
        ax.plot(kgrid, [kinetic_energies(p, k)[1] for k in kgrid],
                "k--", lw=0.8)
        ax.set_title(name)
        ax.set_xlabel("k")
    axes[0].set_ylabel("Re omega")
    axes[0].legend()
    fig.tight_layout()
    fig.savefig("branch_attraction_vs_repulsion.png", dpi=150)
    print("wrote branch_attraction_vs_repulsion.png")
