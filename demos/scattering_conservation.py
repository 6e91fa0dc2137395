"""
Scattering unitarity, energy bookkeeping, and where absorption peaks
====================================================================

Without nonradiative loss the three-channel scattering matrix is
unitary for every parameter choice; with loss the deficit 1 - R is
exactly the absorbed fraction.  Since the absorbed power is a loss-rate
weighted sum of the same mode weights that build the emitted-power
spectrum, equal nonradiative rates on both modes make the absorption
ridge in the (k, omega) plane coincide with the emission ridge
point-by-point.
"""

import numpy as np

from ioxsim import (
    SystemParams,
    scattering_matrix_three_bath,
    reflection,
    absorption,
    absorption_grid,
    power_spectrum_grid,
    track_branches,
)

rng = np.random.default_rng(20260815)

# -- passive draws: S unitary to machine precision ----------------------
worst_unitarity = 0.0
for _ in range(200):
    p = SystemParams(eps0=1000.0 + rng.uniform(-15, 15),
                     delta=rng.uniform(-5, 5),
                     g_rabi=rng.uniform(0, 4),
                     mass_ratio=rng.uniform(0, 1),
                     gamma_c=rng.uniform(0.1, 3),
                     gamma_x=rng.uniform(0, 3))
    k = rng.uniform(0, 2)
    w = p.eps0 + rng.uniform(-10, 10)
    S = scattering_matrix_three_bath(p, k, w)
    worst_unitarity = max(worst_unitarity,
                          np.abs(S.conj().T @ S - np.eye(3)).max())
print("passive draws: worst |S^dag S - 1| = %.3e" % worst_unitarity)

# -- lossy draws: R + A = 1 --------------------------------------------
worst_budget = 0.0
for _ in range(200):
    p = SystemParams(eps0=1000.0 + rng.uniform(-15, 15),
                     delta=rng.uniform(-5, 5),
                     g_rabi=rng.uniform(0, 4),
                     gamma_c=rng.uniform(0.1, 3),
                     gamma_x=rng.uniform(0, 3),
                     gamma_nr_c=rng.uniform(0.02, 1),
                     gamma_nr_x=rng.uniform(0.02, 1))
    k = rng.uniform(0, 2)
    w = p.eps0 + rng.uniform(-10, 10)
    budget = reflection(p, k, w) + absorption(p, k, w)
    worst_budget = max(worst_budget, abs(budget - 1.0))
print("lossy draws:   worst |R + A - 1|   = %.3e" % worst_budget)

# -- absorption ridge tracks the emission ridge -------------------------
p = SystemParams(delta=3.0, gamma_c=1.0, gamma_x=1.8,
                 gamma_nr_c=0.15, gamma_nr_x=0.15)
ks = np.linspace(-3.0, 3.0, 61)
ws = np.linspace(995.0, 1015.0, 1001)
A = absorption_grid(p, ks, ws).intensity
I = power_spectrum_grid(p, ks, ws).intensity
ridge_a = np.argmax(A, axis=1)
ridge_i = np.argmax(I, axis=1)
print("absorption map bounded in [0, 1]: min %.3e, max %.6f"
      % (A.min(), A.max()))
print("ridge offset between absorption and emission: max %d grid steps"
      % np.abs(ridge_a - ridge_i).max())

try:
    import matplotlib.pyplot as plt
except ImportError:
    plt = None

if plt is not None:
    fig, ax = plt.subplots(figsize=(6, 4))
    im = ax.pcolormesh(ks, ws, A.T, shading="auto")
    lower, upper = track_branches(p, ks)
    ax.plot(ks, lower.omega.real, "w--", lw=0.8)
    ax.plot(ks, upper.omega.real, "w--", lw=0.8)
    ax.set_xlabel("k")
    ax.set_ylabel("omega")
    fig.colorbar(im, ax=ax, label="absorption")
    fig.tight_layout()
    fig.savefig("scattering_conservation.png", dpi=150)
    print("wrote scattering_conservation.png")
