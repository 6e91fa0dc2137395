"""Input-output simulation of an emitter and cavity mode coupled to a
common photonic environment."""

from .core import (
    SystemParams,
    ComplexPole,
    ComplexBranch,
    BranchTrack,
    Detunings,
    EpCondition,
    BicCondition,
    kinetic_energies,
    complex_poles,
    effective_hamiltonian,
    eigen_branches,
    track_branches,
    detunings,
    ep_conditions,
    bic_condition,
)
from .spectra import (
    InputOccupation,
    SpectrumGrid,
    power_spectrum,
    power_spectrum_grid,
    scattering_amplitude_single_bath,
    scattering_matrix_three_bath,
    reflection,
    absorption,
    absorption_components,
    absorption_grid,
    power_absorption_relation_check,
    default_omega_window,
    lorentzian_pair_fit,
)
from .dynamics import (
    analytic_trajectory,
    bic_amplitudes,
    evolve_ode,
)
from .bath import (
    BathSpec,
    BathOracle,
    kernel_freq,
    full_matrix,
)

__version__ = "0.1.0"
