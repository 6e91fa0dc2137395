"""Input-output simulation of an emitter and cavity mode coupled to a
common photonic environment.

The package loads lazily (PEP 562): ``import ioxsim`` loads no numpy and
leaves the environment alone, and each public name or submodule is
imported on its first use, so ``from ioxsim import power_spectrum``
loads core and spectra but not bath.
"""

import importlib

__version__ = "0.1.0"

# the --seed default of the acceptance checks, kept here so that the CLI
# parser reads it without importing the checks
DEFAULT_SEED = 1234

# each public name under the submodule that defines it
_EXPORTS = {
    "core": (
        "SystemParams",
        "ComplexPole",
        "ComplexBranch",
        "BranchTrack",
        "Detunings",
        "EpCondition",
        "BicCondition",
        "kinetic_energies",
        "complex_poles",
        "effective_hamiltonian",
        "eigen_branches",
        "track_branches",
        "detunings",
        "ep_conditions",
        "bic_condition",
    ),
    "spectra": (
        "InputOccupation",
        "SpectrumGrid",
        "power_spectrum",
        "power_spectrum_grid",
        "scattering_amplitude_single_bath",
        "scattering_matrix_three_bath",
        "reflection",
        "absorption",
        "absorption_components",
        "absorption_grid",
        "power_absorption_relation_check",
        "default_omega_window",
        "lorentzian_pair_fit",
    ),
    "dynamics": (
        "analytic_trajectory",
        "bic_amplitudes",
        "evolve_ode",
    ),
    "bath": (
        "BathSpec",
        "BathOracle",
        "kernel_freq",
        "full_matrix",
    ),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items()
           for name in names}
_SUBMODULES = ("core", "spectra", "dynamics", "bath", "errors", "cli",
               "acceptance")

__all__ = list(_ORIGIN)


def __getattr__(name):
    if name in _SUBMODULES:
        # importing a submodule binds it on the package as well
        return importlib.import_module("." + name, __name__)
    if name not in _ORIGIN:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    # not cached: the name stays the submodule's current attribute
    return getattr(importlib.import_module("." + _ORIGIN[name], __name__),
                   name)


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_SUBMODULES))
