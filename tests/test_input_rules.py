"""One input rule for the whole package: every public function that takes a
momentum k, a frequency omega or a time t or t_grid raises ValueError
naming that argument for a NaN, inf or -inf there.  The cases come from the
signatures of the functions ioxsim exports, so a new entry point is covered
the day it is exported."""

import inspect

import numpy as np
import pytest

import ioxsim
from ioxsim import BathOracle, BathSpec, SystemParams
from ioxsim.core import discriminant, track_branches

CHECKED = ("k", "omega", "t", "t_grid")

BAD = [np.nan, np.inf, -np.inf]
BAD_IDS = ["nan", "inf", "minus-inf"]

# one valid value per argument name.  p sits on the undamped-pole
# condition with purely radiative losses, which every function accepts
# (bic_amplitudes needs it, the single-bath amplitude needs no loss rates)
ARGS = {
    "p": SystemParams(delta=2.1 / np.sqrt(0.3), g_rabi=3.0, gamma_c=1.0,
                      gamma_x=0.3),
    "b": BathSpec((500.0, 1500.0)),
    "k": 0.0,
    "omega": 1000.0,
    "t": 1.0,
    "t_grid": [0.0, 1.0],
    "initial": (0.0, 1.0),
    "values": np.ones(8),
    "centers_guess": (999.0, 1001.0),
}


def _cases():
    for name in sorted(ioxsim.__all__):
        fn = getattr(ioxsim, name)
        if not inspect.isfunction(fn):
            continue
        params = inspect.signature(fn).parameters
        for arg in CHECKED:
            if arg in params:
                yield pytest.param(fn, arg, id="%s-%s" % (name, arg))


CASES = list(_cases())


def test_cases_cover_the_entry_points():
    # the signatures, not a hand-kept list, decide what is checked
    names = {case.id.rsplit("-", 1)[0] for case in CASES}
    assert {"kinetic_energies", "complex_poles", "detunings",
            "effective_hamiltonian", "eigen_branches", "analytic_trajectory",
            "evolve_ode", "bic_amplitudes", "power_spectrum",
            "kernel_freq"} <= names


@pytest.mark.parametrize("bad", BAD, ids=BAD_IDS)
@pytest.mark.parametrize("fn, arg", CASES)
def test_non_finite_argument_rejected(fn, arg, bad):
    kwargs = {name: ARGS[name]
              for name, param in inspect.signature(fn).parameters.items()
              if param.default is inspect.Parameter.empty}
    kwargs[arg] = bad
    with pytest.raises(ValueError, match=r"\b%s must be finite" % arg):
        fn(**kwargs)


@pytest.mark.parametrize("bad", BAD, ids=BAD_IDS)
@pytest.mark.parametrize("call", [
    pytest.param(lambda p, k: discriminant(p, k), id="discriminant"),
    pytest.param(lambda p, k: discriminant(p, [0.0, k]),
                 id="discriminant-array"),
    pytest.param(lambda p, k: track_branches(p, [-1.0, k]),
                 id="track_branches"),
])
def test_non_finite_k_rejected_off_the_export_list(call, bad):
    with pytest.raises(ValueError, match=r"\bk must be finite"):
        call(ARGS["p"], bad)


@pytest.mark.parametrize("bad", BAD, ids=BAD_IDS)
@pytest.mark.parametrize("call, arg", [
    pytest.param(lambda b, p, v: BathOracle(b, 2000, p, k=v), "k",
                 id="BathOracle-k"),
    pytest.param(lambda b, p, v: BathOracle(b, 2000, p).dynamics(
        (0.0, 1.0), [0.0, v]), "t_grid", id="BathOracle.dynamics-t_grid"),
])
def test_non_finite_oracle_input_rejected(call, arg, bad):
    # a class and a method: the signature scan above sees neither
    with pytest.raises(ValueError, match=r"\b%s must be finite" % arg):
        call(ARGS["b"], ARGS["p"], bad)
