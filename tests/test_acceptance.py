"""End-to-end acceptance suite: one test per quantitative check.

Each test delegates to the corresponding ioxsim.acceptance check,
prints its PASS/FAIL line (visible with pytest -s or on failure), and
asserts the aggregate pass flag, which includes the runtime budget.
"""

import os
import runpy
import subprocess
import sys
import warnings

import pytest

import ioxsim
from ioxsim import acceptance, cli


def _report(res):
    print(res.line())
    assert res.passed, res.line()


def test_anomalous_dispersion():
    _report(acceptance.check_anomalous_dispersion())


def test_undamped_pole():
    _report(acceptance.check_undamped_pole())


def test_exceptional_point():
    _report(acceptance.check_exceptional_point())


def test_conservation():
    _report(acceptance.check_conservation())


def test_nan_residual_fails_the_check(monkeypatch):
    monkeypatch.setattr(acceptance, "scattering_amplitude_single_bath",
                        lambda p, k, omega: float("nan"))
    res = acceptance.check_conservation(seed=1234)
    assert not res.passed
    assert "max ||S|-1| = nan" in res.details


def test_green_identity():
    _report(acceptance.check_green_identity())


def test_rate_emergence():
    _report(acceptance.check_rate_emergence())


def test_absorption_ridge():
    _report(acceptance.check_absorption_ridge())


def test_dynamics_agreement():
    _report(acceptance.check_dynamics_agreement())


@pytest.mark.parametrize("passed, code", [(True, 0), (False, 3)])
def test_exit_codes_match_cli(monkeypatch, passed, code):
    # python -m ioxsim.acceptance and `ioxsim acceptance` exit alike
    monkeypatch.setattr(acceptance, "CHECKS", (
        ("stub", lambda: acceptance.CheckResult("stub", passed, "", 0.0, 1.0),
         False),))
    monkeypatch.setattr(sys, "argv", ["ioxsim.acceptance"])
    with warnings.catch_warnings(), pytest.raises(SystemExit) as exc:
        # the module is already imported; runpy warns that it runs it again
        warnings.filterwarnings("ignore", "'ioxsim.acceptance' found",
                                RuntimeWarning)
        runpy.run_module("ioxsim.acceptance", run_name="__main__")
    assert exc.value.code == code
    assert cli.main(["acceptance"]) == code


def test_seed_comes_only_from_the_argument(monkeypatch):
    # no environment variable reaches the checks' random draws
    monkeypatch.setenv("IOXSIM_SEED", "99")
    assert acceptance.resolve_seed(None) == acceptance.DEFAULT_SEED
    assert acceptance.resolve_seed(7) == 7


def test_module_entry_point_forwards_to_cli():
    # a bad --seed is rejected by the CLI's parser before any check runs
    src = os.path.dirname(os.path.dirname(ioxsim.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "ioxsim.acceptance", "--seed", "notanint"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert "invalid int value" in proc.stderr
    assert proc.stdout == ""
