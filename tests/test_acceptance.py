"""End-to-end acceptance suite: one test per quantitative check.

Each test delegates to the corresponding ioxsim.acceptance check,
prints its PASS/FAIL line (visible with pytest -s or on failure), and
asserts the aggregate pass flag, which includes the runtime budget.
"""

import pytest

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
    assert acceptance.main([]) == code
    assert cli.main(["acceptance"]) == code
