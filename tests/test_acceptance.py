"""End-to-end acceptance suite: one test per quantitative check.

Each test delegates to the corresponding ioxsim.acceptance check,
prints its PASS/FAIL line (visible with pytest -s or on failure), and
asserts the aggregate pass flag, which includes the runtime budget.
The harness rules (registration order, budget, a raising check, the
seed default), the benchmark's use of CHECKS and the one entry are
tested on stub checks and subprocesses.
"""

import importlib.util
import inspect
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
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


@pytest.mark.parametrize("x", [
    np.log10([1e-2, 1e-3, 1e-4, 1e-5]), np.linspace(0.5, 15.0, 291),
    np.linspace(995.0, 1015.0, 1001)], ids=["decades", "times", "offset"])
def test_line_fit_equals_polyfit(x):
    rng = np.random.default_rng(x.size)
    y = -2.0 * x + 3.0 + rng.normal(0.0, 0.1, x.size)
    fit = acceptance._line_fit(x, y)
    # polyfit's own intercept is 1.6e-12 off on the offset axis
    assert np.allclose(fit, np.polyfit(x, y, 1), rtol=1e-11, atol=0.0)
    # the exact least-squares line, in rationals
    xs, ys = [Fraction(v) for v in x], [Fraction(v) for v in y]
    x_mean, y_mean = sum(xs) / x.size, sum(ys) / x.size
    slope = (sum((a - x_mean) * (b - y_mean) for a, b in zip(xs, ys))
             / sum((a - x_mean) ** 2 for a in xs))
    exact = [float(slope), float(y_mean - slope * x_mean)]
    assert np.allclose(fit, exact, rtol=1e-13, atol=0.0)


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


def test_checks_registered_once_in_reporting_order():
    names = [name for name, _, _ in acceptance.CHECKS]
    assert names == ["anomalous-dispersion", "undamped-pole",
                     "exceptional-point", "conservation", "green-identity",
                     "rate-emergence", "absorption-ridge",
                     "dynamics-agreement"]
    assert len(set(names)) == len(names)
    # each entry is the public check, seeded exactly where it draws, and
    # only a seeded check takes a seed, by default DEFAULT_SEED
    for name, fn, takes_seed in acceptance.CHECKS:
        assert fn is getattr(acceptance, "check_" + name.replace("-", "_"))
        assert takes_seed == (name in ("conservation", "green-identity",
                                       "dynamics-agreement"))
        params = inspect.signature(fn).parameters
        assert [(p.name, p.default) for p in params.values()] == (
            [("seed", acceptance.DEFAULT_SEED)] if takes_seed else [])


def test_over_budget_check_fails(monkeypatch):
    monkeypatch.setattr(acceptance, "CHECKS", [])

    @acceptance._check("slow", 0.001)
    def slow():
        time.sleep(0.01)
        return True, "done"

    res = slow()
    assert not res.passed
    assert res.details == "done [over budget 0 s]"
    assert res.elapsed > res.budget == 0.001
    assert acceptance.CHECKS == [("slow", slow, False)]


def test_raising_check_is_a_fail_line(monkeypatch, capsys):
    monkeypatch.setattr(acceptance, "CHECKS", [])

    @acceptance._check("first", 5.0, seeded=True)
    def first(rng):
        return True, "drew %r" % rng.random()

    @acceptance._check("crash", 5.0)
    def crash():
        raise KeyError("boom")

    @acceptance._check("last", 5.0)
    def last():
        return True, "ok"

    results = acceptance.run_all(seed=7)
    assert [r.name for r in results] == ["first", "crash", "last"]
    assert [r.passed for r in results] == [True, False, True]
    assert results[0].details == "drew %r" % random.Random(7).random()
    assert results[1].details.startswith("raised KeyError('boom')")
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines[:3]] == [
        ["PASS", "first"], ["FAIL", "crash"], ["PASS", "last"]]
    assert lines[3:] == ["2/3 checks passed (seed 7)"]
    # and the CLI maps the failed run to exit code 3
    assert cli.main(["acceptance", "--seed", "7"]) == 3


def test_seed_comes_only_from_the_argument(monkeypatch):
    # no environment variable reaches the checks' random draws
    monkeypatch.setenv("IOXSIM_SEED", "99")
    assert (acceptance.check_conservation().details
            == acceptance.check_conservation(acceptance.DEFAULT_SEED).details)


@pytest.mark.parametrize("name", ["checks", "sweep", "oracle"])
def test_benchmark_checks_workload_passes(tmp_path, name):
    # one pass of a perfbench workload, as it runs and gates it: checks
    # reads CHECKS and each CheckResult, sweep calls every spectra grid
    # and scalar entry, oracle runs the discretized-bath CLI comparison
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(root, "perfbench", "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    bench = workloads.WORKLOADS[name](root, 1234)
    outcomes, info = bench.check(bench.run(str(tmp_path)), str(tmp_path))
    assert outcomes
    assert [err for _, err in outcomes] == [None] * len(outcomes)
    if name == "checks":
        assert [check for check, _ in outcomes] == list(
            workloads.CHECK_NAMES)
        assert len(info) == len(outcomes)


def _run(*args):
    src = os.path.dirname(os.path.dirname(ioxsim.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-m", *args], capture_output=True,
                          text=True, env=env, timeout=60)


def test_bad_seed_rejected_by_the_parser():
    # the parser refuses a bad --seed before any check runs
    proc = _run("ioxsim", "acceptance", "--seed", "notanint")
    assert proc.returncode == 2
    assert "invalid int value" in proc.stderr
    assert proc.stdout == ""


def test_module_form_refuses_to_run():
    # python -m ioxsim.acceptance is no entry: it fails and runs no check,
    # rather than pass silently
    proc = _run("ioxsim.acceptance")
    assert proc.returncode != 0
    assert "ioxsim acceptance" in proc.stderr
    for stream in (proc.stdout, proc.stderr):
        assert not any(line.startswith(("PASS", "FAIL"))
                       for line in stream.splitlines())
