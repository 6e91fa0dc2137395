"""CLI front end: config validation, scan outputs, determinism, exit codes."""

import csv
import glob
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

import ioxsim
from ioxsim import cli
from ioxsim.acceptance import CheckResult
from ioxsim.core import SystemParams, eigen_branches
from ioxsim.errors import ConfigError

DELTA_BIC = 3.834057902536163
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# per scan kind: the scan keys it requires, the further scan keys it
# takes, whether system.delta may be a list, whether it needs the bath
SCAN_RULES = {
    "dispersion": (("k_grid", "omega_grid"), ("input_occupation",),
                   False, False),
    "spectrum": (("omega_grid",), ("k_grid", "input_occupation"),
                 True, False),
    "dynamics": (("t_grid",), ("k_grid",), True, False),
    "ep-bic": ((), (), False, False),
    "absorption": (("k_grid", "omega_grid"), (), False, False),
    "oracle-compare": ((), ("k_grid", "omega_grid", "t_grid",
                            "max_deviation"), False, True),
}
# a valid value of every scan key, for every kind that takes it
SCAN_VALUES = {"k_grid": [0.0],
               "omega_grid": {"start": 995.0, "stop": 1010.0, "num": 61},
               "t_grid": [0.0, 1.0],
               "input_occupation": 1.0,
               "max_deviation": 0.1}
BATH = {"kappa_c": 0.5641895835477563, "kappa_x": 0.7569397566060481,
        "omega_window": [800.0, 1200.0], "n_modes": 2000}


def base_doc(**scan):
    return {
        "system": {"eps0": 1000.0, "delta": 3.0,
                   "gamma_c": 1.0, "gamma_x": 1.8},
        "scan": scan,
        "output": {"directory": "out"},
    }


def dispersion_scan(**extra):
    return dict(kind="dispersion",
                k_grid={"start": -0.5, "stop": 0.5, "num": 11},
                omega_grid={"start": 995.0, "stop": 1010.0, "num": 61},
                **extra)


def kind_doc(kind):
    """A valid config of the given kind holding only what it requires
    (and for oracle-compare the omega_grid it needs one grid for)."""
    needs, _, _, bath = SCAN_RULES[kind]
    scan = {key: SCAN_VALUES[key] for key in needs}
    if kind == "oracle-compare":
        scan["omega_grid"] = SCAN_VALUES["omega_grid"]
    doc = base_doc(kind=kind, **scan)
    if bath:
        doc["bath"] = dict(BATH)
    return doc


def src_env():
    """The environment for a subprocess that imports this checkout's
    package, installed or not."""
    src = os.path.dirname(os.path.dirname(ioxsim.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, env.get("PYTHONPATH"))))
    return env


def write_cfg(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_csv(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestConfigValidation:
    def test_unknown_top_key(self):
        doc = base_doc(**dispersion_scan())
        doc["systems"] = doc.pop("system")
        with pytest.raises(ConfigError, match="config.*systems"):
            cli.parse_config(doc)

    def test_unknown_scan_key_names_path(self):
        doc = base_doc(**dispersion_scan(kindd="x"))
        with pytest.raises(ConfigError, match="scan.*kindd"):
            cli.parse_config(doc)

    def test_bad_kind(self):
        with pytest.raises(ConfigError, match="scan.kind"):
            cli.parse_config(base_doc(kind="powermap"))

    def test_kind_must_be_a_string(self):
        with pytest.raises(ConfigError, match="scan.kind"):
            cli.parse_config(base_doc(kind=["dispersion"]))

    def test_table_matches_rules(self):
        assert {kind: (rec.needs, rec.takes, rec.family, rec.bath)
                for kind, rec in cli.SCANS.items()} == SCAN_RULES

    @pytest.mark.parametrize("kind,key", [(kind, key) for kind in SCAN_RULES
                                          for key in SCAN_VALUES])
    def test_scan_key_rules(self, kind, key):
        # a required key may not be missing, a key the kind neither needs
        # nor takes may not be present
        needs, takes, _, _ = SCAN_RULES[kind]
        doc = kind_doc(kind)
        cli.parse_config(doc)
        if key in needs:
            del doc["scan"][key]
            message = "scan.%s: required for scan kind %r" % (key, kind)
        else:
            doc["scan"][key] = SCAN_VALUES[key]
            if key in takes:
                assert cli.parse_config(doc).kind == kind
                return
            message = "scan.%s: not referenced by scan kind %r" % (key, kind)
        with pytest.raises(ConfigError, match="^%s$" % re.escape(message)):
            cli.parse_config(doc)

    @pytest.mark.parametrize("kind", [k for k, rule in SCAN_RULES.items()
                                      if "t_grid" in rule[0] + rule[1]])
    def test_negative_times_rejected(self, tmp_path, kind):
        doc = kind_doc(kind)
        doc["scan"]["t_grid"] = {"start": -1.0, "stop": 2.0, "num": 7}
        doc["output"]["directory"] = str(tmp_path / "out")
        with pytest.raises(ConfigError,
                           match="scan.t_grid: times must be non-negative"):
            cli.parse_config(doc)
        assert cli.main([kind, "--config", write_cfg(tmp_path, doc)]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind", [k for k, rule in SCAN_RULES.items()
                                      if not rule[3]])
    def test_bath_block_only_for_oracle_compare(self, tmp_path, kind):
        doc = kind_doc(kind)
        doc["bath"] = dict(BATH)
        doc["output"]["directory"] = str(tmp_path / "out")
        with pytest.raises(ConfigError, match=re.escape(
                "bath: not referenced by scan kind %r" % kind)):
            cli.parse_config(doc)
        assert cli.main([kind, "--config", write_cfg(tmp_path, doc)]) == 2
        assert not (tmp_path / "out").exists()

    def test_decreasing_grid(self):
        with pytest.raises(ConfigError, match="strictly increasing"):
            cli.parse_config(base_doc(
                kind="dispersion", k_grid=[0.0, 1.0],
                omega_grid=[1000.0, 999.0]))

    def test_grid_list_and_linspace_agree(self):
        doc_a = base_doc(kind="dispersion", k_grid=[0.0, 0.5, 1.0],
                         omega_grid=[999.0, 1000.0, 1001.0])
        cfg = cli.parse_config(doc_a)
        assert np.allclose(cfg.k_grid, [0.0, 0.5, 1.0])
        assert cfg.omega_grid.size == 3

    def test_delta_list_only_for_families(self):
        for kind, (_, _, family, _) in SCAN_RULES.items():
            doc = kind_doc(kind)
            doc["system"]["delta"] = [1.0, 2.0]
            if family:
                assert len(cli.parse_config(doc).systems) == 2
            else:
                with pytest.raises(ConfigError, match="system.delta"):
                    cli.parse_config(doc)

    def test_formats_must_include_csv(self):
        doc = base_doc(**dispersion_scan())
        doc["output"]["formats"] = ["gnuplot"]
        with pytest.raises(ConfigError, match="formats"):
            cli.parse_config(doc)

    def test_unknown_format(self):
        doc = base_doc(**dispersion_scan())
        doc["output"]["formats"] = ["csv", "png"]
        with pytest.raises(ConfigError, match="formats"):
            cli.parse_config(doc)

    def test_invalid_system_parameters(self):
        doc = base_doc(**dispersion_scan())
        doc["system"]["gamma_c"] = -1.0
        with pytest.raises(ConfigError, match="system"):
            cli.parse_config(doc)

    def test_oracle_compare_requires_bath(self):
        with pytest.raises(ConfigError, match="bath"):
            cli.parse_config(base_doc(
                kind="oracle-compare", omega_grid=[999.0, 1000.0]))

    def test_tabulated_occupation(self):
        doc = base_doc(**dispersion_scan(
            input_occupation={"omega": [990.0, 1010.0], "n": [1.0, 2.0]}))
        cfg = cli.parse_config(doc)
        assert cfg.occupation(1000.0) == pytest.approx(1.5)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_occupation_is_config_error(self, bad):
        # json.load accepts NaN and Infinity
        with pytest.raises(ConfigError, match="input_occupation: must be finite"):
            cli.parse_config(base_doc(**dispersion_scan(input_occupation=bad)))

    def test_decode_error_carries_line_and_column(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "system": {,}\n}')
        with pytest.raises(ConfigError, match="line 2 column"):
            cli.load_config(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            cli.load_config(str(tmp_path / "nope.json"))


class TestDispersionRun:
    def test_outputs_and_branch_values(self, tmp_path):
        doc = base_doc(**dispersion_scan())
        doc["output"]["directory"] = str(tmp_path / "out")
        rc = cli.main(["dispersion", "--config", write_cfg(tmp_path, doc)])
        assert rc == 0
        header, rows = read_csv(tmp_path / "out" / "branches.csv")
        assert header == ["k", "re_omega_l", "im_omega_l",
                          "re_omega_u", "im_omega_u"]
        assert len(rows) == 11
        p = SystemParams(delta=3.0, gamma_x=1.8)
        k = float(rows[0][0])
        low, up = eigen_branches(p, k)
        assert float(rows[0][1]) == pytest.approx(low.omega.real, abs=1e-12)
        assert float(rows[0][3]) == pytest.approx(up.omega.real, abs=1e-12)
        _, prows = read_csv(tmp_path / "out" / "power_map.csv")
        assert len(prows) == 11 * 61
        plot = (tmp_path / "out" / "plot.gp").read_text()
        assert "power_map.csv" in plot and "branches.csv" in plot

    def test_threads_option_is_gone(self, tmp_path):
        doc = base_doc(**dispersion_scan())
        with pytest.raises(SystemExit) as exc:
            cli.main(["dispersion", "--config", write_cfg(tmp_path, doc),
                      "--threads", "2"])
        assert exc.value.code == 2

    def test_out_flag_overrides_directory(self, tmp_path):
        doc = base_doc(**dispersion_scan())
        rc = cli.main(["dispersion", "--config", write_cfg(tmp_path, doc),
                       "--out", str(tmp_path / "elsewhere")])
        assert rc == 0
        assert (tmp_path / "elsewhere" / "power_map.csv").exists()

    def test_kind_subcommand_mismatch_is_config_error(self, tmp_path):
        doc = base_doc(**dispersion_scan())
        rc = cli.main(["spectrum", "--config", write_cfg(tmp_path, doc)])
        assert rc == 2

    def test_unwritable_directory_is_config_error(self, tmp_path, capsys):
        # a regular file where a parent directory should be
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        config = os.path.join(ROOT, "configs", "ep_certificate.json")
        rc = cli.main(["ep-bic", "--config", config,
                       "--out", str(blocker / "sub")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: output.directory: cannot write")
        assert "Traceback" not in err


class TestSpectrumAndDynamicsRuns:
    def test_detuning_family_spectrum(self, tmp_path):
        doc = {
            "system": {"eps0": 1000.0, "g_rabi": 3.0, "gamma_c": 1.0,
                       "gamma_x": 0.3,
                       "delta": [2.300434741521698, 3.0672463220289305]},
            "scan": {"kind": "spectrum",
                     "omega_grid": {"start": 994.0, "stop": 1010.0,
                                    "num": 201}},
            "output": {"directory": str(tmp_path / "out")},
        }
        rc = cli.main(["spectrum", "--config", write_cfg(tmp_path, doc)])
        assert rc == 0
        header, rows = read_csv(tmp_path / "out" / "spectrum.csv")
        assert header == ["k", "delta", "omega", "intensity"]
        deltas = {row[1] for row in rows}
        assert len(deltas) == 2
        assert len(rows) == 2 * 201
        plot = (tmp_path / "out" / "plot.gp").read_text()
        assert plot.count("delta =") == 2

    def test_dynamics_initial_condition_and_family(self, tmp_path):
        doc = {
            "system": {"eps0": 1000.0, "g_rabi": 3.0, "gamma_c": 1.0,
                       "gamma_x": 0.3, "delta": [DELTA_BIC]},
            "scan": {"kind": "dynamics",
                     "t_grid": {"start": 0.0, "stop": 5.0, "num": 101}},
            "output": {"directory": str(tmp_path / "out"),
                       "formats": ["csv"]},
        }
        rc = cli.main(["dynamics", "--config", write_cfg(tmp_path, doc)])
        assert rc == 0
        header, rows = read_csv(tmp_path / "out" / "dynamics.csv")
        assert header[-2:] == ["abs2_c", "abs2_x"]
        assert float(rows[0][8]) == pytest.approx(1.0)  # x(0) = 1
        assert float(rows[0][7]) == pytest.approx(0.0)  # c(0) = 0
        # undamped-pole family: |x|^2 stays above the trapped fraction
        assert min(float(r[8]) for r in rows) > 0.3

    def test_byte_identical_across_runs(self, tmp_path):
        # the two scans that loop over (detuning, k) jobs, each run twice
        system = {"eps0": 1000.0, "g_rabi": 3.0, "gamma_c": 1.0,
                  "gamma_x": 0.3, "delta": [2.300434741521698, DELTA_BIC]}
        k_grid = [-0.4, 0.0, 0.3]
        scans = {"spectrum": {"kind": "spectrum", "k_grid": k_grid,
                              "omega_grid": {"start": 994.0, "stop": 1010.0,
                                             "num": 81}},
                 "dynamics": {"kind": "dynamics", "k_grid": k_grid,
                              "t_grid": {"start": 0.0, "stop": 5.0,
                                         "num": 51}}}
        for kind, scan in scans.items():
            outputs = []
            for run in ("a", "b"):
                out = tmp_path / (kind + run)
                doc = {"system": system, "scan": scan,
                       "output": {"directory": str(out)}}
                cfg = write_cfg(tmp_path, doc, kind + run + ".json")
                assert cli.main([kind, "--config", cfg]) == 0
                outputs.append({name: (out / name).read_bytes()
                                for name in sorted(os.listdir(out))})
            assert outputs[0] == outputs[1]
            assert len(outputs[0]) == 2  # the CSV and plot.gp

    def test_dynamics_at_coalescence_uses_ode(self, tmp_path):
        doc = {
            "system": {"eps0": 1000.0, "delta": 2.8284271247461903,
                       "g_rabi": 0.5, "gamma_c": 1.0, "gamma_x": 2.0},
            "scan": {"kind": "dynamics",
                     "t_grid": {"start": 0.0, "stop": 4.0, "num": 81}},
            "output": {"directory": str(tmp_path / "out"),
                       "formats": ["csv"]},
        }
        rc = cli.main(["dynamics", "--config", write_cfg(tmp_path, doc)])
        assert rc == 0
        _, rows = read_csv(tmp_path / "out" / "dynamics.csv")
        # amplitude decays despite the coalescence (t e^{-Gamma t} law)
        assert float(rows[-1][8]) < 0.1


class TestEpBicRun:
    def test_coalescence_located_with_residual(self, tmp_path):
        doc = {
            "system": {"eps0": 1000.0, "delta": 2.8284271247461903,
                       "g_rabi": 0.5, "gamma_c": 1.0, "gamma_x": 2.0},
            "scan": {"kind": "ep-bic"},
            "output": {"directory": str(tmp_path / "out"),
                       "formats": ["csv"]},
        }
        rc = cli.main(["ep-bic", "--config", write_cfg(tmp_path, doc)])
        assert rc == 0
        _, rows = read_csv(tmp_path / "out" / "ep_bic.csv")
        ep_plus = next(r for r in rows if r[0] == "ep" and r[1] == "1")
        assert ep_plus[5] != "" and float(ep_plus[5]) == 0.0
        assert float(ep_plus[6]) < 1e-10
        assert ep_plus[7] == "sign condition met"
        ep_minus = next(r for r in rows if r[0] == "ep" and r[1] == "-1")
        assert ep_minus[5] == "" and ep_minus[7] == "sign condition unmet"

    def test_undamped_pole_located(self, tmp_path):
        doc = {
            "system": {"eps0": 1000.0, "delta": DELTA_BIC, "g_rabi": 3.0,
                       "gamma_c": 1.0, "gamma_x": 0.3},
            "scan": {"kind": "ep-bic"},
            "output": {"directory": str(tmp_path / "out"),
                       "formats": ["csv"]},
        }
        rc = cli.main(["ep-bic", "--config", write_cfg(tmp_path, doc)])
        assert rc == 0
        _, rows = read_csv(tmp_path / "out" / "ep_bic.csv")
        bic = next(r for r in rows if r[0] == "bic")
        assert float(bic[4]) == pytest.approx(DELTA_BIC)
        assert float(bic[5]) == 0.0
        assert float(bic[6]) < 1e-12
        assert bic[7] == "exact cancellation"


class TestAbsorptionRun:
    def test_map_in_unit_interval(self, tmp_path):
        doc = base_doc(**dispersion_scan())
        doc["scan"]["kind"] = "absorption"
        doc["scan"].pop("input_occupation", None)
        doc["system"]["gamma_nr_c"] = 0.15
        doc["system"]["gamma_nr_x"] = 0.15
        doc["output"]["directory"] = str(tmp_path / "out")
        rc = cli.main(["absorption", "--config", write_cfg(tmp_path, doc)])
        assert rc == 0
        _, rows = read_csv(tmp_path / "out" / "absorption_map.csv")
        vals = np.array([float(r[2]) for r in rows])
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
        assert (tmp_path / "out" / "branches.csv").exists()
        assert (tmp_path / "out" / "plot.gp").exists()

    def test_on_pole_point_is_numerical_failure(self, tmp_path):
        # purely radiative losses: absorption is 0 * inf on the dark pole
        p = SystemParams(delta=DELTA_BIC, g_rabi=3.0, gamma_x=0.3)
        pole = eigen_branches(p, 0.0)[0].omega.real
        doc = {
            "system": {"eps0": 1000.0, "delta": DELTA_BIC, "g_rabi": 3.0,
                       "gamma_c": 1.0, "gamma_x": 0.3},
            "scan": {"kind": "absorption", "k_grid": [-0.5, 0.0, 0.5],
                     "omega_grid": [pole - 1.0, pole, pole + 1.0]},
            "output": {"directory": str(tmp_path / "out"),
                       "formats": ["csv"]},
        }
        rc = cli.main(["absorption", "--config", write_cfg(tmp_path, doc)])
        assert rc == 3
        assert not (tmp_path / "out" / "absorption_map.csv").exists()


class TestOracleCompareRun:
    def oracle_doc(self, tmp_path, **scan_extra):
        return {
            "system": {"eps0": 1000.0, "delta": 3.0,
                       "gamma_c": 1.0, "gamma_x": 1.8},
            "bath": {"kappa_c": 0.5641895835477563,
                     "kappa_x": 0.7569397566060481,
                     "omega_window": [800.0, 1200.0], "n_modes": 2000},
            "scan": {"kind": "oracle-compare",
                     "omega_grid": {"start": 995.0, "stop": 1011.0,
                                    "num": 321},
                     "t_grid": {"start": 0.0, "stop": 8.0, "num": 201},
                     **scan_extra},
            "output": {"directory": str(tmp_path / "out"),
                       "formats": ["csv"]},
        }

    def test_metrics_within_bounds(self, tmp_path):
        doc = self.oracle_doc(tmp_path)
        rc = cli.main(["oracle-compare", "--config",
                       write_cfg(tmp_path, doc)])
        assert rc == 0
        header, rows = read_csv(tmp_path / "out" / "summary.csv")
        assert header == ["metric", "value", "bound", "passed"]
        metrics = {r[0]: r for r in rows}
        assert set(metrics) == {"damping_rel_err", "peak_center_offset",
                                "dynamics_sup_err"}
        assert all(r[3] == "yes" for r in rows)
        assert (tmp_path / "out" / "oracle_damping.csv").exists()
        assert (tmp_path / "out" / "oracle_spectrum.csv").exists()
        assert (tmp_path / "out" / "oracle_dynamics.csv").exists()

    def test_unreachable_bound_exits_3_but_writes_summary(self, tmp_path):
        doc = self.oracle_doc(tmp_path, max_deviation=1e-9)
        doc["scan"].pop("omega_grid")  # keep the failing run cheap
        doc["scan"]["t_grid"] = {"start": 0.0, "stop": 2.0, "num": 21}
        rc = cli.main(["oracle-compare", "--config",
                       write_cfg(tmp_path, doc)])
        assert rc == 3
        _, rows = read_csv(tmp_path / "out" / "summary.csv")
        assert any(r[3] == "no" for r in rows)

    @pytest.mark.parametrize("k_grid", [[0.0, 0.5, 1.0],
                                        {"start": 0.0, "stop": 1.0, "num": 2}])
    def test_k_grid_of_several_points_rejected(self, tmp_path, k_grid):
        # the oracle is built at one momentum; further points would go unused
        doc = self.oracle_doc(tmp_path, k_grid=k_grid)
        with pytest.raises(ConfigError, match="scan.k_grid"):
            cli.parse_config(doc)
        assert cli.main(["oracle-compare", "--config",
                         write_cfg(tmp_path, doc)]) == 2
        assert not (tmp_path / "out").exists()

    def test_single_k_accepted(self, tmp_path):
        doc = self.oracle_doc(tmp_path, k_grid=[0.2])
        assert cli.parse_config(doc).k_grid.tolist() == [0.2]

    @pytest.mark.parametrize("num", [1, 3, 5])
    def test_omega_grid_too_short_for_fit_rejected(self, tmp_path, num):
        # the two-Lorentzian fit has six parameters
        doc = self.oracle_doc(tmp_path)
        doc["scan"]["omega_grid"] = {"start": 1000.0, "stop": 1002.0, "num": num}
        with pytest.raises(ConfigError, match="scan.omega_grid"):
            cli.parse_config(doc)
        assert cli.main(["oracle-compare", "--config",
                         write_cfg(tmp_path, doc)]) == 2
        assert not (tmp_path / "out").exists()

    def test_failed_fit_exits_3_and_writes_nothing(self, tmp_path, capsys):
        # far above both lines the spectra hold no peaks to fit, and the
        # fit stops at its evaluation limit
        doc = self.oracle_doc(tmp_path)
        doc["scan"].pop("t_grid")
        doc["scan"]["omega_grid"] = {"start": 1100, "stop": 1150, "num": 50}
        rc = cli.main(["oracle-compare", "--config",
                       write_cfg(tmp_path, doc)])
        assert rc == 3
        assert "fit failed" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_raised_error_writes_nothing(self, tmp_path):
        # the recurrence guard of this bath sits at t = 15.7
        doc = self.oracle_doc(tmp_path)
        doc["scan"].pop("omega_grid")
        doc["scan"]["t_grid"] = {"start": 0.0, "stop": 20.0, "num": 21}
        rc = cli.main(["oracle-compare", "--config",
                       write_cfg(tmp_path, doc)])
        assert rc == 3
        assert not (tmp_path / "out").exists()


class TestExitCodes:
    def test_on_pole_evaluation_is_numerical_failure(self, tmp_path):
        p = SystemParams(delta=DELTA_BIC, g_rabi=3.0, gamma_x=0.3)
        pole = eigen_branches(p, 0.0)[0].omega.real
        doc = {
            "system": {"eps0": 1000.0, "delta": DELTA_BIC, "g_rabi": 3.0,
                       "gamma_c": 1.0, "gamma_x": 0.3},
            "scan": {"kind": "dispersion", "k_grid": [0.0],
                     "omega_grid": [pole]},
            "output": {"directory": str(tmp_path / "out"),
                       "formats": ["csv"]},
        }
        rc = cli.main(["dispersion", "--config", write_cfg(tmp_path, doc)])
        assert rc == 3

    def test_on_pole_point_inside_a_grid_is_numerical_failure(self, tmp_path):
        p = SystemParams(delta=DELTA_BIC, g_rabi=3.0, gamma_x=0.3)
        pole = eigen_branches(p, 0.0)[0].omega.real
        k_grid = sorted(set(np.linspace(-1.0, 1.0, 40).tolist()) | {0.0})
        doc = {
            "system": {"eps0": 1000.0, "delta": DELTA_BIC, "g_rabi": 3.0,
                       "gamma_c": 1.0, "gamma_x": 0.3},
            "scan": {"kind": "dispersion", "k_grid": k_grid,
                     "omega_grid": [pole - 1.0, pole, pole + 1.0]},
            "output": {"directory": str(tmp_path / "out"),
                       "formats": ["csv"]},
        }
        rc = cli.main(["dispersion", "--config", write_cfg(tmp_path, doc)])
        assert rc == 3
        assert not (tmp_path / "out" / "power_map.csv").exists()

    def test_acceptance_subcommand_maps_results(self, monkeypatch):
        calls = {}

        def fake_run_all(seed=None):
            calls["seed"] = seed
            return [CheckResult("x", True, "", 0.0, 1.0)]

        monkeypatch.setattr(cli.acceptance, "run_all", fake_run_all)
        assert cli.main(["acceptance", "--seed", "7"]) == 0
        assert calls["seed"] == 7

        monkeypatch.setattr(
            cli.acceptance, "run_all",
            lambda seed=None: [CheckResult("x", False, "", 0.0, 1.0)])
        assert cli.main(["acceptance"]) == 3


class TestGates:
    def test_nan_fails_a_gate(self):
        cli._gate("residual", 1.0, 1.0)
        with pytest.raises(cli.NumericalCheckError, match="residual = nan"):
            cli._gate("residual", float("nan"), 1.0)

    def test_nan_identity_residual_exits_3(self, tmp_path):
        # rates of 1e160 overflow every intensity to NaN.  A subprocess
        # keeps the overflow RuntimeWarnings out of this suite's filter.
        doc = {
            "system": {"eps0": 1000.0, "delta": 3.0,
                       "gamma_c": 1e160, "gamma_x": 1e160},
            "scan": {"kind": "spectrum",
                     "omega_grid": {"start": 990.0, "stop": 1010.0,
                                    "num": 5}},
            "output": {"directory": str(tmp_path / "out"),
                       "formats": ["csv"]},
        }
        proc = subprocess.run(
            [sys.executable, "-m", "ioxsim", "spectrum",
             "--config", write_cfg(tmp_path, doc)],
            capture_output=True, text=True, env=src_env())
        assert proc.returncode == 3, proc.stderr
        assert "emission/absorption identity residual = nan" in proc.stderr
        assert not (tmp_path / "out").exists()


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        exe = shutil.which("ioxsim")
        assert exe is not None
        doc = {
            "system": {"eps0": 1000.0, "delta": DELTA_BIC, "g_rabi": 3.0,
                       "gamma_c": 1.0, "gamma_x": 0.3},
            "scan": {"kind": "ep-bic"},
            "output": {"directory": str(tmp_path / "out"),
                       "formats": ["csv"]},
        }
        proc = subprocess.run(
            [exe, "ep-bic", "--config", write_cfg(tmp_path, doc)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "ep_bic.csv" in proc.stdout


class TestModuleEntryPoint:
    def test_python_dash_m_runs_cli(self, tmp_path):
        doc = {
            "system": {"eps0": 1000.0, "delta": DELTA_BIC, "g_rabi": 3.0,
                       "gamma_c": 1.0, "gamma_x": 0.3},
            "scan": {"kind": "ep-bic"},
            "output": {"directory": str(tmp_path / "out"),
                       "formats": ["csv"]},
        }
        proc = subprocess.run(
            [sys.executable, "-m", "ioxsim", "ep-bic",
             "--config", write_cfg(tmp_path, doc)],
            capture_output=True, text=True, env=src_env())
        assert proc.returncode == 0, proc.stderr
        assert "ep_bic.csv" in proc.stdout


class TestImportCost:
    def test_import_does_not_load_optimizers(self):
        # scipy.optimize is loaded only by the fit that needs it
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, ioxsim, ioxsim.cli; "
             "print('scipy.optimize' in sys.modules)"],
            capture_output=True, text=True, env=src_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_import_loads_no_scipy(self):
        # the propagator is numpy-only; scipy waits for lorentzian_pair_fit
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, ioxsim, ioxsim.cli; "
             "print(sorted(m for m in sys.modules if m.startswith('scipy')))"],
            capture_output=True, text=True, env=src_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestBundledConfigs:
    def test_all_bundled_configs_parse(self):
        paths = sorted(glob.glob("configs/*.json"))
        assert len(paths) >= 7
        for path in paths:
            cfg = cli.load_config(path)
            assert cfg.kind in cli.SCANS

    def test_closed_form_csvs_match_reference(self, tmp_path):
        # every bundled config but the bath oracle, against the CSV hashes
        # recorded in perfbench/maps_sha256.json
        with open(os.path.join(ROOT, "perfbench", "maps_sha256.json")) as fh:
            reference = json.load(fh)
        configs = {}
        for path in sorted(glob.glob(os.path.join(ROOT, "configs", "*.json"))):
            kind = cli.load_config(path).kind
            if kind != "oracle-compare":
                configs[os.path.basename(path)[:-5]] = (kind, path)
        assert len(configs) == 7
        assert sorted(configs) == sorted({key.split("/")[0]
                                          for key in reference})
        got = {}
        for name, (kind, path) in configs.items():
            out = tmp_path / name
            assert cli.main([kind, "--config", path, "--out", str(out)]) == 0
            for fname in os.listdir(out):
                if fname.endswith(".csv"):
                    got[name + "/" + fname] = hashlib.sha256(
                        (out / fname).read_bytes()).hexdigest()
        assert got == reference
