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
from ioxsim.bath import kernel_freq
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
BATH = {"omega_window": [800.0, 1200.0], "n_modes": 2000}


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

    @pytest.mark.parametrize("kind", list(SCAN_RULES))
    def test_k_grid_defaults_to_zero(self, kind):
        # a kind that takes k_grid and is given none runs at k = 0
        needs, takes, _, _ = SCAN_RULES[kind]
        cfg = cli.parse_config(kind_doc(kind))
        if "k_grid" in needs + takes:
            assert cfg.k_grid.tolist() == [0.0]
        else:
            assert cfg.k_grid is None

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

    @pytest.mark.parametrize("key, value, path", [
        pytest.param("k_grid", [0.5, 0.0], "scan.k_grid", id="decreasing-k"),
        pytest.param("omega_grid", [], "scan.omega_grid", id="empty-omega"),
        pytest.param("input_occupation", -0.5, "scan.input_occupation",
                     id="negative-occupation"),
        pytest.param("input_occupation",
                     {"omega": [990.0, 1000.0, 1010.0], "n": [1.0, 2.0]},
                     "scan.input_occupation", id="short-n"),
        pytest.param("input_occupation",
                     {"omega": [990.0, 1010.0, 1000.0], "n": [1.0, 2.0, 3.0]},
                     "scan.input_occupation.omega", id="unsorted-omega"),
        pytest.param("input_occupation",
                     {"omega": [990.0, 1010.0], "n": [1.0, -2.0]},
                     "scan.input_occupation", id="negative-n"),
    ])
    def test_library_rules_name_the_json_path(self, tmp_path, key, value,
                                              path):
        # grids and occupations are checked by core._axis and
        # InputOccupation, whose ValueError becomes a config error there
        doc = base_doc(**dispersion_scan())
        doc["scan"][key] = value
        doc["output"]["directory"] = str(tmp_path / "out")
        with pytest.raises(ConfigError, match="^%s: " % re.escape(path)):
            cli.parse_config(doc)
        assert cli.main(["dispersion", "--config",
                         write_cfg(tmp_path, doc)]) == 2
        assert not (tmp_path / "out").exists()

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


# a detuning family on a few momenta, for the scans that loop over
# (detuning, k) jobs
FAMILY_SYSTEM = {"eps0": 1000.0, "g_rabi": 3.0, "gamma_c": 1.0,
                 "gamma_x": 0.3, "delta": [2.300434741521698, DELTA_BIC]}
FAMILY_SCANS = {
    "spectrum": {"kind": "spectrum", "k_grid": [-0.4, 0.0, 0.3],
                 "omega_grid": {"start": 994.0, "stop": 1010.0, "num": 81}},
    "dynamics": {"kind": "dynamics", "k_grid": [-0.4, 0.0, 0.3],
                 "t_grid": {"start": 0.0, "stop": 5.0, "num": 51}}}


def per_value_csv(header, rows):
    """The bytes of a CSV written one cli._fmt call per cell."""
    lines = [",".join(header)] + [",".join(cli._fmt(v) for v in row)
                                  for row in rows]
    return ("\n".join(lines) + "\n").encode()


def broadcast_csv(header, *columns):
    """The bytes of a CSV of the np.broadcast_arrays table of columns, one
    cli._fmt call per cell, rows in C order."""
    table = [column.ravel() for column in np.broadcast_arrays(*columns)]
    return per_value_csv(header, zip(*table))


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
        for kind, scan in FAMILY_SCANS.items():
            outputs = []
            for run in ("a", "b"):
                out = tmp_path / (kind + run)
                doc = {"system": FAMILY_SYSTEM, "scan": scan,
                       "output": {"directory": str(out)}}
                cfg = write_cfg(tmp_path, doc, kind + run + ".json")
                assert cli.main([kind, "--config", cfg]) == 0
                outputs.append({name: (out / name).read_bytes()
                                for name in sorted(os.listdir(out))})
            assert outputs[0] == outputs[1]
            assert len(outputs[0]) == 2  # the CSV and plot.gp

    def test_family_csvs_match_the_per_value_path(self, tmp_path):
        # each cell as cli._fmt formats one scalar of the library's output,
        # |c|^2 as abs(c) ** 2 on one complex scalar: array abs and
        # squaring round differently on some cells
        for kind, scan in FAMILY_SCANS.items():
            out = tmp_path / kind
            doc = {"system": FAMILY_SYSTEM, "scan": scan,
                   "output": {"directory": str(out)}}
            cfg = cli.parse_config(doc)
            assert cli.main([kind, "--config", write_cfg(tmp_path, doc)]) == 0
            if kind == "spectrum":
                name, header = "spectrum.csv", ("k", "delta", "omega",
                                                "intensity")
                rows = [(k, p.delta, w, v) for p in cfg.systems
                        for k, col in zip(cfg.k_grid, cli.power_spectrum(
                            p, cfg.k_grid, cfg.omega_grid, cfg.occupation))
                        for w, v in zip(cfg.omega_grid, col)]
            else:
                name, header = "dynamics.csv", (
                    "k", "delta", "t", "re_c", "im_c", "re_x", "im_x",
                    "abs2_c", "abs2_x")
                rows = [(k, p.delta, t, c.real, c.imag, x.real, x.imag,
                         abs(c) ** 2, abs(x) ** 2)
                        for p in cfg.systems for k in cfg.k_grid
                        for t, c, x in zip(cfg.t_grid,
                                           *cli._trajectory_with_check(
                                               p, k, cfg.t_grid))]
            assert (out / name).read_bytes() == per_value_csv(header, rows)

    @pytest.mark.parametrize("kind", sorted(FAMILY_SCANS))
    def test_family_csv_is_the_broadcast_table(self, tmp_path, kind):
        # several detunings and several k, which no bundled config runs:
        # the CSV against the table np.broadcast_arrays makes of the
        # unbroadcast (k, delta, omega or t, values...) columns
        cfg = cli.parse_config({"system": FAMILY_SYSTEM,
                                "scan": FAMILY_SCANS[kind],
                                "output": {"directory": str(tmp_path)}})
        assert len(cfg.systems) == 2 and cfg.k_grid.size == 3
        k = cfg.k_grid[:, None]
        deltas = np.array([p.delta for p in cfg.systems])[:, None, None]
        if kind == "spectrum":
            path, _ = cli.run_spectrum(cfg)
            header = ("k", "delta", "omega", "intensity")
            columns = (k, deltas, cfg.omega_grid, np.array([
                cli.power_spectrum(p, cfg.k_grid, cfg.omega_grid,
                                   cfg.occupation) for p in cfg.systems]))
        else:
            path, _ = cli.run_dynamics(cfg)
            header = ("k", "delta", "t", "re_c", "im_c", "re_x", "im_x",
                      "abs2_c", "abs2_x")
            c, x = np.moveaxis(np.array([
                [cli._trajectory_with_check(p, q, cfg.t_grid)
                 for q in cfg.k_grid] for p in cfg.systems]), 2, 0)
            columns = (k, deltas, cfg.t_grid, c.real, c.imag, x.real,
                       x.imag, cli._abs2(c), cli._abs2(x))
        with open(path, "rb") as fh:
            written = fh.read()
        assert written == broadcast_csv(header, *columns)
        assert written.count(b"\n") == 1 + 2 * 3 * columns[2].size

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

    @pytest.mark.parametrize("kind, rows, value, message", [
        pytest.param("absorption", "_total_absorption_rows", 1.5,
                     "absorption values must lie in [0, 1]", id="above-1"),
        pytest.param("absorption", "_total_absorption_rows", np.nan,
                     "intensity must be finite", id="nan"),
    ] + [pytest.param(kind, "_power_rows", value, message,
                      id="%s-%s" % (kind, value_id))
         for kind in ("dispersion", "spectrum")
         for value, value_id, message in (
             (-1.0, "negative", "power spectrum must be non-negative"),
             (np.nan, "nan", "intensity must be finite"))])
    def test_bad_value_is_numerical_failure(self, tmp_path, monkeypatch,
                                            capsys, kind, rows, value,
                                            message):
        # the spectra output rule rejects a value outside the range of its
        # kind and an unflagged NaN, before anything is written
        def bad_rows(p, m, om, flag, *occupation):
            shape = (m.levels.shape[1], om.size)
            return np.full(shape, value), np.zeros(shape, bool)

        monkeypatch.setattr(ioxsim.spectra, rows, bad_rows)
        doc = base_doc(**dispersion_scan())
        doc["scan"]["kind"] = kind
        doc["output"]["directory"] = str(tmp_path / "out")
        rc = cli.main([kind, "--config", write_cfg(tmp_path, doc)])
        assert rc == 3
        assert ("numerical check failed: %s" % message
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()


class TestOracleCompareRun:
    def oracle_doc(self, tmp_path, **scan_extra):
        return {
            "system": {"eps0": 1000.0, "delta": 3.0,
                       "gamma_c": 1.0, "gamma_x": 1.8},
            "bath": {"omega_window": [800.0, 1200.0], "n_modes": 2000},
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

    def test_bath_discretized_at_the_scan_momentum(self, tmp_path):
        # c|k| = 300 puts rho_k 4.8% above rho_0 at the carrier: a bath
        # discretized at k = 0 misses the k = 3 kernel by about that much
        doc = self.oracle_doc(tmp_path, k_grid=[3.0])
        doc["bath"] = {"omega_window": [500.0, 1500.0], "c_light": 100.0}
        doc["scan"].pop("omega_grid")
        doc["scan"]["t_grid"] = {"start": 0.0, "stop": 2.0, "num": 21}
        path = write_cfg(tmp_path, doc)
        assert cli.main(["oracle-compare", "--config", path]) == 0
        _, rows = read_csv(tmp_path / "out" / "oracle_damping.csv")
        table = np.array(rows, dtype=float)
        cfg = cli.load_config(path)
        ref = kernel_freq(cfg.bath, cfg.systems[0], 3.0, table[:, 0]).real
        ref = np.column_stack((ref[:, 0, 0], ref[:, 1, 1], ref[:, 0, 1]))
        assert np.max(np.abs(table[:, 1:] - ref) / ref) <= 1e-2

    def test_damping_target_at_the_scan_momentum(self, tmp_path):
        # c|k|/eps0 = 0.4: the golden rule at k is 9% above its k = 0 value
        # at the carrier; scored against the k = 0 rates, damping_rel_err
        # read 5.84e-2.  The closed-form lines keep their k = 0 rates, so
        # the peak centers may still miss their bound, which fails the run
        # after summary.csv is written
        doc = self.oracle_doc(tmp_path, k_grid=[1.0])
        doc["bath"] = {"omega_window": [500.0, 1500.0], "c_light": 400.0}
        doc["scan"].pop("t_grid")
        rc = cli.main(["oracle-compare", "--config", write_cfg(tmp_path, doc)])
        _, rows = read_csv(tmp_path / "out" / "summary.csv")
        summary = {row[0]: float(row[1]) for row in rows}
        assert summary["damping_rel_err"] <= 1e-2
        assert rc == (3 if any(row[3] == "no" for row in rows) else 0)

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

    @pytest.mark.parametrize("block, key, value, message", [
        pytest.param("bath", "n_modes", 100, "bath.n_modes", id="few-modes"),
        pytest.param("bath", "kappa_c", 0.5641895835477563,
                     "bath: unknown key(s): kappa_c", id="coupling-key"),
        pytest.param("bath", "omega_window", [990.0, 1010.0],
                     "bath: bath window too narrow", id="narrow-window"),
        pytest.param("system", "gamma_nr_c", 0.5, "bath: gamma_nr_c = 0.5",
                     id="cavity-loss"),
        pytest.param("system", "gamma_nr_x", 0.5, "bath: gamma_nr_x = 0.5",
                     id="emitter-loss"),
    ])
    def test_unusable_bath_is_a_config_error(self, tmp_path, capsys, block,
                                             key, value, message):
        # the oracle's minimum mode count, its window and the rates its
        # couplings come from are all config: what it refuses is a config
        # error, not a numerical failure
        with open(os.path.join(ROOT, "configs",
                               "oracle_compare_attraction.json")) as fh:
            doc = json.load(fh)
        doc[block][key] = value
        doc["output"]["directory"] = str(tmp_path / "out")
        rc = cli.main(["oracle-compare", "--config",
                       write_cfg(tmp_path, doc)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_failed_fit_exits_3_and_writes_nothing(self, tmp_path, capsys):
        # far above both lines the spectra hold no peaks to fit; here the
        # oracle's spectrum runs into the fit's step limit
        doc = self.oracle_doc(tmp_path)
        doc["scan"].pop("t_grid")
        doc["scan"]["omega_grid"] = {"start": 1100, "stop": 1150, "num": 50}
        rc = cli.main(["oracle-compare", "--config",
                       write_cfg(tmp_path, doc)])
        assert rc == 3
        assert "fit failed" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_byte_identical_across_blas_thread_counts(self, tmp_path):
        # threaded BLAS splits a long sum by thread count, which moves its
        # last bits; the oracle's sums must not depend on it.  One fresh
        # interpreter per setting, both at once: the bundled oracle-compare
        # CSVs, then an N = 32000 oracle, whose ddot lengths are past
        # OpenBLAS's threading threshold
        script = (
            "import sys\n"
            "import numpy as np\n"
            "from ioxsim import SystemParams, cli\n"
            "from ioxsim.bath import BathOracle, BathSpec\n"
            "cfg, out = sys.argv[1:]\n"
            "assert cli.main(['oracle-compare', '--config', cfg,"
            " '--out', out]) == 0\n"
            "p = SystemParams(delta=3.0, gamma_c=1.0, gamma_x=1.8)\n"
            "orc = BathOracle(BathSpec((500.0, 1500.0)), 32000, p)\n"
            "energies, system_rows, _ = orc._eigenpairs()\n"
            "np.save(out + '/energies.npy', energies)\n"
            "np.save(out + '/system_rows.npy', system_rows)\n"
            "np.save(out + '/damping.npy',"
            " orc.effective_damping(np.linspace(990.0, 1010.0, 5)))\n")
        cfg = os.path.join(ROOT, "configs", "oracle_compare_attraction.json")
        procs = {}
        for threads in ("1", "2"):
            env = src_env()
            env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = threads
            procs[threads] = subprocess.Popen(
                [sys.executable, "-c", script, cfg, str(tmp_path / threads)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                env=env)
        outputs = []
        try:
            for threads, proc in procs.items():
                _, err = proc.communicate(timeout=600)
                assert proc.returncode == 0, err
                out = tmp_path / threads
                outputs.append({name: (out / name).read_bytes()
                                for name in sorted(os.listdir(out))})
        finally:
            for proc in procs.values():
                proc.kill()
        assert sorted(outputs[0]) == [
            "damping.npy", "energies.npy", "oracle_damping.csv",
            "oracle_dynamics.csv", "oracle_spectrum.csv", "summary.csv",
            "system_rows.npy"]
        assert outputs[0] == outputs[1]

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

        monkeypatch.setattr(ioxsim.acceptance, "run_all", fake_run_all)
        assert cli.main(["acceptance", "--seed", "7"]) == 0
        assert calls["seed"] == 7

        monkeypatch.setattr(
            ioxsim.acceptance, "run_all",
            lambda seed=None: [CheckResult("x", False, "", 0.0, 1.0)])
        assert cli.main(["acceptance"]) == 3

    def test_parser_built_once_and_reused(self, monkeypatch):
        seeds = []

        def fake_run_all(seed=None):
            seeds.append(seed)
            return [CheckResult("x", True, "", 0.0, 1.0)]

        monkeypatch.setattr(ioxsim.acceptance, "run_all", fake_run_all)
        for argv in (["acceptance", "--seed", "7"], ["acceptance"],
                     ["acceptance", "--seed", "8"]):
            assert cli.main(argv) == 0
        # one build per process; each parse starts from the defaults
        assert cli._build_parser.cache_info().misses == 1
        # the default seed is the parser's, not resolved later
        assert seeds == [7, 1234, 8]


def emit_grid(tmp_path, header, *columns):
    """The bytes cli._emit writes for one grid table of columns."""
    cfg = cli.parse_config(dict(kind_doc("ep-bic"),
                                output={"directory": str(tmp_path)}))
    [path] = cli._emit(cfg, [("grid.csv", header, cli._Grid(columns))])
    with open(path, "rb") as fh:
        return fh.read()


class TestEmit:
    def test_array_table_matches_row_tuples(self, tmp_path):
        # a grid of 1-d columns, more rows than one chunk, with the
        # extreme and inexact values
        n = cli._CHUNK_VALUES + 7
        table = np.linspace(-1.0, 1.0, 4 * n).reshape(n, 4)
        table[0] = (-0.0, 5e-324, 1e308, 1.0 / 3.0)
        table[-1] = (1.0 / 3.0, -1e308, -5e-324, -0.0)
        cfg = cli.parse_config(dict(kind_doc("ep-bic"),
                                    output={"directory": str(tmp_path)}))
        header = ("a", "b", "c", "d")
        array_csv, tuple_csv = cli._emit(cfg, [
            ("array.csv", header, cli._Grid(table.T)),
            ("tuples.csv", header, [tuple(row) for row in table])])
        with open(array_csv, "rb") as fh:
            written = fh.read()
        with open(tuple_csv, "rb") as fh:
            assert written == fh.read()
        assert written.split(b"\n")[1] == (
            b"-0,4.9406564584124654e-324,1e+308,0.33333333333333331")
        assert written.count(b"\n") == n + 1

    @pytest.mark.parametrize("shape", [
        (5, 7), (5, cli._CHUNK_VALUES + 3), (1, 9), (6, 1),
        (2, 3, 11), (3, 2, 2 * cli._CHUNK_VALUES + 1), (1, 4, 5), (2, 1, 6),
        (3, 4, 1)], ids=str)
    def test_grid_matches_the_broadcast_table(self, tmp_path, shape):
        # one axis column per dimension, unbroadcast as the CLI passes k,
        # delta and omega or t; then value columns over the whole grid,
        # over its trailing axes and over its leading axes alone
        rng = np.random.default_rng(sum(shape))
        axes = [np.linspace(-0.4, 3.8, n).reshape((n,) + (1,) * (
            len(shape) - 1 - i)) / 3.0 for i, n in enumerate(shape)]
        values = [rng.standard_normal(shape) * 1e3,
                  rng.standard_normal(shape[1:]),
                  rng.standard_normal(shape[:-1] + (1,))]
        values[0].flat[:4] = (-0.0, 5e-324, 1e308, -1e308)
        header = tuple("c%d" % i for i in range(len(axes) + len(values)))
        assert (emit_grid(tmp_path, header, *axes, *values)
                == broadcast_csv(header, *axes, *values))

    def test_column_order_and_scalars(self, tmp_path):
        # an axis after the values, a value column between two axes and a
        # scalar column: each cell in its own column's place
        k = np.array([[0.5], [-0.0], [1e-300]])
        omega = np.arange(cli._CHUNK_VALUES + 2) / 7.0
        values = np.arange(k.size * omega.size).reshape(3, -1) / 3.0
        columns = (values, k, 1.0 / 3.0, -values, omega)
        header = ("v", "k", "s", "w", "omega")
        assert (emit_grid(tmp_path, header, *columns)
                == broadcast_csv(header, *columns))


class TestGates:
    def test_nan_fails_a_gate(self):
        cli._gate("residual", 1.0, 1.0)
        with pytest.raises(cli.NumericalCheckError, match="residual = nan"):
            cli._gate("residual", float("nan"), 1.0)

    def test_nan_identity_residual_exits_3(self, tmp_path, monkeypatch,
                                           capsys):
        # rates of 1e160 overflow every intensity to NaN, which the map's
        # own rule refuses before the identity gate.  A subprocess keeps
        # the overflow RuntimeWarnings out of this suite's filter.
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
        assert "intensity must be finite" in proc.stderr
        assert not (tmp_path / "out").exists()

        # a NaN identity residual behind a finite map fails its gate
        doc["system"].update(gamma_c=1.0, gamma_x=0.3)
        monkeypatch.setattr(cli, "power_absorption_relation_check",
                            lambda *args: float("nan"))
        assert cli.main(["spectrum", "--config",
                         write_cfg(tmp_path, doc)]) == 3
        assert ("emission/absorption identity residual = nan"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_nonfinite_spectrum_map_exits_3(self, tmp_path):
        # omega = 1e160 overflows the power row to NaN off any pole: the
        # spectrum map obeys the same grid rule as dispersion and
        # absorption, so nothing is written.  A subprocess keeps the
        # RuntimeWarnings out of this suite's filter.
        doc = {
            "system": {"eps0": 1000, "delta": 3, "g_rabi": 1, "gamma_c": 1,
                       "gamma_x": 0.3},
            "scan": {"kind": "spectrum", "omega_grid": [990, 1000, 1e160]},
            "output": {"directory": str(tmp_path / "out"),
                       "formats": ["csv"]},
        }
        proc = subprocess.run(
            [sys.executable, "-m", "ioxsim", "spectrum",
             "--config", write_cfg(tmp_path, doc)],
            capture_output=True, text=True, env=src_env())
        assert proc.returncode == 3, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "intensity must be finite" in proc.stderr
        assert proc.stdout == ""
        assert not (tmp_path / "out").exists()

    def test_overflowing_determinant_residual_exits_3(self, tmp_path):
        # g_rabi = 1e200 overflows the Python complex power in the branch
        # determinant residual: a failed gate, no traceback, no files.  A
        # subprocess keeps the RuntimeWarnings out of this suite's filter.
        doc = {
            "system": {"eps0": 1000.0, "delta": 3.0, "g_rabi": 1e200,
                       "gamma_c": 1.0, "gamma_x": 0.3},
            "scan": {"kind": "dispersion", "k_grid": [0.0, 1.0],
                     "omega_grid": {"start": 990.0, "stop": 1010.0,
                                    "num": 11}},
            "output": {"directory": str(tmp_path / "out"),
                       "formats": ["csv"]},
        }
        proc = subprocess.run(
            [sys.executable, "-m", "ioxsim", "dispersion",
             "--config", write_cfg(tmp_path, doc)],
            capture_output=True, text=True, env=src_env())
        assert proc.returncode == 3, proc.stderr
        assert "Traceback" not in proc.stderr
        assert ("branch determinant residual at k = 0 = inf"
                in proc.stderr)
        assert not (tmp_path / "out").exists()

    def test_overflowing_oracle_compare_exits_3(self, tmp_path):
        # g_rabi = 1e155 overflows the analytic spectrum and the branch
        # guesses of the peak fits: a refused value, no traceback, no
        # files.  A subprocess keeps the RuntimeWarnings out of this
        # suite's filter.
        doc = {
            "system": {"eps0": 1000, "delta": 3, "g_rabi": 1e155,
                       "gamma_c": 1, "gamma_x": 1.8},
            "bath": {"omega_window": [500, 1500], "n_modes": 2000},
            "scan": {"kind": "oracle-compare",
                     "omega_grid": {"start": 995, "stop": 1011, "num": 41}},
            "output": {"directory": str(tmp_path / "out"),
                       "formats": ["csv"]},
        }
        proc = subprocess.run(
            [sys.executable, "-m", "ioxsim", "oracle-compare",
             "--config", write_cfg(tmp_path, doc)],
            capture_output=True, text=True, env=src_env())
        assert proc.returncode == 3, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "numerical check failed" in proc.stderr
        assert proc.stdout == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("system", [
        {"g_rabi": 1e200, "gamma_c": 1},
        {"g_rabi": 1, "gamma_c": 1e300},
    ], ids=["coupling", "rate"])
    def test_nonfinite_ep_bic_cell_exits_3(self, tmp_path, system):
        # the bic row with nonradiative losses is formula only, with no
        # gate: its overflowing residual is still refused, not written.
        # A subprocess keeps the RuntimeWarnings out of this suite's
        # filter.
        doc = {
            "system": dict(system, eps0=1000, delta=3, gamma_x=0.3,
                           gamma_nr_c=0.1),
            "scan": {"kind": "ep-bic"},
            "output": {"directory": str(tmp_path / "out"),
                       "formats": ["csv"]},
        }
        proc = subprocess.run(
            [sys.executable, "-m", "ioxsim", "ep-bic",
             "--config", write_cfg(tmp_path, doc)],
            capture_output=True, text=True, env=src_env())
        assert proc.returncode == 3, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "ep_bic.csv values must be finite" in proc.stderr
        assert proc.stdout == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind, scan, message", [
        pytest.param("spectrum", {}, "intensity must be finite",
                     id="spectrum"),
        pytest.param("absorption", {"k_grid": [0.0, 1.0]},
                     "intensity must be finite", id="absorption"),
    ])
    def test_overflowing_coupling_square_exits_3(self, tmp_path, kind, scan,
                                                 message):
        # |g~|^2 for g_rabi = 1e200 overflows to inf in the power and
        # absorption rows, not to an OverflowError traceback: a failed
        # gate, no files.  A subprocess keeps the RuntimeWarnings out of
        # this suite's filter.
        doc = {
            "system": {"eps0": 1000.0, "delta": 3.0, "g_rabi": 1e200,
                       "gamma_c": 1.0, "gamma_x": 0.3, "gamma_nr_c": 0.1,
                       "gamma_nr_x": 0.1},
            "scan": dict(scan, kind=kind,
                         omega_grid={"start": 990.0, "stop": 1010.0,
                                     "num": 5}),
            "output": {"directory": str(tmp_path / "out"),
                       "formats": ["csv"]},
        }
        proc = subprocess.run(
            [sys.executable, "-m", "ioxsim", kind,
             "--config", write_cfg(tmp_path, doc)],
            capture_output=True, text=True, env=src_env())
        assert proc.returncode == 3, proc.stderr
        assert "Traceback" not in proc.stderr
        assert message in proc.stderr
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
    def test_import_loads_no_scipy(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, ioxsim, ioxsim.cli; "
             "print(sorted(m for m in sys.modules if m.startswith('scipy')))"],
            capture_output=True, text=True, env=src_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_runs_load_no_scipy(self, tmp_path):
        # numpy is the only run-time dependency: every bundled config,
        # oracle-compare and its peak fit included, then the acceptance
        # checks, in one fresh interpreter
        script = (
            "import glob, os, sys\n"
            "from ioxsim import cli\n"
            "root, out = sys.argv[1:]\n"
            "for path in sorted(glob.glob(os.path.join(root, 'configs',"
            " '*.json'))):\n"
            "    kind = cli.load_config(path).kind\n"
            "    dest = os.path.join(out, os.path.basename(path))\n"
            "    assert cli.main([kind, '--config', path, '--out', dest]) == 0\n"
            "assert cli.main(['acceptance', '--seed', '1234']) == 0\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n")
        proc = subprocess.run(
            [sys.executable, "-c", script, ROOT, str(tmp_path)],
            capture_output=True, text=True, env=src_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().splitlines()[-1] == "[]"


# the public names of the package, each under the submodule defining it
EXPORTS = {
    "core": ("SystemParams", "ComplexPole", "ComplexBranch", "BranchTrack",
             "Detunings", "EpCondition", "BicCondition", "kinetic_energies",
             "complex_poles", "effective_hamiltonian", "eigen_branches",
             "track_branches", "detunings", "ep_conditions",
             "bic_condition"),
    "spectra": ("InputOccupation", "SpectrumGrid", "power_spectrum",
                "power_spectrum_grid", "scattering_amplitude_single_bath",
                "scattering_matrix_three_bath", "reflection", "absorption",
                "absorption_components", "absorption_grid",
                "power_absorption_relation_check", "default_omega_window",
                "lorentzian_pair_fit"),
    "dynamics": ("analytic_trajectory", "bic_amplitudes", "evolve_ode"),
    "bath": ("BathSpec", "BathOracle", "kernel_freq", "full_matrix"),
}
SUBMODULES = ("core", "spectra", "dynamics", "bath", "errors", "cli",
              "acceptance")


def child_env():
    """src_env() with neither BLAS thread variable set."""
    env = src_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    env.pop("OMP_NUM_THREADS", None)
    return env


class TestLazyPackage:
    def test_every_public_name_imports(self):
        # each `from ioxsim import X` in a fresh interpreter, in turn, is
        # the object its submodule defines
        names = {name: module for module, group in EXPORTS.items()
                 for name in group}
        assert sorted(ioxsim.__all__) == sorted(names)
        script = (
            "import importlib, sys, types\n"
            "import ioxsim\n"
            "for name, module in %r:\n"
            "    exec('from ioxsim import %%s as value' %% name)\n"
            "    assert value is getattr(importlib.import_module("
            "'ioxsim.' + module), name), name\n"
            "for module in %r:\n"
            "    assert isinstance(getattr(ioxsim, module),"
            " types.ModuleType), module\n"
            "print('ok')\n" % (sorted(names.items()), SUBMODULES))
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, env=src_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "ok\n"

    def test_unknown_name_is_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            ioxsim.no_such_name
        with pytest.raises(ImportError):
            exec("from ioxsim import no_such_name")

    def test_import_loads_no_numpy_and_keeps_the_environment(self):
        script = (
            "import os, sys\n"
            "before = dict(os.environ)\n"
            "import ioxsim\n"
            "print(ioxsim.__version__, 'numpy' in sys.modules,"
            " dict(os.environ) == before)\n")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True,
                              env=child_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "0.1.0 False True\n"

    def test_closed_form_runs_load_only_what_they_use(self, tmp_path):
        # no bath, no acceptance checks, no numpy.random for any bundled
        # config that runs no bath oracle
        script = (
            "import glob, json, os, sys\n"
            "from ioxsim import cli\n"
            "root, out = sys.argv[1:]\n"
            "for path in sorted(glob.glob(os.path.join(root, 'configs',"
            " '*.json'))):\n"
            "    with open(path) as fh:\n"
            "        if 'bath' in json.load(fh):\n"
            "            continue\n"
            "    kind = cli.load_config(path).kind\n"
            "    dest = os.path.join(out, os.path.basename(path))\n"
            "    assert cli.main([kind, '--config', path, '--out', dest]) == 0\n"
            "print(len(os.listdir(out)), sorted(m for m in ('ioxsim.bath',"
            " 'ioxsim.acceptance', 'numpy.random') if m in sys.modules))\n")
        proc = subprocess.run(
            [sys.executable, "-c", script, ROOT, str(tmp_path)],
            capture_output=True, text=True, env=src_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "7 []"


class TestEntryFunction:
    @pytest.mark.parametrize("preset, threads", [
        pytest.param({}, "1", id="unset"),
        pytest.param({"OPENBLAS_NUM_THREADS": "2"}, "2", id="openblas-set"),
        pytest.param({"OMP_NUM_THREADS": "2"}, None, id="omp-set"),
    ])
    def test_blas_default_only_when_unset(self, monkeypatch, preset, threads):
        from ioxsim import __main__ as entry

        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        for var, value in preset.items():
            monkeypatch.setenv(var, value)
        seen = []

        def fake_main(argv=None):
            seen.append((argv, os.environ.get("OPENBLAS_NUM_THREADS"),
                         os.environ.get("OMP_NUM_THREADS")))
            return 5

        monkeypatch.setattr(cli, "main", fake_main)
        assert entry.main(["ep-bic"]) == 5
        assert seen == [(["ep-bic"], threads,
                         preset.get("OMP_NUM_THREADS"))]

    def test_default_is_set_before_numpy_loads(self, tmp_path):
        # importing the entry module loads neither numpy nor the CLI, so
        # the default is in place when OpenBLAS reads it
        doc = {
            "system": {"eps0": 1000.0, "delta": DELTA_BIC, "g_rabi": 3.0,
                       "gamma_c": 1.0, "gamma_x": 0.3},
            "scan": {"kind": "ep-bic"},
            "output": {"directory": str(tmp_path / "out"),
                       "formats": ["csv"]},
        }
        script = (
            "import os, sys\n"
            "from ioxsim import __main__ as entry\n"
            "loaded = sorted(m for m in ('numpy', 'ioxsim.cli')"
            " if m in sys.modules)\n"
            "assert entry.main(['ep-bic', '--config', sys.argv[1]]) == 0\n"
            "print(loaded, os.environ['OPENBLAS_NUM_THREADS'])\n")
        proc = subprocess.run(
            [sys.executable, "-c", script, write_cfg(tmp_path, doc)],
            capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[] 1"

    def test_console_script_and_module_share_the_entry(self):
        with open(os.path.join(ROOT, "pyproject.toml")) as fh:
            assert 'ioxsim = "ioxsim.__main__:main"\n' in fh.read()


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

    def test_oracle_csvs_match_reference(self, tmp_path):
        # the bundled oracle-compare run, every CSV it writes
        reference = {
            "oracle_damping.csv": "07fa10bc5c6cb93ef169d5f36f7e7fafb9cdb218"
                                  "f2bda50fda3ba34871c9cac0",
            "oracle_dynamics.csv": "74cfd67c3167df9fab61e1578d41ea40339d520a"
                                   "dcc1b88a08f86fb908f1f6bc",
            "oracle_spectrum.csv": "c33ede5f43822cf0ba39d07d584aa72bd2878fa3"
                                   "0e4c10733562bd503b31e792",
            "summary.csv": "362ba3d5a575984c94f99f90a1991c6bac42a789ecebeb7a"
                           "fd0a4af98ebdae96",
        }
        path = os.path.join(ROOT, "configs", "oracle_compare_attraction.json")
        out = tmp_path / "oracle"
        assert cli.main(["oracle-compare", "--config", path,
                         "--out", str(out)]) == 0
        got = {fname: hashlib.sha256((out / fname).read_bytes()).hexdigest()
               for fname in os.listdir(out) if fname.endswith(".csv")}
        assert got == reference
