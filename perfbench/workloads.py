"""The four benchmark workloads and their correctness gates.

Each workload is a class; ``Workload(root, seed)`` sets it up in the
measuring process (this is what ``setup_s`` times), and it then runs whole
passes.  A pass is
split into ``run``, the timed calls into ioxsim, and ``check``, the
untimed correctness gates.  Every operation of a pass yields one outcome;
an operation that raises or misses its gate is a failed operation, never a
dropped one.  Only public ioxsim names are used, looked up on their module
at call time so that a traced run sees every call.

Why each workload exists, and what it should move, is in README.md.
"""

import csv
import hashlib
import json
import os

import numpy as np

import ioxsim
import ioxsim.cli

MAP_CONFIGS = ("dispersion_attraction_delta2", "dispersion_attraction_delta3",
               "absorption_attraction_delta2", "absorption_attraction_delta3",
               "spectra_dark_mode_family", "dynamics_dark_mode_family",
               "ep_certificate")
ORACLE_CONFIG = "oracle_compare_attraction"
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "maps_sha256.json")

# acceptance checks in the `checks` workload; rate-emergence and
# undamped-pole are left out because they repeat the N = 4000 oracle build
# that the `oracle` workload measures
CHECK_NAMES = ("anomalous-dispersion", "exceptional-point", "conservation",
               "green-identity", "absorption-ridge", "dynamics-agreement")

SWEEP_DRAWS = 8
SWEEP_TRACK_K = 1001
SWEEP_GRID_K = 241
SWEEP_GRID_OMEGA = 801
SWEEP_SPOT_ROWS = (0, SWEEP_GRID_K // 2, SWEEP_GRID_K - 1)

# the program's own gates, as cli.py applies them
DET_RESIDUAL_TOL = 1e-8
IDENTITY_TOL = 1e-10
RA_TOL = 1e-10
ABSORPTION_SLACK = 1e-9


def _direct(_name, fn, *args):
    return fn(*args)


def _attempt(fn, *args):
    """(value, None) or (None, error text): an exception is an outcome."""
    try:
        return fn(*args), None
    except Exception as exc:  # any failure of the program is counted
        return None, "%s: %s" % (type(exc).__name__, exc)


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _csv_files(directory):
    return sorted(name for name in os.listdir(directory)
                  if name.endswith(".csv"))


class Maps:
    """The seven closed-form bundled configs through the CLI, in-process."""

    def __init__(self, root, seed, reference=None):
        del seed  # the configs are fixed; nothing is random here
        self.runs = []
        for name in MAP_CONFIGS:
            path = os.path.join(root, "configs", name + ".json")
            cfg = ioxsim.cli.load_config(path)
            self.runs.append((name, cfg.kind, path))
        if reference is None:
            with open(REFERENCE) as fh:
                reference = json.load(fh)
        self.reference = reference

    def run(self, out_dir, span=_direct):
        del span
        return [(name, _attempt(ioxsim.cli.main,
                                [kind, "--config", path,
                                 "--out", os.path.join(out_dir, name)]))
                for name, kind, path in self.runs]

    def check(self, results, out_dir):
        outcomes = []
        info = {"cli.csv_bytes": 0}
        for name, (code, err) in results:
            outcomes.append((name, err or _gate(
                self._check_config, name, code,
                os.path.join(out_dir, name), info)))
        return outcomes, info

    def _check_config(self, name, code, directory, info):
        if code != 0:
            return "exit code %s" % code
        files = _csv_files(directory)
        info["cli.csv_bytes"] += sum(
            os.path.getsize(os.path.join(directory, fname)) for fname in files)
        want = sorted(key.split("/", 1)[1] for key in self.reference
                      if key.split("/", 1)[0] == name)
        if files != want:
            return "csv files %s, expected %s" % (files, want)
        for fname in files:
            if (_sha256(os.path.join(directory, fname))
                    != self.reference[name + "/" + fname]):
                return "%s differs from the reference" % fname
        return None


def _det_residual(p, k, omega):
    """|det(omega - H_k)| on its natural scale, as the CLI's branch gate."""
    pole = ioxsim.core.complex_poles(p, k)
    det = (omega - pole.z_c) * (omega - pole.z_x) - pole.g_tilde ** 2
    scale = max(1.0, abs(omega - pole.z_c), abs(omega - pole.z_x),
                abs(pole.g_tilde)) ** 2
    return abs(det) / scale


class Sweep:
    """Seeded parameter draws through the library's dense-map entry points."""

    def __init__(self, root, seed):
        del root
        rng = np.random.default_rng(seed)
        self.draws = []
        for _ in range(SWEEP_DRAWS):
            # the whole valid domain: rates may be 0, mass_ratio in [0, 1]
            p = ioxsim.core.SystemParams(
                delta=rng.uniform(-6.0, 6.0),
                g_rabi=rng.uniform(0.0, 4.0),
                mass_ratio=rng.uniform(0.0, 1.0),
                gamma_c=rng.uniform(0.0, 3.0),
                gamma_x=rng.uniform(0.0, 3.0),
                gamma_nr_c=rng.uniform(0.0, 1.0),
                gamma_nr_x=rng.uniform(0.0, 1.0))
            lo, hi = ioxsim.spectra.default_omega_window(p)
            self.draws.append((p, np.linspace(lo, hi, SWEEP_GRID_OMEGA)))
        self.k_track = np.linspace(-3.0, 3.0, SWEEP_TRACK_K)
        self.k_grid = np.linspace(-3.0, 3.0, SWEEP_GRID_K)

    def run(self, out_dir, span=_direct):
        del out_dir, span
        results = []
        for p, omega in self.draws:
            results.append((
                _attempt(ioxsim.core.track_branches, p, self.k_track),
                _attempt(ioxsim.spectra.power_spectrum_grid,
                         p, self.k_grid, omega),
                _attempt(ioxsim.spectra.absorption_grid,
                         p, self.k_grid, omega)))
        return results

    def check(self, results, out_dir):
        del out_dir
        gates = (("track_branches", self._check_tracks),
                 ("power_spectrum_grid", self._check_power),
                 ("absorption_grid", self._check_absorption))
        outcomes = []
        for i, ((p, _), calls) in enumerate(zip(self.draws, results)):
            for (label, gate), (value, err) in zip(gates, calls):
                outcomes.append(("draw%d.%s" % (i, label),
                                 err or _gate(gate, p, value)))
        return outcomes, {}

    def _check_tracks(self, p, tracks):
        n = self.k_track.size
        if len(tracks[0]) != n or len(tracks[1]) != n:
            return "track lengths %d, %d" % (len(tracks[0]), len(tracks[1]))
        for idx in (0, n // 2, n - 1):
            for track in tracks:
                resid = _det_residual(p, track[idx].k, track[idx].omega)
                if not resid <= DET_RESIDUAL_TOL:
                    return "determinant residual %.2e at k = %g" % (
                        resid, track[idx].k)
        return None

    def _check_power(self, p, grid):
        # the emission/absorption identity I = (A_gamma + A_m) n, n = 1
        for i in SWEEP_SPOT_ROWS:
            j = int(np.nanargmax(grid.intensity[i]))
            k, w = grid.k_values[i], grid.omega_values[j]
            a_gamma, a_m = ioxsim.spectra.absorption_components(p, k, w)
            value = grid.intensity[i, j]
            resid = abs(value - (a_gamma + a_m))
            if not resid <= IDENTITY_TOL * max(1.0, abs(value)):
                return "identity residual %.2e at k = %g" % (resid, k)
        return None

    def _check_absorption(self, p, grid):
        values = grid.intensity
        if not np.all((values >= -ABSORPTION_SLACK)
                      & (values <= 1.0 + ABSORPTION_SLACK)):
            return "absorption left [0, 1]"
        for i in SWEEP_SPOT_ROWS:
            k = grid.k_values[i]
            w = grid.omega_values[grid.omega_values.size // 2]
            resid = abs(ioxsim.spectra.reflection(p, k, w)
                        + ioxsim.spectra.absorption(p, k, w) - 1.0)
            if not resid <= RA_TOL:
                return "R + A = 1 residual %.2e at k = %g" % (resid, k)
        return None


def _gate(fn, *args):
    """Run a gate: the error text it returns, or the text of what it raised."""
    value, err = _attempt(fn, *args)
    return err or value


class Checks:
    """Six acceptance checks, each given the benchmark's seed if it takes one."""

    def __init__(self, root, seed):
        del root
        table = {name: (fn, takes_seed)
                 for name, fn, takes_seed in ioxsim.acceptance.CHECKS}
        self.checks = [(name,) + table[name] for name in CHECK_NAMES]
        self.seed = seed

    def run(self, out_dir, span=_direct):
        del out_dir
        return [(name, _attempt(span, "acceptance." + name, fn,
                                *((self.seed,) if takes_seed else ())))
                for name, fn, takes_seed in self.checks]

    def check(self, results, out_dir):
        del out_dir
        outcomes = []
        info = {}
        for name, (res, err) in results:
            if err is None:
                info["acceptance.%s.budget_ratio" % name] = (
                    res.elapsed / res.budget)
                if not res.passed:
                    err = "check failed: %s" % res.details
            outcomes.append((name, err))
        return outcomes, info


class Oracle:
    """The discretized-bath comparison config through the CLI."""

    def __init__(self, root, seed):
        del seed  # the config is fixed; nothing is random here
        self.path = os.path.join(root, "configs", ORACLE_CONFIG + ".json")
        self.kind = ioxsim.cli.load_config(self.path).kind

    def run(self, out_dir, span=_direct):
        del span
        return [_attempt(ioxsim.cli.main,
                         [self.kind, "--config", self.path, "--out", out_dir])]

    def check(self, results, out_dir):
        (code, err), = results
        return [(ORACLE_CONFIG,
                 err or _gate(self._check_summary, code, out_dir))], {}

    @staticmethod
    def _check_summary(code, out_dir):
        if code != 0:
            return "exit code %s" % code
        with open(os.path.join(out_dir, "summary.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        bad = [row["metric"] for row in rows if row["passed"] != "yes"]
        if not rows or bad:
            return "summary.csv metrics over bound: %s" % bad
        return None


WORKLOADS = {"maps": Maps, "sweep": Sweep, "checks": Checks, "oracle": Oracle}
