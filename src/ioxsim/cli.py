"""Command-line front end: JSON run configs, scan orchestration, CSV and
gnuplot-script emission, and the acceptance-suite runner.

    ioxsim <subcommand> --config <path> [--out <dir>]

Subcommands: dispersion, spectrum, dynamics, ep-bic, absorption,
oracle-compare, acceptance.  A config is a single JSON object with blocks
system / bath (optional) / scan / output; unknown keys are rejected with
JSON-path messages, decode errors carry line and column.  CSV output uses
17 significant digits, so identical configs give byte-identical files
across runs.  Exit codes: 0 all outputs written and internal residual
checks passed, 2 config error or unwritable output directory, 3
numerical-check failure.  A failed gate or a raised error writes nothing;
only oracle-compare writes all its files, summary.csv included, before
its bounds decide the exit code.
"""

import argparse
import json
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import acceptance
from .bath import BathOracle, BathSpec, discretize_bath
from .core import (
    SystemParams,
    bic_condition,
    complex_poles,
    detunings,
    discriminant,
    eigen_branches,
    ep_conditions,
    track_branches,
)
from .dynamics import AmplitudeState, analytic_trajectory, evolve_ode
from .errors import (
    ConfigError,
    DegenerateModesError,
    DivergentPointError,
    EvanescentRegionError,
    KernelAccuracyError,
    RecurrenceLimitError,
    SingularMatrixError,
)
from .spectra import (
    InputOccupation,
    absorption,
    absorption_grid,
    lorentzian_pair_fit,
    power_absorption_relation_check,
    power_spectrum,
    power_spectrum_grid,
    reflection,
)

FLOAT_FMT = "%.17g"

SCAN_KINDS = ("dispersion", "spectrum", "dynamics", "ep-bic",
              "absorption", "oracle-compare")

_TOP_KEYS = ("system", "bath", "scan", "output")
_SYSTEM_KEYS = ("eps0", "delta", "g_rabi", "mass_ratio",
                "gamma_c", "gamma_x", "gamma_nr_c", "gamma_nr_x")
_BATH_KEYS = ("kappa_c", "kappa_x", "omega_window", "c_light",
              "taper_frac", "n_modes")
_SCAN_KEYS = ("kind", "k_grid", "omega_grid", "t_grid",
              "input_occupation", "max_deviation")
_OUTPUT_KEYS = ("directory", "formats")
_FORMATS = ("csv", "gnuplot")


class NumericalCheckError(RuntimeError):
    """An internal residual or deviation gate failed after computation."""


_NUMERICAL_ERRORS = (NumericalCheckError, DivergentPointError,
                     SingularMatrixError, DegenerateModesError,
                     EvanescentRegionError, KernelAccuracyError,
                     RecurrenceLimitError)


# ---------------------------------------------------------------------------
# config parsing

def _fail(path, msg):
    raise ConfigError("%s: %s" % (path, msg))


def _mapping(node, path):
    if not isinstance(node, dict):
        _fail(path, "must be a JSON object")
    return node


def _check_keys(node, allowed, required, path):
    unknown = sorted(set(node) - set(allowed))
    if unknown:
        _fail(path, "unknown key(s): %s" % ", ".join(unknown))
    missing = sorted(set(required) - set(node))
    if missing:
        _fail(path, "missing required key(s): %s" % ", ".join(missing))


def _number(node, path):
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        _fail(path, "must be a number")
    val = float(node)
    if not np.isfinite(val):
        _fail(path, "must be finite")
    return val


def _int(node, path):
    if isinstance(node, bool) or not isinstance(node, int):
        _fail(path, "must be an integer")
    return node


def _grid(node, path):
    """A grid is an explicit number list or a {start, stop, num} linspace."""
    if isinstance(node, dict):
        _check_keys(node, ("start", "stop", "num"),
                    ("start", "stop", "num"), path)
        num = _int(node["num"], path + ".num")
        if num < 1:
            _fail(path + ".num", "must be >= 1")
        values = np.linspace(_number(node["start"], path + ".start"),
                             _number(node["stop"], path + ".stop"), num)
    elif isinstance(node, list):
        if not node:
            _fail(path, "must be nonempty")
        values = np.array(
            [_number(v, "%s[%d]" % (path, i)) for i, v in enumerate(node)])
    else:
        _fail(path, "must be a number list or a {start, stop, num} object")
    if values.size > 1 and np.any(np.diff(values) <= 0):
        _fail(path, "must be strictly increasing")
    return values


def _occupation(node, path):
    if isinstance(node, (int, float)) and not isinstance(node, bool):
        if _number(node, path) < 0:
            _fail(path, "must be non-negative")
        return InputOccupation(float(node))
    if isinstance(node, dict):
        _check_keys(node, ("omega", "n"), ("omega", "n"), path)
        pts = _grid(node["omega"], path + ".omega")
        if not isinstance(node["n"], list) or len(node["n"]) != pts.size:
            _fail(path + ".n", "must be a number list matching omega")
        vals = np.array([_number(v, "%s.n[%d]" % (path, i))
                         for i, v in enumerate(node["n"])])
        if np.any(vals < 0):
            _fail(path + ".n", "must be non-negative")
        return InputOccupation((pts, vals))
    _fail(path, "must be a number or a {omega, n} table")


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration (one SystemParams per detuning value)."""

    kind: str
    systems: tuple
    bath: BathSpec | None
    n_modes: int
    k_grid: np.ndarray | None
    omega_grid: np.ndarray | None
    t_grid: np.ndarray | None
    occupation: InputOccupation
    max_deviation: float
    directory: str
    formats: tuple


def parse_config(doc):
    """Validate a decoded JSON document into a RunConfig."""
    _mapping(doc, "config")
    _check_keys(doc, _TOP_KEYS, ("system", "scan", "output"), "config")

    sys_block = _mapping(doc["system"], "system")
    _check_keys(sys_block, _SYSTEM_KEYS, (), "system")
    kwargs = {key: _number(sys_block[key], "system." + key)
              for key in sys_block if key != "delta"}
    delta_node = sys_block.get("delta", 0.0)
    if isinstance(delta_node, list):
        deltas = tuple(_number(v, "system.delta[%d]" % i)
                       for i, v in enumerate(delta_node))
        if not deltas:
            _fail("system.delta", "list must be nonempty")
    else:
        deltas = (_number(delta_node, "system.delta"),)
    try:
        systems = tuple(SystemParams(delta=d, **kwargs) for d in deltas)
    except ValueError as exc:
        _fail("system", str(exc))

    bath = None
    n_modes = 4000
    if "bath" in doc:
        bath_block = _mapping(doc["bath"], "bath")
        _check_keys(bath_block, _BATH_KEYS,
                    ("kappa_c", "kappa_x", "omega_window"), "bath")
        window = bath_block["omega_window"]
        if not isinstance(window, list) or len(window) != 2:
            _fail("bath.omega_window", "must be a [lo, hi] pair")
        window = tuple(_number(v, "bath.omega_window[%d]" % i)
                       for i, v in enumerate(window))
        if "n_modes" in bath_block:
            n_modes = _int(bath_block["n_modes"], "bath.n_modes")
            if n_modes < 2:
                _fail("bath.n_modes", "must be >= 2")
        try:
            bath = BathSpec(
                _number(bath_block["kappa_c"], "bath.kappa_c"),
                _number(bath_block["kappa_x"], "bath.kappa_x"),
                window,
                _number(bath_block.get("c_light", 1.0), "bath.c_light"),
                _number(bath_block.get("taper_frac", 0.05), "bath.taper_frac"))
        except ValueError as exc:
            _fail("bath", str(exc))

    scan = _mapping(doc["scan"], "scan")
    _check_keys(scan, _SCAN_KEYS, ("kind",), "scan")
    kind = scan["kind"]
    if kind not in SCAN_KINDS:
        _fail("scan.kind", "must be one of %s" % ", ".join(SCAN_KINDS))
    grids = {name: _grid(scan[name], "scan." + name) if name in scan else None
             for name in ("k_grid", "omega_grid", "t_grid")}

    needs = {"dispersion": ("k_grid", "omega_grid"),
             "spectrum": ("omega_grid",),
             "dynamics": ("t_grid",),
             "ep-bic": (),
             "absorption": ("k_grid", "omega_grid"),
             "oracle-compare": ()}[kind]
    ignores = {"dispersion": ("t_grid",),
               "spectrum": ("t_grid",),
               "dynamics": ("omega_grid",),
               "ep-bic": ("k_grid", "omega_grid", "t_grid"),
               "absorption": ("t_grid",),
               "oracle-compare": ()}[kind]
    for name in needs:
        if grids[name] is None:
            _fail("scan." + name, "required for scan kind %r" % kind)
    for name in ignores:
        if grids[name] is not None:
            _fail("scan." + name, "not referenced by scan kind %r" % kind)
    if kind == "oracle-compare":
        if bath is None:
            _fail("bath", "required for scan kind 'oracle-compare'")
        if grids["omega_grid"] is None and grids["t_grid"] is None:
            _fail("scan", "oracle-compare needs omega_grid and/or t_grid")
    if kind == "dynamics" and grids["t_grid"][0] < 0.0:
        _fail("scan.t_grid", "times must be non-negative")
    if len(deltas) > 1 and kind not in ("spectrum", "dynamics"):
        _fail("system.delta",
              "a detuning list is only referenced by spectrum/dynamics scans")

    occupation = InputOccupation(1.0)
    if "input_occupation" in scan:
        if kind not in ("dispersion", "spectrum"):
            _fail("scan.input_occupation",
                  "not referenced by scan kind %r" % kind)
        occupation = _occupation(scan["input_occupation"],
                                 "scan.input_occupation")

    max_deviation = 0.05
    if "max_deviation" in scan:
        if kind != "oracle-compare":
            _fail("scan.max_deviation",
                  "only referenced by scan kind 'oracle-compare'")
        max_deviation = _number(scan["max_deviation"], "scan.max_deviation")
        if max_deviation <= 0:
            _fail("scan.max_deviation", "must be positive")

    out = _mapping(doc["output"], "output")
    _check_keys(out, _OUTPUT_KEYS, ("directory",), "output")
    directory = out["directory"]
    if not isinstance(directory, str) or not directory:
        _fail("output.directory", "must be a nonempty string")
    formats = out.get("formats", list(_FORMATS))
    if not isinstance(formats, list) or not formats:
        _fail("output.formats", "must be a nonempty string list")
    for i, fmt in enumerate(formats):
        if fmt not in _FORMATS:
            _fail("output.formats[%d]" % i,
                  "must be one of %s" % ", ".join(_FORMATS))
    if "csv" not in formats:
        _fail("output.formats", "must include 'csv'")

    return RunConfig(kind, systems, bath, n_modes,
                     grids["k_grid"], grids["omega_grid"], grids["t_grid"],
                     occupation, max_deviation, directory,
                     tuple(dict.fromkeys(formats)))


def load_config(path):
    """Read and validate a JSON config file."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError("cannot read %s: %s" % (path, exc.strerror or exc))
    except json.JSONDecodeError as exc:
        raise ConfigError("%s: line %d column %d: %s"
                          % (path, exc.lineno, exc.colno, exc.msg))
    return parse_config(doc)


# ---------------------------------------------------------------------------
# output helpers

def _fmt(value):
    if isinstance(value, str):
        return value
    return FLOAT_FMT % float(value)


def _emit(cfg, tables, plot=None):
    """The one write stage: each (name, header, rows) table as a CSV in
    cfg.directory, then plot.gp if gnuplot output is asked for.  Returns
    the paths in the order written; an OSError becomes a ConfigError."""
    files = []
    try:
        os.makedirs(cfg.directory, exist_ok=True)
        for name, header, rows in tables:
            files.append(os.path.join(cfg.directory, name))
            with open(files[-1], "w", newline="") as fh:
                fh.write(",".join(header) + "\n")
                for row in rows:
                    fh.write(",".join(_fmt(v) for v in row) + "\n")
        if plot is not None and "gnuplot" in cfg.formats:
            files.append(os.path.join(cfg.directory, "plot.gp"))
            with open(files[-1], "w", newline="") as fh:
                fh.write(plot)
    except OSError as exc:
        _fail("output.directory", "cannot write %s: %s"
              % (exc.filename or cfg.directory, exc.strerror or exc))
    return files


def _spectrum_grid(fn, what, *args):
    """A spectra grid; values outside the grid's own range check and
    on-pole points are numerical-check failures, not a crash."""
    try:
        grid = fn(*args)
    except ValueError as exc:
        raise NumericalCheckError(str(exc))
    if np.any(grid.divergent):
        i, j = np.argwhere(grid.divergent)[0]
        raise DivergentPointError(
            "%s on an undamped pole at k = %g, omega = %r"
            % (what, grid.k_values[i], float(grid.omega_values[j])))
    return grid


def _det_residual(p, k, omega):
    """|det(omega*1 - H_k)| relative to its natural scale; ~0 on a branch."""
    pole = complex_poles(p, k)
    det = (omega - pole.z_c) * (omega - pole.z_x) - pole.g_tilde ** 2
    scale = max(1.0, abs(omega - pole.z_c), abs(omega - pole.z_x),
                abs(pole.g_tilde)) ** 2
    return abs(det) / scale


def _branch_table(tracks):
    return ("branches.csv",
            ("k", "re_omega_l", "im_omega_l", "re_omega_u", "im_omega_u"),
            ((lo.k, lo.omega.real, lo.omega.imag, up.omega.real, up.omega.imag)
             for lo, up in zip(*tracks)))


def _plot_prelude(title):
    return ("# gnuplot script generated by ioxsim\n"
            "set datafile separator comma\n"
            "set title \"%s\"\n" % title)


def _heatmap_script(title, map_csv, p, k_grid, omega_grid):
    lines = [_plot_prelude(title),
             "set xlabel \"k\"",
             "set ylabel \"omega\"",
             "set xrange [%s:%s]" % (_fmt(k_grid[0]), _fmt(k_grid[-1])),
             "set yrange [%s:%s]" % (_fmt(omega_grid[0]),
                                     _fmt(omega_grid[-1])),
             "plot \"%s\" skip 1 using 1:2:3 with image notitle, \\" % map_csv,
             "     \"branches.csv\" skip 1 using 1:2 with lines"
             " lc rgb \"white\" dashtype 2 title \"Re omega_L\", \\",
             "     \"branches.csv\" skip 1 using 1:4 with lines"
             " lc rgb \"white\" dashtype 2 title \"Re omega_U\", \\",
             "     %s + %s + x**2 with lines lc rgb \"black\" dashtype 3"
             " title \"bare photon\", \\" % (_fmt(p.eps0), _fmt(p.delta)),
             "     %s + %s*x**2 with lines lc rgb \"black\" dashtype 3"
             " title \"bare exciton\"" % (_fmt(p.eps0), _fmt(p.mass_ratio)),
             ""]
    return "\n".join(lines)


def _family_script(title, xlabel, ylabel, csv_name, column, k0, systems):
    """One curve per detuning at k = k0, from a (k, delta, x, ...) CSV."""
    lines = [_plot_prelude(title),
             "set xlabel \"%s\"" % xlabel,
             "set ylabel \"%s\"" % ylabel,
             "k0 = %s" % _fmt(k0),
             "plot \\"]
    for i, p in enumerate(systems):
        tail = "," if i + 1 < len(systems) else ""
        lines.append(
            "  \"%s\" skip 1 using 3:($1 == k0 && $2 == %s"
            " ? $%d : 1/0) with lines title \"delta = %.6g\"%s \\"
            % (csv_name, _fmt(p.delta), column, p.delta, tail))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# scan operations

def run_dispersion(cfg):
    """branches.csv + power_map.csv + optional heatmap plot script."""
    p = cfg.systems[0]
    tracks = track_branches(p, cfg.k_grid)
    for idx in {0, cfg.k_grid.size // 2, cfg.k_grid.size - 1}:
        for track in tracks:
            branch = track[idx]
            resid = _det_residual(p, branch.k, branch.omega)
            if resid > 1e-8:
                raise NumericalCheckError(
                    "branch determinant residual %.2e at k = %g"
                    % (resid, branch.k))

    grid = _spectrum_grid(power_spectrum_grid, "power spectrum diverges",
                          p, cfg.k_grid, cfg.omega_grid, cfg.occupation)

    return _emit(cfg, [
        _branch_table(tracks),
        ("power_map.csv", ("k", "omega", "intensity"),
         ((k, w, v) for k, col in zip(cfg.k_grid, grid.intensity)
          for w, v in zip(cfg.omega_grid, col)))],
        _heatmap_script("emission intensity", "power_map.csv",
                        p, cfg.k_grid, cfg.omega_grid))


def run_spectrum(cfg):
    """Emission spectra over (detuning family) x k_grid x omega_grid."""
    k_grid = cfg.k_grid if cfg.k_grid is not None else np.array([0.0])
    # one row per k, bit for bit the scalar call at that k
    maps = [power_spectrum(p, k_grid, cfg.omega_grid, cfg.occupation)
            for p in cfg.systems]
    for p in cfg.systems:
        mid = cfg.omega_grid[cfg.omega_grid.size // 2]
        resid = power_absorption_relation_check(p, k_grid[0], mid,
                                                cfg.occupation)
        if resid > 1e-10:
            raise NumericalCheckError(
                "emission/absorption identity residual %.2e" % resid)

    return _emit(cfg, [
        ("spectrum.csv", ("k", "delta", "omega", "intensity"),
         ((k, p.delta, w, v) for p, rows in zip(cfg.systems, maps)
          for k, col in zip(k_grid, rows)
          for w, v in zip(cfg.omega_grid, col)))],
        _family_script("emission spectra", "omega", "intensity",
                       "spectrum.csv", 4, k_grid[0], cfg.systems))


def _trajectory_with_check(p, k, t_grid):
    """Closed-form amplitudes when branches are split, the exact
    matrix-exponential reference at a coalescence; the two paths
    cross-check each other on a coarse subset."""
    initial = AmplitudeState(0.0 + 0.0j, 1.0 + 0.0j)
    try:
        c, x = analytic_trajectory(p, k, initial, t_grid)
    except DegenerateModesError:
        return evolve_ode(p, k, initial, t_grid)
    stride = max(1, t_grid.size // 8)
    probe = t_grid[::stride]
    c_ref, x_ref = evolve_ode(p, k, initial, probe)
    sup = max(np.max(np.abs(c[::stride] - c_ref)),
              np.max(np.abs(x[::stride] - x_ref)))
    if sup > 1e-6:
        raise NumericalCheckError(
            "closed-form/matrix-exponential trajectory mismatch %.2e "
            "at k = %g" % (sup, k))
    return c, x


def run_dynamics(cfg):
    """Amplitude dynamics from x(0) = 1, c(0) = 0 (vacuum environment)."""
    k_grid = cfg.k_grid if cfg.k_grid is not None else np.array([0.0])
    jobs = [(p, k) for p in cfg.systems for k in k_grid]
    results = [_trajectory_with_check(p, k, cfg.t_grid) for p, k in jobs]

    return _emit(cfg, [
        ("dynamics.csv",
         ("k", "delta", "t", "re_c", "im_c", "re_x", "im_x",
          "abs2_c", "abs2_x"),
         ((k, p.delta, t, c.real, c.imag, x.real, x.imag,
           abs(c) ** 2, abs(x) ** 2)
          for (p, k), (cs, xs) in zip(jobs, results)
          for t, c, x in zip(cfg.t_grid, cs, xs)))],
        _family_script("amplitude dynamics from x(0) = 1", "t", "|x|^2",
                       "dynamics.csv", 9, k_grid[0], cfg.systems))


def run_ep_bic(cfg):
    """Locate coalescence and undamped-pole conditions; emit targets,
    ring radii and on-condition residuals."""
    p = cfg.systems[0]
    det0 = detunings(p, 0.0)
    rows = []
    found = {c.sign: c for c in ep_conditions(p)}
    for sign in (1, -1):
        required = -sign * 2.0 * p.g_rabi
        cond = found.get(sign)
        k_loc = "" if cond is None or cond.k_ep is None else cond.k_ep
        resid = ""
        note = "sign condition unmet" if cond is None else "sign condition met"
        if cond is not None and cond.k_ep is not None:
            resid = abs(complex(discriminant(p, cond.k_ep)))
            scale = max(1.0, abs(det0.d_eps) + abs(det0.d_gamma)
                        + 2.0 * abs(complex_poles(p, 0.0).g_tilde)) ** 2
            if resid > 1e-6 * scale:
                raise NumericalCheckError(
                    "discriminant residual %.2e at located coalescence"
                    % resid)
        rows.append(("ep", sign, required, det0.d_gamma,
                     sign * 2.0 * np.sqrt(p.gamma_c * p.gamma_x),
                     k_loc, resid, note))
    if p.gamma_c * p.gamma_x > 0.0:
        cond = bic_condition(p)
        k_loc = "" if cond.k_bic is None else cond.k_bic
        resid = ""
        if cond.k_bic is not None:
            lo, up = eigen_branches(p, cond.k_bic)
            resid = min(abs(lo.omega.imag), abs(up.omega.imag))
            if cond.exact and resid > 1e-6 * max(1.0, p.total_rate):
                raise NumericalCheckError(
                    "undamped-pole residual %.2e at located condition"
                    % resid)
        note = ("exact cancellation" if cond.exact
                else "formula only (nonradiative losses present)")
        rows.append(("bic", "", "", det0.d_gamma, cond.d_eps_bic,
                     k_loc, resid, note))

    return _emit(cfg, [
        ("ep_bic.csv",
         ("condition", "sign", "d_gamma_required", "d_gamma_actual",
          "d_eps_target", "k_located", "residual", "note"),
         rows)])


def run_absorption(cfg):
    """Absorption map (fraction of input lost to the private baths)."""
    p = cfg.systems[0]
    amap = _spectrum_grid(absorption_grid, "absorption is undefined",
                          p, cfg.k_grid, cfg.omega_grid).intensity
    # written so that a NaN fails it too
    if not np.all((amap >= -1e-9) & (amap <= 1.0 + 1e-9)):
        raise NumericalCheckError("absorption left [0, 1]")
    mid_w = cfg.omega_grid[cfg.omega_grid.size // 2]
    for k in (cfg.k_grid[0], cfg.k_grid[-1]):
        resid = abs(reflection(p, k, mid_w) + absorption(p, k, mid_w) - 1.0)
        if resid > 1e-10:
            raise NumericalCheckError(
                "R + A = 1 residual %.2e at k = %g" % (resid, k))

    return _emit(cfg, [
        ("absorption_map.csv", ("k", "omega", "absorption"),
         ((k, w, v) for k, col in zip(cfg.k_grid, amap)
          for w, v in zip(cfg.omega_grid, col))),
        _branch_table(track_branches(p, cfg.k_grid))],
        _heatmap_script("absorption", "absorption_map.csv",
                        p, cfg.k_grid, cfg.omega_grid))


def run_oracle_compare(cfg):
    """Discretized-bath oracle vs memoryless closed forms, side by side.

    Emits per-comparison CSVs plus summary.csv with metric/value/bound
    rows; any metric above its bound fails the run (exit code 3) after
    all files are written.
    """
    p = cfg.systems[0]
    k = float(cfg.k_grid[0]) if cfg.k_grid is not None else 0.0
    try:
        oracle = BathOracle(discretize_bath(cfg.bath, cfg.n_modes), p, k=k)
    except ValueError as exc:
        raise NumericalCheckError(str(exc))

    tables = []
    metrics = []

    span = 5.0 * max(p.total_rate, 1.0)
    probe = p.eps0 + np.linspace(-span, span, 5)
    gam = oracle.effective_damping(probe)
    cross = np.sqrt(p.gamma_c * p.gamma_x)
    targets = np.array([[p.gamma_c, cross], [cross, p.gamma_x]])
    rel = np.abs(gam.real - targets) / max(p.total_rate, 1e-12)
    metrics.append(("damping_rel_err", float(np.max(rel)),
                    cfg.max_deviation))
    tables.append((
        "oracle_damping.csv", ("omega", "gamma_cc", "gamma_xx", "gamma_cx"),
        ((w, g[0, 0].real, g[1, 1].real, g[0, 1].real)
         for w, g in zip(probe, gam))))

    if cfg.omega_grid is not None:
        # sharpest broadening the comb guard admits, for clean peak centers
        ldos = oracle.spectrum(cfg.omega_grid, eta=2.0 * oracle.bath.spacing)
        intensity = power_spectrum(p, k, cfg.omega_grid)
        low, up = eigen_branches(p, k)
        guesses = (low.omega.real, up.omega.real)
        step = float(np.max(np.diff(cfg.omega_grid)))
        c_orc, _, _ = lorentzian_pair_fit(cfg.omega_grid, ldos, guesses)
        c_ana, _, _ = lorentzian_pair_fit(cfg.omega_grid, intensity, guesses)
        metrics.append(("peak_center_offset",
                        float(np.max(np.abs(c_orc - c_ana))), step))
        tables.append((
            "oracle_spectrum.csv",
            ("omega", "ldos_oracle", "intensity_analytic"),
            zip(cfg.omega_grid, ldos, intensity)))

    if cfg.t_grid is not None:
        c_orc, x_orc = oracle.dynamics((0.0, 1.0), cfg.t_grid)
        c_ana, x_ana = _trajectory_with_check(p, k, cfg.t_grid)
        sup = max(np.max(np.abs(np.abs(c_orc) ** 2 - np.abs(c_ana) ** 2)),
                  np.max(np.abs(np.abs(x_orc) ** 2 - np.abs(x_ana) ** 2)))
        metrics.append(("dynamics_sup_err", float(sup), cfg.max_deviation))
        tables.append((
            "oracle_dynamics.csv",
            ("t", "abs2_c_oracle", "abs2_x_oracle",
             "abs2_c_analytic", "abs2_x_analytic"),
            ((t, abs(co) ** 2, abs(xo) ** 2, abs(ca) ** 2, abs(xa) ** 2)
             for t, co, xo, ca, xa
             in zip(cfg.t_grid, c_orc, x_orc, c_ana, x_ana))))

    tables.append(("summary.csv", ("metric", "value", "bound", "passed"),
                   ((name, value, bound, "yes" if value <= bound else "no")
                    for name, value, bound in metrics)))
    files = _emit(cfg, tables)
    bad = ["%s = %.3e exceeds bound %.3e" % metric for metric in metrics
           if metric[1] > metric[2]]
    if bad:
        raise NumericalCheckError("; ".join(bad))
    return files


_OPS = {"dispersion": run_dispersion,
        "spectrum": run_spectrum,
        "dynamics": run_dynamics,
        "ep-bic": run_ep_bic,
        "absorption": run_absorption,
        "oracle-compare": run_oracle_compare}


# ---------------------------------------------------------------------------
# entry point

def _build_parser():
    ap = argparse.ArgumentParser(
        prog="ioxsim",
        description="input-output simulations of an emitter and cavity mode"
                    " sharing a photonic environment")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in SCAN_KINDS:
        sp = sub.add_parser(name, help="run a %s scan from a JSON config"
                            % name)
        sp.add_argument("--config", required=True, help="JSON run config")
        sp.add_argument("--out", default=None,
                        help="override output.directory")
    sp = sub.add_parser("acceptance", help="run the acceptance checks")
    sp.add_argument("--seed", type=int, default=None,
                    help="RNG seed (default: %d)" % acceptance.DEFAULT_SEED)
    return ap


def main(argv=None):
    args = _build_parser().parse_args(argv)
    if args.command == "acceptance":
        results = acceptance.run_all(seed=args.seed)
        return 0 if all(r.passed for r in results) else 3

    try:
        cfg = load_config(args.config)
        if cfg.kind != args.command:
            raise ConfigError(
                "scan.kind: %r does not match subcommand %r"
                % (cfg.kind, args.command))
        if args.out:
            cfg = replace(cfg, directory=args.out)
        files = _OPS[cfg.kind](cfg)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except _NUMERICAL_ERRORS as exc:
        print("numerical check failed: %s" % exc, file=sys.stderr)
        return 3
    for path in files:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
