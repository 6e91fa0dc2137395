"""Command-line front end: JSON run configs, scan orchestration, CSV and
gnuplot-script emission, and the acceptance-suite runner.

    ioxsim <subcommand> --config <path> [--out <dir>]

Subcommands: dispersion, spectrum, dynamics, ep-bic, absorption,
oracle-compare, acceptance.  A config is a single JSON object with blocks
system / bath / scan / output; unknown keys are rejected with JSON-path
messages, and so are values the library's own rules refuse (grids under
core._axis, occupations, SystemParams, BathSpec, BathOracle: _checked);
decode errors carry line and column.  Each scan kind is one
_Scan record in SCANS; a scan key, detuning list or bath block that its
record does not take is rejected as not referenced.  CSV output uses 17
significant digits, so identical configs give byte-identical files
across runs.  A numeric table is a _Grid whose columns stay unbroadcast;
the one numeric writer, _write_grid, formats each value once: k and
delta once per row block, omega or t once per table, and only the value
columns per row.  Exit codes: 0 all outputs written and every gate
passed, 2 config error or unwritable output directory, 3 numerical-check
failure.  Every gate is one _gate call, which a NaN fails.  A failed
gate or a raised error writes nothing; only oracle-compare writes all
its files, summary.csv included, before its bounds decide the exit code.
"""

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import acceptance
from .bath import MIN_MODES, BathOracle, BathSpec, _spectral_weight
from .core import (
    SystemParams,
    _axis,
    bic_condition,
    complex_poles,
    detunings,
    discriminant,
    eigen_branches,
    ep_conditions,
    track_branches,
)
from .dynamics import analytic_trajectory, evolve_ode
from .errors import (
    ConfigError,
    DegenerateModesError,
    DivergentPointError,
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

_TOP_KEYS = ("system", "bath", "scan", "output")
_SYSTEM_KEYS = ("eps0", "delta", "g_rabi", "mass_ratio",
                "gamma_c", "gamma_x", "gamma_nr_c", "gamma_nr_x")
_BATH_KEYS = ("omega_window", "c_light", "taper_frac", "n_modes")
_SCAN_KEYS = ("kind", "k_grid", "omega_grid", "t_grid",
              "input_occupation", "max_deviation")
_OUTPUT_KEYS = ("directory", "formats")
_FORMATS = ("csv", "gnuplot")


class NumericalCheckError(RuntimeError):
    """An internal residual or deviation gate failed after computation."""


_NUMERICAL_ERRORS = (NumericalCheckError, DivergentPointError,
                     SingularMatrixError, RecurrenceLimitError)


def _gate(what, value, bound):
    """The one numerical gate: pass only if value <= bound, so NaN fails."""
    if not value <= bound:
        raise NumericalCheckError("%s = %.3e exceeds bound %.3e"
                                  % (what, value, bound))


@dataclass(frozen=True)
class _Scan:
    """One scan kind: its runner, the scan keys it requires, the further
    scan keys it takes, whether system.delta may be a list (a detuning
    family) and whether it needs the bath block."""

    run: object
    needs: tuple = ()
    takes: tuple = ()
    family: bool = False
    bath: bool = False


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


def _numbers(node, path):
    if not isinstance(node, list):
        _fail(path, "must be a number list")
    return [_number(v, "%s[%d]" % (path, i)) for i, v in enumerate(node)]


def _checked(path, rule, *args, **kwargs):
    """rule(*args, **kwargs), a library constructor or input rule, with its
    ValueError reported as a ConfigError at the JSON path."""
    try:
        return rule(*args, **kwargs)
    except ValueError as exc:
        _fail(path, str(exc))


def _grid(node, path):
    """A grid is a number list or a {start, stop, num} linspace, under the
    library's axis rule (core._axis): nonempty and strictly increasing."""
    if isinstance(node, dict):
        _check_keys(node, ("start", "stop", "num"),
                    ("start", "stop", "num"), path)
        node = _checked(path, np.linspace,
                        _number(node["start"], path + ".start"),
                        _number(node["stop"], path + ".stop"),
                        _int(node["num"], path + ".num"))
    elif isinstance(node, list):
        node = _numbers(node, path)
    else:
        _fail(path, "must be a number list or a {start, stop, num} object")
    return _checked(path, _axis, node, "grid")


def _occupation(node, path):
    """A number or an {omega, n} table, under InputOccupation's rules."""
    if isinstance(node, dict):
        _check_keys(node, ("omega", "n"), ("omega", "n"), path)
        node = (_grid(node["omega"], path + ".omega"),
                _numbers(node["n"], path + ".n"))
    else:
        node = _number(node, path)
    return _checked(path, InputOccupation, node)


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
        deltas = _numbers(delta_node, "system.delta")
        if not deltas:
            _fail("system.delta", "list must be nonempty")
    else:
        deltas = [_number(delta_node, "system.delta")]
    systems = tuple(_checked("system", SystemParams, delta=d, **kwargs)
                    for d in deltas)

    scan = _mapping(doc["scan"], "scan")
    _check_keys(scan, _SCAN_KEYS, ("kind",), "scan")
    kind = scan["kind"]
    if not isinstance(kind, str) or kind not in SCANS:
        _fail("scan.kind", "must be one of %s" % ", ".join(SCANS))
    record = SCANS[kind]
    for key in _SCAN_KEYS[1:]:
        if key in record.needs and key not in scan:
            _fail("scan." + key, "required for scan kind %r" % kind)
        if key in scan and key not in record.needs + record.takes:
            _fail("scan." + key, "not referenced by scan kind %r" % kind)
    if len(deltas) > 1 and not record.family:
        _fail("system.delta",
              "a detuning list is not referenced by scan kind %r" % kind)
    if ("bath" in doc) != record.bath:
        _fail("bath", "%s scan kind %r" % (
            "required for" if record.bath else "not referenced by", kind))

    bath = None
    n_modes = 4000
    if record.bath:
        bath_block = _mapping(doc["bath"], "bath")
        _check_keys(bath_block, _BATH_KEYS, ("omega_window",), "bath")
        window = bath_block["omega_window"]
        if not isinstance(window, list) or len(window) != 2:
            _fail("bath.omega_window", "must be a [lo, hi] pair")
        window = tuple(_numbers(window, "bath.omega_window"))
        if "n_modes" in bath_block:
            n_modes = _int(bath_block["n_modes"], "bath.n_modes")
            if n_modes < MIN_MODES:
                _fail("bath.n_modes", "must be >= %d" % MIN_MODES)
        bath = _checked(
            "bath", BathSpec, window,
            _number(bath_block.get("c_light", 1.0), "bath.c_light"),
            _number(bath_block.get("taper_frac", 0.05), "bath.taper_frac"))

    grids = {name: _grid(scan[name], "scan." + name) if name in scan else None
             for name in ("k_grid", "omega_grid", "t_grid")}
    if grids["k_grid"] is None and "k_grid" in record.needs + record.takes:
        grids["k_grid"] = np.array([0.0])
    if grids["t_grid"] is not None and grids["t_grid"][0] < 0.0:
        _fail("scan.t_grid", "times must be non-negative")
    if kind == "oracle-compare":
        if grids["omega_grid"] is None and grids["t_grid"] is None:
            _fail("scan", "oracle-compare needs omega_grid and/or t_grid")
        if grids["k_grid"].size > 1:
            _fail("scan.k_grid", "oracle-compare takes a single momentum")
        # the two-Lorentzian peak fit has six parameters
        if grids["omega_grid"] is not None and grids["omega_grid"].size < 6:
            _fail("scan.omega_grid", "oracle-compare needs at least 6 points")

    occupation = _occupation(scan.get("input_occupation", 1.0),
                             "scan.input_occupation")
    max_deviation = _number(scan.get("max_deviation", 0.05),
                            "scan.max_deviation")
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


# rows formatted and written per chunk, so that no string grows with the
# table.  Over 30 in-process passes of the bundled map configs, peak RSS
# rose 4.1 MB above the per-value writer with 1024-row chunks, 1.6 MB
# with 256 and 1.4 MB with 128; the speed is the same
_CHUNK_ROWS = 128


class _Grid(tuple):
    """A numeric table as its columns, which broadcast to one grid and
    stay unbroadcast: one row per grid point, in C order."""


def _write_grid(fh, columns):
    """The rows of a _Grid, FLOAT_FMT per value, each value formatted
    once.  A row block is one run of the last axis.  A column constant
    along it is formatted once per block; with several blocks, a column
    that varies along the last axis alone is formatted once per table;
    every other column is formatted per row.  Each chunk of rows is one
    template that holds the table's strings, takes the block's strings
    in place of its markers, and formats the row values in one pass."""
    shape = np.broadcast_shapes(*(np.shape(c) for c in columns))
    lead, width = shape[:-1], shape[-1]
    cells, heads, values = [], [], []
    for column in columns:
        dims = (1,) * (len(shape) - np.ndim(column)) + np.shape(column)
        view = np.broadcast_to(column, shape)
        if dims[-1] == 1:
            # a marker that no formatted number and no FLOAT_FMT holds
            cells.append("\0%d\0" % len(heads))
            heads.append((cells[-1], view[..., 0]))
        elif lead and dims[:-1] == (1,) * len(lead):
            cells.append([FLOAT_FMT % v
                          for v in view[(0,) * len(lead)].tolist()])
        else:
            cells.append(FLOAT_FMT)
            values.append(view)

    def line(w):
        return ",".join(c if isinstance(c, str) else c[w]
                        for c in cells) + "\n"

    lines = ([line(w) for w in range(width)]
             if any(isinstance(c, list) for c in cells) else None)
    for idx in np.ndindex(*lead):
        marked = [(mark, FLOAT_FMT % head[idx]) for mark, head in heads]
        rows = (np.stack([v[idx] for v in values], axis=-1) if values
                else np.empty((width, 0)))
        for start in range(0, width, _CHUNK_ROWS):
            stop = min(start + _CHUNK_ROWS, width)
            template = ("".join(lines[start:stop]) if lines
                        else line(0) * (stop - start))
            for mark, head in marked:
                template = template.replace(mark, head)
            fh.write(template % tuple(rows[start:stop].ravel().tolist()))


def _emit(cfg, tables, plot=None):
    """The one write stage: each (name, header, rows) table as a CSV in
    cfg.directory, then plot.gp if gnuplot output is asked for.  rows is
    a _Grid for a numeric table, or row tuples for a table with string
    cells.  Returns the paths in the order written; an OSError
    becomes a ConfigError."""
    files = []
    try:
        os.makedirs(cfg.directory, exist_ok=True)
        for name, header, rows in tables:
            files.append(os.path.join(cfg.directory, name))
            with open(files[-1], "w", newline="") as fh:
                fh.write(",".join(header) + "\n")
                if isinstance(rows, _Grid):
                    _write_grid(fh, rows)
                else:
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


def _abs2(z):
    """|z|^2 bit for bit as abs(z) ** 2 on each complex scalar: C hypot,
    then C pow.  np.abs and squaring round differently."""
    return np.float_power(np.hypot(z.real, z.imag), 2.0)


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
    """|det(omega*1 - H_k)| relative to its natural scale; ~0 on a branch,
    inf where the determinant or its scale overflows a float."""
    pole = complex_poles(p, k)
    try:
        det = (omega - pole.z_c) * (omega - pole.z_x) - pole.g_tilde ** 2
        scale = max(1.0, abs(omega - pole.z_c), abs(omega - pole.z_x),
                    abs(pole.g_tilde)) ** 2
    except OverflowError:
        # Python's complex and float powers raise where numpy gives inf
        return np.inf
    return abs(det) / scale


def _branch_table(tracks):
    low, up = (np.array([b.omega for b in track]) for track in tracks)
    return ("branches.csv",
            ("k", "re_omega_l", "im_omega_l", "re_omega_u", "im_omega_u"),
            _Grid((np.array([b.k for b in tracks[0]]),
                   low.real, low.imag, up.real, up.imag)))


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
            _gate("branch determinant residual at k = %g" % branch.k,
                  _det_residual(p, branch.k, branch.omega), 1e-8)

    grid = _spectrum_grid(power_spectrum_grid, "power spectrum diverges",
                          p, cfg.k_grid, cfg.omega_grid, cfg.occupation)

    return _emit(cfg, [
        _branch_table(tracks),
        ("power_map.csv", ("k", "omega", "intensity"),
         _Grid((cfg.k_grid[:, None], cfg.omega_grid, grid.intensity)))],
        _heatmap_script("emission intensity", "power_map.csv",
                        p, cfg.k_grid, cfg.omega_grid))


def run_spectrum(cfg):
    """Emission spectra over (detuning family) x k_grid x omega_grid."""
    # one row per k, bit for bit the scalar call at that k
    maps = np.array([power_spectrum(p, cfg.k_grid, cfg.omega_grid,
                                    cfg.occupation) for p in cfg.systems])
    deltas = np.array([p.delta for p in cfg.systems])[:, None, None]
    for p in cfg.systems:
        mid = cfg.omega_grid[cfg.omega_grid.size // 2]
        _gate("emission/absorption identity residual",
              power_absorption_relation_check(p, cfg.k_grid[0], mid,
                                               cfg.occupation), 1e-10)

    return _emit(cfg, [
        ("spectrum.csv", ("k", "delta", "omega", "intensity"),
         _Grid((cfg.k_grid[:, None], deltas, cfg.omega_grid, maps)))],
        _family_script("emission spectra", "omega", "intensity",
                       "spectrum.csv", 4, cfg.k_grid[0], cfg.systems))


def _trajectory_with_check(p, k, t_grid):
    """Closed-form amplitudes when branches are split, the exact
    matrix-exponential reference at a coalescence; the two paths
    cross-check each other on a coarse subset."""
    initial = (0.0 + 0.0j, 1.0 + 0.0j)
    try:
        c, x = analytic_trajectory(p, k, initial, t_grid)
    except DegenerateModesError:
        return evolve_ode(p, k, initial, t_grid)
    stride = max(1, t_grid.size // 8)
    probe = t_grid[::stride]
    c_ref, x_ref = evolve_ode(p, k, initial, probe)
    _gate("closed-form/matrix-exponential trajectory mismatch at k = %g" % k,
          np.max(np.abs([c[::stride] - c_ref, x[::stride] - x_ref])), 1e-6)
    return c, x


def run_dynamics(cfg):
    """Amplitude dynamics from x(0) = 1, c(0) = 0 (vacuum environment)."""
    deltas = np.array([p.delta for p in cfg.systems])[:, None, None]
    # c and x indexed (detuning, k, t), the order of the rows
    c, x = np.moveaxis(np.array([[_trajectory_with_check(p, k, cfg.t_grid)
                                  for k in cfg.k_grid] for p in cfg.systems]),
                       2, 0)

    return _emit(cfg, [
        ("dynamics.csv",
         ("k", "delta", "t", "re_c", "im_c", "re_x", "im_x",
          "abs2_c", "abs2_x"),
         _Grid((cfg.k_grid[:, None], deltas, cfg.t_grid,
                c.real, c.imag, x.real, x.imag, _abs2(c), _abs2(x))))],
        _family_script("amplitude dynamics from x(0) = 1", "t", "|x|^2",
                       "dynamics.csv", 9, cfg.k_grid[0], cfg.systems))


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
            _gate("discriminant residual at located coalescence",
                  resid, 1e-6 * scale)
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
            if cond.exact:
                _gate("undamped-pole residual at located condition",
                      resid, 1e-6 * max(1.0, p.total_rate))
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
    mid_w = cfg.omega_grid[cfg.omega_grid.size // 2]
    for k in (cfg.k_grid[0], cfg.k_grid[-1]):
        _gate("R + A = 1 residual at k = %g" % k,
              abs(reflection(p, k, mid_w) + absorption(p, k, mid_w) - 1.0),
              1e-10)

    return _emit(cfg, [
        ("absorption_map.csv", ("k", "omega", "absorption"),
         _Grid((cfg.k_grid[:, None], cfg.omega_grid, amap))),
        _branch_table(track_branches(p, cfg.k_grid))],
        _heatmap_script("absorption", "absorption_map.csv",
                        p, cfg.k_grid, cfg.omega_grid))


def _peak_centers(omega, values, guesses):
    """Two-Lorentzian peak centers; a fit that does not converge is a
    numerical-check failure."""
    try:
        return lorentzian_pair_fit(omega, values, guesses)[0]
    except RuntimeError as exc:
        raise NumericalCheckError("two-Lorentzian fit failed: %s" % exc)


def run_oracle_compare(cfg):
    """Discretized-bath oracle vs memoryless closed forms, side by side.

    Emits per-comparison CSVs plus summary.csv with metric/value/bound
    rows; any metric above its bound fails the run (exit code 3) after
    all files are written.
    """
    p = cfg.systems[0]
    k = float(cfg.k_grid[0])
    # the window and the system come from the config
    oracle = _checked("bath", BathOracle, cfg.bath, cfg.n_modes, p, k)

    tables = []
    metrics = []

    span = 5.0 * max(p.total_rate, 1.0)
    probe = p.eps0 + np.linspace(-span, span, 5)
    gam = oracle.effective_damping(probe)
    cross = np.sqrt(p.gamma_c * p.gamma_x)
    # the k = 0 carrier rates, carried to (k, probe) by the golden rule's
    # weight ratio, which is exactly 1 at k = 0 inside the flat window
    ratio = (_spectral_weight(cfg.bath, k, probe)
             / _spectral_weight(cfg.bath, 0.0, p.eps0))
    targets = ratio[:, None, None] * [[p.gamma_c, cross], [cross, p.gamma_x]]
    rel = np.abs(gam.real - targets) / max(p.total_rate, 1e-12)
    metrics.append(("damping_rel_err", float(np.max(rel)),
                    cfg.max_deviation))
    tables.append((
        "oracle_damping.csv", ("omega", "gamma_cc", "gamma_xx", "gamma_cx"),
        _Grid((probe, gam[:, 0, 0].real, gam[:, 1, 1].real,
               gam[:, 0, 1].real))))

    if cfg.omega_grid is not None:
        ldos = oracle.spectrum(cfg.omega_grid)
        intensity = power_spectrum(p, k, cfg.omega_grid)
        low, up = eigen_branches(p, k)
        guesses = (low.omega.real, up.omega.real)
        step = float(np.max(np.diff(cfg.omega_grid)))
        c_orc = _peak_centers(cfg.omega_grid, ldos, guesses)
        c_ana = _peak_centers(cfg.omega_grid, intensity, guesses)
        metrics.append(("peak_center_offset",
                        float(np.max(np.abs(c_orc - c_ana))), step))
        tables.append((
            "oracle_spectrum.csv",
            ("omega", "ldos_oracle", "intensity_analytic"),
            _Grid((cfg.omega_grid, ldos, intensity))))

    if cfg.t_grid is not None:
        c_orc, x_orc = oracle.dynamics((0.0, 1.0), cfg.t_grid)
        c_ana, x_ana = _trajectory_with_check(p, k, cfg.t_grid)
        sup = np.max(np.abs([np.abs(c_orc) ** 2 - np.abs(c_ana) ** 2,
                             np.abs(x_orc) ** 2 - np.abs(x_ana) ** 2]))
        metrics.append(("dynamics_sup_err", float(sup), cfg.max_deviation))
        tables.append((
            "oracle_dynamics.csv",
            ("t", "abs2_c_oracle", "abs2_x_oracle",
             "abs2_c_analytic", "abs2_x_analytic"),
            _Grid((cfg.t_grid, _abs2(c_orc), _abs2(x_orc),
                   _abs2(c_ana), _abs2(x_ana)))))

    tables.append(("summary.csv", ("metric", "value", "bound", "passed"),
                   ((name, value, bound, "yes" if value <= bound else "no")
                    for name, value, bound in metrics)))
    files = _emit(cfg, tables)
    for metric in metrics:
        _gate(*metric)
    return files


SCANS = {
    "dispersion": _Scan(run_dispersion, ("k_grid", "omega_grid"),
                        ("input_occupation",)),
    "spectrum": _Scan(run_spectrum, ("omega_grid",),
                      ("k_grid", "input_occupation"), family=True),
    "dynamics": _Scan(run_dynamics, ("t_grid",), ("k_grid",), family=True),
    "ep-bic": _Scan(run_ep_bic),
    "absorption": _Scan(run_absorption, ("k_grid", "omega_grid")),
    "oracle-compare": _Scan(run_oracle_compare, (),
                            ("k_grid", "omega_grid", "t_grid",
                             "max_deviation"), bath=True),
}


# ---------------------------------------------------------------------------
# entry point

@functools.cache
def _build_parser():
    # built on the first main call and reused: parse_args keeps no state
    ap = argparse.ArgumentParser(
        prog="ioxsim",
        description="input-output simulations of an emitter and cavity mode"
                    " sharing a photonic environment")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in SCANS:
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
        files = SCANS[cfg.kind].run(cfg)
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
