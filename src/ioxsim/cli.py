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
significant digits (FLOAT_FMT), so identical configs give byte-identical
files across runs.  A numeric table is a _Grid whose columns stay
unbroadcast; the one numeric writer, _write_grid, formats each value
once, a column at a time, with _format, which gives FLOAT_FMT's bytes
from numpy arithmetic and falls back to FLOAT_FMT itself for each value
it cannot certify.  k, delta and omega or t are formatted once per
table, the value columns in chunks of rows that numpy joins.  Exit
codes: 0 all outputs written and every gate passed, 2 config error or
unwritable output directory, 3 numerical-check failure.  Every gate is
one _gate call, which a NaN fails, and every spectra or fit call one
_numerical call, which turns a refused value into a numerical-check
failure.  A failed gate or a raised error writes nothing; only
oracle-compare writes all its files, summary.csv included, before its
bounds decide the exit code.

main is run by ioxsim.__main__.main, the one entry of the ``ioxsim``
script and ``python -m ioxsim``, which sets OPENBLAS_NUM_THREADS=1
before numpy loads unless OPENBLAS_NUM_THREADS or OMP_NUM_THREADS is
set; set either to choose another count.  Importing this module touches
no environment variable.  bath is imported only where a bath block is
parsed or run, and the acceptance checks only for their subcommand, so
a closed-form run loads neither.
"""

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import DEFAULT_SEED
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
    lorentzian_pair_fit,
    power_absorption_relation_check,
    power_spectrum,
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
    bath: "BathSpec | None"
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
        from .bath import MIN_MODES, BathSpec

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


# _scaled forms |v| * 10**q in long double, where 10**q is exact for
# |q| <= _EXACT_POW10 (5**q < 2**(nmant + 1)).  Only the x87 extended
# (nmant 63) and IEEE binary128 (nmant 112) formats are trusted; on any
# other platform nothing is certified and every value takes FLOAT_FMT
_NMANT = np.finfo(np.longdouble).nmant
_EXACT_POW10 = (max(q for q in range(64) if 5 ** q < 2 ** (_NMANT + 1))
                if _NMANT in (63, 112) else -1)
_POW10 = np.array([10 ** q for q in range(max(_EXACT_POW10, 0) + 1)],
                  dtype=np.longdouble)
# the 17-digit range of y: 10**16 <= y < 10**17 - 1/2
_LOW, _HIGH = np.longdouble(10 ** 16), np.longdouble(10 ** 17) - 0.5
# "0000" to "9999", each as the uint32 word of its four ASCII digits
_QUADS = np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4,
                              indexing="ij"), axis=-1).view(np.uint32).ravel()
# _KEEP[n] keeps the first n bytes of a 24-byte cell
_KEEP = np.array([[1] * n + [0] * (24 - n) for n in range(25)], np.uint8)


def _scaled(x):
    """(certified, digits, exponent) for a 1-d float array x: digits is
    the 17-digit integer of |x| rounded to 17 significant digits and
    exponent its decimal exponent, wherever certified is True.

    y = |x| * 10**q, q = 16 - floor(log10 |x|), is one long-double
    multiply or divide by an exact 10**|q|, so it is the exact product
    correctly rounded.  For 10**16 <= y < 10**17 - 1/2, ulp(y) <= 2**-7
    and frac(y) - 1/2 is a multiple of ulp(y): unless it is zero it is at
    least ulp(y), twice the largest rounding error, so y and the exact
    product round to the same integer.  Not certified: zeros, non-finite
    values, |q| > _EXACT_POW10, ties, and values whose floor(log10)
    misses by one (the float neighbours of powers of ten)."""
    ok = np.isfinite(x) & (x != 0.0)
    e = np.floor(np.log10(np.abs(x, where=ok, out=np.ones_like(x))))
    q = 16.0 - e
    ok &= np.abs(q) <= _EXACT_POW10
    # a value not certified stands in as 10**16, scaled by 10**0, which
    # no cast overflows
    q[~ok] = 0.0
    y = np.where(ok, np.abs(x), 1e16).astype(np.longdouble)
    scale = _POW10[np.abs(q).astype(np.intp)]
    np.multiply(y, scale, out=y, where=q >= 0.0)
    np.divide(y, scale, out=y, where=q < 0.0)
    digits = y.astype(np.int64)
    half = (y - digits).astype(float) - 0.5
    ok &= (y >= _LOW) & (y < _HIGH) & (half != 0.0)
    digits += half > 0.0
    return ok, digits, np.where(ok, e, 0.0)


def _digit_rows(digits):
    """Each 17-digit integer as a row of 24 ASCII bytes: seven '0', then
    its digits."""
    top, bot = np.divmod(digits, 10 ** 8)
    head, top = np.divmod(top, 10 ** 4)
    lead, head = np.divmod(head, 10 ** 4)
    words = np.empty((digits.size, 6), np.uint32)
    words[:, 0] = _QUADS[0]
    for i, part in enumerate((lead, head, top) + np.divmod(bot, 10 ** 4)):
        words[:, i + 1] = _QUADS[part]
    return words.view(np.uint8)


def _laid_out(rows, key):
    """The cells of the digit rows under their layout keys, unstripped.

    key is 2 * layout + sign.  Layouts 0-20 are fixed notation at
    exponent -4 to 16, layout 21 the mantissa of exponent notation: the
    point follows `at` characters of a stream of `cut` zeros and the 17
    digits, and a sign shifts the cell by one.  The rows are sorted by
    key, so that each key is laid out by slices."""
    order = np.argsort(key, kind="stable")
    rows, laid = rows[order], np.empty(rows.shape, np.uint8)
    start = 0
    for k, count in enumerate(np.bincount(key).tolist()):
        if not count:
            continue
        stop, layout, sign = start + count, k // 2, k % 2
        exp = layout - 4
        at, cut = ((1, 0) if layout == 21
                   else (max(exp, 0) + 1, max(-exp, 0)))
        cell, digits = laid[start:stop], rows[start:stop, 7 - cut:]
        if sign:
            cell[:, 0] = 45
        cell[:, sign:sign + at] = digits[:, :at]
        cell[:, sign + at] = 46
        cell[:, sign + at + 1:sign + 18 + cut] = digits[:, at:]
        start = stop
    rows[order] = laid
    return rows


def _format(values):
    """FLOAT_FMT % v for each v of a float array, as a bytes array of the
    same shape.  The digits of each certified value (_scaled) are laid
    out as %g lays them out (_laid_out): fixed notation for -4 <=
    exponent < 17, exponent notation otherwise, trailing zeros and a bare
    point stripped.  Zeros are written directly; every other value takes
    FLOAT_FMT itself."""
    x = np.asarray(values, dtype=float).ravel()
    neg = np.signbit(x)
    ok, digits, e = _scaled(x)
    rows = _digit_rows(digits)
    kept = 17 - np.argmax(rows[:, :6:-1] != 48, axis=1)
    # the cell: a sign, at least `at` characters of the stream, then a
    # point only before further digits (see _laid_out)
    sci = (e < -4) | (e > 16)
    at = np.where(sci, 1.0, np.maximum(e, 0.0) + 1.0)
    cut = np.where(sci, 0.0, np.maximum(-e, 0.0))
    size = (neg + np.maximum(kept + cut, at) + (kept + cut > at)).astype(int)
    text = _laid_out(rows, (2 * np.where(sci, 21, e + 4) + neg)
                     .astype(np.uint8))
    text *= _KEEP[size]
    # exponent notation: e, its sign and two digits after the mantissa
    pos = np.flatnonzero(sci)
    for i, char in enumerate((101, np.where(e[pos] < 0, 45, 43),
                              48 + np.abs(e[pos]) // 10,
                              48 + np.abs(e[pos]) % 10)):
        text[pos, size[pos] + i] = char

    out = text.view("S24").ravel()
    zero = x == 0.0
    out[zero] = np.where(neg[zero], b"-0", b"0")
    other = np.flatnonzero(~(ok | zero))
    out[other] = [(FLOAT_FMT % v).encode() for v in x[other].tolist()]
    return out.reshape(np.shape(values))


# cells formatted and joined per chunk of rows, so that no buffer grows
# with the table.  On 2 vCPU a pass of the bundled map configs took 97,
# 83 and 79 ms with 4096, 8192 and 16384, and the writer's traced peak
# is about 1 MB at 8192
_CHUNK_VALUES = 8192


class _Grid(tuple):
    """A numeric table as its columns, which broadcast to one grid and
    stay unbroadcast: one row per grid point, in C order."""


def _write_grid(fh, columns):
    """The rows of a _Grid, FLOAT_FMT per value, each value formatted
    once.  A column with fewer values than the table has rows (k and
    delta, omega or t, a constant) is formatted whole by one _format
    call; the others hold one value per row and are formatted chunk by
    chunk, together.  Chunks of at most _CHUNK_VALUES cells are joined
    row by row in numpy and written as bytes."""
    shape = np.broadcast_shapes(*(np.shape(c) for c in columns))
    count = int(np.prod(shape))
    whole = [np.size(c) < count for c in columns]
    # each cell is 25 bytes: its NUL-padded text, then its separator;
    # the NULs are dropped when the chunk is joined
    ends = np.full(len(columns), ord(","), np.uint8)
    ends[-1] = ord("\n")
    for chunk in np.nditer(
            [_format(c) if w else np.asarray(c, dtype=float)
             for c, w in zip(columns, whole)],
            ("external_loop", "buffered", "zerosize_ok"), order="C",
            buffersize=max(1, _CHUNK_VALUES // len(columns))):
        chunk = chunk if isinstance(chunk, tuple) else (chunk,)
        values = [part for part, w in zip(chunk, whole) if not w]
        text = iter(np.split(_format(np.concatenate(values)), len(values))
                    if values else ())
        cells = np.empty((chunk[0].size, len(columns)), "S25")
        for i, (part, w) in enumerate(zip(chunk, whole)):
            cells[:, i] = part if w else next(text)
        joined = cells.view(np.uint8).reshape(len(cells), -1)
        joined[:, 24::25] = ends
        fh.write(joined[joined != 0])


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
            with open(files[-1], "wb") as fh:
                fh.write((",".join(header) + "\n").encode())
                if isinstance(rows, _Grid):
                    _write_grid(fh, rows)
                else:
                    for row in rows:
                        fh.write((",".join(_fmt(v) for v in row)
                                  + "\n").encode())
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
    then C pow, in place.  np.abs and squaring round differently."""
    size = np.hypot(z.real, z.imag)
    return np.float_power(size, 2.0, out=size)


def _numerical(fn, *args):
    """fn(*args), a spectra or fit call.  A value the library refuses (its
    ValueError) or a failed fit (lorentzian_pair_fit's RuntimeError) is a
    numerical-check failure, not a crash."""
    try:
        return fn(*args)
    except ValueError as exc:
        raise NumericalCheckError(str(exc))
    except RuntimeError as exc:
        raise NumericalCheckError("two-Lorentzian fit failed: %s" % exc)


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
    low, up = tracks
    return ("branches.csv",
            ("k", "re_omega_l", "im_omega_l", "re_omega_u", "im_omega_u"),
            _Grid((low.k, low.omega.real, low.omega.imag,
                   up.omega.real, up.omega.imag)))


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

    intensity = _numerical(power_spectrum, p, cfg.k_grid, cfg.omega_grid,
                           cfg.occupation)

    return _emit(cfg, [
        _branch_table(tracks),
        ("power_map.csv", ("k", "omega", "intensity"),
         _Grid((cfg.k_grid[:, None], cfg.omega_grid, intensity)))],
        _heatmap_script("emission intensity", "power_map.csv",
                        p, cfg.k_grid, cfg.omega_grid))


def run_spectrum(cfg):
    """Emission spectra over (detuning family) x k_grid x omega_grid."""
    # one row per k, bit for bit the scalar call at that k
    maps = np.array([_numerical(power_spectrum, p, cfg.k_grid,
                                cfg.omega_grid, cfg.occupation)
                     for p in cfg.systems])
    deltas = np.array([p.delta for p in cfg.systems])[:, None, None]
    for p in cfg.systems:
        mid = cfg.omega_grid[cfg.omega_grid.size // 2]
        _gate("emission/absorption identity residual",
              _numerical(power_absorption_relation_check, p,
                         cfg.k_grid[0], mid, cfg.occupation), 1e-10)

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
    # c and x indexed (detuning, k, t), the order of the rows, filled one
    # trajectory at a time
    c, x = np.empty((2, len(cfg.systems), cfg.k_grid.size, cfg.t_grid.size),
                    complex)
    for i, p in enumerate(cfg.systems):
        for j, k in enumerate(cfg.k_grid):
            c[i, j], x[i, j] = _trajectory_with_check(p, k, cfg.t_grid)

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

    # a formula-only row has no gate, so an overflow would reach the file
    if not np.isfinite([v for row in rows for v in row
                        if not isinstance(v, str)]).all():
        raise NumericalCheckError("ep_bic.csv values must be finite")
    return _emit(cfg, [
        ("ep_bic.csv",
         ("condition", "sign", "d_gamma_required", "d_gamma_actual",
          "d_eps_target", "k_located", "residual", "note"),
         rows)])


def run_absorption(cfg):
    """Absorption map (fraction of input lost to the private baths)."""
    p = cfg.systems[0]
    amap = _numerical(absorption, p, cfg.k_grid, cfg.omega_grid)
    mid_w = cfg.omega_grid[cfg.omega_grid.size // 2]
    for k in (cfg.k_grid[0], cfg.k_grid[-1]):
        _gate("R + A = 1 residual at k = %g" % k,
              abs(_numerical(reflection, p, k, mid_w)
                  + _numerical(absorption, p, k, mid_w) - 1.0), 1e-10)

    return _emit(cfg, [
        ("absorption_map.csv", ("k", "omega", "absorption"),
         _Grid((cfg.k_grid[:, None], cfg.omega_grid, amap))),
        _branch_table(track_branches(p, cfg.k_grid))],
        _heatmap_script("absorption", "absorption_map.csv",
                        p, cfg.k_grid, cfg.omega_grid))


def run_oracle_compare(cfg):
    """Discretized-bath oracle vs memoryless closed forms, side by side.

    Emits per-comparison CSVs plus summary.csv with metric/value/bound
    rows; any metric above its bound fails the run (exit code 3) after
    all files are written.
    """
    from .bath import BathOracle, _spectral_weight

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
        intensity = _numerical(power_spectrum, p, k, cfg.omega_grid)
        low, up = eigen_branches(p, k)
        guesses = (low.omega.real, up.omega.real)
        step = float(np.max(np.diff(cfg.omega_grid)))
        c_orc, c_ana = (_numerical(lorentzian_pair_fit, cfg.omega_grid,
                                   values, guesses)[0]
                        for values in (ldos, intensity))
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
    sp.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help="RNG seed (default: %d)" % DEFAULT_SEED)
    return ap


def main(argv=None):
    args = _build_parser().parse_args(argv)
    if args.command == "acceptance":
        from . import acceptance

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
