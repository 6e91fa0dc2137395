"""The array kernel and the scalar API are one path: grid rows, k arrays and
tracked branches equal the scalar calls bit for bit, signed zeros and NaNs
included, as the byte-identical CSVs need."""

import itertools

import numpy as np
import pytest

from ioxsim import (
    core,
    SystemParams,
    bic_condition,
    complex_poles,
    eigen_branches,
    ep_conditions,
)
from ioxsim.core import _swaps, discriminant, track_branches
from ioxsim.errors import DivergentPointError
from ioxsim.spectra import (
    _BLOCK_ROWS,
    absorption,
    absorption_components,
    absorption_grid,
    default_omega_window,
    power_absorption_relation_check,
    power_spectrum,
    power_spectrum_grid,
)

# a row count that crosses block edges without filling the last block
N_ROWS = 2 * _BLOCK_ROWS + 5


def _same(a, b):
    """Equal bit for bit; == would let -0.0 pass for 0.0."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and (
        a.tobytes() == b.tobytes())


def _seeded(seed):
    rng = np.random.default_rng(seed)
    return SystemParams(delta=rng.uniform(-6, 6), g_rabi=rng.uniform(0, 4),
                        mass_ratio=rng.uniform(0, 1),
                        gamma_c=rng.uniform(0, 3), gamma_x=rng.uniform(0, 3),
                        gamma_nr_c=rng.uniform(0, 1),
                        gamma_nr_x=rng.uniform(0, 1))


def _through(point, lo=-2.0, hi=2.0):
    """An increasing k grid of N_ROWS points that contains point exactly."""
    return np.union1d(np.linspace(lo, hi, N_ROWS - 1), [point])


EP = SystemParams(delta=2 * np.sqrt(2.0) - 1.0, g_rabi=0.5,
                  gamma_c=1.0, gamma_x=2.0)
DARK = SystemParams(delta=2.1 / np.sqrt(0.3), g_rabi=3.0,
                    gamma_c=1.0, gamma_x=0.3)

CASES = {
    "seed1": (_seeded(1), np.linspace(-3, 3, N_ROWS)),
    "seed2": (_seeded(2), np.linspace(-3, 3, N_ROWS)),
    "seed3": (_seeded(3), np.linspace(-3, 3, N_ROWS)),
    "gamma_x=0": (SystemParams(delta=1.0, g_rabi=1.0, gamma_c=1.0,
                               gamma_x=0.0, gamma_nr_x=0.1),
                  np.linspace(-2, 2, N_ROWS)),
    "g_rabi=0": (SystemParams(delta=3.0, gamma_c=1.0, gamma_x=1.8,
                              gamma_nr_c=0.15),
                 np.linspace(-2, 2, N_ROWS)),
    "mass_ratio=0": (SystemParams(delta=-2.0, g_rabi=0.8, mass_ratio=0.0,
                                  gamma_c=0.5, gamma_x=0.2),
                     np.linspace(0, 3, N_ROWS)),
    "mass_ratio=1": (SystemParams(delta=-2.0, g_rabi=0.8, mass_ratio=1.0,
                                  gamma_c=0.5, gamma_x=0.2, gamma_nr_c=0.1),
                     np.linspace(0, 3, N_ROWS)),
    # the smallest subnormal rate: CPython's signed zeros must survive
    "gamma_c subnormal": (SystemParams(delta=1.0, g_rabi=0.5,
                                       gamma_c=5e-324, gamma_x=0.0),
                          np.linspace(-2, 2, N_ROWS)),
    "exact EP": (EP, _through(ep_conditions(EP)[0].k_ep)),
    "exact dark mode": (DARK, _through(bic_condition(DARK).k_bic)),
}


def _omega(p, k_values):
    """The default window plus both real parts at every k, so that the
    dark-mode case puts grid points exactly on its undamped pole."""
    w = np.linspace(*default_omega_window(p), 97)
    extra = [b.omega.real for k in k_values for b in eigen_branches(p, k)]
    return np.union1d(w, extra)


@pytest.fixture(params=sorted(CASES))
def case(request):
    p, k_values = CASES[request.param]
    return p, k_values, _omega(p, k_values)


def _scalar_branches(p, k):
    """omega_L, omega_U in CPython complex arithmetic, one k at a time."""
    z_c = (p.eps0 + p.delta + k * k) - 1j * (p.gamma_c + p.gamma_nr_c)
    z_x = (p.eps0 + p.mass_ratio * (k * k)) - 1j * (p.gamma_x + p.gamma_nr_x)
    g = p.g_rabi - 1j * np.sqrt(p.gamma_c * p.gamma_x)
    d_gamma = (p.gamma_c + p.gamma_nr_c) - (p.gamma_x + p.gamma_nr_x)
    dz = (p.delta + (1.0 - p.mass_ratio) * k ** 2) - 1j * d_gamma
    sq = complex(np.sqrt(np.complex128(dz * dz + 4.0 * g * g) + 0.0))
    return 0.5 * (z_c + z_x) - 0.5 * sq, 0.5 * (z_c + z_x) + 0.5 * sq


def _scalar_rows(p, k, omega):
    """Power and absorption rows as the per-k formulas give them, built on
    eigen_branches; the bundled CSVs were written from these."""
    low, up = eigen_branches(p, k)
    gt = p.g_rabi - 1j * np.sqrt(p.gamma_c * p.gamma_x)
    z_c = complex_poles(p, k).z_c
    z_x = complex_poles(p, k).z_x
    s = np.sqrt(p.gamma_c * p.gamma_x)
    den = np.abs(omega - low.omega) ** 2 * np.abs(omega - up.omega) ** 2
    num = (4.0 * (abs(gt) ** 2 + np.abs(omega - z_x) ** 2) * p.gamma_c
           + 4.0 * (abs(gt) ** 2 + np.abs(omega - z_c) ** 2) * p.gamma_x
           + 8.0 * ((2.0 * omega - z_c - z_x) * np.conj(gt)).real * s)
    a_gamma = (4.0 * (p.gamma_c * np.abs(omega - z_x) ** 2
                      + p.gamma_x * abs(gt) ** 2)
               + 8.0 * s * (np.conj(gt) * (omega - z_x)).real) / den
    a_m = (4.0 * (p.gamma_c * abs(gt) ** 2
                  + p.gamma_x * np.abs(omega - z_c) ** 2)
           + 8.0 * s * (np.conj(gt) * (omega - z_c)).real) / den
    return num / den, p.gamma_nr_c * a_gamma + p.gamma_nr_x * a_m


def test_branches_equal_cpython_formula(case):
    p, k_values, _ = case
    tracks = track_branches(p, k_values)
    for i, k in enumerate(k_values.tolist()):
        pair = sorted((tracks[0][i], tracks[1][i]), key=lambda b: b.label)
        assert _same([b.omega for b in pair], _scalar_branches(p, k))


def test_seeded_branches_equal_cpython_formula():
    k_values = np.linspace(-3.0, 3.0, 1001)
    for seed in range(4):
        p = _seeded(seed)
        low, up = track_branches(p, k_values)
        assert _same(low.k, k_values) and _same(up.k, k_values)
        # the tracks in label order: "L" is the lower track where unswapped
        om_l = np.where(low.upper, up.omega, low.omega)
        om_u = np.where(low.upper, low.omega, up.omega)
        for i, k in enumerate(k_values.tolist()):
            assert _same([om_l[i], om_u[i]], _scalar_branches(p, k))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_grids_equal_per_k_formulas(case):
    p, k_values, omega = case
    power = power_spectrum_grid(p, k_values, omega)
    absorbed = absorption_grid(p, k_values, omega)
    for i, k in enumerate(k_values):
        ref_power, ref_absorbed = _scalar_rows(p, k, omega)
        ref_power[power.divergent[i]] = np.nan
        ref_absorbed[absorbed.divergent[i]] = np.nan
        assert _same(power.intensity[i], ref_power)
        assert _same(absorbed.intensity[i], ref_absorbed)


def test_dark_mode_case_has_on_pole_points():
    p, k_values = CASES["exact dark mode"]
    grid = power_spectrum_grid(p, k_values, _omega(p, k_values))
    assert grid.divergent.any()


def test_track_branches_equal_eigen_branches(case):
    p, k_values, _ = case
    tracks = track_branches(p, k_values)
    for i, k in enumerate(k_values):
        low, up = eigen_branches(p, k)
        pair = sorted((tracks[0][i], tracks[1][i]), key=lambda b: b.label)
        for tracked, direct in zip(pair, (low, up)):
            assert tracked.label == direct.label
            assert _same(tracked.omega, direct.omega)
            assert tracked.k == direct.k
            assert tracked.degenerate == direct.degenerate
            assert _same(tracked.eigvec, direct.eigvec)


def _label_loop(keep, swap):
    """The label pass as a loop over the steps, one state at a time: the
    reference for _swaps."""
    swapped = [False]
    for tie, flip in zip((keep == swap).tolist(), (keep < swap).tolist()):
        swapped.append(not tie and swapped[-1] != flip)
    return swapped


# one (keep, swap) pair per kind of step: a tie, a flip, a kept label
STEPS = np.array([(1.0, 1.0), (0.0, 2.0), (2.0, 1.0)])


def _score_arrays():
    """keep and swap scores from {0, 1, 2}: every sequence of up to seven
    steps, then long random ones in which ties and flips are dense, with
    ties at the first and the last step."""
    for n in range(8):
        for kinds in itertools.product(range(3), repeat=n):
            yield STEPS[list(kinds)].T
    rng = np.random.default_rng(31)
    for n in (2, 3, 50, 1000):
        for _ in range(20):
            keep, swap = rng.integers(0, 3, (2, n)).astype(float)
            keep[[0, -1]] = swap[[0, -1]]
            yield keep, swap
            yield rng.integers(0, 3, (2, n)).astype(float)


def test_label_pass_equals_the_loop():
    for keep, swap in _score_arrays():
        swapped = _swaps(keep, swap)
        assert swapped.dtype == bool
        assert swapped.tolist() == _label_loop(keep, swap)


def test_cases_swap_and_tie(monkeypatch):
    # the bit tests above see both label states and the reset at a tie
    seen = []

    def recorded(keep, swap):
        seen.append((keep, swap, _swaps(keep, swap)))
        return seen[-1][2]

    monkeypatch.setattr(core, "_swaps", recorded)
    for p, k_values in CASES.values():
        track_branches(p, k_values)
    assert sum(np.count_nonzero(keep == swap) for keep, swap, _ in seen)
    assert sum(np.count_nonzero(swapped) for _, _, swapped in seen)


def test_exact_ep_is_degenerate_in_both_paths():
    k_ep = ep_conditions(EP)[0].k_ep
    tracks = track_branches(EP, _through(k_ep))
    (i,) = np.flatnonzero(_through(k_ep) == k_ep)
    assert tracks[0][i].degenerate and eigen_branches(EP, k_ep)[0].degenerate


def test_discriminant_array_equals_scalar(case):
    p, k_values, _ = case
    disc = discriminant(p, k_values)
    assert _same(disc, [discriminant(p, k) for k in k_values])


def test_power_rows_equal_scalar_calls(case):
    p, k_values, omega = case
    grid = power_spectrum_grid(p, k_values, omega)
    for i, k in enumerate(k_values):
        row, mask = grid.intensity[i], grid.divergent[i]
        assert np.array_equal(np.isnan(row), mask)
        if mask.any():
            with pytest.raises(DivergentPointError):
                power_spectrum(p, k, omega)
        else:
            assert _same(power_spectrum(p, k, omega), row)
        assert _same(power_spectrum(p, k, omega[~mask]), row[~mask])


def test_power_scalar_omega_and_mask_agree(case):
    p, k_values, omega = case
    grid = power_spectrum_grid(p, k_values, omega)
    for i in range(0, k_values.size, 4):
        for j in range(omega.size):
            if grid.divergent[i, j]:
                with pytest.raises(DivergentPointError):
                    power_spectrum(p, k_values[i], omega[j])
            else:
                assert _same(power_spectrum(p, k_values[i], omega[j]),
                             grid.intensity[i, j])


def test_power_k_array_equals_grid(case):
    p, k_values, omega = case
    grid = power_spectrum_grid(p, k_values, omega)
    keep = ~grid.divergent.any(axis=0)
    assert _same(power_spectrum(p, k_values, omega[keep]),
                 grid.intensity[:, keep])


def test_absorption_rows_equal_scalar_calls(case):
    p, k_values, omega = case
    grid = absorption_grid(p, k_values, omega)
    keep = ~grid.divergent.any(axis=0)
    a_gamma, a_m = absorption_components(p, k_values, omega[keep])
    for i, k in enumerate(k_values):
        row, mask = grid.intensity[i], grid.divergent[i]
        assert np.array_equal(np.isnan(row), mask)
        if mask.any():
            with pytest.raises(DivergentPointError):
                absorption(p, k, omega)
        else:
            assert _same(absorption(p, k, omega), row)
        assert _same(absorption(p, k, omega[~mask]), row[~mask])
        row_gamma, row_m = absorption_components(p, k, omega[keep])
        assert _same(row_gamma, a_gamma[i])
        assert _same(row_m, a_m[i])
    for j in range(0, omega.size, 7):
        if grid.divergent[-1, j]:
            with pytest.raises(DivergentPointError):
                absorption(p, k_values[-1], omega[j])
        else:
            assert _same(absorption(p, k_values[-1], omega[j]),
                         grid.intensity[-1, j])


@pytest.mark.parametrize("rows", [slice(3, 4), slice(1, _BLOCK_ROWS + 2),
                                  slice(None)])
@pytest.mark.parametrize("cols", [slice(40, 41), slice(None)])
def test_sub_grids_equal_full_grid(case, rows, cols):
    p, k_values, omega = case
    full_p = power_spectrum_grid(p, k_values, omega)
    full_a = absorption_grid(p, k_values, omega)
    sub_p = power_spectrum_grid(p, k_values[rows], omega[cols])
    sub_a = absorption_grid(p, k_values[rows], omega[cols])
    assert _same(sub_p.intensity, full_p.intensity[rows, cols])
    assert np.array_equal(sub_p.divergent, full_p.divergent[rows, cols])
    assert _same(sub_a.intensity, full_a.intensity[rows, cols])
    assert np.array_equal(sub_a.divergent, full_a.divergent[rows, cols])


# undamped and uncoupled: at k the poles are eps0 + delta + k^2 (photon)
# and eps0 (exciton), both real, so every spectrum diverges on each of them
UNDAMPED = SystemParams(delta=1.0, gamma_c=0.0)


@pytest.mark.parametrize("fn", [power_spectrum, absorption,
                                absorption_components,
                                power_absorption_relation_check],
                         ids=lambda fn: fn.__name__)
def test_first_pole_named_across_k_blocks(fn):
    omega = np.linspace(995.25, 1006.25, 801)
    k_values = np.linspace(-1.0, 1.0, 3 * _BLOCK_ROWS + 3)
    # the photon pole of a row in the second block; the same k^2 again in
    # the third block, which must not be named
    k_first = k_values[_BLOCK_ROWS + 1]
    k_values[2 * _BLOCK_ROWS + 1] = -k_first
    omega[400] = UNDAMPED.eps0 + UNDAMPED.delta + k_first * k_first

    def message(*args):
        with pytest.raises(DivergentPointError) as err:
            fn(UNDAMPED, *args)
        return str(err.value)

    assert message(k_values, omega) == message(k_first, omega[400])
