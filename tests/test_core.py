"""Tests for the effective two-mode model: poles, branches, EP/BiC loci."""

import pickle
import tracemalloc
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

from ioxsim import (
    SystemParams,
    complex_poles,
    kinetic_energies,
    effective_hamiltonian,
    eigen_branches,
    track_branches,
    detunings,
    ep_conditions,
    bic_condition,
)
from ioxsim import core
from ioxsim.core import discriminant

SQRT2 = np.sqrt(2.0)

# Parameter sets used repeatedly below: level attraction (detuned, no Rabi),
# bound state in the continuum (strong Rabi), exceptional point.
ATTRACT = SystemParams(delta=3.0, gamma_c=1.0, gamma_x=1.8)
BIC = SystemParams(delta=2.1 / np.sqrt(0.3), g_rabi=3.0, gamma_c=1.0, gamma_x=0.3)
EP = SystemParams(delta=2.0 * SQRT2, g_rabi=0.5, gamma_c=1.0, gamma_x=2.0)


def random_passive(rng, nonradiative=False):
    kwargs = dict(
        delta=rng.uniform(-4, 4),
        g_rabi=rng.uniform(0, 3),
        mass_ratio=rng.uniform(0, 1),
        gamma_c=rng.uniform(0, 2),
        gamma_x=rng.uniform(0, 2),
    )
    if nonradiative:
        kwargs["gamma_nr_c"] = rng.uniform(0, 0.5)
        kwargs["gamma_nr_x"] = rng.uniform(0, 0.5)
    return SystemParams(**kwargs)


class TestSystemParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            SystemParams(gamma_c=-0.1)
        with pytest.raises(ValueError):
            SystemParams(g_rabi=-1.0)
        with pytest.raises(ValueError):
            SystemParams(eps0=0.0)
        with pytest.raises(ValueError):
            SystemParams(mass_ratio=1.5)

    @pytest.mark.parametrize("field", [f.name for f in fields(SystemParams)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, field, bad):
        with pytest.raises(ValueError, match=field + " must be finite"):
            SystemParams(**{field: bad})


class TestKineticEnergies:
    def test_detuned_k0(self):
        p = SystemParams(delta=3.0)
        assert kinetic_energies(p, 0.0) == (p.eps0 + 3.0, p.eps0)

    def test_resonant_k0(self):
        p = SystemParams(delta=0.0)
        assert kinetic_energies(p, 0.0) == (p.eps0, p.eps0)

    def test_quadratic_dispersion(self):
        p = SystemParams(delta=2.0, mass_ratio=0.0)
        eps_c, eps_x = kinetic_energies(p, 1.5)
        assert eps_c == pytest.approx(p.eps0 + 4.25, abs=1e-14)
        assert eps_x == pytest.approx(p.eps0, abs=1e-14)

    def test_exciton_mass(self):
        p = SystemParams(delta=0.0, mass_ratio=0.5)
        eps_c, eps_x = kinetic_energies(p, 2.0)
        assert eps_c - p.eps0 == pytest.approx(4.0)
        assert eps_x - p.eps0 == pytest.approx(2.0)


class TestPolesAndHamiltonian:
    def test_dissipative_coupling_attract(self):
        pole = complex_poles(ATTRACT, 0.0)
        assert pole.g_tilde == pytest.approx(-1.3416407864998738j, abs=1e-14)

    def test_dissipative_coupling_bic(self):
        pole = complex_poles(BIC, 0.0)
        assert pole.g_tilde == pytest.approx(3.0 - 0.5477225575051661j, abs=1e-14)

    def test_hermitian_limit(self):
        p = SystemParams(gamma_c=0.0, gamma_x=0.0, g_rabi=1.0)
        h = effective_hamiltonian(p, 0.0)
        assert np.allclose(h, h.conj().T)
        assert h[0, 1] == pytest.approx(1.0)

    def test_nonradiative_on_diagonal(self):
        p = SystemParams(gamma_c=1.0, gamma_x=1.8, gamma_nr_c=0.15,
                         gamma_nr_x=0.15)
        pole = complex_poles(p, 0.0)
        assert pole.z_c.imag == pytest.approx(-1.15)
        assert pole.z_x.imag == pytest.approx(-1.95)
        # the dissipative coupling stays purely radiative
        assert pole.g_tilde.imag == pytest.approx(-np.sqrt(1.8))


class TestEigenBranches:
    def test_symmetric_resonant_pair(self):
        # equal rates at resonance: one undamped and one doubly damped mode
        g = 0.7
        p = SystemParams(delta=0.0, gamma_c=g, gamma_x=g)
        low, up = eigen_branches(p, 0.0)
        assert up.omega == pytest.approx(p.eps0 + 0.0j, abs=1e-12)
        assert low.omega == pytest.approx(p.eps0 - 2j * g, abs=1e-12)

    def test_level_attraction_splitting(self):
        low, up = eigen_branches(ATTRACT, 0.0)
        sq = up.omega - low.omega
        assert sq == pytest.approx(1.7461640532289957 + 1.3744413049632624j,
                                   abs=1e-12)
        # real splitting below the bare detuning: level attraction
        assert 0 < (up.omega - low.omega).real < 3.0

    def test_ep_discriminant_zero(self):
        pole = complex_poles(EP, 0.0)
        d = (pole.z_c - pole.z_x) ** 2 + 4.0 * pole.g_tilde ** 2
        assert abs(d) < 1e-10
        low, up = eigen_branches(EP, 0.0)
        assert low.degenerate and up.degenerate
        assert abs(up.omega - low.omega) < 1e-10
        overlap = abs(np.vdot(low.eigvec, up.eigvec))
        assert overlap > 1 - 1e-8

    def test_trace_and_det_identities(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            p = random_passive(rng, nonradiative=True)
            k = rng.uniform(-2, 2)
            pole = complex_poles(p, k)
            low, up = eigen_branches(p, k)
            scale = max(1.0, abs(pole.z_c), abs(pole.z_x))
            assert abs(low.omega + up.omega - pole.z_c - pole.z_x) < 1e-12 * scale
            det = pole.z_c * pole.z_x - pole.g_tilde ** 2
            assert abs(low.omega * up.omega - det) < 1e-11 * scale ** 2

    def test_passivity(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            p = random_passive(rng, nonradiative=True)
            low, up = eigen_branches(p, rng.uniform(-2, 2))
            bound = p.total_rate
            for b in (low, up):
                assert -bound - 1e-12 <= b.omega.imag <= 1e-12

    def test_eigvec_normalization_and_phase(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            p = random_passive(rng)
            for b in eigen_branches(p, rng.uniform(-2, 2)):
                assert np.linalg.norm(b.eigvec) == pytest.approx(1.0, abs=1e-12)
                lead = b.eigvec[np.abs(b.eigvec) > 1e-12][0]
                assert lead.imag == pytest.approx(0.0, abs=1e-12)
                assert lead.real > 0

    def test_eigvec_solves_eigenproblem(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            p = random_passive(rng, nonradiative=True)
            k = rng.uniform(-2, 2)
            h = effective_hamiltonian(p, k)
            for b in eigen_branches(p, k):
                resid = h @ b.eigvec - b.omega * b.eigvec
                assert np.linalg.norm(resid) < 1e-10 * max(1.0, abs(b.omega))

    def test_hermitian_polariton_splitting(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            delta = rng.uniform(-3, 3)
            g = rng.uniform(0.1, 3)
            p = SystemParams(delta=delta, g_rabi=g, gamma_c=0.0, gamma_x=0.0)
            low, up = eigen_branches(p, 0.0)
            split = np.sqrt(delta ** 2 + 4 * g ** 2)
            assert (up.omega - low.omega) == pytest.approx(split, abs=1e-12)


class TestTrackBranches:
    def test_single_point_matches_labels(self):
        tr = track_branches(ATTRACT, [0.0])
        low, up = eigen_branches(ATTRACT, 0.0)
        assert tr[0][0].omega == low.omega and tr[0][0].label == "L"
        assert tr[1][0].omega == up.omega and tr[1][0].label == "U"

    def test_hermitian_no_crossing(self):
        # level repulsion: the tracked branches keep a gap >= 2 g_rabi
        g = 0.8
        p = SystemParams(delta=-2.0, g_rabi=g, gamma_c=0.0, gamma_x=0.0)
        kgrid = np.linspace(0.0, 3.0, 601)  # detuning sweeps through zero
        tr = track_branches(p, kgrid)
        gaps = np.abs(tr[1].omega - tr[0].omega)
        assert gaps.min() >= 2 * g - 1e-12
        assert gaps.min() == pytest.approx(2 * g, abs=1e-4)  # grid resolution
        # exactly on resonance the gap is exactly 2 g_rabi
        low, up = eigen_branches(p, np.sqrt(2.0))
        assert abs(up.omega - low.omega) == pytest.approx(2 * g, abs=1e-12)
        # continuity: no jumps anywhere near the crossing
        for track in tr:
            assert np.max(np.abs(np.diff(track.omega))) < 0.1

    def test_anomalous_lower_branch_maximum(self):
        kgrid = np.linspace(-1.0, 1.0, 201)
        tr = track_branches(ATTRACT, kgrid)
        re = min((track.omega.real for track in tr), key=lambda r: r[100])
        assert np.argmax(re) == 100  # local maximum exactly at k = 0

    def test_validates_grid(self):
        with pytest.raises(ValueError):
            track_branches(ATTRACT, [0.0, 0.0, 1.0])
        with pytest.raises(ValueError):
            track_branches(ATTRACT, [])


class TestComplexBranchRecord:
    def test_slotted_and_frozen(self):
        low, _ = eigen_branches(ATTRACT, 0.3)
        assert not hasattr(low, "__dict__")
        with pytest.raises(FrozenInstanceError):
            low.omega = 0.0

    def test_pickle_and_replace_round_trip(self):
        low, _ = eigen_branches(EP, 0.2)
        for copy in (pickle.loads(pickle.dumps(low)),
                     replace(low, label=low.label)):
            for field in fields(low):
                assert np.array_equal(getattr(copy, field.name),
                                      getattr(low, field.name))
        assert replace(low, label="U").label == "U"

    def test_equality_is_identity(self):
        low, _ = eigen_branches(ATTRACT, 0.3)
        again, _ = eigen_branches(ATTRACT, 0.3)
        assert low == low
        assert low != again
        assert low != pickle.loads(pickle.dumps(low))

    def test_tracked_grid_memory(self):
        kgrid = np.linspace(-3.0, 3.0, 1001)
        track_branches(ATTRACT, kgrid)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracks = track_branches(ATTRACT, kgrid)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # arrays: 16 B of omega, 32 B of eigvec and a label byte per branch
        # point, with the degenerate flags shared (269 B as slotted records)
        assert retained <= 64 * 2 * kgrid.size
        assert sum(map(len, tracks)) == 2 * kgrid.size


class TestBranchRecordCount:
    """A track holds arrays and builds a ComplexBranch only when indexed:
    exact counts, independent of the host."""

    @pytest.fixture
    def built(self, monkeypatch):
        calls = []
        original = core.ComplexBranch

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(core, "ComplexBranch", counted)
        return calls

    def test_track_builds_none(self, built):
        tracks = track_branches(ATTRACT, np.linspace(-3.0, 3.0, 1001))
        assert len(tracks[0]) == len(tracks[1]) == 1001
        assert built == []

    def test_eigen_branches_builds_two(self, built):
        eigen_branches(ATTRACT, 0.3)
        assert len(built) == 2

    def test_index_builds_one(self, built):
        lower, _ = track_branches(ATTRACT, np.linspace(-3.0, 3.0, 1001))
        branch = lower[500]
        assert len(built) == 1
        assert branch.k == lower.k[500] and branch.omega == lower.omega[500]


class TestDetunings:
    def test_zero(self):
        p = SystemParams(delta=0.0, gamma_c=1.0, gamma_x=1.0)
        d = detunings(p, 0.0)
        assert d.d_eps == 0.0 and d.d_gamma == 0.0

    def test_linewidth_detuning(self):
        assert detunings(ATTRACT, 0.0).d_gamma == pytest.approx(-0.8)

    def test_equal_nonradiative_cancel(self):
        p = SystemParams(delta=3.0, gamma_c=1.0, gamma_x=1.8,
                         gamma_nr_c=0.15, gamma_nr_x=0.15)
        assert detunings(p, 0.0).d_gamma == pytest.approx(-0.8)

    def test_momentum_dependence(self):
        p = SystemParams(delta=1.0, mass_ratio=0.25)
        assert detunings(p, 2.0).d_eps == pytest.approx(1.0 + 0.75 * 4.0)


class TestEpConditions:
    def test_matched_sign(self):
        p = SystemParams(delta=2 * SQRT2, g_rabi=0.5, gamma_c=1.0, gamma_x=2.0)
        (cond,) = ep_conditions(p)
        assert cond.sign == +1
        assert cond.d_eps_ep == pytest.approx(2 * SQRT2, abs=1e-12)
        assert cond.k_ep == pytest.approx(0.0, abs=1e-6)

    def test_ring_radius(self):
        p = SystemParams(delta=2 * SQRT2 - 1.0, g_rabi=0.5,
                         gamma_c=1.0, gamma_x=2.0)
        (cond,) = ep_conditions(p)
        assert cond.k_ep == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_rates_no_match(self):
        p = SystemParams(gamma_c=1.0, gamma_x=1.0, g_rabi=0.5)
        assert ep_conditions(p) == []

    def test_mirrored_sign(self):
        p = SystemParams(delta=0.0, g_rabi=0.5, gamma_c=2.0, gamma_x=1.0)
        (cond,) = ep_conditions(p)
        assert cond.sign == -1
        assert cond.d_eps_ep == pytest.approx(-2 * SQRT2, abs=1e-12)
        assert cond.k_ep is None  # d_eps(k) >= delta = 0 never reaches -2*sqrt(2)

    def test_no_rabi_both_signs(self):
        p = SystemParams(delta=0.0, g_rabi=0.0, gamma_c=1.0, gamma_x=1.0)
        conds = ep_conditions(p)
        assert sorted(c.sign for c in conds) == [-1, 1]
        for c in conds:
            assert abs(c.d_eps_ep) == pytest.approx(2.0)

    def test_mass_ratio_bisection(self):
        p = SystemParams(delta=2 * SQRT2 - 1.0, g_rabi=0.5, gamma_c=1.0,
                         gamma_x=2.0, mass_ratio=0.36)
        (cond,) = ep_conditions(p)
        # (1 - mass_ratio) k^2 = 1
        assert cond.k_ep == pytest.approx(1.0 / 0.8, abs=1e-9)
        d = detunings(p, cond.k_ep)
        assert d.d_eps == pytest.approx(cond.d_eps_ep, abs=1e-9)

    def test_mass_ratio_radius_in_closed_form(self):
        # k_ep = sqrt((d_eps_ep - delta) / (1 - mass_ratio)); a root
        # bracketed to xtol = 1e-12 left |D| = 2e-12 at this point
        p = SystemParams(delta=-1.0, g_rabi=0.25, gamma_c=1.0, gamma_x=1.5,
                         mass_ratio=0.3)
        (cond,) = ep_conditions(p)
        assert cond.k_ep == pytest.approx(
            np.sqrt((cond.d_eps_ep + 1.0) / 0.7), rel=1e-15)
        assert abs(complex(discriminant(p, cond.k_ep))) < 1e-14

    def test_mass_ratio_radius_sampled(self):
        rng = np.random.default_rng(2024)
        located = 0
        for _ in range(200):
            gc, gx = rng.uniform(0.1, 3.0, 2)
            p = SystemParams(delta=rng.uniform(-5.0, 1.0),
                             g_rabi=abs(gc - gx) / 2, gamma_c=gc, gamma_x=gx,
                             mass_ratio=rng.uniform(0.05, 0.95))
            for cond in ep_conditions(p):
                if cond.k_ep:
                    located += 1
                    assert abs(complex(discriminant(p, cond.k_ep))) < 1e-12
        assert located > 100

    def test_ep_coalescence_at_located_point(self):
        p = SystemParams(delta=2 * SQRT2 - 1.0, g_rabi=0.5,
                         gamma_c=1.0, gamma_x=2.0)
        (cond,) = ep_conditions(p)
        low, up = eigen_branches(p, cond.k_ep)
        assert abs(up.omega - low.omega) < 1e-10
        assert abs(np.vdot(low.eigvec, up.eigvec)) > 1 - 1e-8


class TestBicCondition:
    def test_formula_value(self):
        cond = bic_condition(SystemParams(g_rabi=3.0, gamma_c=1.0, gamma_x=0.3))
        assert cond.d_eps_bic == pytest.approx(2.1 / np.sqrt(0.3), abs=1e-12)
        assert cond.exact

    def test_linewidth_vanishes_at_condition(self):
        low, up = eigen_branches(BIC, 0.0)
        assert abs(low.omega.imag) < 1e-12
        # all the damping is carried by the upper branch
        assert up.omega.imag == pytest.approx(-1.3, abs=1e-12)

    def test_no_rabi_formula_zero(self):
        p = SystemParams(delta=0.0, g_rabi=0.0, gamma_c=1.0, gamma_x=0.5)
        cond = bic_condition(p)
        assert cond.d_eps_bic == 0.0
        # an undamped mode indeed exists at d_eps = 0, on the "U" label
        low, up = eigen_branches(p, 0.0)
        assert min(abs(low.omega.imag), abs(up.omega.imag)) < 1e-12

    def test_rejects_zero_rates(self):
        with pytest.raises(ValueError):
            bic_condition(SystemParams(gamma_c=0.0, gamma_x=1.0, g_rabi=1.0))

    def test_nonradiative_flagged(self):
        p = SystemParams(delta=2.1 / np.sqrt(0.3), g_rabi=3.0, gamma_c=1.0,
                         gamma_x=0.3, gamma_nr_x=0.1)
        cond = bic_condition(p)
        assert not cond.exact
        low, _ = eigen_branches(p, 0.0)
        assert low.omega.imag < -1e-3  # cancellation spoiled

    def test_ring_radius_bisection(self):
        p = SystemParams(delta=1.0, g_rabi=3.0, gamma_c=1.0, gamma_x=0.3,
                         mass_ratio=0.5)
        cond = bic_condition(p)
        d = detunings(p, cond.k_bic)
        assert d.d_eps == pytest.approx(cond.d_eps_bic, abs=1e-9)
        low, _ = eigen_branches(p, cond.k_bic)
        assert abs(low.omega.imag) < 1e-9
