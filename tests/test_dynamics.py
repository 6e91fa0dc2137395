"""Tests for amplitude dynamics: closed forms, BiC plateau and the exact
matrix-exponential reference."""

import numpy as np
import pytest
from scipy.linalg import expm

from ioxsim import SystemParams
from ioxsim.dynamics import (
    _EXPM_THETA,
    AmplitudeState,
    _expm2,
    analytic_trajectory,
    bic_amplitudes,
    evolve_ode,
)
from ioxsim.errors import DegenerateModesError

SQRT2 = np.sqrt(2.0)
NAN, INF = float("nan"), float("inf")
BIC = SystemParams(delta=2.1 / np.sqrt(0.3), g_rabi=3.0, gamma_c=1.0, gamma_x=0.3)
EP = SystemParams(delta=2.0 * SQRT2, g_rabi=0.5, gamma_c=1.0, gamma_x=2.0)
X_START = AmplitudeState(c=0.0, x=1.0)


def random_passive(rng):
    return SystemParams(
        delta=rng.uniform(-4, 4),
        g_rabi=rng.uniform(0, 3),
        mass_ratio=rng.uniform(0, 1),
        gamma_c=rng.uniform(0, 2),
        gamma_x=rng.uniform(0, 2),
        gamma_nr_c=rng.uniform(0, 0.3),
        gamma_nr_x=rng.uniform(0, 0.3),
    )


def random_state(rng):
    amp = rng.normal(size=4)
    amp /= np.linalg.norm(amp)
    return AmplitudeState(c=amp[0] + 1j * amp[1], x=amp[2] + 1j * amp[3])


class TestAnalytic:
    def test_initial_condition(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            p = random_passive(rng)
            state = random_state(rng)
            c, x = analytic_trajectory(p, rng.uniform(-2, 2), state,
                                       [state.t])
            assert c[0] == pytest.approx(state.c, abs=1e-12)
            assert x[0] == pytest.approx(state.x, abs=1e-12)

    def test_undamped_rabi_oscillations(self):
        p = SystemParams(delta=0.0, g_rabi=1.3, gamma_c=0.0, gamma_x=0.0)
        t = np.linspace(0, 10, 201)
        c, x = analytic_trajectory(p, 0.0, X_START, t)
        assert np.allclose(np.abs(x) ** 2, np.cos(1.3 * t) ** 2, atol=1e-12)
        assert np.allclose(np.abs(c) ** 2, np.sin(1.3 * t) ** 2, atol=1e-12)

    def test_decoupled_decay(self):
        # g~ = 0: each amplitude decays on its own pole
        p = SystemParams(delta=1.0, g_rabi=0.0, gamma_c=0.8, gamma_x=0.0)
        t = np.linspace(0, 5, 26)
        c, x = analytic_trajectory(p, 0.0, AmplitudeState(c=1.0, x=1.0), t)
        assert np.allclose(np.abs(c), np.exp(-0.8 * t), atol=1e-12)
        assert np.allclose(np.abs(x), 1.0, atol=1e-12)

    def test_rejects_exceptional_point(self):
        with pytest.raises(DegenerateModesError):
            analytic_trajectory(EP, 0.0, X_START, [1.0])

    def test_passivity_along_trajectories(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            p = random_passive(rng)
            t = np.linspace(0, 20, 401)
            c, x = analytic_trajectory(p, rng.uniform(-2, 2),
                                       random_state(rng), t)
            norms = np.abs(c) ** 2 + np.abs(x) ** 2
            assert np.all(np.diff(norms) <= 1e-10)
            assert norms[0] <= 1.0 + 1e-12

    def test_time_offset_initial_state(self):
        p = SystemParams(delta=1.0, g_rabi=0.5, gamma_c=0.3, gamma_x=0.2)
        c, x = analytic_trajectory(p, 0.0, X_START, [2.0, 5.0])
        mid = AmplitudeState(c[0], x[0], t=2.0)
        c_relayed, x_relayed = analytic_trajectory(p, 0.0, mid, [5.0])
        assert c_relayed[0] == pytest.approx(c[1], abs=1e-12)
        assert x_relayed[0] == pytest.approx(x[1], abs=1e-12)

    def test_rejects_past_times(self):
        with pytest.raises(ValueError):
            analytic_trajectory(BIC, 0.0, AmplitudeState(0.0, 1.0, t=1.0),
                                [0.5])


class TestBicAmplitudes:
    def test_initial_values(self):
        c2, x2 = bic_amplitudes(BIC, 0.0)
        assert c2 == pytest.approx(0.0, abs=1e-14)
        assert x2 == pytest.approx(1.0, abs=1e-14)

    def test_trapped_fractions(self):
        c2, x2 = bic_amplitudes(BIC, 60.0)
        assert x2 == pytest.approx(0.5917159763313609, abs=1e-10)
        assert c2 == pytest.approx(0.17751479289940827, abs=1e-10)

    def test_matches_analytic_solution(self):
        t = np.linspace(0.0, 12.0, 481)
        c2, x2 = bic_amplitudes(BIC, t)
        c, x = analytic_trajectory(BIC, 0.0, X_START, t)
        assert np.max(np.abs(np.abs(c) ** 2 - c2)) < 1e-10
        assert np.max(np.abs(np.abs(x) ** 2 - x2)) < 1e-10

    def test_plateau_constant(self):
        # transients decay like e^{-(gamma_c+gamma_x) t}; by t = 20 they sit
        # below the 1e-10 plateau tolerance
        t = np.linspace(20.0, 25.0, 101)
        _, x2 = bic_amplitudes(BIC, t)
        assert np.max(np.abs(x2 - 0.5917159763313609)) < 1e-10

    def test_rejects_off_condition(self):
        p = SystemParams(delta=1.0, g_rabi=3.0, gamma_c=1.0, gamma_x=0.3)
        with pytest.raises(ValueError):
            bic_amplitudes(p, 1.0)

    def test_rejects_nonradiative(self):
        p = SystemParams(delta=2.1 / np.sqrt(0.3), g_rabi=3.0, gamma_c=1.0,
                         gamma_x=0.3, gamma_nr_x=0.05)
        with pytest.raises(ValueError):
            bic_amplitudes(p, 1.0)

    def test_no_rabi_special_case(self):
        # formula remains valid at g_rabi = 0 (condition at zero detuning)
        p = SystemParams(delta=0.0, g_rabi=0.0, gamma_c=1.0, gamma_x=0.5)
        t = np.linspace(0, 10, 101)
        c2, x2 = bic_amplitudes(p, t)
        c, x = analytic_trajectory(p, 0.0, X_START, t)
        assert np.max(np.abs(np.abs(c) ** 2 - c2)) < 1e-12
        assert np.max(np.abs(np.abs(x) ** 2 - x2)) < 1e-12


class TestEvolveOde:
    def test_matches_analytic(self):
        t = np.linspace(0, 10, 201)
        c_ode, x_ode = evolve_ode(BIC, 0.0, X_START, t)
        c_an, x_an = analytic_trajectory(BIC, 0.0, X_START, t)
        assert np.max(np.abs(c_ode - c_an)) < 1e-8
        assert np.max(np.abs(x_ode - x_an)) < 1e-8

    def test_zero_state_stays_zero(self):
        t = np.linspace(0, 5, 11)
        c, x = evolve_ode(BIC, 0.0, AmplitudeState(0.0, 0.0), t)
        assert np.all(c == 0) and np.all(x == 0)

    def test_secular_growth_at_exceptional_point(self):
        # coalesced modes: |c(t)| = |g~| t exp(-Gamma t) exactly, with
        # Gamma = (gamma_c + gamma_x) / 2
        t = np.linspace(0.5, 8.0, 151)
        c, _ = evolve_ode(EP, 0.0, X_START, t)
        g_tilde = abs(EP.g_rabi - 1j * np.sqrt(EP.gamma_c * EP.gamma_x))
        envelope = g_tilde * t * np.exp(-1.5 * t)
        assert np.max(np.abs(np.abs(c) / envelope - 1.0)) < 1e-4

    def test_validates_grid(self):
        with pytest.raises(ValueError):
            evolve_ode(BIC, 0.0, X_START, [0.0, 0.0, 1.0])
        with pytest.raises(ValueError):
            evolve_ode(BIC, 0.0, X_START, [])
        with pytest.raises(ValueError):
            evolve_ode(BIC, 0.0, AmplitudeState(0.0, 1.0, t=2.0), [0.0, 1.0])

    def test_exact_at_exceptional_point(self):
        # the exceptional-point acceptance check's parameters and grid:
        # |x(t)| = |g~| t exp(-Gamma t) from (c, x)(0) = (1, 0)
        t = np.linspace(0.5, 15.0, 291)
        _, x = evolve_ode(EP, 0.0, AmplitudeState(1.0, 0.0), t)
        g_tilde = abs(EP.g_rabi - 1j * np.sqrt(EP.gamma_c * EP.gamma_x))
        envelope = g_tilde * t * np.exp(-1.5 * t)
        assert np.max(np.abs(np.abs(x) / envelope - 1.0)) <= 1e-10

    def test_returns_initial_state_exactly(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            p = random_passive(rng)
            amp = random_state(rng)
            state = AmplitudeState(amp.c, amp.x, t=rng.uniform(0, 5))
            c, x = evolve_ode(p, rng.uniform(-2, 2), state,
                              [state.t, state.t + 1.0])
            assert c[0] == state.c and x[0] == state.x

    def test_relayed_evolution_composes(self):
        rng = np.random.default_rng(59)
        for _ in range(10):
            p = random_passive(rng)
            k = rng.uniform(-2, 2)
            amp = random_state(rng)
            start = AmplitudeState(amp.c, amp.x, t=0.3)
            c, x = evolve_ode(p, k, start, [4.0, 9.0])
            mid = AmplitudeState(c[0], x[0], t=4.0)
            c_relayed, x_relayed = evolve_ode(p, k, mid, [9.0])
            assert abs(c_relayed[0] - c[1]) < 1e-12
            assert abs(x_relayed[0] - x[1]) < 1e-12

    def test_nonuniform_grid_matches_uniform(self):
        p = SystemParams(delta=1.0, g_rabi=0.5, gamma_c=0.3, gamma_x=0.2)
        start = AmplitudeState(0.6 - 0.2j, 0.3 + 0.7j, t=1.5)
        uniform = np.linspace(1.5, 13.5, 49)
        nonuniform = np.union1d(uniform[::4], [1.55, 2.2, 7.123, 13.4])
        shared = np.isin(nonuniform, uniform)
        c_u, x_u = evolve_ode(p, 0.3, start, uniform)
        c_n, x_n = evolve_ode(p, 0.3, start, nonuniform)
        assert np.allclose(c_n[shared], c_u[::4], rtol=0, atol=1e-14)
        assert np.allclose(x_n[shared], x_u[::4], rtol=0, atol=1e-14)

    def test_agreement_random_draws(self):
        rng = np.random.default_rng(47)
        t = np.linspace(0, 20, 101)
        for _ in range(10):
            p = random_passive(rng)
            k = rng.uniform(-2, 2)
            state = random_state(rng)
            c_ode, x_ode = evolve_ode(p, k, state, t)
            c_an, x_an = analytic_trajectory(p, k, state, t)
            assert np.max(np.abs(c_ode - c_an)) < 1e-8
            assert np.max(np.abs(x_ode - x_an)) < 1e-8


def passive_generator(rng):
    """-i H for a random complex-symmetric H with a damped diagonal."""
    h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return -1j * ((h + h.T) / 2 - 1j * np.diag(rng.uniform(0, 1, 2)))


def squarings(a):
    """Squarings the propagator applies to each slice of the stack a."""
    return np.maximum(
        np.frexp(np.abs(a).sum(axis=1).max(axis=1) / _EXPM_THETA)[1], 0)


class TestPropagator:
    def test_matches_scipy_on_seeded_draws(self):
        rng = np.random.default_rng(61)
        for _ in range(50):
            a = rng.uniform(0, 40, 64)[:, None, None] * passive_generator(rng)
            ref = expm(a)
            err = np.abs(_expm2(a) - ref).max(axis=(1, 2))
            assert np.all(err <= 1e-12 * np.abs(ref).max(axis=(1, 2)))

    def test_many_squarings(self):
        # Hermitian generators of unit 1-norm: exp(a) is unitary
        rng = np.random.default_rng(67)
        for _ in range(20):
            h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            h += h.conj().T
            h /= np.abs(h).sum(axis=0).max()
            a = -1j * rng.uniform(300, 3000, 8)[:, None, None] * h
            assert squarings(a).min() >= 10
            u = _expm2(a)
            assert np.abs(u - expm(a)).max() < 1e-11
            eye = np.conj(u.transpose(0, 2, 1)) @ u
            assert np.abs(eye - np.eye(2)).max() < 1e-11

    def test_zero_time_is_exact_identity(self):
        a = 0.0 * passive_generator(np.random.default_rng(71))
        assert np.array_equal(_expm2(np.stack([a, a, a])),
                              np.broadcast_to(np.eye(2), (3, 2, 2)))

    def test_mixed_stack_matches_single_slices(self):
        # slices needing 0 to 11 squarings, out of order, with a zero one
        gen = passive_generator(np.random.default_rng(73))
        t = np.array([3.0, 0.0, 1e-3, 700.0, 0.2, 40.0, 1.0])
        a = t[:, None, None] * gen
        s = squarings(a)
        assert s.min() == 0 and s.max() >= 10
        stack = _expm2(a)
        for i in range(t.size):
            assert np.array_equal(stack[i], _expm2(a[i:i + 1])[0])
        ref = expm(a)
        err = np.abs(stack - ref).max(axis=(1, 2))
        assert np.all(err <= 1e-11 * np.abs(ref).max(axis=(1, 2)))


@pytest.mark.parametrize("trajectory", [evolve_ode, analytic_trajectory])
@pytest.mark.parametrize("state, t_grid", [
    (X_START, [0.0, NAN, 1.0]),
    (X_START, [0.0, 1.0, INF]),
    (AmplitudeState(NAN, 1.0), [0.0, 1.0]),
    (AmplitudeState(0.0, complex(INF, 0.0)), [0.0, 1.0]),
    (AmplitudeState(0.0, 1.0, t=NAN), [0.0, 1.0]),
], ids=["nan-time", "inf-time", "nan-c", "inf-x", "nan-start-time"])
def test_rejects_non_finite_input(trajectory, state, t_grid):
    with pytest.raises(ValueError):
        trajectory(BIC, 0.0, state, t_grid)
