"""Effective two-mode non-Hermitian model.

A cavity photon (C) and an exciton-like emitter (X) decay into one common
photonic continuum.  After eliminating the continuum in the memoryless limit
the pair is governed by the 2x2 effective Hamiltonian

    H_k = [[z^C, g~], [g~, z^X]],      g~ = g_R - i sqrt(gamma_c gamma_x),

with complex poles z^C = eps_c(k) - i(gamma_c + gamma_nr_c) and
z^X = eps_x(k) - i(gamma_x + gamma_nr_x).  The shared environment makes the
off-diagonal coupling complex, which is what produces level attraction,
exceptional points and bound states in the continuum.

Units: hbar = 1 and the reference photon decay rate sets the energy scale.
Momenta are quoted in the dimensionless convention k = (true momentum) /
sqrt(2 m_C * reference rate), so the photon kinetic term is exactly k**2.

The closed forms are array-native over k: complex_poles, kinetic_energies,
detunings and discriminant accept a 1-d k array, and one private kernel
(_modes) gives the eigenvalues and degeneracy flags for a whole k array.
eigen_branches (one k) and track_branches (a k grid) both evaluate it, so
they agree bit for bit, and so do the spectra built on it.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# Relative tolerance used when matching the EP/BiC closed-form conditions.
CONDITION_RTOL = 1e-9

# Two branches count as coalesced when |omega_U - omega_L| = |sqrt(D)| falls
# below this times the local energy scale.
DEGENERACY_TOL = 1e-7


@dataclass(frozen=True)
class SystemParams:
    """Physical parameters of the coupled photon-exciton pair.

    eps0        exciton transition energy (defaults deep into the regime
                where the memoryless elimination of the bath is valid)
    delta       photon-exciton detuning at k = 0
    g_rabi      coherent (Rabi) coupling
    mass_ratio  m_C/m_X; 0 means a flat exciton dispersion
    gamma_c     radiative photon decay into the common bath
    gamma_x     radiative exciton decay into the common bath
    gamma_nr_c  nonradiative photon loss (independent bath)
    gamma_nr_x  nonradiative exciton loss (independent bath)
    """

    eps0: float = 1000.0
    delta: float = 0.0
    g_rabi: float = 0.0
    mass_ratio: float = 0.0
    gamma_c: float = 1.0
    gamma_x: float = 0.0
    gamma_nr_c: float = 0.0
    gamma_nr_x: float = 0.0

    def __post_init__(self):
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError("%s must be finite" % name)
        if self.eps0 <= 0:
            raise ValueError("eps0 must be positive")
        if min(self.gamma_c, self.gamma_x, self.gamma_nr_c, self.gamma_nr_x) < 0:
            raise ValueError("decay rates must be non-negative")
        if self.g_rabi < 0:
            raise ValueError("g_rabi must be non-negative")
        if not 0.0 <= self.mass_ratio <= 1.0:
            raise ValueError("mass_ratio must lie in [0, 1]")

    @property
    def total_rate(self):
        return self.gamma_c + self.gamma_x + self.gamma_nr_c + self.gamma_nr_x


@dataclass(frozen=True)
class ComplexPole:
    """Complex diagonal poles and off-diagonal coupling of H_k."""

    z_c: complex
    z_x: complex
    g_tilde: complex


@dataclass(frozen=True, eq=False)
class ComplexBranch:
    """One complex eigenvalue of H_k with its normalized eigenvector.

    label is "L" (minus sign of the principal square root) or "U" (plus).
    degenerate marks a coalesced (exceptional) point, where both branches
    carry the same eigenvector.
    """

    omega: complex
    label: str
    eigvec: np.ndarray
    k: float
    degenerate: bool = False


@dataclass(frozen=True)
class Detunings:
    """Energy and linewidth detunings d_eps = Re(z_c - z_x),
    d_gamma = -Im(z_c - z_x)."""

    d_eps: float
    d_gamma: float


@dataclass(frozen=True)
class EpCondition:
    """One sign branch of the exceptional-point condition.

    sign +1 means d_eps = +2 sqrt(gamma_c gamma_x) with d_gamma = -2 g_rabi;
    sign -1 is the mirrored pair.  k_ep is the ring radius at which the
    kinetic detuning meets the target, or None if unreachable.
    """

    sign: int
    d_eps_ep: float
    k_ep: float | None


@dataclass(frozen=True)
class BicCondition:
    """Detuning at which the lower branch linewidth vanishes.

    exact is False when nonradiative losses spoil the exact cancellation;
    the formula value is still reported.
    """

    d_eps_bic: float
    k_bic: float | None
    exact: bool


def kinetic_energies(p, k):
    """Bare kinetic energies (eps_c, eps_x) at dimensionless momentum k.

    eps_c = eps0 + delta + k**2, eps_x = eps0 + mass_ratio * k**2.
    """
    k2 = np.asarray(k, dtype=float) ** 2
    eps_c = p.eps0 + p.delta + k2
    eps_x = p.eps0 + p.mass_ratio * k2
    if np.ndim(k) == 0:
        return float(eps_c), float(eps_x)
    return eps_c, eps_x


def complex_poles(p, k):
    """ComplexPole at momentum k; nonradiative rates enter the diagonals.

    For a k array, z_c and z_x are complex arrays over k.
    """
    eps_c, eps_x = kinetic_energies(p, k)
    z_c = eps_c - 1j * (p.gamma_c + p.gamma_nr_c)
    z_x = eps_x - 1j * (p.gamma_x + p.gamma_nr_x)
    g_tilde = p.g_rabi - 1j * np.sqrt(p.gamma_c * p.gamma_x)
    return ComplexPole(z_c, z_x, g_tilde)


def effective_hamiltonian(p, k):
    """2x2 complex matrix H_k = [[z_c, g~], [g~, z_x]]."""
    pole = complex_poles(p, k)
    return np.array([[pole.z_c, pole.g_tilde],
                     [pole.g_tilde, pole.z_x]])


def _k_axis(k):
    """k as a 1-d float array; a scalar becomes a single point."""
    k = np.asarray(k, dtype=float)
    if k.ndim > 1:
        raise ValueError("k must be a scalar or a 1-d array")
    return k.reshape(-1)


# CPython multiplies a real x into a complex a + ib as the complex product
# (x a - 0.0 b, x b + 0.0 a) = (x a + (-0.0) b, x b + 0.0 a); the zero
# terms only ever set the sign of a zero result
_ZERO_TERMS = np.array([-0.0, 0.0])


def _real_times(x, z):
    """x * z for a real x and a C-contiguous complex array z, bit for bit
    as CPython computes it for each element."""
    v = z.view(float).reshape(z.shape + (2,))
    return (x * v + _ZERO_TERMS * v[..., ::-1]).view(complex)[..., 0]


class _Modes(NamedTuple):
    """H_k over a 1-d k array of n points.

    levels has shape (4, n): the "L" and "U" eigenvalues, then the poles
    z_x and z_c.  The eigenvalues lie at center -/+ sqrt(D) / 2; disc is D.
    """

    levels: np.ndarray
    g_tilde: complex
    disc: np.ndarray
    center: np.ndarray
    degenerate: np.ndarray

    @property
    def omega(self):
        return self.levels[:2]

    @property
    def z_x(self):
        return self.levels[2]

    @property
    def z_c(self):
        return self.levels[3]


def _modes(p, k):
    """The closed-form kernel over a 1-d float k array.

    omega = (z_c + z_x -/+ sqrt(D)) / 2 on the principal square-root
    branch, with D = (z_c - z_x)**2 + 4 g~**2 formed from the detunings, in
    which eps0 cancels algebraically; forming z_c - z_x from the full poles
    would lose ~7 digits to cancellation at eps0 = 1000 and blur exact
    EP/BiC points.  A point is degenerate when |sqrt(D)| falls below
    DEGENERACY_TOL times the local energy scale.
    """
    pole = complex_poles(p, k)
    det = detunings(p, k)
    # dz = d_eps - 1j d_gamma and D = dz * dz + 4 g~**2 written out as
    # CPython evaluates them on scalars: numpy's complex multiply fuses
    # multiply-adds and can differ in the last bit, while these float64
    # steps reproduce the scalar formula exactly (dz_r dz_i + dz_i dz_r is
    # cross + cross)
    j_gamma = 1j * det.d_gamma
    dz_r, dz_i = det.d_eps - j_gamma.real, 0.0 - j_gamma.imag
    cross = dz_r * dz_i
    disc = np.empty(k.shape, dtype=complex)
    disc.real = dz_r * dz_r - dz_i * dz_i
    disc.imag = cross + cross
    disc += 4.0 * pole.g_tilde * pole.g_tilde
    # (z_c + z_x) / 2 and sqrt(D) / 2 as one product
    pair = np.empty((2, k.size), dtype=complex)
    np.add(pole.z_c, pole.z_x, out=pair[0])
    # principal root; adding 0.0 turns a negative-zero imaginary part
    # positive, so negative reals map to the +i side
    pair[1] = np.sqrt(disc + 0.0)
    mid, half = _real_times(0.5, pair)
    levels = np.empty((4, k.size), dtype=complex)
    np.subtract(mid, half, out=levels[0])
    np.add(mid, half, out=levels[1])
    levels[2] = pole.z_x
    levels[3] = pole.z_c
    scale = np.maximum(np.hypot(dz_r, dz_i),
                       max(1.0, 2.0 * abs(pole.g_tilde)))
    return _Modes(levels, pole.g_tilde, disc, mid,
                  np.abs(pair[1]) <= DEGENERACY_TOL * scale)


def discriminant(p, k):
    """D = (z_c - z_x)**2 + 4 g~**2; branches coalesce where D = 0.

    Computed from the detunings, in which eps0 cancels (see _modes).
    """
    disc = _modes(p, _k_axis(k)).disc
    return complex(disc[0]) if np.ndim(k) == 0 else disc


def _eigvecs(m):
    """(vec_l, vec_u), each (n, 2): normalized kernel vectors of
    (omega*1 - H) at both eigenvalues, with a fixed phase.  At a
    coalescence both branches carry the single shared eigenvector, taken
    at the mean eigenvalue."""
    omega = np.where(m.degenerate, m.center, m.omega)
    # Two algebraically equivalent kernel vectors, (omega - z_x, g~) and
    # (g~, omega - z_c); keep the one with the larger norm for stability
    # near decoupled limits.
    g = m.g_tilde
    to_pole = omega[:, None] - m.levels[2:]
    norm = np.hypot(abs(g), np.abs(to_pole))
    first = norm[:, 1] >= norm[:, 0]
    v = np.empty(omega.shape + (2,), dtype=complex)
    v[..., 0] = np.where(first, g, to_pole[:, 0])
    v[..., 1] = np.where(first, to_pole[:, 1], g)
    norm = np.maximum(norm[:, 0], norm[:, 1])
    # fully degenerate (proportional to identity): any direction works
    flat = norm < 1e-14 * np.maximum(np.maximum(1.0, np.abs(m.z_c)),
                                     np.abs(m.z_x))
    if flat.any():
        v[flat] = (1.0, 0.0)
        norm[flat] = 1.0
    # normalize, rotating the overall phase so that the first nonzero
    # component is real > 0
    lead = np.where(np.abs(v[..., 0]) > 1e-12 * norm, v[..., 0], v[..., 1])
    v *= (lead.conj() / (np.abs(lead) * norm))[..., None]
    return v[0], v[1]


def eigen_branches(p, k):
    """Both complex eigenvalue branches at a scalar momentum k.

    Returns (lower, upper) ComplexBranch with
    omega = (z_c + z_x -/+ sqrt(D)) / 2 on the principal square-root branch;
    "U" carries the plus sign.  At a coalescence (|sqrt(D)| below tolerance)
    both branches carry the single shared eigenvector and degenerate=True.
    For a k array use track_branches, which evaluates the same kernel.
    """
    kf = float(k)
    m = _modes(p, np.array([kf]))
    vec_l, vec_u = _eigvecs(m)
    degenerate = bool(m.degenerate[0])
    omega_l, omega_u = m.omega[:, 0].tolist()
    return (ComplexBranch(omega_l, "L", vec_l[0], kf, degenerate),
            ComplexBranch(omega_u, "U", vec_u[0], kf, degenerate))


def _overlap(prev, new):
    """|<prev_i, new_i+1>|^2 between neighbouring grid points."""
    return np.abs(np.sum(prev[:-1].conj() * new[1:], axis=1)) ** 2


def track_branches(p, kgrid):
    """Continuity-sorted branches along an increasing momentum grid.

    Returns two lists of ComplexBranch.  The first list starts on the "L"
    branch of the first grid point.  At each step the assignment maximizes
    eigenvector overlap with the previous point and falls back to
    closest-eigenvalue matching when the overlaps tie or the point is
    degenerate.  Output is deterministic, and every branch equals
    eigen_branches(p, k) at its k.
    """
    kgrid = np.asarray(kgrid, dtype=float)
    if kgrid.ndim != 1 or kgrid.size == 0:
        raise ValueError("kgrid must be a nonempty 1-d array")
    if kgrid.size > 1 and np.any(np.diff(kgrid) <= 0):
        raise ValueError("kgrid must be strictly increasing")

    m = _modes(p, kgrid)
    vec_l, vec_u = _eigvecs(m)
    # scores of keeping or swapping the labels of step i-1 -> i, for the
    # unswapped labels at i-1; a swap at i-1 exchanges the two scores
    keep = _overlap(vec_l, vec_l) + _overlap(vec_u, vec_u)
    swap = _overlap(vec_l, vec_u) + _overlap(vec_u, vec_l)
    fallback = (m.degenerate[1:] | m.degenerate[:-1]
                | (np.abs(keep - swap) < 1e-12))
    om_l, om_u = m.omega
    keep = np.where(fallback, -(np.abs(om_l[:-1] - om_l[1:])
                                + np.abs(om_u[:-1] - om_u[1:])), keep)
    swap = np.where(fallback, -(np.abs(om_l[:-1] - om_u[1:])
                                + np.abs(om_u[:-1] - om_l[1:])), swap)
    # a tie keeps the labels as they come ("L" on the first track)
    swapped = [False]
    for tie, flip in zip((keep == swap).tolist(), (keep < swap).tolist()):
        swapped.append(not tie and swapped[-1] != flip)

    tracks = ([], [])
    for kf, w_l, w_u, v_l, v_u, deg, swp in zip(
            kgrid.tolist(), om_l.tolist(), om_u.tolist(), vec_l, vec_u,
            m.degenerate.tolist(), swapped):
        low = ComplexBranch(w_l, "L", v_l, kf, deg)
        up = ComplexBranch(w_u, "U", v_u, kf, deg)
        tracks[0].append(up if swp else low)
        tracks[1].append(low if swp else up)
    return tracks


def detunings(p, k):
    """Detunings at momentum k; nonradiative rates are included in d_gamma.

    d_eps is formed without eps0 (it cancels exactly), keeping EP/BiC
    condition checks at full precision.  For a k array, d_eps is an array.
    """
    # float_power is C pow(), as Python's k ** 2 on a float
    d_eps = p.delta + (1.0 - p.mass_ratio) * np.float_power(k, 2.0)
    d_gamma = (p.gamma_c + p.gamma_nr_c) - (p.gamma_x + p.gamma_nr_x)
    return Detunings(float(d_eps) if np.ndim(k) == 0 else d_eps, d_gamma)


def _solve_ring_radius(p, target):
    """Momentum at which d_eps(k) = target, or None if unreachable.

    d_eps(k) = delta + (1 - mass_ratio) k**2 is monotone in k, so the
    radius is sqrt((target - delta) / (1 - mass_ratio)) in closed form.
    """
    d0 = detunings(p, 0.0).d_eps
    tol = CONDITION_RTOL * max(1.0, abs(target), abs(d0))
    if abs(d0 - target) <= tol:
        return 0.0
    if p.mass_ratio == 1.0 or target < d0:
        return None  # d_eps is k-independent, or already above target at k = 0
    return float(np.sqrt((target - p.delta) / (1.0 - p.mass_ratio)))


def ep_conditions(p):
    """Sign branches of the exceptional-point condition satisfied by p.

    An EP requires d_gamma = -sign * 2 g_rabi together with
    d_eps = sign * 2 sqrt(gamma_c gamma_x).  d_gamma is momentum independent
    here (rates are k-independent), so each sign either holds for the whole
    parameter set or not at all; for matching signs the ring radius k_ep
    solving d_eps(k) = d_eps_ep is attached.  Returns a possibly empty list.
    """
    d_gamma = detunings(p, 0.0).d_gamma
    s = np.sqrt(p.gamma_c * p.gamma_x)
    out = []
    for sign in (+1, -1):
        required = -sign * 2.0 * p.g_rabi
        tol = CONDITION_RTOL * max(1.0, abs(d_gamma), 2.0 * p.g_rabi)
        if abs(d_gamma - required) <= tol:
            target = sign * 2.0 * s
            out.append(EpCondition(sign, target, _solve_ring_radius(p, target)))
            if p.g_rabi == 0.0 and s == 0.0:
                break  # both signs collapse onto the same condition
    return out


def bic_condition(p):
    """Detuning (and ring radius) of the undamped lower branch.

    d_eps_bic = g_rabi * d_gamma / sqrt(gamma_c gamma_x).  The linewidth
    cancellation is exact only for purely radiative losses; with
    nonradiative rates present the formula value is still returned with
    exact=False.
    """
    if p.gamma_c * p.gamma_x == 0.0:
        raise ValueError("BiC condition undefined: gamma_c * gamma_x = 0")
    d_gamma = detunings(p, 0.0).d_gamma
    d_eps_bic = p.g_rabi * d_gamma / np.sqrt(p.gamma_c * p.gamma_x)
    exact = p.gamma_nr_c == 0.0 and p.gamma_nr_x == 0.0
    return BicCondition(float(d_eps_bic), _solve_ring_radius(p, d_eps_bic), exact)
