"""Gaussian reduction of the linear cavity with measurement-based feedback.

Time is measured in units of the cavity decay rate. The x-quadrature obeys an
Ornstein-Uhlenbeck equation with drift k0 = (1 + theta)/2 and diffusion
D0 = 1 + l; conditioning adds a deterministic Riccati term. U denotes the
normally ordered variance (V - 1), negative iff squeezed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from . import operators as ops
from .errors import DelayTooLarge, UnphysicalBath, UnstableMean
from .operators import LindbladModel

THETA_MAX = 1.0 - 1e-6


@dataclass(frozen=True)
class Homodyne:
    """Extracavity homodyne measurement with efficiency eta."""
    eta: float

    def __post_init__(self):
        if not 0.0 < self.eta <= 1.0:
            raise ValueError("eta must be in (0, 1]")


@dataclass(frozen=True)
class Qnd:
    """Intracavity QND measurement with effective strength H = eta * Gamma
    (not bounded by 1)."""
    strength: float

    def __post_init__(self):
        if not 0 < self.strength < math.inf:
            raise ValueError(
                f"measurement strength {self.strength} must be finite and > 0")


Measurement = Union[Homodyne, Qnd]


@dataclass(frozen=True)
class LinearCavityParams:
    l: float                     # x diffusion drive rate
    theta: float                 # parametric drive, < 1 (threshold)
    measurement: Measurement = Homodyne(1.0)

    def __post_init__(self):
        if not 0 <= self.l < math.inf:
            raise ValueError(f"l = {self.l} must be finite and >= 0")
        if not 0.0 <= self.theta <= THETA_MAX:
            raise ValueError(f"theta must be in [0, {THETA_MAX}] (below threshold)")

    @property
    def k0(self) -> float:
        return 0.5 * (1.0 + self.theta)

    @property
    def d0(self) -> float:
        return 1.0 + self.l


def variance_no_feedback(params: LinearCavityParams) -> float:
    """U0 = (l - theta) / (1 + theta), the open-loop normally ordered variance."""
    return (params.l - params.theta) / (1.0 + params.theta)


def _riccati(params: LinearCavityParams) -> tuple[float, float, float]:
    """(s, c, floor) of the conditioned-variance Riccati equation
        dU/dt = -2 k0 U + c - s U^2,   U >= floor.
    Homodyne (U normally ordered): s = eta, c = D0 - 2 k0, floor -1.
    QND (V symmetric ordered):     s = H,   c = D0,        floor 0.
    """
    m = params.measurement
    if isinstance(m, Homodyne):
        return m.eta, params.d0 - 2.0 * params.k0, -1.0
    return m.strength, params.d0, 0.0


def conditioned_variance_trajectory(params: LinearCavityParams, u_init: float,
                                    t_grid) -> np.ndarray:
    """Deterministic relaxation of the conditioned variance from
    U(t_grid[0]) = u_init >= floor (see _riccati) along a non-decreasing
    t_grid; independent of the feedback strength.

    The Riccati equation is dU/dt = -s (U - u+)(U - u-) with roots u+ > u-,
    so with E = exp(-s (u+ - u-) t) the exact solution is
        U(t) = u+ + (u+ - u-) a E / (b - a E),  a = U0 - u+, b = U0 - u-,
    i.e. u+ + (u+ - u-) / (C e^{s (u+ - u-) t} - 1) with C = b / a. The
    allowed starts satisfy U0 >= u-, so the denominator never vanishes; the
    start U0 = u- (homodyne with eta = 1 and l = theta = 0 has u- = -1) is
    the repelling fixed point and stays there.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if not (t_grid.ndim == 1 and t_grid.size and np.all(np.isfinite(t_grid))
            and np.all(np.diff(t_grid) >= 0)):     # backwards leaves the floor
        raise ValueError("t_grid must be a non-empty, finite, ascending grid")
    s, _, floor = _riccati(params)
    if not u_init >= floor:
        raise ValueError(f"initial variance {u_init} must be >= {floor:g}")
    u_plus = conditioned_variance_ss(params)
    # the two roots of the right-hand side sum to -2 k0 / s
    u_minus = -2.0 * params.k0 / s - u_plus
    a, b = u_init - u_plus, u_init - u_minus
    if b == 0.0:
        return np.full_like(t_grid, u_init)
    decay = np.exp(-s * (u_plus - u_minus) * (t_grid - t_grid[0]))
    return u_plus + (u_plus - u_minus) * a * decay / (b - a * decay)


def conditioned_variance_ss(params: LinearCavityParams) -> float:
    """Stable Riccati fixed point u+ = (-k0 + sqrt(k0^2 + s c)) / s:
    homodyne U_c = (-k0 + sqrt(k0^2 + eta (D0 - 2 k0))) / eta,
    QND V_c = (-k0 + sqrt(k0^2 + H D0)) / H."""
    return optimal_lambda(params) / _riccati(params)[0]


def optimal_lambda(params: LinearCavityParams) -> float:
    """Feedback strength that cancels the noise in the conditioned mean, at
    which the unconditioned variance equals the conditioned one:
    lambda* = s u+ = -k0 + sqrt(k0^2 + s c) (homodyne: s c = 2 eta k0 U0).
    The root's argument is positive: QND has c = 1 + l > 0, and homodyne
    s c = eta (l - theta) >= -theta, so k0^2 + s c >= ((1 - theta) / 2)^2."""
    s, c, _ = _riccati(params)
    k0 = params.k0
    return -k0 + math.sqrt(k0 * k0 + s * c)


def unconditioned_variance(params: LinearCavityParams, lam: float) -> float:
    """U_lambda = (k0 U0 + lambda^2 / 2 eta) / (k0 + lambda) for a damped mean."""
    if not isinstance(params.measurement, Homodyne):
        raise TypeError("unconditioned_variance applies to homodyne feedback")
    if not math.isfinite(lam):
        raise ValueError(f"lambda = {lam} must be finite")
    k0 = params.k0
    if k0 + lam <= 0:
        raise UnstableMean(f"k0 + lambda = {k0 + lam} <= 0")
    eta = params.measurement.eta
    u0 = variance_no_feedback(params)
    return (k0 * u0 + lam * lam / (2.0 * eta)) / (k0 + lam)


def variance_with_delay(params: LinearCavityParams, lam: float, delay: float) -> float:
    """First-order short-delay correction U_{lambda;T} = U_lambda (1 + lambda T)."""
    if not math.isfinite(delay):
        raise ValueError(f"T = {delay} must be finite")
    if abs(lam * delay) >= 0.5:
        raise DelayTooLarge(f"|lambda T| = {abs(lam * delay)} >= 0.5")
    return unconditioned_variance(params, lam) * (1.0 + lam * delay)


def u_min(params: LinearCavityParams) -> float:
    """Best unconditioned variance over lambda: equals the conditioned
    steady-state variance (reached at the optimal lambda)."""
    return conditioned_variance_ss(params)


def squeezed_bath_model(n_bath: float, m_bath: complex,
                        dim: int) -> LindbladModel:
    """Cavity damped into a broad-band squeezed bath with moments (N, M).

    Generator (N+1) D[a] + N D[a†] − (M/2)[a†,[a†,·]] − (M*/2)[a,[a,·]],
    realized as a two-collapse Lindblad decomposition via the eigenvectors of
    the coefficient matrix [[N+1, M*], [M, N]] in the (a, a†) basis.
    """
    if n_bath < 0:
        raise UnphysicalBath(f"N = {n_bath} < 0")
    if abs(m_bath) ** 2 > n_bath * (n_bath + 1) + 1e-12:
        raise UnphysicalBath(f"|M|^2 = {abs(m_bath)**2} > N(N+1) = {n_bath*(n_bath+1)}")
    a = ops.destroy(dim)
    ad = a.conj().T
    coeff = np.array([[n_bath + 1.0, np.conj(m_bath)],
                      [m_bath, n_bath]], dtype=complex)
    evals, evecs = np.linalg.eigh(coeff)
    collapses = []
    for lam_i, v in zip(evals, evecs.T):
        if lam_i < 1e-15:
            continue
        op = v[0] * a + v[1] * ad
        collapses.append((float(lam_i), op))
    return LindbladModel(np.zeros((dim, dim), dtype=complex), tuple(collapses))


def parametric_model(params: LinearCavityParams, dim: int) -> LindbladModel:
    """Truncated-Fock realization of the linear-cavity master equation:
    D[a] + (l/4) D[a† − a] + (theta/4)[a^2 − a†^2, ·] as Hamiltonian part."""
    a = ops.destroy(dim)
    ad = a.conj().T
    # (theta/4)[a^2 - ad^2, rho] = -i[H, rho] with H = (i theta/4)(a^2 - ad^2)
    h = 0.25j * params.theta * (a @ a - ad @ ad)
    collapses = [(1.0, a)]
    if params.l > 0:
        collapses.append((params.l / 4.0, ad - a))
    return LindbladModel(h, tuple(collapses))
