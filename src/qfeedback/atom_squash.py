"""In-loop two-level atom driven by its own homodyne photocurrent.

Time is measured in units of the longitudinal atomic decay rate. The loop is
characterized by the mode matching eta of the atomic fluorescence into the
probed mode, the homodyne efficiency eps, and the round-loop gain g < 1; the
effective feedback parameter is lambda = g * eta / (1 - g) > -eta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import operators as ops
from .errors import NegativePrefactor, UnreachableSqueezing
from .loop import Spectrum
from .operators import LindbladModel


@dataclass(frozen=True)
class AtomLoopParams:
    eta_mm: float                # mode matching into the probed output
    eps: float                   # homodyne detector efficiency
    g: float                     # round-loop gain, < 1

    def __post_init__(self):
        if not 0.0 <= self.eta_mm <= 1.0:
            raise ValueError("eta_mm must be in [0, 1]")
        if not 0.0 < self.eps <= 1.0:
            raise ValueError("eps must be in (0, 1]")
        if not self.g < 1.0:
            raise ValueError(f"round-loop gain g = {self.g} must be < 1")
        if not self.lam > -self.eta_mm:
            raise ValueError("lambda = g eta/(1-g) must exceed -eta")

    @property
    def lam(self) -> float:
        return self.g * self.eta_mm / (1.0 - self.g)

    @classmethod
    def from_lambda(cls, eta_mm: float, eps: float, lam: float) -> "AtomLoopParams":
        """Build from the feedback parameter instead of the raw gain."""
        return cls(eta_mm, eps, lam / (eta_mm + lam))


@dataclass(frozen=True)
class FreeSqueezeParams:
    """Atom in a free (minimum-uncertainty) squeezed vacuum with X-quadrature
    spectrum L < 1 (squeezed) or > 1 (antisqueezed)."""
    eta_mm: float
    big_l: float

    def __post_init__(self):
        if not 0.0 <= self.eta_mm <= 1.0:
            raise ValueError("eta_mm must be in [0, 1]")
        if not 0 < self.big_l < math.inf:
            raise ValueError(f"L = {self.big_l} must be finite and > 0")


def atom_feedback_master_equation(params: AtomLoopParams) -> LindbladModel:
    """Unconditional master equation of the in-loop atom:

        rho' = D[sigma] rho - i lambda [sigma_y/2, sigma rho + rho sigma†]
             + (lambda^2 / (eta eps)) D[sigma_y/2] rho,

    built through the general homodyne-feedback route with F = lambda
    sigma_y / 2 and detection efficiency eta * eps.
    """
    # imported here so that this module's closed forms load without the
    # SME engine
    from .trajectories import feedback_master_equation
    decay = LindbladModel(np.zeros((2, 2), dtype=complex),
                          ((1.0, ops.sigma_minus()),))
    f_op = 0.5 * params.lam * ops.sigma_y()
    return feedback_master_equation(decay, f_op, params.eta_mm * params.eps)


def decay_rates(params: AtomLoopParams):
    """Bloch-vector decay rates (gamma_x, gamma_y, gamma_z) and the pump
    coefficient C of the in-loop atom."""
    lam = params.lam
    he = params.eta_mm * params.eps
    gx = 0.5 * (1.0 + 2.0 * lam + lam * lam / he)
    gy = 0.5
    return gx, gy, gx + gy, 1.0 + lam


def in_loop_spectrum_from_lambda(params: AtomLoopParams) -> float:
    """In-loop X-quadrature photocurrent spectrum (flat, Markovian loop):
    S = 1 + 2 lambda/eta + lambda^2/(eta^2 eps); minimum 1 - eps at
    lambda = -eta eps."""
    lam, eta, eps = params.lam, params.eta_mm, params.eps
    return 1.0 + 2.0 * lam / eta + lam * lam / (eta * eta * eps)


def steady_state_bloch(params: AtomLoopParams):
    """Stationary Bloch vector: the feedback noise weakly repumps sigma_z."""
    lam = params.lam
    den = 2.0 * params.eta_mm * params.eps * (1.0 + lam) + lam * lam
    if den <= 0.0:
        # den = 2 eta eps gamma_z: no relaxation, no stationary state
        raise ValueError(f"gamma_z <= 0 (lambda = {lam}): no steady state")
    return 0.0, 0.0, -1.0 + lam * lam / den


def _two_lorentzian_power(eta_mm, gx, gy, gz, c_coeff, omega_grid) -> Spectrum:
    omega_grid = np.asarray(omega_grid, dtype=float)
    if gz - c_coeff < -1e-12:
        raise NegativePrefactor(f"gamma_z = {gz} < C = {c_coeff}")
    pref = (1.0 - eta_mm) * max(gz - c_coeff, 0.0) / (8.0 * math.pi * gz)
    vals = pref * (gx / (gx * gx + omega_grid ** 2)
                   + gy / (gy * gy + omega_grid ** 2))
    return Spectrum(omega_grid, vals)


def fluorescence_spectrum(params: AtomLoopParams, omega_grid) -> Spectrum:
    """Power spectrum of the fluorescence escaping into unmonitored vacuum
    modes: P(w) = [(1-eta)(gz - C)/(8 pi gz)] [gx/(gx^2+w^2) + gy/(gy^2+w^2)].
    """
    gx, gy, gz, c_coeff = decay_rates(params)
    return _two_lorentzian_power(params.eta_mm, gx, gy, gz, c_coeff, omega_grid)


def free_squeezing_model(params: FreeSqueezeParams):
    """Atom immersed in free minimum-uncertainty squeezing with eta-efficient
    mode matching:

        rho' = (1-eta) D[sigma] rho + (eta/4L) D[(L+1) sigma - (L-1) sigma†] rho

    Returns (model, (gamma_x, gamma_y, gamma_z, C))."""
    eta, big_l = params.eta_mm, params.big_l
    sm = ops.sigma_minus()
    sp = sm.conj().T
    op = (big_l + 1.0) * sm - (big_l - 1.0) * sp
    collapses = [(eta / (4.0 * big_l), op)]
    if eta < 1.0:
        collapses.insert(0, (1.0 - eta, sm))
    model = LindbladModel(np.zeros((2, 2), dtype=complex), tuple(collapses))
    gx = 0.5 * ((1.0 - eta) + eta * big_l)
    gy = 0.5 * ((1.0 - eta) + eta / big_l)
    return model, (gx, gy, gx + gy, 1.0)


def lambda_for_spectrum(eta_mm: float, eps: float, s_target: float) -> float:
    """Feedback parameter realizing in-loop spectrum S (squeezing branch):
    lambda = eta eps (-1 + sqrt(1 - (1-S)/eps))."""
    if s_target < 1.0 - eps:
        raise UnreachableSqueezing(
            f"S = {s_target} below the floor 1 - eps = {1.0 - eps}")
    return eta_mm * eps * (-1.0 + math.sqrt(1.0 - (1.0 - s_target) / eps))


@dataclass(frozen=True)
class SqueezeComparison:
    lam: float
    inloop_rates: tuple          # (gamma_x, gamma_y, gamma_z, C)
    free_rates: tuple
    omega: np.ndarray
    inloop_power: np.ndarray     # fluorescence P(omega) under feedback
    free_power: np.ndarray       # fluorescence P(omega) in free squeezing


def compare_inloop_free(eta_mm: float, s_target: float, eps: float,
                        omega_grid=None) -> SqueezeComparison:
    """Line-narrowing comparison at equal input X spectrum S.

    The in-loop atom at lambda(S) and the free-squeezing atom at L = S share
    gamma_x exactly; the free bath broadens gamma_y by 1/L while the loop
    leaves it at 1/2.
    """
    if omega_grid is None:
        omega_grid = np.linspace(-10.0, 10.0, 801)
    lam = lambda_for_spectrum(eta_mm, eps, s_target)
    in_params = AtomLoopParams.from_lambda(eta_mm, eps, lam)
    in_rates = decay_rates(in_params)
    _, free_rates = free_squeezing_model(FreeSqueezeParams(eta_mm, s_target))
    in_p = fluorescence_spectrum(in_params, omega_grid)
    free_p = _two_lorentzian_power(eta_mm, *free_rates, omega_grid)
    return SqueezeComparison(
        lam=lam, inloop_rates=in_rates, free_rates=free_rates,
        omega=np.asarray(omega_grid, dtype=float),
        inloop_power=in_p.values, free_power=free_p.values)
