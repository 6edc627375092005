"""Closed-form frequency-domain analysis of the traveling-wave feedback loop.

Conventions: angular frequency throughout; spectra are dimensionless with the
shot-noise floor at 1; the round-loop transfer is g * h~(omega) * exp(-i omega T)
with h~ the Fourier transform of the normalized loop response h(t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import DegenerateSplit, MarginalStability, UnstableLoop

CRITICAL_TOL = 1e-9


@dataclass(frozen=True)
class SinglePole:
    """Response h(t) = gamma * exp(-gamma t)."""
    gamma: float

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError("gamma must be > 0")

    def ft(self, omega):
        """h~(omega) = gamma / (gamma + i omega)."""
        return self.gamma / (self.gamma + 1j * np.asarray(omega, dtype=float))

    @property
    def fastest_rate(self) -> float:
        return self.gamma


@dataclass(frozen=True)
class Sampled:
    """Piecewise-constant nonnegative response on a uniform grid, normalized to
    unit area at construction."""
    h: np.ndarray
    dt: float

    def __post_init__(self):
        h = np.asarray(self.h, dtype=float)
        if self.dt <= 0:
            raise ValueError("dt must be > 0")
        if np.any(h < 0):
            raise ValueError("h(t) must be >= 0")
        area = h.sum() * self.dt
        if area <= 0:
            raise ValueError("response must have positive area")
        object.__setattr__(self, "h", h / area)

    def ft(self, omega):
        """Exact Fourier transform of the piecewise-constant interpolant:
        (1 - z)/(i omega) * sum_k h_k z^k with z = exp(-i omega dt), the sum
        evaluated by Horner's rule."""
        omega = np.asarray(omega, dtype=float)
        scalar = omega.ndim == 0
        omega = np.atleast_1d(omega)
        out = np.empty(len(omega), dtype=complex)
        small = np.abs(omega) * self.dt < 1e-12
        if np.any(small):
            out[small] = self.h.sum() * self.dt
        big = ~small
        if np.any(big):
            z = np.exp(-1j * omega[big] * self.dt)
            out[big] = (1 - z) / (1j * omega[big]) * np.polyval(self.h[::-1], z)
        return out[0] if scalar else out

    @property
    def fastest_rate(self) -> float:
        return 1.0 / self.dt


Response = Union[SinglePole, Sampled]


@dataclass(frozen=True)
class LoopFilter:
    """Electro-optic loop: low-frequency gain g, response shape, delay T."""
    g: float
    response: Response
    delay_T: float = 0.0

    def __post_init__(self):
        if self.delay_T < 0:
            raise ValueError("delay_T must be >= 0")


def _as_spectrum_fn(s) -> Callable[[np.ndarray], np.ndarray]:
    if callable(s):
        return s
    val = float(s)
    return lambda omega: np.full_like(np.asarray(omega, dtype=float), val)


@dataclass(frozen=True)
class FeedbackBeamline:
    """Beam-splitter chain and input spectra around the loop.

    s0x / s0y may be constants or callables of omega; shot noise = 1.
    """
    beta: float
    eta1: float
    eta2: float
    s0x: object = 1.0
    s0y: object = 1.0

    def __post_init__(self):
        for name in ("eta1", "eta2"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} = {v} outside [0, 1]")

    def input_spectra(self, omega_grid: np.ndarray):
        """Evaluate (s0x, s0y) on a grid, enforcing the free-field uncertainty
        product s0x * s0y >= 1."""
        omega_grid = np.asarray(omega_grid, dtype=float)
        sx = np.asarray(_as_spectrum_fn(self.s0x)(omega_grid), dtype=float)
        sy = np.asarray(_as_spectrum_fn(self.s0y)(omega_grid), dtype=float)
        if np.any(sx * sy < 1.0 - 1e-12):
            raise ValueError("input spectra violate s0x * s0y >= 1")
        return sx, sy


@dataclass(frozen=True)
class Spectrum:
    """Real spectrum on an angular-frequency grid, shot noise normalized to 1."""
    omega: np.ndarray
    values: np.ndarray
    stderr: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "omega", np.asarray(self.omega, dtype=float))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if not np.all(np.isfinite(self.values)):
            raise ValueError("spectrum values must be finite")


# ---------------------------------------------------------------------------
# transfer and stability

def loop_transfer(filt: LoopFilter, omega, extra=None):
    """Round-loop transfer g * h~(omega) * exp(-i omega T).

    extra, if given, is an additional frequency response multiplied in (used
    for the QND cavity pair response).
    """
    omega = np.asarray(omega, dtype=float)
    out = filt.g * filt.response.ft(omega) * np.exp(-1j * omega * filt.delay_T)
    if extra is not None:
        out = out * extra(omega)
    return out


def _nyquist_winding(filt: LoopFilter, extra=None):
    """Winding number of the open-loop locus around the critical point +1.

    The contour s = i omega is sampled on a combined linear + logarithmic grid
    and refined until the phase of (L - 1) changes slowly between samples, so
    widely separated loop time scales are resolved.
    """
    rates = [filt.response.fastest_rate, 1.0]
    if filt.delay_T > 0:
        rates.append(1.0 / filt.delay_T)
    big = 100.0 * max(rates)
    lin = np.linspace(0.0, big, 1 << 15)
    logs = np.geomspace(big * 1e-9, big, 3000)
    omegas = np.unique(np.concatenate([lin, logs]))
    omegas = np.concatenate([-omegas[::-1], omegas[1:]])

    def locus(om):
        return loop_transfer(filt, om, extra) - 1.0

    z = locus(omegas)
    for _ in range(30):
        if np.min(np.abs(z)) < CRITICAL_TOL:
            raise MarginalStability(
                "open-loop locus within 1e-9 of the critical point")
        dphi = np.angle(z[1:] / z[:-1])
        bad = np.abs(dphi) > 0.5
        if not np.any(bad):
            break
        mids = 0.5 * (omegas[:-1][bad] + omegas[1:][bad])
        omegas = np.sort(np.concatenate([omegas, mids]))
        z = locus(omegas)
    else:
        raise MarginalStability("Nyquist contour failed to converge")
    total = np.sum(np.angle(z[1:] / z[:-1]))
    # closure at |omega| -> infinity: L -> 0 there, no extra winding
    return int(round(total / (2 * math.pi)))


def is_stable(filt: LoopFilter, extra=None) -> bool:
    """Nyquist criterion: no root of 1 - g H(s) exp(-sT) = 0 with Re[s] >= 0.

    The open loop is stable (causal normalized response), so closed-loop
    stability is equivalent to zero winding of the locus around +1.
    """
    if filt.g == 0:
        return True
    if (extra is None and filt.delay_T == 0
            and isinstance(filt.response, SinglePole)):
        # closed-loop pole at s = gamma (g - 1): analytic shortcut
        if abs(filt.g - 1.0) < 1e-9:
            raise MarginalStability("single-pole loop with g = 1")
        return filt.g < 1.0
    return _nyquist_winding(filt, extra) == 0


def max_bandwidth(g: float, T: float) -> float:
    """Bandwidth bound B <= pi / (T |g|) for strong low-frequency feedback."""
    if g == 0:
        raise ValueError("g must be nonzero")
    if T < 0:
        raise ValueError("T must be >= 0")
    if T == 0:
        return math.inf
    return math.pi / (T * abs(g))


# ---------------------------------------------------------------------------
# spectra

def _denominator(filt: LoopFilter, omega_grid: np.ndarray) -> np.ndarray:
    lt = loop_transfer(filt, omega_grid)
    den = np.abs(1.0 - lt) ** 2
    if np.any(np.abs(1.0 - lt) < 1e-12):
        raise MarginalStability("|1 - loop transfer| < 1e-12 at a requested omega")
    return den


def _require_stable(beamline: FeedbackBeamline, filt: LoopFilter) -> None:
    if filt.g != 0 and beamline.eta2 == 0.0:
        raise DegenerateSplit("eta2 = 0: no light reaches the in-loop detector")
    if not is_stable(filt):
        raise UnstableLoop(f"loop with g = {filt.g} is unstable")


def in_loop_spectrum(beamline: FeedbackBeamline, filt: LoopFilter,
                     omega_grid) -> Spectrum:
    """Amplitude spectrum at the in-loop detector:
    (1 + eta1 eta2 [S0x - 1]) / |1 - g h~ e^{-i omega T}|^2."""
    omega_grid = np.asarray(omega_grid, dtype=float)
    _require_stable(beamline, filt)
    sx, _ = beamline.input_spectra(omega_grid)
    vals = (1.0 + beamline.eta1 * beamline.eta2 * (sx - 1.0)) / _denominator(filt, omega_grid)
    return Spectrum(omega_grid, vals)


def out_of_loop_spectrum(beamline: FeedbackBeamline, filt: LoopFilter,
                         omega_grid) -> Spectrum:
    """Amplitude spectrum of the extracted beam: the beam splitter's vacuum
    port is anticorrelated, so feedback can only add noise here."""
    omega_grid = np.asarray(omega_grid, dtype=float)
    _require_stable(beamline, filt)
    eta1, eta2 = beamline.eta1, beamline.eta2
    if filt.g != 0 and eta2 == 0.0:
        raise DegenerateSplit("eta2 = 0 with feedback")
    sx, _ = beamline.input_spectra(omega_grid)
    h2 = np.abs(filt.response.ft(omega_grid)) ** 2
    extra = (1.0 - eta2) * eta1 * (sx - 1.0)
    if filt.g != 0:
        extra = extra + filt.g ** 2 * h2 * (1.0 - eta2) / eta2
    vals = 1.0 + extra / _denominator(filt, omega_grid)
    return Spectrum(omega_grid, vals)


def phase_spectra(beamline: FeedbackBeamline, omega_grid):
    """Phase-quadrature spectra (in-loop, out-of-loop); the feedback acts on
    the amplitude quadrature only, so these never depend on the filter."""
    omega_grid = np.asarray(omega_grid, dtype=float)
    _, sy = beamline.input_spectra(omega_grid)
    eta1, eta2 = beamline.eta1, beamline.eta2
    s2y = 1.0 + eta1 * eta2 * (sy - 1.0)
    s3y = 1.0 + eta1 * (1.0 - eta2) * (sy - 1.0)
    return Spectrum(omega_grid, s2y), Spectrum(omega_grid, s3y)


def in_loop_qnd_spectrum(beamline: FeedbackBeamline, filt: LoopFilter,
                         omega_grid) -> Spectrum:
    """Amplitude spectrum of the in-loop *beam* as seen by a perfect QND
    meter (the equivalent single-detector picture with efficiency eta2)."""
    omega_grid = np.asarray(omega_grid, dtype=float)
    _require_stable(beamline, filt)
    eta1, eta2 = beamline.eta1, beamline.eta2
    if filt.g != 0 and eta2 == 0.0:
        raise DegenerateSplit("eta2 = 0 with feedback")
    sx, _ = beamline.input_spectra(omega_grid)
    h2 = np.abs(filt.response.ft(omega_grid)) ** 2
    num = 1.0 + eta1 * (sx - 1.0)
    if filt.g != 0:
        num = num + filt.g ** 2 * h2 * (1.0 - eta2) / eta2
    return Spectrum(omega_grid, num / _denominator(filt, omega_grid))


def optimal_gain_for_input(beamline: FeedbackBeamline, omega: float):
    """Loop transfer minimizing the out-of-loop noise at one frequency, and
    the resulting optimum value.

    For a squeezed input (s0x < 1) the required transfer is positive:
    destabilizing feedback puts squeezing back into the free beam.
    """
    sx = float(_as_spectrum_fn(beamline.s0x)(np.asarray(omega, dtype=float)))
    eta1, eta2 = beamline.eta1, beamline.eta2
    base = 1.0 + eta2 * eta1 * (sx - 1.0)
    if base <= 0:
        raise ValueError("1 + eta2 eta1 [s0x - 1] must be > 0")
    transfer = -eta1 * eta2 * (sx - 1.0)
    s3_opt = 1.0 + (1.0 - eta2) * eta1 * (sx - 1.0) / base
    return complex(transfer), s3_opt


def commutator_factor(filt: LoopFilter, omega):
    """In-loop commutator modification 1 / (1 - g h~ e^{-i omega T}).

    |factor|^2 equals S2x * S2y for a coherent input; it can dip below 1
    because the in-loop field is not a free field.
    """
    if not is_stable(filt):
        raise UnstableLoop(f"loop with g = {filt.g} is unstable")
    lt = loop_transfer(filt, omega)
    if np.any(np.abs(1.0 - lt) < 1e-12):
        raise MarginalStability("loop transfer at the critical point")
    return 1.0 / (1.0 - lt)
