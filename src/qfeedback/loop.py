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

from .errors import (
    DegenerateSplit,
    MarginalStability,
    NyquistUnresolved,
    UnstableLoop,
)

CRITICAL_TOL = 1e-9


@dataclass(frozen=True)
class SinglePole:
    """Response h(t) = gamma * exp(-gamma t)."""
    gamma: float

    def __post_init__(self):
        if not 0 < self.gamma < math.inf:
            raise ValueError(f"gamma = {self.gamma} must be finite and > 0")

    def ft(self, omega):
        """h~(omega) = gamma / (gamma + i omega)."""
        return self.gamma / (self.gamma + 1j * np.asarray(omega, dtype=float))

    @property
    def ft_bound(self) -> float:
        """gamma = sup over omega of |omega h~(omega)| = gamma |omega| /
        |gamma + i omega|, the bound the Nyquist contour cut relies on."""
        return self.gamma


@dataclass(frozen=True)
class Sampled:
    """Piecewise-constant nonnegative response on a uniform grid, normalized to
    unit area at construction."""
    h: np.ndarray
    dt: float

    def __post_init__(self):
        h = np.asarray(self.h, dtype=float)
        if not 0 < self.dt < math.inf:
            raise ValueError(f"dt = {self.dt} must be finite and > 0")
        if not np.all(np.isfinite(h) & (h >= 0)):
            raise ValueError("h(t) must be finite and >= 0")
        area = h.sum() * self.dt
        if not area > 0:
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
        rest = ~small
        if np.any(rest):
            z = np.exp(-1j * omega[rest] * self.dt)
            out[rest] = ((1 - z) / (1j * omega[rest])
                         * np.polyval(self.h[::-1], z))
        return out[0] if scalar else out

    @property
    def ft_bound(self) -> float:
        """An upper bound on sup over omega of |omega h~(omega)|, the bound
        the Nyquist contour cut relies on.

        |omega h~(omega)| = |(1 - z) P(z)| with P(z) = sum_k h_k z^k on the
        unit circle, a trigonometric polynomial of degree N = len(h). Its
        maximum on n = 64 (N + 1) equally spaced points is within
        N pi / n of the true maximum, relatively, by Bernstein's inequality
        |T'| <= N max |T|; dividing by 1 - N pi / n makes it an upper bound.
        |1 - z| <= 2 and |P(z)| <= P(1) = 1 / dt cap it at 2 / dt."""
        n_deg = len(self.h)
        n = 64 * (n_deg + 1)
        coeffs = np.diff(self.h, prepend=0.0, append=0.0)
        peak = np.max(np.abs(np.fft.rfft(coeffs, n)))
        return min(peak / (1.0 - n_deg * math.pi / n), 2.0 / self.dt)


Response = Union[SinglePole, Sampled]


@dataclass(frozen=True)
class LoopFilter:
    """Electro-optic loop: low-frequency gain g, response shape, delay T."""
    g: float
    response: Response
    delay_T: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.g):
            raise ValueError(f"g = {self.g} must be finite")
        if not 0 <= self.delay_T < math.inf:
            raise ValueError(f"delay_T = {self.delay_T} must be finite and >= 0")


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
    for the QND cavity pair response). It must be the Fourier transform of a
    nonnegative unit-area response, so |extra(omega)| <= 1 = extra(0).
    """
    omega = np.asarray(omega, dtype=float)
    out = filt.g * filt.response.ft(omega) * np.exp(-1j * omega * filt.delay_T)
    if extra is not None:
        out = out * extra(omega)
    return out


def _nyquist_winding(filt: LoopFilter, extra=None):
    """Winding number of the open-loop locus around the critical point +1.

    h(t) and the extra response are real, so L(-omega) = conj L(omega) and
    the winding over the whole axis is the phase change of (L - 1) over
    omega >= 0 divided by pi.

    The response's `ft_bound` B bounds |omega h~(omega)| and |extra| <= 1,
    so at omega >= cut = 2 |g| B, |L| <= 1/2 and Re(L - 1) <= -1/2: beyond
    the cut the locus cannot reach or wind around the critical point, and
    its phase change out to omega -> infinity, where L -> 0, is exactly
    angle(-1 / (L(cut) - 1)). The contour runs from omega = 0 (so a gain
    within CRITICAL_TOL of 1 is marginal) to the cut on a logarithmic grid
    joined with a linear one of spacing pi / (4 lag), lag the delay plus
    the span of a sampled response, so exp(-i omega lag) turns by pi / 4
    between linear samples. It is refined until the phase of (L - 1)
    changes slowly between samples, then the tail is added, so the total
    is a whole multiple of pi up to rounding (the tail is at most pi/6, so
    the rounded count never hinges on it). For |g| < 1 - CRITICAL_TOL,
    |L| <= |g| keeps (L - 1) in the left half plane and more than
    CRITICAL_TOL away from 0, so the winding is 0 without sampling. If the
    phase still jumps between samples after 30 refinements, raises
    NyquistUnresolved.
    """
    g = abs(filt.g)
    if g < 1.0 - CRITICAL_TOL:
        return 0
    resp = filt.response
    cut = 2.0 * g * resp.ft_bound
    lag = filt.delay_T
    if isinstance(resp, Sampled):
        lag += len(resp.h) * resp.dt
    lin = np.arange(0.0, cut, math.pi / (4.0 * lag)) if lag > 0 else []
    omegas = np.unique(np.concatenate(
        [[0.0], lin, np.geomspace(cut * 1e-9, cut, 3000)]))

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
        raise NyquistUnresolved("Nyquist contour failed to converge")
    total = np.sum(np.angle(z[1:] / z[:-1])) + np.angle(-1.0 / z[-1])
    return int(round(total / math.pi))


def is_stable(filt: LoopFilter, extra=None) -> bool:
    """Nyquist criterion: no root of 1 - g H(s) exp(-sT) = 0 with Re[s] >= 0.

    The open loop is stable (causal normalized response), so closed-loop
    stability is equivalent to zero winding of the locus around +1.

    The winding is counted on a contour that runs to the cut
    2 |g| ft_bound, past which the locus provably cannot wind, and adds the
    exact phase change beyond it. extra, if given, multiplies the loop
    transfer and must be the Fourier transform of a nonnegative unit-area
    response (|extra| <= 1): the contour cut of `_nyquist_winding` is
    proven only under that bound.
    extra(0) must be 1 to within 1e-12, else ValueError.
    """
    if extra is not None and abs(extra(0.0) - 1.0) > 1e-12:
        raise ValueError("extra must be the transform of a unit-area "
                         f"response, but extra(0) = {extra(0.0)}")
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
