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
_CONTOUR_CHUNK = 1 << 15      # most Nyquist contour samples counted at once


@dataclass(frozen=True)
class SinglePole:
    """Response h(t) = gamma * exp(-gamma t)."""
    gamma: float

    def __post_init__(self):
        if not 0 < self.gamma < math.inf:
            raise ValueError(f"gamma = {self.gamma} must be finite and > 0")

    def ft(self, omega):
        """h~(omega) = 1 / (1 + i omega / gamma), exactly 1 at omega = 0."""
        return 1.0 / (1.0 + 1j * (np.asarray(omega, dtype=float) / self.gamma))

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
        """Exact Fourier transform of the piecewise-constant interpolant,
        dt e^{-i omega dt/2} sinc(omega dt / 2 pi) sum_k h_k z^k with
        z = e^{-i omega dt}, the sum evaluated by Horner's rule. It equals
        (1 - z)/(i omega) sum_k h_k z^k, and np.sinc keeps full relative
        accuracy down to omega = 0, where it is exactly 1."""
        omega = np.asarray(omega, dtype=float)
        half = 0.5 * omega * self.dt
        z = np.exp(-1j * omega * self.dt)
        return (self.dt * np.exp(-1j * half) * np.sinc(half / math.pi)
                * np.polyval(self.h[::-1], z))

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


def _closed_loop(filt: LoopFilter, omega, extra=None):
    """The closed-loop denominator 1 - L(omega), with the one marginal
    guard: MarginalStability where |1 - L| < CRITICAL_TOL."""
    den = 1.0 - loop_transfer(filt, omega, extra)
    if np.any(np.abs(den) < CRITICAL_TOL):
        raise MarginalStability(
            f"|1 - loop transfer| < {CRITICAL_TOL} at a requested omega")
    return den


def _contour(cut: float, lag: float):
    """The Nyquist contour's samples in increasing order and without
    repeats: omega = 0, the linear grid of spacing pi / (4 lag) below cut
    (none at lag 0) and geomspace(cut 1e-9, cut, 3000). Yields them in
    consecutive chunks of at most _CONTOUR_CHUNK samples, so that no more
    are held at once. Sorted by hand: np.unique would import numpy.ma."""
    spacing = math.pi / (4.0 * lag) if lag > 0 else 0.0
    n_lin = math.ceil(cut / spacing) if lag > 0 else 1
    geom = np.geomspace(cut * 1e-9, cut, 3000)
    i = j = 0
    while i < n_lin or j < len(geom):
        lin = np.arange(i, min(i + _CONTOUR_CHUNK, n_lin)) * spacing
        log = geom[j:j + _CONTOUR_CHUNK]
        merged = np.sort(np.concatenate([lin, log]))
        chunk = merged[np.diff(merged, prepend=-np.inf) != 0][:_CONTOUR_CHUNK]
        i += np.count_nonzero(lin <= chunk[-1])
        j += np.count_nonzero(log <= chunk[-1])
        yield chunk


def _phase_change(filt: LoopFilter, omegas: np.ndarray, extra=None):
    """The phase change of 1 - L over the sorted samples omegas, refined
    until it changes by at most 0.5 between samples, and 1 - L at the last
    sample. Each refinement puts a sample midway in every interval that
    jumps; NyquistUnresolved if one still jumps after 30."""
    den = _closed_loop(filt, omegas, extra)
    for _ in range(30):
        steps = np.angle(den[1:] / den[:-1])
        bad = np.nonzero(np.abs(steps) > 0.5)[0]
        if not len(bad):
            return np.sum(steps), den[-1]
        mids = 0.5 * (omegas[bad] + omegas[bad + 1])
        omegas = np.insert(omegas, bad + 1, mids)
        den = np.insert(den, bad + 1, _closed_loop(filt, mids, extra))
    raise NyquistUnresolved("Nyquist contour failed to converge")


def _nyquist_winding(filt: LoopFilter, extra=None):
    """Winding number of the open-loop locus around the critical point +1,
    that of 1 - L around 0.

    h(t) and the extra response are real, so L(-omega) = conj L(omega) and
    the winding over the whole axis is the phase change of 1 - L over
    omega >= 0 divided by pi.

    The response's `ft_bound` B bounds |omega h~(omega)| and |extra| <= 1,
    so at omega >= cut = 2 |g| B, |L| <= 1/2 and Re(1 - L) >= 1/2: beyond
    the cut the locus cannot reach or wind around the critical point, and
    its phase change out to omega -> infinity, where L -> 0, is exactly
    angle(1 / (1 - L(cut))). The contour runs from omega = 0 (so a gain
    within CRITICAL_TOL of 1 is marginal) to the cut on a logarithmic grid
    joined with a linear one of spacing pi / (4 lag), lag the delay plus
    the span of a sampled response, so exp(-i omega lag) turns by pi / 4
    between linear samples. It is counted a chunk of samples at a time
    (`_contour`), each chunk starting at the last sample of the one before
    and refined on its own until the phase of 1 - L changes slowly between
    samples, and then the tail is added, so the total is a whole multiple
    of pi up to rounding (the tail is at most pi/6, so the rounded count
    never hinges on it). Every sample goes through _closed_loop, so a
    contour that passes within CRITICAL_TOL of the critical point raises
    MarginalStability. For |g| < 1 - CRITICAL_TOL, |L| <= |g| keeps 1 - L
    in the right half plane and more than CRITICAL_TOL away from 0, so the
    winding is 0 without sampling. If the phase still jumps between samples
    after 30 refinements, raises NyquistUnresolved.
    """
    g = abs(filt.g)
    if g < 1.0 - CRITICAL_TOL:
        return 0
    resp = filt.response
    cut = 2.0 * g * resp.ft_bound
    lag = filt.delay_T
    if isinstance(resp, Sampled):
        lag += len(resp.h) * resp.dt
    total, start = 0.0, []
    for omegas in _contour(cut, lag):
        change, end = _phase_change(filt, np.concatenate([start, omegas]),
                                    extra)
        total += change
        start = omegas[-1:]
    total += np.angle(1.0 / end)
    return int(round(total / math.pi))


def _critical_gain(gamma_t: float) -> float:
    """The lower end g_c of the gains g < 1 at which the single-pole loop
    y' = -gamma y + g gamma y(t - T) is stable, as a function of
    gamma_t = gamma T (N. D. Hayes, J. London Math. Soc. 25, 226 (1950)):
    g_c = -sqrt(1 + (xi / gamma_t)^2), xi in (pi/2, pi) solving
    xi = -gamma_t tan xi. It is -inf at gamma_t = 0 and rises to -1 as
    gamma_t grows.

    xi is the root of gamma_t sin xi + xi cos xi, which falls from gamma_t at
    pi/2 to -pi at pi; bisection halves the bracket until its midpoint
    rounds to one of its ends, so xi is exact to about one ulp."""
    if gamma_t == 0.0:
        return -math.inf
    lo, hi = 0.5 * math.pi, math.pi
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if gamma_t * math.sin(mid) + mid * math.cos(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return -math.hypot(1.0, mid / gamma_t)


def is_stable(filt: LoopFilter, extra=None) -> bool:
    """Closed-loop stability: no root of 1 - g H(s) exp(-sT) = 0 with
    Re[s] >= 0.

    A SinglePole loop without extra takes Hayes' closed form: stable iff
    _critical_gain(gamma T) < g < 1. It raises MarginalStability within
    CRITICAL_TOL of g = 1 and within CRITICAL_TOL |g_c| of g_c: near g_c,
    |1 - L| at the crossing frequency is about |g - g_c| / |g_c|, and
    |g_c| ~ pi / (2 gamma T) grows without bound as gamma T shrinks.

    Every other loop takes the Nyquist criterion. The open loop is stable
    (causal normalized response), so closed-loop stability is equivalent to
    zero winding of the locus around +1, counted on a contour that runs to
    the cut 2 |g| ft_bound, past which the locus provably cannot wind, plus
    the exact phase change beyond it (`_nyquist_winding`). extra, if given,
    multiplies the loop transfer and must be the Fourier transform of a
    nonnegative unit-area response (|extra| <= 1): the contour cut is proven
    only under that bound. extra(0) must be 1 to within 1e-12, else
    ValueError. A contour within CRITICAL_TOL of the critical point raises
    MarginalStability.
    """
    if extra is not None and abs(extra(0.0) - 1.0) > 1e-12:
        raise ValueError("extra must be the transform of a unit-area "
                         f"response, but extra(0) = {extra(0.0)}")
    if extra is None and isinstance(filt.response, SinglePole):
        g = filt.g
        if abs(g - 1.0) < CRITICAL_TOL:
            raise MarginalStability("single-pole loop with g = 1")
        g_c = _critical_gain(filt.response.gamma * filt.delay_T)
        if abs(g - g_c) < CRITICAL_TOL * abs(g_c):
            raise MarginalStability(
                f"single-pole loop at its critical gain {g_c}")
        return g_c < g < 1.0
    return _nyquist_winding(filt, extra) == 0


def max_bandwidth(g: float, T: float) -> float:
    """Bandwidth bound B <= pi / (T |g|) for strong low-frequency feedback."""
    if not (math.isfinite(g) and g != 0):
        raise ValueError(f"g = {g} must be finite and nonzero")
    if not 0 <= T < math.inf:
        raise ValueError(f"T = {T} must be finite and >= 0")
    if T == 0:
        return math.inf
    return math.pi / (T * abs(g))


# ---------------------------------------------------------------------------
# spectra

def _require_stable(beamline: FeedbackBeamline, filt: LoopFilter) -> None:
    if filt.g != 0 and beamline.eta2 == 0.0:
        raise DegenerateSplit("eta2 = 0: no light reaches the in-loop detector")
    if not is_stable(filt):
        raise UnstableLoop(f"loop with g = {filt.g} is unstable")


def _fed_back_noise(beamline: FeedbackBeamline, filt: LoopFilter,
                    omega_grid: np.ndarray):
    """The in-loop detector's noise the loop writes onto the beam,
    g^2 |h~|^2 (1 - eta2) / eta2, and 0 without feedback."""
    if filt.g == 0:
        return 0.0
    h2 = np.abs(filt.response.ft(omega_grid)) ** 2
    return filt.g ** 2 * h2 * (1.0 - beamline.eta2) / beamline.eta2


def in_loop_spectrum(beamline: FeedbackBeamline, filt: LoopFilter,
                     omega_grid) -> Spectrum:
    """Amplitude spectrum at the in-loop detector:
    (1 + eta1 eta2 [S0x - 1]) / |1 - g h~ e^{-i omega T}|^2."""
    omega_grid = np.asarray(omega_grid, dtype=float)
    _require_stable(beamline, filt)
    sx, _ = beamline.input_spectra(omega_grid)
    vals = ((1.0 + beamline.eta1 * beamline.eta2 * (sx - 1.0))
            / np.abs(_closed_loop(filt, omega_grid)) ** 2)
    return Spectrum(omega_grid, vals)


def out_of_loop_spectrum(beamline: FeedbackBeamline, filt: LoopFilter,
                         omega_grid) -> Spectrum:
    """Amplitude spectrum of the extracted beam: the beam splitter's vacuum
    port is anticorrelated, so feedback can only add noise here."""
    omega_grid = np.asarray(omega_grid, dtype=float)
    _require_stable(beamline, filt)
    sx, _ = beamline.input_spectra(omega_grid)
    extra = ((1.0 - beamline.eta2) * beamline.eta1 * (sx - 1.0)
             + _fed_back_noise(beamline, filt, omega_grid))
    vals = 1.0 + extra / np.abs(_closed_loop(filt, omega_grid)) ** 2
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
    sx, _ = beamline.input_spectra(omega_grid)
    num = (1.0 + beamline.eta1 * (sx - 1.0)
           + _fed_back_noise(beamline, filt, omega_grid))
    return Spectrum(omega_grid,
                    num / np.abs(_closed_loop(filt, omega_grid)) ** 2)


def optimal_gain_for_input(beamline: FeedbackBeamline, omega: float):
    """Loop transfer minimizing the out-of-loop noise at one frequency, and
    the resulting optimum value.

    The input spectra are read through `input_spectra`, so an input with
    s0x * s0y < 1 raises ValueError. For a squeezed input (s0x < 1) the
    required transfer is positive: destabilizing feedback puts squeezing
    back into the free beam.
    """
    sx = float(beamline.input_spectra(omega)[0])
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
    return 1.0 / _closed_loop(filt, omega)
