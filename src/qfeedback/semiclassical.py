"""Time-domain Monte Carlo of the classical-field-plus-shot-noise picture.

Serves as an independent oracle for the closed-form loop spectra: classical
amplitude fluctuations propagate around the loop while each detector adds its
own Gaussian shot noise, linearized exactly as in the frequency-domain
analysis. Photocurrents are returned normalized by sqrt(mean current) so unit
shot noise has spectral density 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.random import Generator, Philox

# scipy.signal is imported inside the functions that use it, so that
# `import qfeedback` loads numpy only

from .errors import (
    DegenerateSplit,
    DivergenceDetected,
    SemiclassicalInexpressible,
    TooShort,
    UnstableLoop,
)
from .loop import FeedbackBeamline, LoopFilter, Sampled, SinglePole, Spectrum, is_stable

DIVERGENCE_LIMIT = 1e6


@dataclass(frozen=True)
class ClassicalNoise:
    """Single-pole classical amplitude noise on the input beam.

    Realized as an Ornstein-Uhlenbeck process, giving
    s0x(omega) = 1 + excess * pole^2 / (pole^2 + omega^2).
    """
    excess: float
    pole: float

    def __post_init__(self):
        if self.excess < 0:
            raise SemiclassicalInexpressible(
                "classical noise cannot push s0x below shot noise")
        if self.pole <= 0:
            raise ValueError("pole must be > 0")

    def spectrum(self, omega):
        omega = np.asarray(omega, dtype=float)
        return 1.0 + self.excess * self.pole ** 2 / (self.pole ** 2 + omega ** 2)


@dataclass(frozen=True)
class SemiclassicalSim:
    beamline: FeedbackBeamline
    filter: LoopFilter
    dt: float
    duration: float
    seed: int
    classical_noise: Optional[ClassicalNoise] = None

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be > 0")
        slowest = self._slowest_time()
        if self.duration < 100.0 * slowest:
            raise ValueError("duration must cover >= 100 filter time constants")
        limit = self._fast_time() / 20.0
        if self.dt > limit:
            raise ValueError(f"dt = {self.dt} > {limit} (min(1/gamma, T)/20)")
        if not callable(self.beamline.s0x) and float(self.beamline.s0x) < 1.0:
            raise SemiclassicalInexpressible(
                "a squeezed input (s0x < 1) has no semiclassical representation")
        if self.beamline.eta2 <= 0.0:
            raise DegenerateSplit("eta2 must be > 0 for the in-loop detector")

    def _slowest_time(self) -> float:
        times = [1.0 / self.filter.response.fastest_rate]
        if self.filter.delay_T > 0:
            times.append(self.filter.delay_T)
        if self.classical_noise is not None:
            times.append(1.0 / self.classical_noise.pole)
        return max(times)

    def _fast_time(self) -> float:
        times = [1.0 / self.filter.response.fastest_rate]
        if self.filter.delay_T > 0:
            times.append(self.filter.delay_T)
        return min(times)


@dataclass(frozen=True)
class SimRecord:
    """Normalized photocurrent fluctuations after burn-in."""
    di2: np.ndarray
    di3: np.ndarray
    dt: float


def _loop_difference_eq(filt: LoopFilter, dt: float):
    """(b, a) difference-equation coefficients of the closed-loop map from
    w = sqrt(eta1 eta2) X0 + xi2 to the filtered feedback signal y.

    The loop is the causal recursion y_n = (h * u)_{n-1-d} with
    u = w + g y, realized exactly; lfilter just evaluates it.
    """
    d = int(round(filt.delay_T / dt))
    if abs(d * dt - filt.delay_T) > dt / 2:
        raise ValueError("delay T not representable on the time grid")
    if isinstance(filt.response, SinglePole):
        a1 = np.exp(-filt.response.gamma * dt)
        b = np.zeros(d + 2)
        b[d + 1] = 1.0 - a1
        a = np.zeros(d + 2)
        a[0] = 1.0
        a[1] -= a1
        a[d + 1] -= filt.g * (1.0 - a1)
    elif isinstance(filt.response, Sampled):
        hk = filt.response.h * filt.response.dt
        if abs(filt.response.dt - dt) > 1e-12 * dt:
            raise ValueError("sampled response must share the simulation dt")
        n = len(hk)
        b = np.zeros(d + 1 + n)
        a = np.zeros(d + 1 + n)
        a[0] = 1.0
        b[d + 1:] = hk
        a[d + 1:] -= filt.g * hk
    else:
        raise TypeError(f"unsupported response {type(filt.response)}")
    return b, a


def simulate(sim: SemiclassicalSim) -> SimRecord:
    """Run the closed loop and return normalized photocurrent fluctuations.

    delta I_k / sqrt(I_k) = X_k^cl + xi_k; the first 10 slow time constants
    are discarded as burn-in. Deterministic for a fixed seed.
    """
    from scipy import signal
    if not is_stable(sim.filter):
        raise UnstableLoop(f"g = {sim.filter.g} loop is unstable")
    filt, dt = sim.filter, sim.dt
    n = int(round(sim.duration / dt))
    burn = int(round(10.0 * sim._slowest_time() / dt))
    total = n + burn
    rng = Generator(Philox(key=sim.seed))

    eta1, eta2 = sim.beamline.eta1, sim.beamline.eta2
    s_in = np.sqrt(eta1 * eta2)
    s_out = np.sqrt(eta1 * (1.0 - eta2))
    g_out = filt.g * np.sqrt((1.0 - eta2) / eta2)

    # classical input amplitude noise (exact OU discretization)
    if sim.classical_noise is not None:
        cn = sim.classical_noise
        decay = np.exp(-cn.pole * dt)
        var_ss = cn.excess * cn.pole / 2.0
        innov = rng.standard_normal(total)
        sig = np.sqrt(var_ss * (1.0 - decay ** 2))
        x_init = np.sqrt(var_ss) * innov[0]
        x0, _ = signal.lfilter([1.0], [1.0, -decay], sig * innov,
                               zi=np.array([decay * x_init]))
    else:
        x0 = np.zeros(total)

    xi2 = rng.standard_normal(total) / np.sqrt(dt)
    xi3 = rng.standard_normal(total) / np.sqrt(dt)

    w = s_in * x0 + xi2
    b, a = _loop_difference_eq(filt, dt)
    y = signal.lfilter(b, a, w)
    x2 = s_in * x0 + filt.g * y
    if np.max(np.abs(x2)) > DIVERGENCE_LIMIT:
        raise DivergenceDetected("in-loop amplitude exceeded 1e6")
    di2 = x2 + xi2
    di3 = s_out * x0 + g_out * y + xi3
    return SimRecord(di2[burn:], di3[burn:], dt)


def diverges(filt: LoopFilter, dt: float, duration: float) -> bool:
    """Brute-force stability probe: drive the closed loop with an impulse and
    compare late-time to early-time energy. Independent of the Nyquist test."""
    from scipy import signal
    b, a = _loop_difference_eq(filt, dt)
    n = int(round(duration / dt))
    imp = np.zeros(n)
    imp[0] = 1.0
    y = signal.lfilter(b, a, imp)
    if not np.all(np.isfinite(y)):
        return True
    if np.max(np.abs(y)) > DIVERGENCE_LIMIT:
        return True
    head = np.max(np.abs(y[: n // 4])) + 1e-300
    tail = np.max(np.abs(y[3 * n // 4:]))
    return tail > head


def welch_segment_length(n: int, n_segments: int) -> int:
    """Samples per segment when n samples are split into n_segments
    half-overlapping Welch segments; TooShort below 8 per segment."""
    if n_segments < 1:
        raise ValueError("n_segments must be >= 1")
    nperseg = int(2 * n / (n_segments + 1))
    if nperseg < 8:
        raise TooShort(f"{n} samples cannot support {n_segments} segments")
    return nperseg


def welch_window_count(n: int, n_segments: int) -> int:
    """Number of Welch windows that estimate_psd averages over n samples:
    windows of welch_segment_length(n, n_segments) samples, each starting
    nperseg - nperseg // 2 samples after the last (as scipy steps them)."""
    nperseg = welch_segment_length(n, n_segments)
    return (n - nperseg) // (nperseg - nperseg // 2) + 1


def estimate_psd(series: np.ndarray, dt: float, n_segments: int) -> Spectrum:
    """Averaged periodogram (Hann window, 50% overlap), normalized so unit
    white noise has expected density 1. Returns standard errors.

    series may hold several records along its last axis; values and stderr
    then carry the leading axes, one spectrum per record.
    """
    from scipy import signal
    series = np.asarray(series, dtype=float)
    n = series.shape[-1]
    nperseg = welch_segment_length(n, n_segments)
    freqs, pxx = signal.welch(
        series, fs=1.0 / dt, window="hann", nperseg=nperseg,
        noverlap=nperseg // 2, detrend=False, return_onesided=False,
        scaling="density", axis=-1)
    keep = freqs >= 0
    omega = 2.0 * np.pi * freqs[keep]
    order = np.argsort(omega)
    omega = omega[order]
    vals = pxx[..., keep][..., order]
    # ~1.06/K variance factor for Hann at 50% overlap
    stderr = vals * np.sqrt(1.06 / welch_window_count(n, n_segments))
    return Spectrum(omega, vals, stderr=stderr)
