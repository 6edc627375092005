"""Time-domain Monte Carlo of the classical-field-plus-shot-noise picture.

Serves as an independent oracle for the closed-form loop spectra: classical
amplitude fluctuations propagate around the loop while each detector adds its
own Gaussian shot noise, linearized exactly as in the frequency-domain
analysis. Photocurrents are returned normalized by sqrt(mean current) so unit
shot noise has spectral density 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from numpy.random import Generator, Philox

from .errors import (
    DegenerateSplit,
    DivergenceDetected,
    SemiclassicalInexpressible,
    TooShort,
    UnstableLoop,
)
from .loop import FeedbackBeamline, LoopFilter, Sampled, SinglePole, Spectrum, is_stable

DIVERGENCE_LIMIT = 1e6
# the variance of a Welch estimate over K windows (periodic Hann, 50% overlap)
# is about HANN_VARIANCE_FACTOR / K times its square
HANN_VARIANCE_FACTOR = 1.06
_BLOCK = 256                  # fewest samples per block of _lfilter
_BLOCK_SCALAR = 128           # samples per block of an order-1 _lfilter
_FLUSH = 1e-250               # _lfilter's carried outputs below this scale are 0
_FLUSH_EVERY = 64             # blocks between flushes inside _lfilter's carry loops
_TAIL_STEP = 8                # blocks per carry step of _lfilter past its input


@dataclass(frozen=True)
class ClassicalNoise:
    """Single-pole classical amplitude noise on the input beam.

    Realized as an Ornstein-Uhlenbeck process, giving
    s0x(omega) = 1 + excess * pole^2 / (pole^2 + omega^2).
    """
    excess: float
    pole: float

    def __post_init__(self):
        if not self.excess >= 0:
            raise SemiclassicalInexpressible(
                f"excess = {self.excess}: classical noise cannot push s0x below"
                " shot noise")
        if self.excess == math.inf:
            raise ValueError(f"excess = {self.excess} must be finite")
        if not 0 < self.pole < math.inf:
            raise ValueError(f"pole = {self.pole} must be finite and > 0")

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
        if not isinstance(self.filter.response, SinglePole):
            raise ValueError("the simulation runs single-pole loops only; "
                             "a sampled response runs in diverges")
        if not self.dt > 0:
            raise ValueError(f"dt = {self.dt} must be > 0")
        slowest = self._slowest_time()
        if not self.duration >= 100.0 * slowest:
            raise ValueError("duration must cover >= 100 filter time constants")
        limit = self._fast_time() / 20.0
        if not self.dt <= limit:
            raise ValueError(f"dt = {self.dt} > {limit} (min(1/gamma, T)/20)")
        if not callable(self.beamline.s0x) and float(self.beamline.s0x) < 1.0:
            raise SemiclassicalInexpressible(
                "a squeezed input (s0x < 1) has no semiclassical representation")
        if self.beamline.eta2 <= 0.0:
            raise DegenerateSplit("eta2 must be > 0 for the in-loop detector")

    def _slowest_time(self) -> float:
        noise = self.classical_noise
        return max(1.0 / self.filter.response.gamma, self.filter.delay_T,
                   1.0 / noise.pole if noise is not None else 0.0)

    def _fast_time(self) -> float:
        return min(1.0 / self.filter.response.gamma,
                   self.filter.delay_T or math.inf)


@dataclass(frozen=True)
class SimRecord:
    """Normalized photocurrent fluctuations after burn-in."""
    di2: np.ndarray
    di3: np.ndarray
    dt: float


def _toeplitz(diagonals: np.ndarray, cols: int) -> np.ndarray:
    """The matrix T[j, i] = diagonals[j - i + cols - 1], with
    len(diagonals) - cols + 1 rows (a read-only view)."""
    return sliding_window_view(diagonals, cols)[:, ::-1]


def _lfilter(b, a, x, n: Optional[int] = None) -> np.ndarray:
    """Output from rest of y[n] = sum_k b[k] x[n-k] - sum_{k>=1} a[k] y[n-k]
    (a[0] = 1) for the 1-D input x followed by zeros: n >= len(x) samples
    (default len(x)).

    Evaluated in blocks of m samples, p the order. Each block's output is
    one linear map of its state: its own inputs, the p inputs before it and
    the p outputs before it. For the blocks whose state holds an input, one
    product gives every block's last p outputs from its inputs alone, a loop
    over blocks adds the outputs carried from the block before (p x p work
    per block), and one product applies the whole map to every block's
    state, m + 2p multiply-adds per sample. An order-1 carry is a
    Python-float recursion that costs little per block, so it takes the
    shorter m = _BLOCK_SCALAR; higher orders take m = max(_BLOCK, p), as
    each block's carry is an array product.

    Past x a block's state is its p carried outputs alone. The carry then
    steps s blocks at a time through last^s (last the p x p carry map), and
    one product against the span [tail | last tail | ... | last^(s-1) tail]
    (tail the p x m map from carried outputs to a block's outputs) gives
    those blocks' outputs, p multiply-adds per sample. s is the largest
    power of two up to _TAIL_STEP whose span costs no more to build than
    that product. Once the carry is exactly zero the rest of the output is
    zero.

    Carried outputs below _FLUSH times the running maximum of |heads| are
    set to zero: every _FLUSH_EVERY blocks inside the carry loops, and all
    of them before the last products. A decaying response then reaches both
    as zeros rather than as subnormal floats, which make every product that
    touches them many times slower. Every value flushed is below _FLUSH of
    the response's scale; with all heads zero nothing is flushed.
    """
    p = max(len(a), len(b)) - 1
    b = np.pad(np.asarray(b, dtype=float), (0, p + 1 - len(b)))
    a = np.pad(np.asarray(a, dtype=float), (0, p + 1 - len(a)))
    m = _BLOCK_SCALAR if p == 1 else max(_BLOCK, p)
    # h: impulse response of 1/a over one block
    h = np.zeros(m)
    h[0] = 1.0
    rev_a = a[:0:-1]
    for i in range(1, m):
        k = min(i, p)
        h[i] = -(rev_a[p - k:] @ h[i - k:i])
    # rows: the m + p inputs, then the p earlier outputs; columns: outputs
    zeros = np.zeros(m - 1)
    maps = np.vstack([
        _toeplitz(np.concatenate([zeros, b[::-1], zeros]), m),
        _toeplitz(np.concatenate([zeros, -rev_a]), m),
    ]) @ _toeplitz(np.concatenate([h[::-1], zeros]), m)

    nx = len(x)
    n = nx if n is None else n
    if n < nx:
        raise ValueError(f"n = {n} is shorter than the {nx} input samples")
    nb = -(-n // m)
    # the blocks whose state holds an input: block k reads x[km - p:(k + 1)m]
    nbx = min(nb, -(-(nx + p) // m))
    padded = np.zeros(p + nbx * m)
    padded[p:p + nx] = x
    state = np.empty((nbx, m + 2 * p))
    state[:, :m + p] = sliding_window_view(padded, m + p)[::m]
    del padded
    heads = state[:, :m + p] @ maps[:m + p, m - p:]
    # tails[k]: the p outputs before block k, block k - 1's head plus its
    # own tails carried through `last`
    tails = state[:, m + p:]
    tails[0] = 0.0
    last = np.ascontiguousarray(maps[m + p:, m - p:])
    # floor[k]: the flush level of tails[k + 1], which heads[:k + 1] drive
    floor = _FLUSH * np.maximum.accumulate(np.max(np.abs(heads), axis=1))
    if p == 1:   # a scalar recursion: Python floats beat 1x1 array products
        lam = float(last[0, 0])
        tails[1:, 0] = list(accumulate(heads[:-1, 0].tolist(),
                                       lambda t, z: z + t * lam))
    else:
        rows = list(tails)
        for k, (prev, cur, head) in enumerate(zip(rows, rows[1:], heads)):
            np.dot(prev, last, out=cur)
            cur += head
            if k % _FLUSH_EVERY == 0:   # keep the recursion off subnormals
                cur[np.abs(cur) < floor[k]] = 0.0
    carried = tails[1:]
    carried[np.abs(carried) < floor[:-1, None]] = 0.0
    if nbx == nb:
        return (state @ maps).reshape(-1)[:n]

    # past x: carries[j] is the carry into block nbx + j s. The span costs
    # (s - 1) p^2 m multiply-adds to build, at most the nt m p of its product
    nt = nb - nbx
    s = _TAIL_STEP
    while s > 1 and (s - 1) * p > nt:
        s //= 2
    groups = -(-nt // s)
    y = np.empty((nbx + groups * s) * m)
    np.dot(state, maps, out=y[:nbx * m].reshape(nbx, m))
    level = floor[-1]
    carries = np.zeros((groups, p))
    carries[0] = tails[-1] @ last + heads[-1]
    jump = np.linalg.matrix_power(last, s)
    rows, live = list(carries), 1
    for j, (prev, cur) in enumerate(zip(rows, rows[1:])):
        if not prev.any():   # a zero carry stays zero, and so do its outputs
            break
        np.dot(prev, jump, out=cur)
        live += 1
        if j % (_FLUSH_EVERY // s) == 0:
            cur[np.abs(cur) < level] = 0.0
    carries = carries[:live]
    carries[np.abs(carries) < level] = 0.0
    span = [maps[m + p:]]
    for _ in range(1, s):
        span.append(last @ span[-1])
    out = y[nbx * m:].reshape(groups, s * m)
    np.dot(carries, np.hstack(span), out=out[:live])
    out[live:] = 0.0
    return y[:n]


def _loop_difference_eq(filt: LoopFilter, dt: float):
    """(b, a) difference-equation coefficients of the closed-loop map from
    w = sqrt(eta1 eta2) X0 + xi2 to the filtered feedback signal y.

    The loop is the causal recursion y_n = (h * u)_{n-1-d} with
    u = w + g y, d = T / dt a whole number of steps; _lfilter evaluates it
    exactly, from rest.
    """
    d = int(round(filt.delay_T / dt))
    if abs(d * dt - filt.delay_T) > 1e-9 * max(dt, filt.delay_T):
        raise ValueError(f"delay T = {filt.delay_T} is not a whole number "
                         f"of steps dt = {dt}")
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

    The sample arrays are built in place and dropped as soon as they are
    spent, so at most five full-length arrays are alive at once.
    """
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
        drive = rng.standard_normal(total)
        sig = np.sqrt(var_ss * (1.0 - decay ** 2))
        x_init = np.sqrt(var_ss) * drive[0]
        drive *= sig
        drive[0] += decay * x_init      # the state before the first sample
        x0 = _lfilter([1.0], [1.0, -decay], drive)
        del drive
    else:
        x0 = np.zeros(total)

    root_dt = np.sqrt(dt)
    xi2 = rng.standard_normal(total)
    xi2 /= root_dt
    w = s_in * x0
    w += xi2
    b, a = _loop_difference_eq(filt, dt)
    y = _lfilter(b, a, w)
    del w
    di2 = s_in * x0
    di2 += filt.g * y
    if np.max(np.abs(di2)) > DIVERGENCE_LIMIT:
        raise DivergenceDetected("in-loop amplitude exceeded 1e6")
    di2 += xi2
    del xi2
    # xi3 is the next draw of the same stream, taken after xi2 is spent
    xi3 = rng.standard_normal(total)
    xi3 /= root_dt
    di3 = s_out * x0
    del x0
    y *= g_out
    di3 += y
    del y
    di3 += xi3
    return SimRecord(di2[burn:], di3[burn:], dt)


def diverges(filt: LoopFilter, dt: float, duration: float) -> bool:
    """Brute-force stability probe: drive the closed loop with an impulse and
    compare late-time to early-time energy. Independent of the Nyquist test.

    The response is _lfilter's output for the one-sample input [1.0] over
    round(duration / dt) samples, so every block after the first runs the
    zero-input carry. A response that is not finite (an unstable loop may
    overflow to inf or nan) or that exceeds DIVERGENCE_LIMIT counts as
    diverging. ValueError for a non-finite or non-positive dt and for a
    duration that is not finite or spans fewer than 4 steps.

    A Sampled response runs as the zero-order-hold recursion
    y_n = sum_k h_k dt u_{n-1-d-k}, one sample of lag more than the
    continuous loop that loop.is_stable judges, so the two verdicts can
    differ: the one-tap box Sampled([1.0], 0.02) with T = 0 recurses as
    y_n = g y_{n-1} and diverges for every g < -1, while is_stable finds the
    continuous loop stable for every g < 1 (both hold at g = -1.5)."""
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt = {dt} must be finite and > 0")
    if not math.isfinite(duration):
        raise ValueError(f"duration = {duration} must be finite")
    n = int(round(duration / dt))
    if n < 4:
        raise ValueError(f"duration {duration} spans {n} < 4 steps of {dt}")
    b, a = _loop_difference_eq(filt, dt)
    with np.errstate(over="ignore", invalid="ignore"):
        y = np.abs(_lfilter(b, a, [1.0], n))
    if not np.max(y) <= DIVERGENCE_LIMIT:   # also inf and nan
        return True
    head = np.max(y[: n // 4]) + 1e-300
    tail = np.max(y[3 * n // 4:])
    return tail > head


def _smooth_floor(n: int) -> int:
    """The largest 5-smooth integer 2^a 3^b 5^c <= n (n >= 1)."""
    best = 1
    p5 = 1
    while p5 <= n:
        p35 = p5
        while p35 <= n:
            # the largest power of two with p35 * 2^a <= n
            best = max(best, p35 << ((n // p35).bit_length() - 1))
            p35 *= 3
        p5 *= 5
    return best


def welch_segment_length(n: int, n_segments: int) -> int:
    """Samples per segment when n samples are split into n_segments
    half-overlapping Welch segments; TooShort below 8 per segment.

    The length is the largest even 5-smooth integer (2^a 3^b 5^c, a >= 1)
    at most int(2 n / (n_segments + 1)), the length at which n_segments
    segments fill n samples, so the FFT of every segment takes the fast path.
    An even length L <= 2 n / (n_segments + 1) steps by L / 2 and so fits at
    least n_segments windows. It is at most 15% below the bound, and at
    most 6.3% below once the bound reaches 1000.
    """
    if n_segments < 1:
        raise ValueError("n_segments must be >= 1")
    nperseg = int(2 * n / (n_segments + 1))
    if nperseg < 8:
        raise TooShort(f"{n} samples cannot support {n_segments} segments")
    return 2 * _smooth_floor(nperseg // 2)


def welch_window_count(n: int, n_segments: int) -> int:
    """Number of Welch windows that estimate_psd averages over n samples:
    windows of welch_segment_length(n, n_segments) samples, each starting
    half a window after the last."""
    nperseg = welch_segment_length(n, n_segments)
    return (n - nperseg) // (nperseg // 2) + 1


def estimate_psd(series: np.ndarray, dt: float, n_segments: int) -> Spectrum:
    """Averaged periodogram (periodic Hann window, 50% overlap), normalized
    so unit white noise has expected density 1, at the frequencies
    0 <= omega < pi / dt of the segment's grid. Returns standard errors.

    series may hold several records along its last axis; values and stderr
    then carry the leading axes, one spectrum per record.
    """
    series = np.asarray(series, dtype=float)
    n = series.shape[-1]
    nperseg = welch_segment_length(n, n_segments)
    step = nperseg // 2
    frames = sliding_window_view(series, nperseg, axis=-1)[..., ::step, :]
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(nperseg) / nperseg)
    # the two-sided density at omega >= 0; nperseg is even, and its Nyquist
    # bin is dropped, as a two-sided grid labels it negative
    keep = nperseg // 2
    spectra = np.fft.rfft(frames * window, axis=-1)[..., :keep]
    vals = np.mean(spectra.real ** 2 + spectra.imag ** 2, axis=-2)
    vals *= dt / np.sum(window ** 2)
    omega = 2.0 * np.pi * np.fft.rfftfreq(nperseg, dt)[:keep]
    stderr = vals * np.sqrt(HANN_VARIANCE_FACTOR
                            / welch_window_count(n, n_segments))
    return Spectrum(omega, vals, stderr=stderr)
