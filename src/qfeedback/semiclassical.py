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
from functools import cached_property
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
# record samples whose windows estimate_psd transforms at a time: one
# transform over 256 records of 1000 samples took 14 MB more peak memory,
# and was no faster
_PSD_CHUNK = 1 << 15
_BLOCK = 256                  # fewest samples per block of a _BlockRecursion
_BLOCK_SCALAR = 128           # samples per block of an order-1 recursion
_CHUNK_BLOCKS = 128           # blocks per chunk of a _BlockRecursion pass
_FLUSH = 1e-250               # carried outputs below this scale are 0
_FLUSH_EVERY = 64             # blocks between flushes inside the carry loops
_TAIL_STEP = 8                # blocks per carry step past the input


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

    @property
    def samples(self) -> int:
        """The length of each record `simulate` returns, after burn-in."""
        return int(round(self.duration / self.dt))

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


def _edge_weights(c: np.ndarray) -> np.ndarray:
    """The p x p weights W[j, i] = c[p - j + i] for i <= j (else 0), p =
    len(c) - 1, with which the sample p - j before a block reaches the
    block's sample i of sum_k c[k] z[n - k] (c[0] never does)."""
    p = len(c) - 1
    return np.ascontiguousarray(
        _toeplitz(np.concatenate([np.zeros(p - 1), c[:0:-1]]), p))


def _impulse_response(a: np.ndarray, m: int) -> np.ndarray:
    """The first m samples of the impulse response of 1/a (a[0] = 1).

    Newton's iteration for the inverse of a power series: from the first k
    samples h, the next k are h * e, e the samples k..2k-1 of 1 - a * h (its
    first k are zero). Each step doubles the samples known."""
    h = np.ones(1)
    while len(h) < m:
        k = len(h)
        e = -np.convolve(a[:2 * k], h)[k:2 * k]
        h = np.concatenate([h, np.convolve(h, e)[:k]])
    return h[:m]


class _BlockRecursion:
    """The difference equation y[n] = sum_k b[k] x[n-k] - sum_{k>=1} a[k]
    y[n-k] (a[0] = 1), run from rest over consecutive chunks of its input.

    Evaluated in blocks of m samples, p the order. Each block's output is
    one linear map of its state: its own inputs, the p inputs before it and
    the p outputs before it. For the blocks of a chunk, one product gives
    every block's last p outputs from its inputs alone, a loop over blocks
    adds the outputs carried from the block before (p x p work per block),
    and one product applies the whole map to every block's state, m + 2p
    multiply-adds per sample. An order-1 carry is a Python-float recursion
    that costs little per block, so it takes the shorter m = _BLOCK_SCALAR;
    higher orders take m = max(_BLOCK, p), as each block's carry is an array
    product.

    The object keeps the first m samples of the impulse response of 1/a,
    and builds every map from them on first use. The map of a block's own
    inputs is the Toeplitz matrix of b convolved with that response, read
    as a view without a product. The p inputs and the p outputs before a
    block reach only its first p samples of b * x - a * y, so their rows
    are p x p weights (`_edge_weights`) times the response's first p
    shifts, products of contiguous arrays; the rows of the outputs are the
    tail map. Between chunks the object carries the last p inputs, the p
    outputs carried into the next block (from the carry recursion) and the
    running flush level, so a run cut into chunks does the same arithmetic
    as one over the whole input would. A chunk is _CHUNK_BLOCKS blocks,
    `step` samples, which bounds the working memory. The stacked block map
    `maps` is formed only for a run with input beyond its first block: a
    shorter one reads only the rows of its own samples. The carry loop of
    `blocks` steps through the last p columns of the tail rows of `maps`.

    Past the input a block's state is its p carried outputs alone, and
    `carries` steps them s blocks at a time through last^s (`powers`, last
    the p x p carry map, read from the last p shifts alone). `outputs` maps
    such carries to the outputs of their s blocks, each block's carry times
    the tail map, and `output_bound` bounds those outputs from the powers
    alone, so that a caller that needs only the bound never forms the tail
    map.

    Carried outputs below _FLUSH times the running maximum of |heads| are
    set to zero: every _FLUSH_EVERY blocks inside the carry loop of
    `blocks`, all of them before its output product, and every carry that
    `carries` yields. A decaying response then reaches the products as
    zeros rather than as subnormal floats, which make every product that
    touches them many times slower. Every value flushed is below _FLUSH of
    the response's scale; with all heads zero nothing is flushed.
    """

    def __init__(self, b, a):
        p = max(len(a), len(b)) - 1
        self.b, self.a = np.zeros(p + 1), np.zeros(p + 1)
        self.b[:len(b)] = b
        self.a[:len(a)] = a
        m = _BLOCK_SCALAR if p == 1 else max(_BLOCK, p)
        self.p, self.m, self.step = p, m, _CHUNK_BLOCKS * m
        self._impulse = _impulse_response(self.a, m)
        self._powers = []            # last, last^2, ... as `powers` built them
        self._inputs = np.zeros(p)   # the last p inputs
        self._carry = np.zeros(p)    # the p outputs before the next block
        self._level = 0.0            # _FLUSH times the largest |head| so far
        self._block = 0              # the index of the next block

    def _shifts(self, first: int = 0) -> np.ndarray:
        """Columns first..m-1 of the first p rows of the map from a block's
        samples of b * x - a * y to its outputs: the impulse response
        shifted by 0..p-1 samples."""
        diagonals = np.concatenate([self._impulse[::-1], np.zeros(self.p - 1)])
        return np.ascontiguousarray(_toeplitz(diagonals, self.m)[:, first:])

    def _own(self, count: int) -> np.ndarray:
        """The first `count` rows of the map from a block's own inputs to
        its outputs (a view): input r reaches output l through
        (b * impulse)[l - r]."""
        m = self.m
        w = np.convolve(self.b, self._impulse)[m - 1::-1]
        return _toeplitz(np.concatenate([w, np.zeros(m - 1)]), m)[:count]

    @cached_property
    def tail(self) -> np.ndarray:
        """The zero-input map from the p outputs before a block (rows) to
        its m outputs (columns)."""
        return _edge_weights(-self.a) @ self._shifts()

    @cached_property
    def last(self) -> np.ndarray:
        """The p x p carry map, from the p outputs before a zero-input block
        to its last p outputs: the last p columns of `tail`, formed alone as
        a p x p product of the last p columns of the shifts."""
        return _edge_weights(-self.a) @ self._shifts(self.m - self.p)

    @cached_property
    def maps(self) -> np.ndarray:
        """The block map: rows the m + p inputs, then the p earlier
        outputs; columns the block's outputs."""
        m, p = self.m, self.p
        maps = np.empty((m + 2 * p, m))
        np.matmul(_edge_weights(self.b), self._shifts(), out=maps[:p])
        maps[p:m + p] = self._own(m)
        maps[m + p:] = self.tail
        return maps

    def __call__(self, x) -> np.ndarray:
        """The outputs for the next len(x) input samples of the run: len(x)
        is `step`, but for the run's last chunk."""
        return self.blocks(x, -(-len(x) // self.m))[:len(x)]

    def blocks(self, x, count: int, out=None) -> np.ndarray:
        """The outputs of the next `count` blocks (into out, if given) for
        the input samples x, at most count m of them, followed by zeros."""
        m, p = self.m, self.p
        padded = np.zeros(p + count * m)
        padded[:p] = self._inputs
        padded[p:p + len(x)] = x
        self._inputs = padded[count * m:].copy()
        if self._block == 0 and count == 1:   # no input beyond this block
            y = np.dot(x, self._own(len(x)), out=out)
            self._level = _FLUSH * np.max(np.abs(y[m - p:]))
            self._carry = y[m - p:].copy()
            self._carry[np.abs(self._carry) < self._level] = 0.0
            self._block = 1
            return y
        state = np.empty((count, m + 2 * p))
        state[:, :m + p] = sliding_window_view(padded, m + p)[::m]
        del padded
        maps = self.maps
        last = np.ascontiguousarray(maps[m + p:, m - p:])
        heads = state[:, :m + p] @ maps[:m + p, m - p:]
        # tails[k]: the p outputs before block k, block k - 1's head plus its
        # own tails carried through `last`
        tails = state[:, m + p:]
        # floor[k]: the flush level of the carry out of block k, which the
        # heads up to block k drive; before[k] that of the carry into it
        floor = _FLUSH * np.maximum.accumulate(np.max(np.abs(heads), axis=1))
        np.maximum(floor, self._level, out=floor)
        before = np.concatenate([[self._level], floor[:-1]])
        if p == 1:   # a scalar recursion: Python floats beat 1x1 array products
            lam = float(last[0, 0])
            carries = list(accumulate(heads[:, 0].tolist(),
                                      lambda t, z: z + t * lam,
                                      initial=float(self._carry[0])))
            tails[:, 0] = carries[:-1]
            carry = np.array(carries[-1:])
        else:
            rows = list(tails) + [np.empty(p)]
            rows[0][:] = self._carry
            for j, (prev, cur, head) in enumerate(zip(rows, rows[1:], heads)):
                np.dot(prev, last, out=cur)
                cur += head
                if (self._block + j) % _FLUSH_EVERY == 0:   # off subnormals
                    cur[np.abs(cur) < floor[j]] = 0.0
            carry = rows[-1]
        tails[np.abs(tails) < before[:, None]] = 0.0
        self._carry, self._level = carry, floor[-1]
        self._block += count
        if out is not None:
            out = out.reshape(count, m)
        return np.dot(state, maps, out=out).reshape(-1)

    def powers(self, s: int) -> list:
        """[last, last^2, ..., last^s], each power the one before times
        last. The object keeps them, so later calls only extend the list."""
        powers = self._powers or [self.last]
        while len(powers) < s:
            powers.append(powers[-1] @ self.last)
        self._powers = powers
        return powers[:s]

    def outputs(self, carried: np.ndarray, s: int) -> np.ndarray:
        """The s m outputs of each group of s zero-input blocks whose carry
        is a row of `carried`: block k's carry is the group's times last^k
        (`powers`), and its outputs are that carry times `tail`."""
        steps = np.hstack([np.eye(self.p)] + self.powers(s - 1))
        carries = (carried @ steps).reshape(-1, self.p)
        return (carries @ self.tail).reshape(len(carried), s * self.m)

    def output_bound(self, s: int) -> float:
        """An upper bound of |y| / ||c||_inf over the outputs y that
        `outputs` computes from a carry c in floating point, taken from the
        powers of last and the impulse response h alone, without `tail`.

        Block k's outputs are fl(fl(c @ P_k) @ tail), P_0 = I and P_k the
        computed power. With gamma = p eps (eps the machine epsilon), at
        least Higham's gamma_p for a sum of p products:
        - |fl(c @ P_k)| <= (1 + gamma) ||c||_inf ||P_k||_1 elementwise;
        - tail = fl(W @ shifts), W the p x p edge weights of -a, whose
          column i sums C_i = |a_(i+1)| + ... + |a_p|; so ||tail||_1 <=
          (1 + gamma) tau, tau = max_l sum_i C_i |h[l - i]|;
        - |fl(x @ tail)| <= (1 + gamma) ||x||_inf ||tail||_1.
        So |y| <= (1 + gamma)^3 Q tau ||c||_inf, Q the largest of 1 and
        ||P_k||_1 for 0 < k < s. The bound's own evaluation rounds sums and
        products of nonnegative floats at most 3p + 1 times on any path (the
        sums of the norm and of tau, two products, and the product with
        ||c||_inf), so the factor 1 + 8 (p + 1) eps covers both (1 + gamma)^3
        and that rounding."""
        p, m = self.p, self.m
        eps = np.finfo(float).eps
        weights = np.cumsum(np.abs(self.a[:0:-1]))[::-1]
        tau = float(np.max(np.convolve(weights, np.abs(self._impulse))[:m]))
        q = max([1.0] + [float(np.linalg.norm(power, 1))
                         for power in self.powers(s - 1)])
        return q * tau * (1.0 + 8 * (p + 1) * eps)

    def carries(self, s: int, count: int):
        """Yield the carries into the next `count` groups of s zero-input
        blocks: first the carry out of the blocks run so far, then each one
        stepped through last^s. They come in runs of the groups in
        _FLUSH_EVERY blocks (at least one), as the rows of an array with
        each row's largest magnitude. Each run is flushed before it is
        yielded and before the next is stepped from it. An exactly zero
        carry ends them, and its run is cut before it, as every output after
        it is zero."""
        jump = self.powers(s)[-1]
        run = max(1, _FLUSH_EVERY // s)
        carry = self._carry
        for lo in range(0, count, run):
            rows = np.empty((min(run, count - lo), self.p))
            rows[0] = carry
            for prev, cur in zip(rows, rows[1:]):
                np.dot(prev, jump, out=cur)
            mag = np.abs(rows)
            rows[mag < self._level] = 0.0
            zero = ~rows.any(axis=1)
            if zero.any():
                cut = np.argmax(zero)
                if cut:
                    yield rows[:cut], np.max(mag[:cut], axis=1)
                return
            yield rows, np.max(mag, axis=1)
            carry = rows[-1] @ jump


def _loop_difference_eq(filt: LoopFilter, dt: float):
    """(b, a) difference-equation coefficients of the closed-loop map from
    w = sqrt(eta1 eta2) X0 + xi2 to the filtered feedback signal y.

    The loop is the causal recursion y_n = (h * u)_{n-1-d} with
    u = w + g y, d = T / dt a whole number of steps; _BlockRecursion
    evaluates it exactly, from rest.
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

    Three passes over one Philox stream, each a chunk at a time, fill the
    two photocurrent buffers in place: the drive, filtered to the classical
    amplitude x0 and written as s_in x0 and s_out x0; the in-loop shot noise
    xi2, run through the loop recursion; the out-of-loop shot noise xi3. So
    only the two returned records are full length, and the working memory
    is a few chunks of _BlockRecursion.step samples.
    """
    if not is_stable(sim.filter):
        raise UnstableLoop(f"g = {sim.filter.g} loop is unstable")
    filt, dt = sim.filter, sim.dt
    n = sim.samples
    burn = int(round(10.0 * sim._slowest_time() / dt))
    total = n + burn
    rng = Generator(Philox(key=sim.seed))

    eta1, eta2 = sim.beamline.eta1, sim.beamline.eta2
    s_in = np.sqrt(eta1 * eta2)
    s_out = np.sqrt(eta1 * (1.0 - eta2))
    g_out = filt.g * np.sqrt((1.0 - eta2) / eta2)
    # two blocks, not the rows of one: glibc trims a malloc arena only once
    # its free top reaches twice the largest block it has mapped and freed.
    # As one block, the records of two simulations alive at once (one's
    # output held while the next runs) were exactly that size, so whether
    # freeing them returned the memory hinged on where a small allocation
    # landed: the analysis benchmark's peak resident memory read 81 or
    # 93 MiB at random. As two blocks they are twice it
    di2, di3 = np.zeros(total), np.zeros(total)

    # classical input amplitude noise (exact OU discretization)
    if sim.classical_noise is not None:
        cn = sim.classical_noise
        decay = np.exp(-cn.pole * dt)
        var_ss = cn.excess * cn.pole / 2.0
        sig = np.sqrt(var_ss * (1.0 - decay ** 2))
        ou = _BlockRecursion([1.0], [1.0, -decay])
        for lo in range(0, total, ou.step):
            drive = rng.standard_normal(min(ou.step, total - lo))
            x_init = np.sqrt(var_ss) * drive[0]
            drive *= sig
            if lo == 0:   # x_init is the state before the first sample
                drive[0] += decay * x_init
            x0 = ou(drive)
            np.multiply(s_in, x0, out=di2[lo:lo + len(x0)])
            np.multiply(s_out, x0, out=di3[lo:lo + len(x0)])

    root_dt = np.sqrt(dt)
    closed = _BlockRecursion(*_loop_difference_eq(filt, dt))
    for lo in range(0, total, closed.step):
        xi2 = rng.standard_normal(min(closed.step, total - lo))
        xi2 /= root_dt
        in2 = di2[lo:lo + len(xi2)]   # s_in x0 until the loop's share is added
        y = closed(in2 + xi2)
        in2 += filt.g * y
        if not (-DIVERGENCE_LIMIT <= in2.min()
                and in2.max() <= DIVERGENCE_LIMIT):   # also inf and nan
            raise DivergenceDetected("in-loop amplitude exceeded 1e6")
        in2 += xi2
        y *= g_out
        di3[lo:lo + len(y)] += y
    # xi3 is the next draw of the same stream, taken after every xi2
    for lo in range(0, total, closed.step):
        xi3 = rng.standard_normal(min(closed.step, total - lo))
        xi3 /= root_dt
        di3[lo:lo + len(xi3)] += xi3
    return SimRecord(di2[burn:], di3[burn:], dt)


def diverges(filt: LoopFilter, dt: float, duration: float) -> bool:
    """Brute-force stability probe: drive the closed loop with an impulse and
    compare late-time to early-time energy. Independent of the Nyquist test.

    The verdict is that of the whole response y, the outputs of the loop
    recursion for the one-sample input [1.0] over n = round(duration / dt)
    samples: diverging if not max |y| <= DIVERGENCE_LIMIT (so also where y
    is inf or nan, as an unstable loop may overflow), and otherwise if
    max |y[3n/4:]| > max |y[:n/4]| + 1e-300. ValueError for a non-finite or
    non-positive dt and for a duration that is not finite or spans fewer
    than 4 steps.

    The response is computed only where it can settle that verdict, and no
    array of n samples is formed. The blocks that read the impulse are run
    exactly; their head samples are a lower bound of the head maximum. Past
    them the zero-input carries step a group of s blocks at a time through
    last^s (`_BlockRecursion.carries`). Each carry is the p response samples
    before its group, so a run of carries that is not finite or passes the
    limit returns True at once; an exactly zero one ends the response. Every
    output of a group is at most its carry's largest magnitude times
    `_BlockRecursion.output_bound`, which holds for the outputs as computed
    and needs only the p x p powers of the carry map. Only these groups'
    outputs are computed:
    - those whose bound could pass the limit;
    - those reaching the tail whose bound could reach the head's lower
      bound; no other can raise the tail maximum past the head;
    - if the tail maximum then passes the lower bound, those in the head
      whose bound passes it, which makes the head maximum exact.
    The tail map, which those outputs multiply, is formed once, in a probe
    that computes some group's outputs, and in no other.

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
    rec = _BlockRecursion(*_loop_difference_eq(filt, dt))
    m, p = rec.m, rec.p
    head_end, tail_start = n // 4, 3 * n // 4
    nb = -(-n // m)
    # the blocks whose state holds the impulse: block k reads x[km - p:]
    nbx = min(nb, -(-(1 + p) // m))
    with np.errstate(over="ignore", invalid="ignore"):
        y = np.abs(rec.blocks(np.ones(1), nbx)[:n])
        if not np.max(y) <= DIVERGENCE_LIMIT:   # also inf and nan
            return True
        head = np.max(y[:head_end])
        tail = np.max(y[tail_start:], initial=0.0)
        nt = nb - nbx
        # past the impulse, the carry steps s blocks at a time. The powers
        # of last cost (s - 1) p^3 multiply-adds, at most the nt p^2 of
        # stepping every block's carry
        s = _TAIL_STEP
        while s > 1 and (s - 1) * p > nt:
            s //= 2
        runs, tops = [], []
        for rows, top in rec.carries(s, -(-nt // s)):
            if not np.all(top <= DIVERGENCE_LIMIT):
                return True
            runs.append(rows)
            tops.append(top)
        if not runs:
            return tail > head + 1e-300
        carried = np.concatenate(runs)
        bound = np.concatenate(tops) * rec.output_bound(s)
        starts = nbx * m + s * m * np.arange(len(carried))

        def peaks(groups, *ranges):
            """The largest |output| of the groups at samples lo <= i < hi,
            for each (lo, hi) of ranges."""
            out = np.abs(rec.outputs(carried[groups], s))
            pos = starts[groups, None] + np.arange(s * m)
            return [np.max(out, where=(pos >= lo) & (pos < hi), initial=0.0)
                    for lo, hi in ranges]

        wild = ~(bound <= DIVERGENCE_LIMIT)
        if wild.any():
            whole, in_head, in_tail = peaks(wild, (0, n), (0, head_end),
                                            (tail_start, n))
            if not whole <= DIVERGENCE_LIMIT:
                return True
            head, tail = max(head, in_head), max(tail, in_tail)
        late = ~wild & (starts + s * m > tail_start) & ~(bound < head)
        if late.any():
            tail = max(tail, *peaks(late, (tail_start, n)))
        early = ~wild & (starts < head_end) & ~(bound <= head)
        if tail > head and early.any():
            head = max(head, *peaks(early, (0, head_end)))
    return tail > head + 1e-300


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

    series may hold several records of one length along its leading axes;
    the estimate pools them, averaging every window of every record, and
    its stderr counts all of those windows. Each transform takes the windows
    that step through about _PSD_CHUNK record samples, whole records while
    one fits and a run of one record's windows otherwise, read from a view
    of the records without a copy, so the memory stays bounded whatever the
    record length.
    """
    series = np.asarray(series, dtype=float)
    n = series.shape[-1]
    nperseg = welch_segment_length(n, n_segments)
    hop = nperseg // 2
    frames = sliding_window_view(series.reshape(-1, n), nperseg,
                                 axis=-1)[:, ::hop]
    records, count = frames.shape[:2]
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(nperseg) / nperseg)
    # the two-sided density at omega >= 0; nperseg is even, and its Nyquist
    # bin is dropped, as a two-sided grid labels it negative
    keep = nperseg // 2
    per_call = max(1, _PSD_CHUNK // hop)
    if per_call >= count:
        step = per_call // count
        chunks = (frames[lo:lo + step] for lo in range(0, records, step))
    else:
        chunks = (frames[r, lo:lo + per_call] for r in range(records)
                  for lo in range(0, count, per_call))
    vals = 0.0
    for chunk in chunks:
        spectra = np.fft.rfft(chunk * window)[..., :keep]
        power = spectra.real ** 2 + spectra.imag ** 2
        vals = vals + power.reshape(-1, keep).sum(axis=0)
    windows = welch_window_count(n, n_segments) * records
    vals /= windows
    vals *= dt / np.sum(window ** 2)
    omega = 2.0 * np.pi * np.fft.rfftfreq(nperseg, dt)[:keep]
    return Spectrum(omega, vals,
                    stderr=vals * np.sqrt(HANN_VARIANCE_FACTOR / windows))
