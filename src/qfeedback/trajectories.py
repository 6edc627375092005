"""Conditioned (stochastic) evolution with and without feedback.

Every unraveling runs through one batched kernel, :class:`_Kernel`. A batch of
B conditioned states is held as the rows of r in C^{B x d^2}, row b being the
column-stacked vec(rho_b), and a step is one matrix product

    r @ [A^T | S^T | vec(x^T)]      (the last column only for diffusive detection)

with d^2 x d^2 superoperators A and S fixed per unraveling and dt:

* diffusive homodyne (Euler-Maruyama): A = I + dt (L + feedback drift) and
  S = sqrt(eta) (c . + . c†) - (i / sqrt(eta)) [F, .]; the extra column gives
  <x>_c = vec(x^T) . r, and rho' = A rho + dW (S rho - sqrt(eta) <x>_c rho).
  Delayed feedback instead adds one more product, against [F, .] and
  [F, [F, .]], driven by the current from one delay earlier.
* jump unravelings (photon counting, finite local oscillator beta): A is the
  no-jump Kraus map M0 . M0† with M0 = I - dt (iH + beta c + c†c/2), plus dt D
  for unmonitored collapses, and S is the jump map J . J† with J = c + beta.
  Tr[S rho] dt is the detection probability; rho' = S rho on a detection and
  A rho otherwise, so the no-jump branch stays positive.

Each step hermitizes and renormalizes the trace. A collapsed trace, a jump from
a state with Tr[J rho J†] <= TOL_JUMP, or an eigenvalue below the tolerance
(checked every POSITIVITY_CHECK_EVERY steps and at the end) marks the row
failed. Rows that failed on positivity are rerun together in one batch at
dt/2, their records averaged (currents) or summed (counts) back onto the
configured grid; a second failure is reported as the trajectory's result.

Randomness comes from the counter-based Philox generator; trajectory i of an
ensemble uses the stream keyed by seed XOR i, drawn in time chunks (array draws
continue a stream exactly, so chunking does not change it). Every product runs
on a row count padded to a multiple of _ROW_PAD: with OpenBLAS, each row of
such a product came out bit-identical whatever the batch it was computed in
(d = 2-12, batches of 1-1100 rows), while unpadded products of very few rows
take other code paths that round differently. A trajectory therefore gets
bit-identical records and states whether it runs alone (run_trajectory, the
step_* functions), in any batch, or in the retry.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np
from numpy.random import Generator, Philox

from . import operators as ops
from .errors import EmptyDelayBuffer, JumpFromDarkState, PositivityViolation
from .loop import Spectrum
from .operators import LindbladModel, _vec, steady_state
from .operators import two_time_correlation  # noqa: F401  (re-exported)
from .semiclassical import estimate_psd

# The jump unravelings' Kraus maps preserve positivity (up to O(dt^2) from the
# dt D term of unmonitored collapses), so they get a strict tolerance.
# Diffusive Euler-Maruyama states transiently dip O(sqrt(dt)) negative by
# construction (the ensemble mean is still exact to O(dt)), so only genuine
# blow-up is flagged there.
POSITIVITY_TOL = -1e-8
DIFFUSIVE_POSITIVITY_TOL = -0.5
POSITIVITY_CHECK_EVERY = 50

_ROW_PAD = 8                 # products run on a multiple of this many rows
_NOISE_CHUNK = 1 << 18       # noise values drawn at once per batch
_PSD_CHUNK = 1 << 15         # record samples per Welch call
_SEED_MASK = 0xFFFFFFFFFFFFFFFF

# per-row failure codes
_COLLAPSED, _DARK_JUMP, _NEGATIVE = 1, 2, 3

# ---------------------------------------------------------------------------
# configuration types


@dataclass(frozen=True)
class PhotonCounting:
    pass


@dataclass(frozen=True)
class HomodyneJump:
    """Finite local-oscillator amplitude beta; beta = 0 is photon counting."""
    beta: float

    def __post_init__(self):
        if self.beta < 0:
            raise ValueError("beta must be >= 0")


@dataclass(frozen=True)
class HomodyneDiffusive:
    eta: float

    def __post_init__(self):
        if not 0.0 < self.eta <= 1.0:
            raise ValueError("eta must be in (0, 1]")


Detection = Union[PhotonCounting, HomodyneJump, HomodyneDiffusive]


@dataclass(frozen=True)
class Markovian:
    pass


@dataclass(frozen=True)
class Delayed:
    delay: float


@dataclass(frozen=True)
class Feedback:
    operator: np.ndarray          # Hermitian F
    mode: Union[Markovian, Delayed] = Markovian()

    def __post_init__(self):
        f = np.asarray(self.operator, dtype=complex)
        if not ops.is_hermitian(f):
            raise ValueError("feedback operator must be Hermitian")
        object.__setattr__(self, "operator", f)


@dataclass(frozen=True)
class SmeConfig:
    """A conditioned-evolution experiment.

    The model's first collapse is the monitored channel and must have rate 1
    (scaled units); further collapses evolve unconditionally.
    """
    model: LindbladModel
    detection: Detection
    dt: float
    steps: int
    seed: int
    feedback: Optional[Feedback] = None
    snapshot_every: int = 0       # 0: no state snapshots

    def __post_init__(self):
        if self.dt <= 0 or self.steps <= 0:
            raise ValueError("dt and steps must be positive")
        if not self.model.collapses or self.model.collapses[0][0] != 1.0:
            raise ValueError("first collapse must be the monitored channel with rate 1")
        if isinstance(self.detection, HomodyneJump):
            if self.detection.beta ** 2 * self.dt >= 0.1:
                raise ValueError("beta^2 dt must be < 0.1")
        max_rate = max(r for r, _ in self.model.collapses)
        if self.dt * max_rate >= 0.1:
            raise ValueError("dt * max collapse rate must be < 0.1")
        if self.feedback is not None:
            ops._check_dims(self.model.hamiltonian, self.feedback.operator)
            if isinstance(self.feedback.mode, Delayed):
                ratio = self.feedback.mode.delay / self.dt
                if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
                    raise ValueError("delay must be a positive integer multiple of dt")
            if not isinstance(self.detection, HomodyneDiffusive):
                raise ValueError("feedback requires diffusive homodyne detection")


@dataclass
class TrajectoryResult:
    times: np.ndarray
    record: np.ndarray            # photocurrent samples, or dN per step
    states: Optional[np.ndarray]  # thinned conditioned states, or None
    state_times: Optional[np.ndarray] = None
    diagnostics: dict = field(default_factory=dict)

    @property
    def event_times(self) -> np.ndarray:
        """Jump times, for counting-type records."""
        return self.times[self.record > 0.5]


# ---------------------------------------------------------------------------
# superoperator kernel


def _unvec(r: np.ndarray, dim: int) -> np.ndarray:
    """Rows of column-stacked states -> (..., d, d) density matrices."""
    return np.ascontiguousarray(
        r.reshape(r.shape[:-1] + (dim, dim)).swapaxes(-1, -2))


def _sandwich(a: np.ndarray) -> np.ndarray:
    """Superoperator of rho -> a rho a†."""
    return np.kron(a.conj(), a)


class _Kernel:
    """One unraveling at one dt: its superoperators and its step on rows."""

    def __init__(self, model: LindbladModel, dt: float,
                 eta: Optional[float] = None, beta: float = 0.0,
                 f_op: Optional[np.ndarray] = None, delayed: bool = False):
        dim = model.dim
        c = model.collapses[0][1]
        cd = c.conj().T
        eye = np.eye(dim * dim)
        self.dim, self.n2, self.dt = dim, dim * dim, dt
        self.diffusive = eta is not None
        # float view of vec(rho): (re, im) pairs; vec(rho†) is the view
        # permuted by `transpose` and multiplied by `conj_sign`
        pairs = np.arange(dim * dim).reshape(dim, dim).T.ravel()
        self.transpose = (2 * pairs[:, None] + np.arange(2)).ravel()
        self.conj_sign = np.tile([1.0, -1.0], dim * dim)
        self.kick = None
        if not self.diffusive:
            m0 = np.eye(dim) - dt * (1j * model.hamiltonian + beta * c
                                     + 0.5 * cd @ c)
            unmonitored = LindbladModel(np.zeros_like(model.hamiltonian),
                                        model.collapses[1:])
            a = _sandwich(m0) + dt * unmonitored.liouvillian
            s = _sandwich(c + beta * np.eye(dim))
            self.gemm = np.hstack([a.T, s.T])
            self.idle_noise = np.inf            # a uniform draw that never jumps
            return
        self.sqrt_eta = math.sqrt(eta)
        meas = ops.spre(c) + ops.spost(cd)
        drift = model.liouvillian
        s = self.sqrt_eta * meas
        if f_op is not None:
            comm = ops.spre(f_op) - ops.spost(f_op)
            comm2 = comm @ comm
            if delayed:
                self.kick = np.hstack([(eye - (0.5 * dt / eta) * comm2).T,
                                       -1j * comm.T])
            else:
                drift = drift - 1j * comm @ meas - (0.5 / eta) * comm2
                s = s - (1j / self.sqrt_eta) * comm
        x_col = _vec((c + cd).T)
        self.gemm = np.hstack([(eye + dt * drift).T, s.T, x_col[:, None]])
        self.idle_noise = 0.0

    @classmethod
    def for_config(cls, config: SmeConfig, dt: float) -> "_Kernel":
        det, fb = config.detection, config.feedback
        if not isinstance(det, HomodyneDiffusive):
            beta = det.beta if isinstance(det, HomodyneJump) else 0.0
            return cls(config.model, dt, beta=beta)
        return cls(config.model, dt, eta=det.eta,
                   f_op=None if fb is None else fb.operator,
                   delayed=fb is not None and isinstance(fb.mode, Delayed))

    def step(self, r: np.ndarray, noise: np.ndarray, old=None):
        """Advance the rows r by one step.

        noise holds one uniform draw per row (jumps) or dW (diffusive); old is
        (dW, <x>_c) per row from one delay earlier, or None. Returns
        (r', record, <x>_c, bad): <x>_c is None for jumps, and bad is None or
        per-row failure codes (0 for rows that stepped cleanly).
        """
        # elementwise work runs on float views (re, im pairs) of the rows:
        # w floats per d^2 block, the real diagonal every `diag` floats
        w, diag = 2 * self.n2, 2 * (self.dim + 1)
        out = (r @ self.gemm).view(np.float64)
        bad = None
        xbar = None
        if self.diffusive:
            xbar = out[:, 2 * w]
            sx = self.sqrt_eta * xbar
            record = sx + noise / self.dt
            new = out[:, w:2 * w] - sx[:, None] * r.view(np.float64)
            new *= noise[:, None]
            new += out[:, :w]
            if old is not None:
                dw_old, xbar_old = old
                kicked = (new.view(complex) @ self.kick).view(np.float64)
                theta = self.dt * xbar_old + dw_old / self.sqrt_eta
                new = kicked[:, :w] + theta[:, None] * kicked[:, w:]
        else:
            emit = out[:, w::diag].sum(axis=1)           # Tr[J rho J†]
            jump = noise < emit * self.dt
            record = jump.astype(float)
            new = out[:, :w]
            if jump.any():
                new = np.where(jump[:, None], out[:, w:], new)
                dark = jump & (emit <= ops.TOL_JUMP)
                if dark.any():
                    bad = np.where(dark, _DARK_JUMP, 0)
        # rho + rho† (the factor 1/2 cancels in the trace renormalization)
        herm = np.take(new, self.transpose, axis=1)
        herm *= self.conj_sign
        herm += new
        tr = herm[:, ::diag].sum(axis=1)
        ok = np.isfinite(tr) & (tr > 0)
        if not ok.all():
            bad = np.where(ok, 0 if bad is None else bad, _COLLAPSED)
            tr = np.where(ok, tr, 1.0)
        herm /= tr[:, None]
        return herm.view(complex), record, xbar, bad

    def step_one(self, rho_c: np.ndarray, noise: float, old=None):
        """One step of a single state, run as a full block of rows. Raises
        the row's failure; returns (rho', record, <x>_c)."""
        rows = np.tile(_vec(rho_c), (_ROW_PAD, 1))
        noise_rows = np.full(_ROW_PAD, self.idle_noise)
        noise_rows[0] = noise
        if old is not None:
            old = tuple(np.full(_ROW_PAD, v, dtype=float) for v in old)
        r, record, xbar, bad = self.step(rows, noise_rows, old)
        if bad is not None and bad[0]:
            raise _failure(bad[0], POSITIVITY_TOL)
        return (_unvec(r[0], self.dim), record[0],
                None if xbar is None else xbar[0])


def _failure(code: int, tol: float) -> Exception:
    if code == _DARK_JUMP:
        return JumpFromDarkState(
            f"detection from a state with Tr[J rho J†] <= {ops.TOL_JUMP}")
    if code == _COLLAPSED:
        return PositivityViolation("trace collapsed during the step")
    return PositivityViolation(f"conditioned state eigenvalue < {tol}")


# ---------------------------------------------------------------------------
# single steps


def step_photon_counting(rho_c: np.ndarray, model: LindbladModel, dt: float,
                         rng: Generator):
    """One step of the direct-detection jump unraveling.

    Returns (rho', dN). P(dN=1) = Tr[c†c rho] dt; a jump applies c . c†, no
    jump the Kraus map M0 . M0† with M0 = I - dt (iH + c†c/2) (plus dt D for
    unmonitored collapses), each renormalized.
    """
    return step_homodyne_jump(rho_c, model, 0.0, dt, rng)


def step_homodyne_jump(rho_c: np.ndarray, model: LindbladModel, beta: float,
                       dt: float, rng: Generator):
    """Jump unraveling with the local oscillator folded into the jump operator
    c + beta; detection rate Tr[(beta^2 + beta x + c†c) rho] dt."""
    rho, record, _ = _Kernel(model, dt, beta=beta).step_one(rho_c, rng.random())
    return rho, int(record)


def step_homodyne_diffusive(rho_c: np.ndarray, model: LindbladModel, eta: float,
                            dt: float, rng: Generator):
    """Diffusive homodyne unraveling.

    d rho = -i[H, rho] dt + D[c] rho dt + sqrt(eta) dW H[c] rho,
    I = sqrt(eta) <x>_c + dW / dt, with dW ~ Normal(0, dt).
    """
    dw = rng.standard_normal() * math.sqrt(dt)
    rho, i_sample, _ = _Kernel(model, dt, eta=eta).step_one(rho_c, dw)
    return rho, i_sample


def step_homodyne_feedback(rho_c: np.ndarray, model: LindbladModel,
                           f_op: np.ndarray, eta: float, dt: float,
                           rng: Generator, delay_buffer: Optional[deque] = None):
    """Diffusive homodyne step with photocurrent feedback Hamiltonian ~ F I.

    Markovian (delay_buffer is None): the Ito form with the feedback acting
    after the measurement,
        d rho = dt{-i[H,rho] + D[c]rho - i[F, c rho + rho c†] + D[F]rho/eta}
              + dW H[sqrt(eta) c - i F / sqrt(eta)] rho.

    Delayed: delay_buffer is a deque with maxlen = T/dt holding (dW, <x>_c)
    pairs. Once it is full, the measured state gets the kick
    -i (<x>_old dt + dW_old / sqrt(eta)) [F, .] - dt [F, [F, .]] / (2 eta)
    from the record one delay ago; during warm-up there is no kick. The step
    pushes the current (dW, <x>_c) onto the buffer.
    """
    delayed = delay_buffer is not None
    if delayed and (delay_buffer.maxlen is None or delay_buffer.maxlen < 1):
        raise EmptyDelayBuffer("delay buffer must have maxlen = T/dt >= 1")
    dw = rng.standard_normal() * math.sqrt(dt)
    old = None
    if delayed and len(delay_buffer) == delay_buffer.maxlen:
        old = delay_buffer[0]
    kernel = _Kernel(model, dt, eta=eta, f_op=np.asarray(f_op, dtype=complex),
                     delayed=delayed)
    rho, i_sample, xbar = kernel.step_one(rho_c, dw, old)
    if delayed:
        delay_buffer.append((dw, xbar))
    return rho, i_sample


# ---------------------------------------------------------------------------
# deterministic feedback master equation and in-loop spectrum


def feedback_master_equation(model: LindbladModel, f_op: np.ndarray,
                             eta: float) -> LindbladModel:
    """Unconditional master equation of Markovian homodyne feedback.

    H' = H + (c†F + Fc)/2; collapses become (1, c - iF) plus, for imperfect
    detection, ((1-eta)/eta, F); extra collapses pass through untouched.
    """
    if not 0.0 < eta <= 1.0:
        raise ValueError("eta must be in (0, 1]")
    f_op = np.asarray(f_op, dtype=complex)
    if not ops.is_hermitian(f_op):
        raise ValueError("feedback operator must be Hermitian")
    c = model.collapses[0][1]
    cd = c.conj().T
    h = model.hamiltonian + 0.5 * (cd @ f_op + f_op @ c)
    collapses = [(1.0, c - 1j * f_op)]
    if eta < 1.0 and np.any(f_op != 0):
        collapses.append(((1.0 - eta) / eta, f_op))
    collapses.extend(model.collapses[1:])
    return LindbladModel(h, tuple(collapses))


def in_loop_correlation_spectrum(model_fb: LindbladModel, c: np.ndarray,
                                 f_op: np.ndarray, eta: float, omega_grid,
                                 corrected: bool = True) -> Spectrum:
    """Stationary spectrum of the in-loop homodyne photocurrent.

    The photocurrent autocorrelation is
        E[I(t+tau) I(t)] = eta Tr{(c + c†) e^{L tau}
                                  [(c - iF/eta) rho + rho (c† + iF/eta)]}
                           + delta(tau),
    with the delta carried as the constant shot-noise floor 1, so
        S(omega) = 1 + 2 Integral_0^inf cos(omega tau) Re[corr(tau)] d tau.
    With the stationary offset (the mean-squared photocurrent) removed from
    the deviation dev, the integral is exact through the resolvent of
    K = L - |rho_ss><I| (L with its zero eigenvalue moved to -1):
        S(omega) = 1 + eta Re Tr{x [(i omega - K)^-1 + (-i omega - K)^-1] dev}.
    With corrected=False the -iF/eta insertion is dropped (the naive
    normally-ordered formula, kept for comparison; it is wrong in a loop).
    """
    omega_grid = np.asarray(omega_grid, dtype=float)
    c = np.asarray(c, dtype=complex)
    f_op = np.asarray(f_op, dtype=complex)
    rho_ss = steady_state(model_fb)
    cd = c.conj().T
    if corrected:
        dev = (c - 1j * f_op / eta) @ rho_ss + rho_ss @ (cd + 1j * f_op / eta)
    else:
        dev = c @ rho_ss + rho_ss @ cd
    dev = _vec(dev - np.trace(dev) * rho_ss)
    x_row = _vec((c + cd).T)        # Tr[x M] = vec(x^T) . vec(M)
    k = model_fb.liouvillian - np.outer(_vec(rho_ss),
                                        _vec(np.eye(model_fb.dim)))
    eye = np.eye(len(k))
    vals = np.array([x_row @ (np.linalg.solve(1j * w * eye - k, dev)
                              + np.linalg.solve(-1j * w * eye - k, dev))
                     for w in omega_grid]).real
    return Spectrum(omega_grid, 1.0 + eta * vals)


# ---------------------------------------------------------------------------
# trajectory and ensemble drivers


def _integrate(config: SmeConfig, rho0: np.ndarray, seeds, refine: int) -> list:
    """Advance the trajectories keyed by seeds in lock-step at dt/2^refine.

    Returns, ordered like seeds, a TrajectoryResult or the exception that
    ended the trajectory. Records are coarse-grained back onto the configured
    grid (pair-averaged currents, pair-summed counts).
    """
    sub = 2 ** refine
    dt = config.dt / sub
    n = config.steps * sub
    dim = config.model.dim
    kernel = _Kernel.for_config(config, dt)
    tol = DIFFUSIVE_POSITIVITY_TOL if kernel.diffusive else POSITIVITY_TOL
    b_sz = len(seeds)
    rows = -(-b_sz // _ROW_PAD) * _ROW_PAD
    r0 = _vec(rho0)
    r = np.tile(r0, (rows, 1))
    fail = np.zeros(rows, dtype=np.int8)
    records = np.empty((rows, n))
    snap = config.snapshot_every * sub
    snaps, snap_times = [], []

    fb = config.feedback
    lag = (int(round(fb.mode.delay / dt))
           if fb is not None and isinstance(fb.mode, Delayed) else 0)
    if lag:
        # (dW, <x>_c) of the last `lag` steps, indexed by step mod lag
        hist_dw, hist_x = np.zeros((lag, rows)), np.zeros((lag, rows))

    gens = [Generator(Philox(key=s & _SEED_MASK)) for s in seeds]
    chunk = min(n, max(1, _NOISE_CHUNK // rows))
    draws = np.full((chunk, rows), kernel.idle_noise)     # padding rows idle

    def mark(bad):
        hit = bad != 0
        first = hit & (fail == 0)
        fail[first] = bad[first]
        r[hit] = r0                      # keep failed rows finite

    with np.errstate(all="ignore"):
        for k in range(n):
            j = k % chunk
            if j == 0:
                m = min(chunk, n - k)
                for i, g in enumerate(gens):
                    draws[:m, i] = (g.standard_normal(m) if kernel.diffusive
                                    else g.random(m))
                noise = draws * math.sqrt(dt) if kernel.diffusive else draws
            old = None
            if lag:
                slot = k % lag
                if k >= lag:
                    old = (hist_dw[slot], hist_x[slot])
            r, records[:, k], xbar, bad = kernel.step(r, noise[j], old)
            if lag:
                hist_dw[slot], hist_x[slot] = noise[j], xbar
            if bad is not None:
                mark(bad)
            if (k + 1) % POSITIVITY_CHECK_EVERY == 0 or k + 1 == n:
                low = np.linalg.eigvalsh(r.reshape(rows, dim, dim))[:, 0] < tol
                if low.any():
                    mark(np.where(low, _NEGATIVE, 0))
            if snap and (k + 1) % snap == 0:
                snaps.append(r[:b_sz])
                snap_times.append((k + 1) * dt)

    if sub > 1:
        shaped = records.reshape(rows, config.steps, sub)
        records = shaped.mean(axis=2) if kernel.diffusive else shaped.sum(axis=2)
    times = config.dt * np.arange(1, config.steps + 1)
    states = _unvec(np.stack(snaps, axis=1), dim) if snap else None
    state_times = np.array(snap_times) if snap else None
    results = []
    for i, s in enumerate(seeds):
        if fail[i]:
            results.append(_failure(fail[i], tol))
            continue
        results.append(TrajectoryResult(
            times=times, record=records[i],
            states=states[i] if snap else None,
            state_times=state_times,
            diagnostics={"dt_used": dt, "refinements": refine, "seed": s}))
    return results


def _run_seeds(config: SmeConfig, rho0: np.ndarray, seeds, chunk: int) -> list:
    """Run seeds in batches of at most chunk, then rerun every positivity
    failure once, all in one batch, at dt/2."""
    results = []
    for lo in range(0, len(seeds), chunk):
        results.extend(_integrate(config, rho0, seeds[lo:lo + chunk], refine=0))
    retry = [i for i, res in enumerate(results)
             if isinstance(res, PositivityViolation)]
    if retry:
        again = _integrate(config, rho0, [seeds[i] for i in retry], refine=1)
        for i, res in zip(retry, again):
            results[i] = res
    return results


def run_trajectory(config: SmeConfig, rho0: np.ndarray,
                   seed: Optional[int] = None) -> TrajectoryResult:
    """Run a single conditioned trajectory from rho0.

    On a PositivityViolation the trajectory restarts once with dt halved (the
    record is averaged back onto the configured grid); a second failure
    propagates.
    """
    ops.validate_density_matrix(np.asarray(rho0, dtype=complex))
    use_seed = config.seed if seed is None else seed
    result = _run_seeds(config, rho0, [use_seed], chunk=1)[0]
    if isinstance(result, Exception):
        raise result
    return result


@dataclass
class EnsembleSummary:
    state_times: np.ndarray
    mean_states: np.ndarray          # (n_snap, d, d) ensemble-averaged rho_c
    xbar_variance: np.ndarray        # ensemble variance of <x>_c per snapshot
    psd: Optional[Spectrum]          # pooled photocurrent PSD (diffusive only)
    n_success: int
    n_failed: int
    failures: list
    trajectories: Optional[list] = None   # per-trajectory results on request


def run_ensemble(config: SmeConfig, n_traj: int, rho0: np.ndarray,
                 workers: int = 1, psd_segments: int = 8,
                 keep_trajectories: bool = False) -> EnsembleSummary:
    """Average n_traj independent trajectories.

    Trajectory i uses the Philox stream keyed by seed XOR i, and results are
    merged by index, so the output is bit-identical for any worker count. The
    run aborts only if more than 10% of trajectories fail.
    """
    if n_traj < 1:
        raise ValueError("n_traj must be >= 1")
    if config.snapshot_every < 1:
        raise ValueError("run_ensemble needs snapshot_every >= 1")
    ops.validate_density_matrix(np.asarray(rho0, dtype=complex))
    seeds = [config.seed ^ i for i in range(n_traj)]
    # `workers` only splits the lock-step batch; the output does not depend on it
    chunk = max(1, math.ceil(n_traj / max(1, workers)))
    results = _run_seeds(config, rho0, seeds, chunk)

    ok = [(i, r) for i, r in enumerate(results) if isinstance(r, TrajectoryResult)]
    failures = [(i, r) for i, r in enumerate(results)
                if not isinstance(r, TrajectoryResult)]
    if len(ok) < math.ceil(0.9 * n_traj):
        raise PositivityViolation(
            f"only {len(ok)}/{n_traj} trajectories succeeded")

    first = ok[0][1]
    dim = config.model.dim
    n_snap = first.states.shape[0]
    mean_states = np.zeros((n_snap, dim, dim), dtype=complex)
    c = config.model.collapses[0][1]
    x_op = c + c.conj().T
    xbars = np.empty((len(ok), n_snap))
    for row, (_, res) in enumerate(ok):
        mean_states += res.states
        xbars[row] = np.einsum("tij,ji->t", res.states, x_op).real
    mean_states /= len(ok)
    psd = None
    if isinstance(config.detection, HomodyneDiffusive):
        # one Welch call per block of records: _PSD_CHUNK samples keep its
        # segment and FFT arrays within a few MB (one call over 256 x 1000
        # samples took 14 MB more peak memory, and was no faster)
        per_call = max(1, _PSD_CHUNK // config.steps)
        total = 0.0
        for lo in range(0, len(ok), per_call):
            block = np.stack([res.record for _, res in ok[lo:lo + per_call]])
            s = estimate_psd(block, config.dt, psd_segments)
            total = total + s.values.sum(axis=0)
        mean = total / len(ok)
        psd = Spectrum(s.omega, mean, stderr=mean * np.sqrt(
            1.06 / (psd_segments * len(ok))))
    return EnsembleSummary(
        state_times=first.state_times,
        mean_states=mean_states,
        xbar_variance=xbars.var(axis=0),
        psd=psd,
        n_success=len(ok),
        n_failed=len(failures),
        failures=failures,
        trajectories=[r for _, r in ok] if keep_trajectories else None)
