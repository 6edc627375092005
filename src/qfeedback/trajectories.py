"""Conditioned (stochastic) evolution with and without feedback.

Every unraveling runs through one batched kernel, :class:`_Kernel`. A
conditioned state is Hermitian, so it has d^2 real degrees of freedom: a batch
of B states is held as the rows of r in R^{B x d^2}, row b holding the
coordinates of rho_b in `operators.HermitianCoordinates`, Re rho_ij (i >= j)
and Im rho_ij (i > j), the one coordinate system the exact solvers of
:mod:`qfeedback.operators` also run in. Every map a step applies preserves
Hermiticity, so each is one real d^2 x d^2 matrix: a sum of Kraus sandwiches
built directly in these coordinates (`HermitianCoordinates.sandwich_map`), as
the real Liouvillian is. An expectation value or the trace is one real
column. The in-loop spectrum is a resolvent of the real Liouvillian in the
same coordinates.

The kernel steps only the coordinates that its initial state reaches along
the directed nonzero patterns of its maps (see _Kernel._reach): of the 144
coordinates of a d = 12 cavity from Fock 3, 4 under counting, 10 under the
homodyne unravelings without feedback and 78 under diffusive detection with
the level-raising feedback F ∝ y. The snapshots scatter the rows back to all
d^2 coordinates.

Every step is one product of the rows against Kraus blocks and an
expectation column, a combination weighted by the noise, and the division by
the trace. With G = iH + sum r L†L / 2 over the model's collapses, the
`LindbladModel.no_jump_generator` its Liouvillian is built from:

* diffusive homodyne: the completely positive map (Rouchon & Ralph, PRA 91,
  012118 (2015)) rho' = K rho K† + dt [(1 - eta) c rho c† + sum_k r_k L_k rho
  L_k†] over the unmonitored collapses, K = I - dt G + dy K1, K1 = sqrt(eta) c,
  dy = sqrt(eta) <x>_c dt + dW and I = dy / dt. Markovian feedback takes G of
  the feedback_master_equation model and K1 = sqrt(eta) c - iF / sqrt(eta).
  K rho K† is quadratic in dy: one product r @ [P0 | P1 | P2 | t | x] gives
  rho' = P0 rho + dy P1 rho + dy^2 P2 rho, the traces t of the three terms
  that normalize it, and <x>_c = Tr[(c + c†) rho].
  Delayed feedback then applies the kick K_fb = I - dt F^2 / 2 eta - i theta F,
  theta = I_old dt / sqrt(eta) for the photocurrent I_old one delay earlier,
  as a second three-block product to the unnormalized measured state; the
  one division by the trace after the kick normalizes both. _integrate
  reads I_old from the stored record; there is no kick during the first
  delay.
* jump unravelings (photon counting, finite local oscillator beta): one
  product r @ [N | e]: N rho = M0 rho M0† + dt sum_k r_k L_k rho L_k† with
  M0 = I - dt (G + beta c), and e gives Tr[J†J rho], dt times which is the
  detection probability of J = c + beta. Only the rows that detect get the
  jump map J rho J†.

Every map is completely positive, so one tolerance, POSITIVITY_TOL, gates
every unraveling, every POSITIVITY_CHECK_EVERY steps and at the end. An
eigenvalue below it, a state made non-finite by a collapsed trace, or a jump
from a state with Tr[J rho J†] <= TOL_JUMP marks the row failed with a code,
which the drivers turn into the trajectory's error. The gate builds each
state's matrix from the kept coordinates, only on the basis levels they
touch (4 of 12 for the d = 12 cavity from Fock 3 under counting and under the
homodyne jump): the other levels add eigenvalues of exactly 0, which pass the
tolerance. The matrices are real symmetric when no imaginary coordinate is
kept, as for the d = 2 atom under sigma_y feedback.

Randomness comes from the counter-based Philox generator; trajectory i of an
ensemble uses the stream of Philox(key=(seed XOR i) mod 2^64), drawn whole
into its record row, which the steps overwrite with the photocurrent or dN.
One generator draws every row: before each, its bit_generator.state is set to
that key, counter 0 and an empty buffer, the state Philox(key=...) starts in,
so the streams are those of one generator per trajectory, bit for bit,
without seeding a SeedSequence per trajectory. Every product runs
on a row count padded to a multiple of _ROW_PAD, against a map whose column
count is padded with zero columns to a multiple of _COL_PAD. With OpenBLAS,
each row of such a product came out bit-identical whatever the batch it was
computed in (d = 2-24 with batches of 8-256 rows, and up to 1104 rows at
d <= 14; again on the kept coordinates of a Fock state, d = 2-16, 20 and 24
with batches of 8-256 rows). Without the row padding, products of very few
rows take other code paths that round differently; without the column
padding, the last columns of a real product (a column count of 8k + 1 or
8k + 4) changed in their last bits between batches of 8 and of 40 or more
rows at d >= 6. A trajectory therefore
gets bit-identical records and states whether it runs alone (run_trajectory)
or in a batch of any size (run_ensemble); both run _integrate, the one driver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np
from numpy.random import Generator, Philox

from . import operators as ops
from .errors import JumpFromDarkState, PositivityViolation
from .loop import Spectrum
from .operators import LindbladModel
from .operators import steady_state  # noqa: F401  (re-exported)
from .operators import two_time_correlation  # noqa: F401  (re-exported)
from .semiclassical import estimate_psd, welch_segment_length

# every step map is completely positive: eigenvalues dip below 0 by rounding
POSITIVITY_TOL = -ops.TOL_POS
POSITIVITY_CHECK_EVERY = 50

_ROW_PAD = 8                 # products run on a multiple of this many rows
_COL_PAD = 8                 # ... against maps padded to this many columns
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
        if not 0 <= self.beta < math.inf:
            raise ValueError(f"beta = {self.beta} must be finite and >= 0")


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

    def __post_init__(self):
        if not 0 < self.delay < math.inf:
            raise ValueError(f"delay = {self.delay} must be finite and > 0")


@dataclass(frozen=True)
class Feedback:
    operator: np.ndarray          # Hermitian F
    mode: Union[Markovian, Delayed] = Markovian()

    def __post_init__(self):
        f = np.asarray(self.operator, dtype=complex)
        if not np.all(np.isfinite(f)):
            raise ValueError("feedback operator must be finite")
        if not ops.is_hermitian(f):
            raise ValueError("feedback operator must be Hermitian")
        object.__setattr__(self, "operator", f)


@dataclass(frozen=True)
class SmeConfig:
    """A conditioned-evolution experiment.

    The model's first collapse is the monitored channel and must have rate 1
    (scaled units); further collapses evolve unconditionally. dt must be small
    against every rate and beta^2. Feedback needs diffusive detection and an
    operator of the model's dimension; a delay must be a whole number of
    steps.
    """
    model: LindbladModel
    detection: Detection
    dt: float
    steps: int
    seed: int
    feedback: Optional[Feedback] = None
    snapshot_every: int = 0       # 0: no state snapshots

    def __post_init__(self):
        if not self.steps > 0:
            raise ValueError(f"steps = {self.steps} must be > 0")
        model, dt, detection, fb = (self.model, self.dt, self.detection,
                                    self.feedback)
        if not (isinstance(detection, Detection)
                and isinstance(fb, Optional[Feedback])):
            raise ValueError(f"detection {detection!r} must be a Detection and "
                             f"feedback {fb!r} a Feedback or None")
        if not dt > 0:
            raise ValueError(f"dt = {dt} must be > 0")
        if not model.collapses or model.collapses[0][0] != 1.0:
            raise ValueError("first collapse must be the monitored channel with rate 1")
        if isinstance(detection, HomodyneJump) and detection.beta ** 2 * dt >= 0.1:
            raise ValueError("beta^2 dt must be < 0.1")
        if dt * max(r for r, _ in model.collapses) >= 0.1:
            raise ValueError("dt * max collapse rate must be < 0.1")
        if fb is not None:
            ops._check_dims(model.hamiltonian, fb.operator)
            if not isinstance(detection, HomodyneDiffusive):
                raise ValueError("feedback requires diffusive homodyne detection")
            if isinstance(fb.mode, Delayed):
                ratio = fb.mode.delay / dt
                if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
                    raise ValueError(
                        "delay must be a positive integer multiple of dt")
        if not 0 <= self.snapshot_every <= self.steps:
            raise ValueError("snapshot_every must be in [0, steps]")


@dataclass
class TrajectoryResult:
    times: np.ndarray
    record: np.ndarray            # photocurrent samples, or dN per step
    states: Optional[np.ndarray]  # thinned conditioned states, or None
    state_times: Optional[np.ndarray] = None
    diagnostics: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# step kernel


def _padded(*blocks: np.ndarray) -> np.ndarray:
    """The blocks side by side in a new C-ordered matrix, then zero columns up
    to a multiple of _COL_PAD. The order holds whatever the blocks' layout:
    the batch-independence of the products was checked with C-ordered maps."""
    width = sum(b.shape[1] for b in blocks)
    m = np.zeros((len(blocks[0]), width + -width % _COL_PAD))
    np.concatenate(blocks, axis=1, out=m[:, :width])
    return m


class _Kernel:
    """One unraveling at one dt from one initial state: its maps as real
    matrices, and its step.

    A batch of B Hermitian states is held as the rows of r in R^{B x w}: the
    coordinates `keep` of `coords` (operators.coordinates(d)) that the
    initial state reaches. Every map the step applies preserves Hermiticity,
    so each is one real d^2 x d^2 matrix R acting as r @ R; row k of R is the
    coordinates of the map's image of the basis matrix coords.states(e_k).
    The maps are sums of Kraus sandwiches, each R the transpose of
    coords.sandwich_map. A trace or an expectation value is one real column
    (coords.expect_col).

    The maps share the model's symmetries: with real Kraus operators (the
    damped cavity under F proportional to y, the atom under sigma_y
    feedback) Im rho_ij never mixes with Re rho_ij, and under photon counting
    a diagonal state stays diagonal; and a map that only lowers the Fock
    level (the damped cavity's jump and no-jump maps) never reaches the
    levels above rho0's. `keep` is the set of coordinates reachable from
    those where rows(rho0) is nonzero along the directed nonzero patterns of
    the square maps, found by one forward search: no state of the
    trajectory has another nonzero coordinate. Every map, column and the
    trace row are cut to `keep`, so the step runs on w = len(keep) columns
    (from Fock k: k + 1 under counting, (k + 1)(k + 2)/2 under the homodyne
    jump, d(d + 1)/2 for real Kraus operators under diffusive detection
    with feedback F proportional to y); a state that reaches every
    coordinate keeps them all, keep = arange(d^2).
    `rows`, `full` and `states` convert between the kept coordinates, all
    d^2 and matrices.

    A step is one product against `maps` ([P0 | P1 | P2 | t | x] or [N | e]),
    plus one against the kick's blocks `kick` under delayed feedback, and one
    against `jump` for the rows that detect, gathered into a block padded to
    a multiple of _ROW_PAD rows. Each map carries zero columns up to a
    multiple of _COL_PAD.

    G is the model's `LindbladModel.no_jump_generator`, under Markovian
    feedback that of the feedback_master_equation model: the same G the
    Liouvillian is built from.

    The unraveling is read from the detection and feedback objects of
    SmeConfig (photon counting as beta = 0). The kernel checks nothing
    itself: SmeConfig has checked the unraveling, and the drivers rho0.
    """

    def __init__(self, model: LindbladModel, dt: float, detection: Detection,
                 feedback: Optional[Feedback], rho0: np.ndarray):
        dim = model.dim
        self.coords = co = ops.coordinates(dim)
        self.dt = dt
        self.diffusive = isinstance(detection, HomodyneDiffusive)

        c = model.collapses[0][1]
        cd, eye = c.conj().T, np.eye(dim)
        unmonitored = [(op, (dt * rate) * op.conj().T)
                       for rate, op in model.collapses[1:]]
        self.kick = None
        if not self.diffusive:
            # photon counting is the jump unraveling with beta = 0
            beta = detection.beta if isinstance(detection, HomodyneJump) else 0.0
            m0 = eye - dt * (model.no_jump_generator + beta * c)
            jump = c + beta * eye
            no_jump = co.sandwich_map([(m0, m0.conj().T)] + unmonitored).T
            jump_map = co.sandwich_map([(jump, jump.conj().T)]).T
            cut = self._reach(rho0, [no_jump, jump_map])
            # [N | e]: the no-jump map and Tr[J†J rho]
            self.maps = _padded(
                no_jump[cut],
                co.expect_col(jump.conj().T @ jump)[self.keep, None])
            self.jump = _padded(jump_map[cut])
            self.idle_noise = np.inf            # a uniform draw that never jumps
            return
        eta = detection.eta
        self.sqrt_eta = math.sqrt(eta)
        k1, generator = self.sqrt_eta * c, model
        f_op = None if feedback is None else feedback.operator
        kick = []
        if feedback is not None and isinstance(feedback.mode, Delayed):
            kick = self._kraus_blocks(eye - dt / (2 * eta) * f_op @ f_op,
                                      -1j * f_op)
        elif feedback is not None:
            # the Markovian feedback SME averages to the feedback master
            # equation; the feedback enters K1 = sqrt(eta) c - iF / sqrt(eta)
            generator = feedback_master_equation(model, f_op, eta)
            k1 = k1 - (1j / self.sqrt_eta) * f_op
        measure = self._kraus_blocks(
            eye - dt * generator.no_jump_generator, k1,
            unmonitored + [(c, (dt * (1 - eta)) * cd)])
        cut = self._reach(rho0, measure + kick)
        # [P0 | P1 | P2 | t0 t1 t2 | x]
        self.maps = _padded(*self._with_traces(measure, cut),
                            co.expect_col(c + cd)[self.keep, None])
        if kick:
            self.kick = _padded(*self._with_traces(kick, cut))
        self.idle_noise = 0.0

    def _reach(self, rho0, squares):
        """Set keep, the sorted coordinates that a state starting on the
        nonzero coordinates of rows(rho0) can reach: a step maps r to
        r @ M for the square maps M in `squares`, so coordinate i reaches j
        where some M[i, j] != 0, and keep is the forward search along those
        edges (operators._connected). It is closed under every step, and a
        map that only lowers the Fock level keeps the levels above rho0's
        out. Also set `_dropped`, the other coordinates, the width w, the
        trace row cut to keep and the gate's index (_gate_index). Returns
        the index that cuts a square map to keep."""
        co = self.coords
        adj = np.zeros((co.n2, co.n2), dtype=bool)
        for m in squares:
            adj |= m != 0
        reached = ops._connected(adj, np.flatnonzero(co.rows(rho0)))
        self.keep = np.flatnonzero(reached)
        self._dropped = np.flatnonzero(~reached)
        self.width = len(self.keep)
        self.trace_row = co.trace_row[self.keep]
        self._gate_index()
        return np.ix_(self.keep, self.keep)

    def _gate_index(self):
        """Set how check builds its matrices from the kept coordinates: on
        the basis levels that some kept coordinate touches, real symmetric
        if none of them is imaginary, else complex Hermitian (_gate_shape
        and _gate_dtype). Entry _gate_dst[k] of a flat matrix's float view
        is kept coordinate _gate_src[k] times _gate_sign[k]."""
        co, dim = self.coords, self.coords.dim
        kept = np.full(co.n2, -1)
        kept[self.keep] = np.arange(self.width)
        # the float slots of a (d, d) complex matrix that a kept
        # coordinate fills (the imaginary slots of the diagonal have none)
        slot = np.flatnonzero(co.sign)
        src = kept[co.scatter[slot]]
        slot, src = slot[src >= 0], src[src >= 0]
        row, col, imag = np.unravel_index(slot, (dim, dim, 2))
        # every slot's mirror is filled too, so the rows name every level
        touched = np.zeros(dim, dtype=bool)
        touched[row] = True
        level = np.cumsum(touched) - 1          # a level's place among them
        m = int(level[-1]) + 1
        self._gate_shape = (m, m)
        self._gate_dtype = complex if imag.any() else float
        self._gate_src, self._gate_sign = src, co.sign[slot]
        entry = level[row] * m + level[col]
        self._gate_dst = 2 * entry + imag if imag.any() else entry

    def _kraus_blocks(self, k0, k1, extra=()):
        """[P0, P1, P2]: the real maps with (K0 + w K1) rho (K0 + w K1)† +
        sum_k a_k rho b_k = P0 rho + w P1 rho + w^2 P2 rho for the sandwiches
        (a_k, b_k) in extra, on every coordinate."""
        co, k0d, k1d = self.coords, k0.conj().T, k1.conj().T
        return [co.sandwich_map([(k0, k0d), *extra]).T,
                co.sandwich_map([(k0, k1d), (k1, k0d)]).T,
                co.sandwich_map([(k1, k1d)]).T]

    def _with_traces(self, blocks, cut):
        """[P0 | P1 | P2 | t0 t1 t2] cut to keep: the blocks, then the columns
        t_k = P_k @ trace_row, with r @ t_k = Tr[P_k rho]."""
        blocks = [b[cut] for b in blocks]
        return blocks + [np.stack([b @ self.trace_row for b in blocks], 1)]

    def rows(self, rho: np.ndarray) -> np.ndarray:
        """(..., d, d) Hermitian matrices -> (..., w) kept coordinates. A
        matrix with a nonzero coordinate outside keep raises ValueError."""
        r = self.coords.rows(rho)
        if r[..., self._dropped].any():
            raise ValueError("the state has coordinates this kernel drops")
        return r[..., self.keep]

    def full(self, r: np.ndarray) -> np.ndarray:
        """(..., w) kept coordinates -> (..., d^2) coordinates, 0 off keep."""
        out = np.zeros(r.shape[:-1] + (self.coords.n2,))
        out[..., self.keep] = r
        return out

    def states(self, r: np.ndarray) -> np.ndarray:
        """(..., w) kept coordinates -> (..., d, d) Hermitian matrices."""
        return self.coords.states(self.full(r))

    def step(self, r: np.ndarray, noise: np.ndarray, old=None):
        """Advance the rows r by one step and renormalize them.

        noise holds one uniform draw per row (jumps) or dW (diffusive); old is
        the photocurrent per row from one delay earlier, or None. Returns
        (r', record, bad): bad is None or per-row failure codes (0 for rows
        that stepped cleanly). A collapsed row comes out non-finite.
        """
        w = self.width
        out = r @ self.maps
        if self.diffusive:
            # dy = sqrt(eta) <x>_c dt + dW
            dy = (self.sqrt_eta * self.dt) * out[:, 3 * w + 3] + noise
            # the kick's division by the trace normalizes both sandwiches
            new = self._combine(out, dy, normalize=old is None)
            if old is not None:
                theta = (self.dt / self.sqrt_eta) * old
                new = self._combine(new @ self.kick, theta)
            return new, dy / self.dt, None
        emit = out[:, w]                         # Tr[J†J rho]
        jump = noise < emit * self.dt
        new, bad = out[:, :w], None
        if jump.any():
            hit = np.flatnonzero(jump)
            # the detecting rows, padded like every other product
            block = np.resize(hit, -(-len(hit) // _ROW_PAD) * _ROW_PAD)
            new[hit] = (r[block] @ self.jump)[:len(hit), :w]
            dark = jump & (emit <= ops.TOL_JUMP)
            if dark.any():
                bad = np.where(dark, _DARK_JUMP, 0)
        return (new / (new @ self.trace_row)[:, None],
                jump.astype(float), bad)

    def _combine(self, out: np.ndarray, w: np.ndarray,
                 normalize: bool = True) -> np.ndarray:
        """P0 rho + w P1 rho + w^2 P2 rho, with one w per row, from
        out = r @ [P0 | P1 | P2 | t0 t1 t2 ...]: the weights (1, w, w^2),
        divided by the trace t0 + w (t1 + w t2) if normalize, applied in
        one pass."""
        n = self.width
        weights = np.empty((len(w), 3))
        if normalize:
            t = out[:, 3 * n:3 * n + 3]
            np.divide(1.0, t[:, 0] + w * (t[:, 1] + w * t[:, 2]),
                      out=weights[:, 0])
        else:
            weights[:, 0] = 1.0
        np.multiply(w, weights[:, 0], out=weights[:, 1])
        np.multiply(w, weights[:, 1], out=weights[:, 2])
        return np.einsum("bk,bkn->bn", weights,
                         out[:, :3 * n].reshape(len(w), 3, n))

    def check(self, r: np.ndarray) -> np.ndarray:
        """The positivity gate: per-row failure codes, _COLLAPSED for a row
        with a non-finite coordinate, _NEGATIVE for a state with an
        eigenvalue below POSITIVITY_TOL, 0 otherwise.

        The matrices are built straight from the kept coordinates on the m
        basis levels those coordinates touch (see _gate_index): m = 4 of 12
        for the d = 12 cavity from Fock 3 under counting and under the
        homodyne jump. Every other level's row and column of the state are
        0, so they add eigenvalues of exactly 0, which pass POSITIVITY_TOL:
        a finite row gets the code of its full d x d matrix. The matrices
        are real symmetric when the kernel keeps no imaginary coordinate.
        A non-finite row is zeroed before the diagonalization, as eigvalsh
        may raise LinAlgError on it or return finite eigenvalues."""
        finite = np.isfinite(r).all(axis=1)
        mats = np.zeros((len(r),) + self._gate_shape, self._gate_dtype)
        flat = mats.reshape(len(r), -1).view(float)
        flat[:, self._gate_dst] = r[:, self._gate_src] * self._gate_sign
        flat[~finite] = 0.0
        low = np.linalg.eigvalsh(mats)[:, 0]
        return np.where(~finite, _COLLAPSED,
                        np.where(low >= POSITIVITY_TOL, 0, _NEGATIVE))


def _failure(code: int) -> Exception:
    if code == _DARK_JUMP:
        return JumpFromDarkState(
            f"detection from a state with Tr[J rho J†] <= {ops.TOL_JUMP}")
    if code == _COLLAPSED:
        return PositivityViolation("trace collapsed during the step")
    return PositivityViolation(
        f"conditioned state eigenvalue < {POSITIVITY_TOL}")


# ---------------------------------------------------------------------------
# deterministic feedback master equation and in-loop spectrum


def feedback_master_equation(model: LindbladModel, f_op: np.ndarray,
                             eta: float) -> LindbladModel:
    """Unconditional master equation of Markovian homodyne feedback,
        d rho / dt = -i[H, rho] + D[c]rho - i[F, c rho + rho c†] + D[F]rho/eta,
    the ensemble average of the Markovian feedback SME (Wiseman & Milburn,
    PRL 70, 548 (1993)); its no_jump_generator iH' + sum r L†L / 2 is the G
    of the diffusive _Kernel's Kraus operator under Markovian feedback.

    H' = H + (c†F + Fc)/2; collapses become (1, c - iF) plus, for imperfect
    detection, ((1-eta)/eta, F); extra collapses pass through untouched.
    An F of another dimension than the model raises DimensionMismatch.
    """
    eta, f_op = HomodyneDiffusive(eta).eta, Feedback(f_op).operator
    ops._check_dims(model.hamiltonian, f_op)
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
        S(omega) = 1 + eta Re Tr{x [(i omega - K)^-1 + (-i omega - K)^-1] dev}
                 = 1 + 2 eta Re Tr{x (i omega - K)^-1 dev},
    since for Hermitian dev the second resolvent term is the adjoint of the
    first, and x is Hermitian. As dev, rho_ss and x are Hermitian and L
    preserves Hermiticity, K, dev and Tr[x .] are taken in real coordinates
    from the model's cached, read-only generator A = model_fb.real_liouvillian.
    One scan finds its invariant blocks (operators._invariant_blocks), which
    serve both rho_ss (operators._stationary_state) and K: rho_ss and the
    trace row are nonzero only in the block that holds coordinate 0, so K has
    the blocks of A, and (i omega - K) z = dev is solved, one complex solve
    per omega, only on the blocks where both dev and x have a nonzero
    coordinate, with K_b = A_b - |rows(rho_ss)_b><tr_b| formed for those
    blocks alone; every other block adds nothing to Tr[x z].
    With corrected=False the -iF/eta insertion is dropped (the naive
    normally-ordered formula, kept for comparison; it is wrong in a loop).
    omega_grid must be a finite 1-D array (else ValueError); c and F must
    be square matrices of the model's dimension (else DimensionMismatch).
    """
    eta, f_op = HomodyneDiffusive(eta).eta, Feedback(f_op).operator
    omega_grid = np.asarray(omega_grid, dtype=float)
    if omega_grid.ndim != 1 or not np.all(np.isfinite(omega_grid)):
        raise ValueError("omega_grid must be a finite 1-D array")
    c = np.asarray(c, dtype=complex)
    ops._check_dims(model_fb.hamiltonian, c, f_op)
    co = ops.coordinates(model_fb.dim)
    a = model_fb.real_liouvillian
    blocks = ops._invariant_blocks(a)
    rho_ss, _ = ops._stationary_state(a, co, blocks)
    cd = c.conj().T
    if corrected:
        dev = (c - 1j * f_op / eta) @ rho_ss + rho_ss @ (cd + 1j * f_op / eta)
    else:
        dev = c @ rho_ss + rho_ss @ cd
    dev = co.rows(dev - np.trace(dev).real * rho_ss)
    x_col = co.expect_col(c + cd)
    r_ss = co.rows(rho_ss)
    vals = np.zeros(len(omega_grid))
    for idx in blocks:
        dev_b, x_b = dev[idx], x_col[idx]
        if not (dev_b.any() and x_b.any()):
            continue
        k_b = a[np.ix_(idx, idx)] - np.outer(r_ss[idx], co.trace_row[idx])
        eye = np.eye(len(idx))
        vals += np.array([x_b @ np.linalg.solve(1j * w * eye - k_b, dev_b)
                          for w in omega_grid]).real
    return Spectrum(omega_grid, 1.0 + 2.0 * eta * vals)


# ---------------------------------------------------------------------------
# trajectory and ensemble drivers


def _integrate(kernel: _Kernel, config: SmeConfig, rho0: np.ndarray, seeds):
    """Advance the trajectories keyed by seeds in lock-step, in one batch,
    from rho0, the state the kernel was built for. Each trajectory's noise is
    drawn whole into its record row (padding rows idle); step k reads dW or
    a uniform draw from column k and overwrites it with the photocurrent or
    dN, so column k - lag holds the delayed kick's photocurrent.

    Returns arrays with one row per seed: the records (B, steps), the
    snapshot coordinates (B, steps // snapshot_every, d^2), 0 off the
    kernel's kept coordinates, or None, and the failure codes (B,), 0 for a
    trajectory that succeeded.
    """
    dt, n, snap = config.dt, config.steps, config.snapshot_every
    b_sz = len(seeds)
    rows = -(-b_sz // _ROW_PAD) * _ROW_PAD
    r0 = kernel.rows(rho0)
    r = np.tile(r0, (rows, 1))
    fail = np.zeros(rows, dtype=np.int8)
    records = np.empty((rows, n))
    snaps = np.zeros((b_sz, n // snap, kernel.coords.n2)) if snap else None

    lag = 0 if kernel.kick is None else round(config.feedback.mode.delay / dt)

    # one generator, re-keyed before each row to the state Philox(key=s)
    # starts in: Philox(key=s) itself first seeds a SeedSequence from OS
    # entropy, which the key then replaces
    bits = Philox(0)
    state = bits.state
    key = state["state"]["key"]
    rng = Generator(bits)
    draw = rng.standard_normal if kernel.diffusive else rng.random
    for row, s in zip(records, seeds):
        key[:] = s & _SEED_MASK, 0
        bits.state = state
        draw(out=row)
    records[b_sz:] = kernel.idle_noise
    if kernel.diffusive:
        records *= math.sqrt(dt)                         # dW

    def mark(bad):
        hit = bad != 0
        first = hit & (fail == 0)
        fail[first] = bad[first]
        r[hit] = r0                      # keep failed rows finite

    with np.errstate(all="ignore"):
        for k in range(n):
            old = records[:, k - lag] if lag and k >= lag else None
            r, records[:, k], bad = kernel.step(r, records[:, k], old)
            if bad is not None:
                mark(bad)
            if (k + 1) % POSITIVITY_CHECK_EVERY == 0 or k + 1 == n:
                bad = kernel.check(r)
                if bad.any():
                    mark(bad)
            if snap and (k + 1) % snap == 0:
                snaps[:, (k + 1) // snap - 1, kernel.keep] = r[:b_sz]
    return records[:b_sz], snaps, fail[:b_sz]


def _state_times(config: SmeConfig) -> Optional[np.ndarray]:
    snap = config.snapshot_every
    if not snap:
        return None
    return config.dt * np.arange(snap, config.steps + 1, snap)


def _results(kernel: _Kernel, config: SmeConfig, records, snaps, seeds,
             picked) -> list:
    """TrajectoryResult objects for the rows `picked` of a batch; their
    snapshots are converted to matrices in one `states` call."""
    times = config.dt * np.arange(1, config.steps + 1)
    state_times = _state_times(config)
    states = None if snaps is None else kernel.coords.states(snaps[picked])
    return [TrajectoryResult(times=times, record=records[i],
                             states=None if states is None else states[row],
                             state_times=state_times,
                             diagnostics={"seed": seeds[i]})
            for row, i in enumerate(picked)]


def run_trajectory(config: SmeConfig, rho0: np.ndarray,
                   seed: Optional[int] = None) -> TrajectoryResult:
    """Run a single conditioned trajectory from rho0, with config.seed unless
    seed is given. A failed trajectory raises its failure (PositivityViolation
    or JumpFromDarkState)."""
    ops.validate_density_matrix(np.asarray(rho0, dtype=complex))
    kernel = _Kernel(config.model, config.dt, config.detection,
                     config.feedback, rho0)
    seeds = [config.seed if seed is None else seed]
    records, snaps, codes = _integrate(kernel, config, rho0, seeds)
    if codes[0]:
        raise _failure(codes[0])
    return _results(kernel, config, records, snaps, seeds, [0])[0]


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
                 psd_segments: int = 8,
                 keep_trajectories: bool = False) -> EnsembleSummary:
    """Average n_traj independent trajectories, advanced as one batch.

    Trajectory i uses the Philox stream keyed by seed XOR i, so its record and
    states are bit-identical for any batch size and equal to run_trajectory
    with that seed. A diffusive ensemble whose records are too short for
    psd_segments Welch segments raises TooShort before any stepping; the PSD
    pools the Welch windows of every successful record. The run aborts only
    if more than 10% of trajectories fail, raising the first failure's type.
    """
    if n_traj < 1:
        raise ValueError("n_traj must be >= 1")
    if config.snapshot_every < 1:
        raise ValueError("run_ensemble needs snapshot_every >= 1")
    ops.validate_density_matrix(np.asarray(rho0, dtype=complex))
    kernel = _Kernel(config.model, config.dt, config.detection,
                     config.feedback, rho0)
    if kernel.diffusive:
        welch_segment_length(config.steps, psd_segments)
    seeds = [config.seed ^ i for i in range(n_traj)]
    records, snaps, codes = _integrate(kernel, config, rho0, seeds)

    ok = np.flatnonzero(codes == 0)
    failures = [(int(i), _failure(codes[i]))
                for i in np.flatnonzero(codes)]
    if len(ok) < math.ceil(0.9 * n_traj):
        first = failures[0][1]
        raise type(first)(f"only {len(ok)}/{n_traj} trajectories succeeded;"
                          f" the first failure: {first}") from first

    c = config.model.collapses[0][1]
    good = snaps[ok]                             # (n_ok, n_snap, d^2)
    xbars = good @ kernel.coords.expect_col(c + c.conj().T)
    pooled = records if len(ok) == n_traj else records[ok]     # no copy
    psd = (estimate_psd(pooled, config.dt, psd_segments)
           if kernel.diffusive else None)
    return EnsembleSummary(
        state_times=_state_times(config),
        mean_states=kernel.coords.states(good.mean(axis=0)),
        xbar_variance=xbars.var(axis=0),
        psd=psd,
        n_success=len(ok),
        n_failed=len(failures),
        failures=failures,
        trajectories=(_results(kernel, config, records, snaps, seeds, ok)
                      if keep_trajectories else None))
