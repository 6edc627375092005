"""Finite-dimensional operator algebra and master-equation machinery.

Operators and density matrices are plain complex ndarrays. One non-Hermitian
generator, `LindbladModel.no_jump_generator`, builds both the deterministic
master equation and the conditioned (stochastic) evolutions in
:mod:`qfeedback.trajectories`.

Every superoperator the package applies preserves Hermiticity, so it is one
real d^2 x d^2 matrix in one coordinate system, `HermitianCoordinates`:
Re rho_ij (i >= j) and Im rho_ij (i > j). Every such matrix is a sum of
sandwiches a rho b built directly in these coordinates by one method,
`HermitianCoordinates.sandwich_map`: the SME kernel's Kraus maps and the real
generator `LindbladModel.real_liouvillian` that the exact solvers
(`steady_state`, `evolve`, `two_time_correlation`) run on. The model builds
that generator once, on first use, and holds it read-only; the solvers read
it and never write into it. The complex column-stacked
`LindbladModel.liouvillian` (from `sprepost`) remains as the definition that
real form is checked against; no solver reads it. The O(d^6) solves
(`steady_state` here, the in-loop spectrum in :mod:`qfeedback.trajectories`)
scan the real generator once for its invariant blocks (`_invariant_blocks`),
the blocks a model's symmetries leave it split into, and copy and factor it
one block at a time. Propagation (`evolve`, `two_time_correlation`) steps
only the coordinates its vector reaches, found by the forward search
`_connected` that also cuts the SME kernel to its initial state's reach, and
copies that square of the generator once: the whole generator when the
vector reaches every coordinate.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateSteadyState,
    DimensionMismatch,
    InvalidState,
    PositivityViolation,
    TruncationWarning,
)

TOL_HERM = 1e-10
TOL_TRACE = 1e-8
TOL_POS = 1e-8
TOL_JUMP = 1e-14


# ---------------------------------------------------------------------------
# constructors

def destroy(dim: int) -> np.ndarray:
    """Bosonic annihilation operator on a truncated Fock space."""
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1).astype(complex)


def number(dim: int) -> np.ndarray:
    return np.diag(np.arange(dim, dtype=float)).astype(complex)


def quad_x(dim: int) -> np.ndarray:
    """x = c + c† quadrature."""
    a = destroy(dim)
    return a + a.conj().T


def quad_y(dim: int) -> np.ndarray:
    """y = -i c + i c† quadrature."""
    a = destroy(dim)
    return -1j * a + 1j * a.conj().T


def sigma_minus() -> np.ndarray:
    """Atomic lowering operator |g><e| in the basis (|g>, |e>)."""
    return np.array([[0, 1], [0, 0]], dtype=complex)


def sigma_x() -> np.ndarray:
    return np.array([[0, 1], [1, 0]], dtype=complex)


def sigma_y() -> np.ndarray:
    # basis (|g>, |e>): sigma_minus = (sigma_x - i sigma_y) / 2
    return np.array([[0, 1j], [-1j, 0]], dtype=complex)


def sigma_z() -> np.ndarray:
    return np.array([[-1, 0], [0, 1]], dtype=complex)


def fock_dm(dim: int, n: int) -> np.ndarray:
    rho = np.zeros((dim, dim), dtype=complex)
    rho[n, n] = 1.0
    return rho


def expect(op: np.ndarray, rho: np.ndarray) -> complex:
    return complex(np.trace(op @ rho))


def is_hermitian(m: np.ndarray) -> bool:
    return bool(np.max(np.abs(m - m.conj().T)) <= TOL_HERM)


def validate_density_matrix(rho: np.ndarray) -> None:
    """Raise InvalidState unless rho is Hermitian, unit trace, and positive."""
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise InvalidState("density matrix must be square")
    if not np.all(np.isfinite(rho)):
        raise InvalidState("non-finite entries")
    if np.max(np.abs(rho - rho.conj().T)) > TOL_HERM:
        raise InvalidState("not Hermitian within tolerance")
    tr = np.trace(rho)
    if abs(tr.real - 1.0) > TOL_TRACE or abs(tr.imag) > TOL_TRACE:
        raise InvalidState(f"trace {tr} != 1 within tolerance")
    evals = np.linalg.eigvalsh((rho + rho.conj().T) / 2)
    if evals.min() < -TOL_POS:
        raise InvalidState(f"smallest eigenvalue {evals.min()} < -{TOL_POS}")


def _check_dims(*ms: np.ndarray) -> int:
    dim = ms[0].shape[0]
    for m in ms:
        if m.shape != (dim, dim):
            raise DimensionMismatch(f"shapes {[x.shape for x in ms]} do not match")
    return dim


# ---------------------------------------------------------------------------
# superoperators

def sprepost(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Superoperator rho -> a rho b on column-stacked matrices: kron(b^T, a),
    the same products np.kron forms, written in C order whatever the layout of
    a and b so that the reshape is a view."""
    dim = a.shape[0]
    return np.multiply(b.T[:, None, :, None], a[None, :, None, :],
                       order="C").reshape(dim * dim, -1)


def _vec(m: np.ndarray) -> np.ndarray:
    """Column-stacked vec(m)."""
    return np.asarray(m, dtype=complex).reshape(-1, order="F")


# ---------------------------------------------------------------------------
# real coordinates of Hermitian matrices

# entries of a d^2 x d^2 matrix formed at once: the complex rows of a map
# that sandwich_map builds (1 MB), the real columns of |A| that _expm_action
# sums for its 1-norm (0.5 MB)
_BUILD_BLOCK = 1 << 16


class HermitianCoordinates:
    """Real coordinates of Hermitian d x d matrices, and the real matrices of
    the maps that preserve Hermiticity.

    A Hermitian matrix has d^2 real degrees of freedom: Re rho_ij (i >= j),
    then Im rho_ij (i > j), both in column-stacked order. `gather` indexes
    them in the float view of a (d, d) complex array, and `scatter` and
    `sign` rebuild that float view, so `rows` and `states` convert by exact
    index copies. Coordinate k stands for the basis matrix states(e_k): e_ii,
    e_ij + e_ji or i e_ij - i e_ji (i > j), which is not an orthonormal basis.

    A map that preserves Hermiticity is one real matrix A acting as
    A @ rows(rho); column k of A is the coordinates of the map's image of
    states(e_k). A sum of sandwiches a rho b is built as A by `sandwich_map`.
    A trace or an expectation value is one real column (`expect_col`). Use
    `coordinates(dim)`, which builds one object per dimension.
    """

    def __init__(self, dim: int):
        self.dim, self.n2 = dim, dim * dim
        j, i = np.triu_indices(dim)
        lower = i > j
        re = 2 * (i * dim + j)
        self.gather = np.concatenate([re, re[lower] + 1])
        src = np.zeros((dim, dim, 2), dtype=np.intp)
        sign = np.zeros((dim, dim, 2))
        src[i, j, 0] = src[j, i, 0] = np.arange(len(re))
        sign[:, :, 0] = 1.0
        k_im = len(re) + np.arange(lower.sum())
        src[i[lower], j[lower], 1] = src[j[lower], i[lower], 1] = k_im
        sign[i[lower], j[lower], 1], sign[j[lower], i[lower], 1] = 1.0, -1.0
        self.scatter, self.sign = src.ravel(), sign.ravel()
        # per entry (i, j), i >= j: its row and column, the vec indices of
        # rho_ij and of rho_ji, and whether it has an imaginary coordinate
        self.i, self.j, self.lower = i, j, lower
        self.vec_ij, self.vec_ji = i + j * dim, j + i * dim
        self.trace_row = self.expect_col(np.eye(dim))
        # per entry p = (i, j): the flat indices, in sandwich_map's (p, l, k)
        # coefficients of every entry, of the d coefficients an identity
        # factor leaves, k = i (a = I) or l = j (b = I)
        lead, span = self.n2 * np.arange(len(i)), np.arange(dim)
        self._eye_left = (lead + i)[:, None] + dim * span
        self._eye_right = (lead + dim * j)[:, None] + span
        for name in ("gather", "scatter", "sign", "i", "j", "lower", "vec_ij",
                     "vec_ji", "trace_row", "_eye_left", "_eye_right"):
            getattr(self, name).flags.writeable = False

    def rows(self, rho: np.ndarray) -> np.ndarray:
        """(..., d, d) Hermitian matrices -> (..., d^2) real coordinates."""
        rho = np.ascontiguousarray(rho, dtype=complex)
        flat = rho.view(np.float64).reshape(rho.shape[:-2] + (2 * self.n2,))
        return np.take(flat, self.gather, axis=-1)

    def states(self, r: np.ndarray) -> np.ndarray:
        """(..., d^2) real coordinates -> (..., d, d) Hermitian matrices."""
        flat = np.take(r, self.scatter, axis=-1) * self.sign
        return flat.view(complex).reshape(r.shape[:-1] + (self.dim, self.dim))

    def _on_basis(self, x: np.ndarray) -> np.ndarray:
        """x (..., d^2), linear in a column-stacked matrix, at every basis
        matrix states(e_k): (..., d^2). In vec form that matrix is e_ij + e_ji
        (i > j), e_ii, or i e_ij - i e_ji (the imaginary parts)."""
        a, b, low = self.vec_ij, self.vec_ji, self.lower
        return np.concatenate([x[..., a] + low * x[..., b],
                               1j * (x[..., a[low]] - x[..., b[low]])], -1)

    def sandwich_map(self, terms) -> np.ndarray:
        """The real matrix A, new and in C order, of the Hermiticity-preserving
        map rho -> sum_k a_k rho b_k over the (a, b) pairs in terms:
        A @ rows(rho) = rows(sum_k a_k rho b_k). Either factor of a pair, not
        both, may be None for the identity.

        A coordinate of the image is the real or imaginary part of one entry
        (a rho b)_ij = sum_kl a_ik rho_kl b_lj with i >= j, so only those
        d(d + 1)/2 rows of the column-stacked map are formed, _BUILD_BLOCK
        complex entries at a time, and gathered onto the basis matrices; the
        complex d^2 x d^2 matrix never is. A term with an identity factor
        has d nonzero coefficients per entry, which are added alone; the
        product of the factors would add exact zeros beside them.
        """
        dim, n2 = self.dim, self.n2
        out = np.empty((n2, n2))
        im_row = len(self.i) + np.cumsum(self.lower) - 1   # rows of Im rho_ij
        n_re, step = len(self.i), max(1, _BUILD_BLOCK // n2)
        for start in range(0, n_re, step):
            block = slice(start, min(start + step, n_re))
            i, j, low = self.i[block], self.j[block], self.lower[block]
            # t[p, l, k]: the coefficient of rho_kl in the image's entry
            # (i_p, j_p), a_{i_p k} b_{l j_p}
            t = np.zeros((len(i), dim, dim), dtype=complex)
            flat, shift = t.reshape(-1), n2 * start
            for a, b in terms:
                if a is None:       # t[p, :, i_p] += b_{. j_p}
                    flat[self._eye_left[block] - shift] += b.T[j]
                elif b is None:     # t[p, j_p, :] += a_{i_p .}
                    flat[self._eye_right[block] - shift] += a[i]
                else:
                    t += b.T[j][:, :, None] * a[i][:, None, :]
            z = self._on_basis(t.reshape(len(i), n2))
            out[block] = z.real
            out[im_row[block][low]] = z[low].imag
        return out

    def expect_col(self, op: np.ndarray) -> np.ndarray:
        """The column e with r @ e = Tr[op states(r)], for Hermitian op."""
        return self._on_basis(_vec(op.T)).real  # Tr[op M] = vec(op^T).vec(M)


@functools.lru_cache(maxsize=None)
def coordinates(dim: int) -> HermitianCoordinates:
    """The coordinates of Hermitian dim x dim matrices; one shared, read-only
    object per dimension."""
    return HermitianCoordinates(dim)


# ---------------------------------------------------------------------------
# Lindblad model

@dataclass(frozen=True)
class LindbladModel:
    """Hamiltonian plus weighted collapse operators.

    Rates are in inverse time (hbar = 1); collapse entries are
    (rate, operator) pairs, every operator square and of one dimension (else
    DimensionMismatch). The model holds read-only copies of the operators,
    and every generator it caches is read-only too, so neither a later edit
    of the caller's arrays nor a write by a solver can change a cached one.
    """
    hamiltonian: np.ndarray
    collapses: tuple = field(default_factory=tuple)

    def __post_init__(self):
        h = _read_only(np.array(self.hamiltonian, dtype=complex))
        object.__setattr__(self, "hamiltonian", h)
        _check_dims(h)
        if not np.all(np.isfinite(h)):
            raise InvalidState("Hamiltonian must be finite")
        if not is_hermitian(h):
            raise InvalidState("Hamiltonian must be Hermitian")
        cs = []
        for k, (rate, op) in enumerate(self.collapses):
            if not 0 <= rate < np.inf:
                raise InvalidState(f"collapse rate {rate} is not finite and >= 0")
            op = _read_only(np.array(op, dtype=complex))
            _check_dims(h, op)
            if not np.all(np.isfinite(op)):
                raise InvalidState(f"collapse operator {k} must be finite")
            cs.append((float(rate), op))
        object.__setattr__(self, "collapses", tuple(cs))

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]

    @cached_property
    def no_jump_generator(self) -> np.ndarray:
        """G = iH + sum_k r_k L_k†L_k / 2 over every collapse, so that the
        generator is rho -> -G rho - rho G† + sum_k r_k L_k rho L_k†."""
        return _read_only(1j * self.hamiltonian
                          + sum((0.5 * rate) * op.conj().T @ op
                                for rate, op in self.collapses))

    @cached_property
    def liouvillian(self) -> np.ndarray:
        """Matrix of the generator on column-stacked density matrices, built
        from no_jump_generator."""
        g, eye = self.no_jump_generator, np.eye(self.dim)
        lv = -sprepost(g, eye)
        lv -= sprepost(eye, g.conj().T)
        for rate, op in self.collapses:
            lv += sprepost(rate * op, op.conj().T)
        return _read_only(lv)

    @cached_property
    def real_liouvillian(self) -> np.ndarray:
        """The generator as a real C-ordered matrix A in the coordinates of
        `coordinates(dim)`: A @ rows(rho) = rows(L rho), the sandwiches of
        -G rho - rho G† + sum_k r_k L_k rho L_k† built by `sandwich_map`
        without the complex d^2 x d^2 matrix. Built on first use and held,
        read-only, by the model (d^4 * 8 bytes): the exact solvers read it
        and never write into it."""
        g = self.no_jump_generator
        return _read_only(coordinates(self.dim).sandwich_map(
            [(op, rate * op.conj().T) for rate, op in self.collapses]
            + [(-g, None), (None, -g.conj().T)]))


def _read_only(a: np.ndarray) -> np.ndarray:
    """a, made read-only."""
    a.flags.writeable = False
    return a


# ---------------------------------------------------------------------------
# exact linear algebra on the real Liouvillian

# A trace-constrained Liouvillian (see steady_state) whose 1-norm condition
# number exceeds this is treated as singular: the kernel of L is then not
# one-dimensional, or too close to it to single out a state.
COND_DEGENERATE = 1e10


# theta_m: the largest ||t A||_1 for which m terms of the Taylor series of
# exp(t A) have backward error below 2^-53 (Higham, Functions of Matrices
# (2008), Table A.3, for m <= 30; Al-Mohy & Higham (2011), Table 3.1, above).
_THETA = {1: 2.29e-16, 2: 2.58e-8, 3: 1.39e-5, 4: 3.40e-4, 5: 2.40e-3,
          6: 9.07e-3, 7: 2.38e-2, 8: 5.00e-2, 9: 8.96e-2, 10: 1.44e-1,
          11: 2.14e-1, 12: 3.00e-1, 13: 4.00e-1, 14: 5.14e-1, 15: 6.41e-1,
          16: 7.81e-1, 17: 9.31e-1, 18: 1.09, 19: 1.26, 20: 1.44,
          21: 1.62, 22: 1.82, 23: 2.01, 24: 2.22, 25: 2.43,
          26: 2.64, 27: 2.86, 28: 3.08, 29: 3.31, 30: 3.54,
          35: 4.7, 40: 6.0, 45: 7.2, 50: 8.5, 55: 9.9}
_UNIT_ROUNDOFF = 2.0 ** -53


def _expm_action(lv: np.ndarray, v: np.ndarray, times) -> np.ndarray:
    """exp(t lv) v at each t of the nonnegative ascending `times`, one row per
    t, each propagated from the previous one; v is a vector or a block of
    columns propagated together. lv is only read.

    Only the coordinates v reaches are stepped: coordinate j feeds i where
    lv[i, j] != 0, so the forward search (_connected) along those edges from
    the nonzero rows of v finds the coordinates exp(t lv) v can be nonzero
    on. That square of lv is copied once, a plain copy when it is the whole
    of lv, its 1-norm summed a block of columns at a time, and the result
    scattered into zeros; a zero v returns zeros.

    The truncated Taylor action of Al-Mohy & Higham, SIAM J. Sci. Comput. 33,
    488 (2011), Algorithm 3.2, on the copy A shifted by mu, the mean of its
    diagonal: a span t takes s substeps of at most m Taylor terms of
    exp(t A / s), (m, s) minimising m * ceil(t ||A||_1 / theta_m), each
    substep stopping once two successive terms fall below 2^-53 of the sum,
    and scaled by e^{t mu / s}. The result is backward stable to unit
    roundoff; its cost grows linearly with t ||A||_1.
    """
    out = np.zeros((len(times),) + v.shape, dtype=np.result_type(lv, v))
    nonzero = np.flatnonzero(np.reshape(v, (len(v), -1)).any(axis=1))
    if not nonzero.size:
        return out
    reach = np.flatnonzero(_connected((lv != 0).T, nonzero))
    # the whole generator: a plain copy, faster than a gather
    a = lv.copy() if len(reach) == len(lv) else lv[reach[:, None], reach]
    mu = a.trace() / len(a)
    a.reshape(-1)[::len(a) + 1] -= mu     # a is new and C-ordered: a view
    step = max(1, _BUILD_BLOCK // len(a))  # no |a| temporary of a's size
    norm = max(np.abs(a[:, k:k + step]).sum(axis=0).max()
               for k in range(0, len(a), step))
    v, start = v[reach], 0.0
    for i, t in enumerate(times):
        span, start = t - start, t
        if span > 0:
            m, s = min(((m, max(math.ceil(span * norm / theta), 1))
                        for m, theta in _THETA.items()),
                       key=lambda ms: ms[0] * ms[1])
            h, scale = span / s, np.exp(span * mu / s)
            for _ in range(s):
                f = v.copy()
                term, prev = v, np.abs(v).max()
                for j in range(1, m + 1):
                    term = (h / j) * (a @ term)
                    f += term
                    size = np.abs(term).max()
                    if prev + size <= _UNIT_ROUNDOFF * np.abs(f).max():
                        break
                    prev = size
                v = scale * f
        out[i, reach] = v
    return out


def evolve(model: LindbladModel, rho0: np.ndarray, t: float,
           watch_truncation: bool = False) -> np.ndarray:
    """State at time t: exp(A t) applied to the real coordinates of rho0, A
    the model's real_liouvillian, as a truncated Taylor action (see
    _expm_action), without forming exp(A t).

    rho0 must be a density matrix (else InvalidState); its Hermitian part is
    propagated. The result's trace and positivity are checked. With
    watch_truncation=True, population of the top two levels of the result
    above 1e-6 emits a TruncationWarning (bosonic truncated modes).
    """
    if not 0 <= t < np.inf:
        raise ValueError(f"t = {t} must be finite and >= 0")
    rho0 = np.asarray(rho0, dtype=complex)
    validate_density_matrix(rho0)
    dim = _check_dims(model.hamiltonian, rho0)
    co = coordinates(dim)
    r0 = co.rows(_hermitian_part(rho0))
    rho = co.states(_expm_action(model.real_liouvillian, r0, [t])[0])
    tr = np.trace(rho).real
    if not abs(tr - 1.0) <= TOL_TRACE:
        raise PositivityViolation(f"trace drifted to {tr}")
    if watch_truncation and dim >= 3:
        top = rho[-1, -1].real + rho[-2, -2].real
        if top > 1e-6:
            warnings.warn(f"top two levels hold population {top:.2e}",
                          TruncationWarning)
    evals = np.linalg.eigvalsh(rho)
    if not evals.min() >= -TOL_POS:
        raise PositivityViolation(f"eigenvalue {evals.min()} < -{TOL_POS}")
    return rho


def _connected(adj: np.ndarray, start: np.ndarray) -> np.ndarray:
    """The boolean mask of the indices reached from an index of `start` by
    a path along the edges i -> j where adj[i, j], adj a boolean adjacency
    matrix (for a symmetric one, the indices joined to start). A frontier
    search reads each reached index's row of adj once."""
    unseen = np.ones(len(adj), dtype=bool)
    frontier = start
    while frontier.size:
        unseen[frontier] = False
        frontier = np.flatnonzero(adj[frontier].any(axis=0) & unseen)
    return ~unseen


def _invariant_blocks(a: np.ndarray) -> list:
    """The connected components of the symmetric nonzero pattern of the
    square real matrix a, each a sorted index array, ordered by their first
    index: the coordinates split into invariant blocks, so that a has no
    nonzero entry a[i, j] with i and j in different blocks.

    One _connected search per block on the boolean adjacency
    (a != 0) | (a != 0).T reads each index's row of it once, so the scan
    costs O(n^2) for n indices. A block is read off its mask, already in
    order, so no sort runs (numpy's first sort maps 0.25 MiB of its code
    into memory).
    """
    adj = a != 0
    adj |= adj.T
    unseen = np.ones(len(a), dtype=bool)
    blocks = []
    while unseen.any():
        # the block of the first index not yet seen
        block = _connected(adj, np.flatnonzero(unseen)[:1])
        blocks.append(np.flatnonzero(block))
        unseen &= ~block
    return blocks


def _stationary_state(a: np.ndarray, co: HermitianCoordinates, blocks):
    """(rho, cond): the stationary state of the real generator a in the
    coordinates co and the 1-norm condition number of the trace-constrained
    generator A' (row 0 of a replaced by the trace row), as described in
    steady_state, which raises when it does. a is only read; blocks is
    _invariant_blocks(a).

    A' is solved one invariant block of a at a time. The trace row is
    nonzero only on the diagonal coordinates, and its restriction to a block
    that holds one is a left null vector of that block. So when the kernel
    of a is one-dimensional, every diagonal coordinate lies in coordinate
    0's block, and the blocks of a are invariant blocks of A' too; when it
    is not, a second block holding populations is singular, and the solve
    raises. Each block is copied, the trace row put into the copy of
    coordinate 0's block, and inverted; rho is column 0 of that block's
    inverse, zero elsewhere. Both 1-norms of a block-diagonal matrix are
    maxima over its blocks, so ||a||_1 (the residual scale) and ||A'||_1
    times the largest ||block^-1||_1 (the condition number) are read from
    the copies; a singular block makes the condition number infinite.
    """
    r = np.zeros(co.n2)
    norm_a = norm_con = norm_inv = 0.0
    try:
        for idx in blocks:
            # the whole generator: a plain copy, faster than a gather
            block = a.copy() if len(idx) == len(a) else a[np.ix_(idx, idx)]
            norm = np.linalg.norm(block, 1)
            norm_a = max(norm_a, norm)
            if idx[0] == 0:
                block[0] = co.trace_row[idx]
                norm = np.linalg.norm(block, 1)
            norm_con = max(norm_con, norm)
            inv = np.linalg.inv(block)
            del block       # freed before the inverse's 1-norm
            norm_inv = max(norm_inv, np.linalg.norm(inv, 1))
            if idx[0] == 0:
                r[idx] = inv[:, 0]
            del inv         # freed before the next block
        cond = norm_con * norm_inv
    except np.linalg.LinAlgError:
        cond = np.inf
    if not cond <= COND_DEGENERATE:
        raise DegenerateSteadyState(
            f"trace-constrained Liouvillian has condition number {cond:.3g}"
            f" > {COND_DEGENERATE:g}: kernel dimension != 1")
    rho = co.states(r)
    rho = rho / np.trace(rho).real
    scale = max(0.5 * norm_a, 1.0)
    resid = np.max(np.abs(co.states(a @ co.rows(rho))))
    if resid > 1e-10 * scale:
        raise DegenerateSteadyState(f"kernel residual {resid} too large")
    validate_density_matrix(rho)
    return rho, cond


def steady_state(model: LindbladModel) -> np.ndarray:
    """Stationary state: the solution of A rows(rho) = 0 with Tr rho = 1, A the
    model's cached real_liouvillian, which is read and not written.

    Row 0 of A (Re rho_00 of the image) is replaced by the trace functional.
    L preserves the trace, so that row is a combination of the other diagonal
    rows, and the new matrix is invertible exactly when the kernel of L is
    one-dimensional. The model's symmetries make A block diagonal up to a
    permutation of the coordinates; one scan finds the blocks
    (_invariant_blocks), and the trace-constrained matrix is inverted one
    block at a time (_stationary_state), each block copied and inverted in
    O(size^3), the trace row written into the copy of coordinate 0's block.
    A model without such structure is one block, copied and inverted whole.
    Raises DegenerateSteadyState when the 1-norm condition number of the
    trace-constrained matrix exceeds COND_DEGENERATE, or when the residual,
    the largest entry of L rho, exceeds 1e-10 max(||A||_1 / 2, 1).

    ||A||_1 <= 2 ||L||_1 for the complex column-stacked L, so that bound is at
    most 1e-10 max(||L||_1, 1): column k of A is the coordinates of
    M = L states(e_k), and sum |Re M_ij| + |Im M_ij| over i > j plus
    sum |M_ii| is at most ||vec M||_1; states(e_k) is a sum of at most two
    matrices with one entry of modulus 1, so ||vec M||_1 <= 2 ||L||_1.
    """
    a = model.real_liouvillian
    return _stationary_state(a, coordinates(model.dim),
                             _invariant_blocks(a))[0]


def two_time_correlation(model: LindbladModel, left: np.ndarray,
                         initial_deviation: np.ndarray,
                         tau_grid: np.ndarray) -> np.ndarray:
    """Tr[left · exp(L tau)[initial_deviation]] on a finite, nonnegative,
    ascending tau grid.

    The quantum regression formula: the action of exp(L tau) on the deviation
    matrix, propagated by _expm_action from each grid point to the next. The
    deviation M = X + iY splits into its Hermitian parts X and Y, which are
    propagated together as one real (d^2, 2) block of their coordinates, and
    Tr[left M] = Tr[left X] + i Tr[left Y].
    """
    tau_grid = np.asarray(tau_grid, dtype=float)
    if (tau_grid.ndim != 1 or not np.all((0 <= tau_grid) & (tau_grid < np.inf))
            or not np.all(np.diff(tau_grid) >= 0)):
        raise ValueError("tau_grid must be finite, nonnegative and ascending")
    mat = np.asarray(initial_deviation, dtype=complex)
    left = np.asarray(left, dtype=complex)
    co = coordinates(_check_dims(model.hamiltonian, mat, left))
    block = np.stack([co.rows(_hermitian_part(mat)),
                      co.rows(_hermitian_part(-1j * mat))], axis=-1)
    vs = _expm_action(model.real_liouvillian, block, tau_grid)
    if not np.all(np.isfinite(vs)):
        raise PositivityViolation("two-time propagation diverged")
    # left = P + iQ with P, Q Hermitian: Tr[left X] = e_P . x + i e_Q . x
    col = (co.expect_col(_hermitian_part(left))
           + 1j * co.expect_col(_hermitian_part(-1j * left)))
    return (vs[..., 0] + 1j * vs[..., 1]) @ col


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    """(m + m†) / 2: m = P + iQ with P = _hermitian_part(m) and
    Q = _hermitian_part(-i m), both Hermitian."""
    return 0.5 * (m + m.conj().T)
