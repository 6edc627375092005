"""Finite-dimensional operator algebra and master-equation machinery.

Operators and density matrices are plain complex ndarrays. The superoperators
here are the building blocks of both the deterministic master equation and the
conditioned (stochastic) evolutions in :mod:`qfeedback.trajectories`.
"""

from __future__ import annotations

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

def superop_D(a: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Lindblad dissipator D[A]rho = A rho A† - (A†A rho + rho A†A)/2."""
    _check_dims(a, rho)
    ad = a.conj().T
    ada = ad @ a
    return a @ rho @ ad - 0.5 * (ada @ rho + rho @ ada)


def sprepost(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Superoperator rho -> a rho b on column-stacked matrices: kron(b^T, a),
    the same products np.kron forms, written in C order whatever the layout of
    a and b so that the reshape is a view."""
    dim = a.shape[0]
    return np.multiply(b.T[:, None, :, None], a[None, :, None, :],
                       order="C").reshape(dim * dim, -1)


def spre(a: np.ndarray) -> np.ndarray:
    """Left-multiplication superoperator on column-stacked (vec) matrices."""
    return sprepost(a, np.eye(a.shape[0]))


def spost(a: np.ndarray) -> np.ndarray:
    """Right-multiplication superoperator on column-stacked matrices."""
    return sprepost(np.eye(a.shape[0]), a)


def dissipator(a: np.ndarray) -> np.ndarray:
    """Superoperator of the Lindblad dissipator D[a] on column-stacked
    matrices."""
    ad = a.conj().T
    ada = ad @ a
    return sprepost(a, ad) - 0.5 * spre(ada) - 0.5 * spost(ada)


# ---------------------------------------------------------------------------
# Lindblad model

@dataclass(frozen=True)
class LindbladModel:
    """Hamiltonian plus weighted collapse operators.

    Rates are in inverse time (hbar = 1); collapse entries are
    (rate, operator) pairs.
    """
    hamiltonian: np.ndarray
    collapses: tuple = field(default_factory=tuple)

    def __post_init__(self):
        h = np.asarray(self.hamiltonian, dtype=complex)
        object.__setattr__(self, "hamiltonian", h)
        if not is_hermitian(h):
            raise InvalidState("Hamiltonian must be Hermitian")
        cs = []
        for rate, op in self.collapses:
            if not rate >= 0:
                raise InvalidState(f"collapse rate {rate} is not >= 0")
            op = np.asarray(op, dtype=complex)
            _check_dims(h, op)
            cs.append((float(rate), op))
        object.__setattr__(self, "collapses", tuple(cs))

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]

    @cached_property
    def liouvillian(self) -> np.ndarray:
        """Matrix of the generator on column-stacked density matrices."""
        h = self.hamiltonian
        lv = -1j * (spre(h) - spost(h))
        for rate, op in self.collapses:
            lv += rate * dissipator(op)
        return lv


# ---------------------------------------------------------------------------
# exact linear algebra on the Liouvillian

# A trace-constrained Liouvillian (see steady_state) whose 1-norm condition
# number exceeds this is treated as singular: the kernel of L is then not
# one-dimensional, or too close to it to single out a state.
COND_DEGENERATE = 1e10


def _vec(m: np.ndarray) -> np.ndarray:
    """Column-stacked vec(m)."""
    return np.asarray(m, dtype=complex).reshape(-1, order="F")


def _unvec(v: np.ndarray, dim: int) -> np.ndarray:
    return v.reshape((dim, dim), order="F")


def _propagator(model: LindbladModel, t: float) -> np.ndarray:
    """exp(L t), the exact master-equation propagator on vec(rho)."""
    from scipy.linalg import expm
    return expm(model.liouvillian * t)


def evolve(model: LindbladModel, rho0: np.ndarray, t: float,
           watch_truncation: bool = False) -> np.ndarray:
    """State at time t: exp(L t) applied to vec(rho0).

    The result is hermitized and its trace and positivity are checked. With
    watch_truncation=True, population of the top two levels of the result
    above 1e-6 emits a TruncationWarning (bosonic truncated modes).
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    rho0 = np.asarray(rho0, dtype=complex)
    dim = _check_dims(model.hamiltonian, rho0)
    rho = _unvec(_propagator(model, t) @ _vec(rho0), dim)
    rho = 0.5 * (rho + rho.conj().T)
    tr = np.trace(rho).real
    if abs(tr - 1.0) > TOL_TRACE:
        raise PositivityViolation(f"trace drifted to {tr}")
    if watch_truncation and dim >= 3:
        top = rho[-1, -1].real + rho[-2, -2].real
        if top > 1e-6:
            warnings.warn(f"top two levels hold population {top:.2e}",
                          TruncationWarning)
    evals = np.linalg.eigvalsh(rho)
    if evals.min() < -TOL_POS:
        raise PositivityViolation(f"eigenvalue {evals.min()} < -{TOL_POS}")
    return rho


def steady_state(model: LindbladModel) -> np.ndarray:
    """Stationary state: the solution of L vec(rho) = 0 with Tr rho = 1.

    Row 0 of L is replaced by the trace functional <I|. L preserves the trace,
    so that row is a combination of the other diagonal rows, and the new
    matrix is invertible exactly when the kernel of L is one-dimensional.
    Raises DegenerateSteadyState when its condition number exceeds
    COND_DEGENERATE.
    """
    lv = model.liouvillian
    dim = model.dim
    constrained = lv.copy()
    constrained[0] = _vec(np.eye(dim))
    try:
        inv = np.linalg.inv(constrained)
        cond = np.linalg.norm(constrained, 1) * np.linalg.norm(inv, 1)
    except np.linalg.LinAlgError:
        cond = np.inf
    if not cond <= COND_DEGENERATE:
        raise DegenerateSteadyState(
            f"trace-constrained Liouvillian has condition number {cond:.3g}"
            f" > {COND_DEGENERATE:g}: kernel dimension != 1")
    rho = _unvec(inv[:, 0], dim)
    rho = 0.5 * (rho + rho.conj().T)
    rho = rho / np.trace(rho).real
    scale = max(np.linalg.norm(lv, 1), 1.0)
    resid = np.max(np.abs(lv @ _vec(rho)))
    if resid > 1e-10 * scale:
        raise DegenerateSteadyState(f"kernel residual {resid} too large")
    validate_density_matrix(rho)
    return rho


def two_time_correlation(model: LindbladModel, left: np.ndarray,
                         initial_deviation: np.ndarray,
                         tau_grid: np.ndarray) -> np.ndarray:
    """Tr[left · exp(L tau)[initial_deviation]] on an ascending tau grid.

    The quantum regression formula: the deviation matrix evolves under the
    Liouvillian, propagated exactly from each grid point to the next (spacings
    equal to 12 digits, as on a linspace grid, reuse one propagator).
    """
    tau_grid = np.asarray(tau_grid, dtype=float)
    if tau_grid.ndim != 1 or np.any(np.diff(tau_grid) < 0) or tau_grid[0] < 0:
        raise ValueError("tau_grid must be nonnegative ascending")
    mat = np.asarray(initial_deviation, dtype=complex)
    _check_dims(model.hamiltonian, mat, left)
    v = _vec(mat)
    left_row = _vec(np.transpose(left))      # Tr[left M] = vec(left^T) . vec(M)
    out = np.empty(len(tau_grid), dtype=complex)
    step = prop = None
    for i, span in enumerate(np.diff(tau_grid, prepend=0.0)):
        if span > 0:
            if step is None or abs(span - step) > 1e-12 * step:
                step, prop = span, _propagator(model, span)
            v = prop @ v
            if not np.all(np.isfinite(v)):
                raise PositivityViolation("two-time propagation diverged")
        out[i] = left_row @ v
    return out
