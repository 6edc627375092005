"""Finite-dimensional operator algebra and master-equation machinery.

Operators and density matrices are plain complex ndarrays. One non-Hermitian
generator, `LindbladModel.no_jump_generator`, and the sandwich superoperator
`sprepost` build both the deterministic master equation and the conditioned
(stochastic) evolutions in :mod:`qfeedback.trajectories`.
"""

from __future__ import annotations

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
        if not np.all(np.isfinite(h)):
            raise InvalidState("Hamiltonian must be finite")
        if not is_hermitian(h):
            raise InvalidState("Hamiltonian must be Hermitian")
        cs = []
        for k, (rate, op) in enumerate(self.collapses):
            if not 0 <= rate < np.inf:
                raise InvalidState(f"collapse rate {rate} is not finite and >= 0")
            op = np.asarray(op, dtype=complex)
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
        return 1j * self.hamiltonian + sum((0.5 * rate) * op.conj().T @ op
                                           for rate, op in self.collapses)

    @cached_property
    def liouvillian(self) -> np.ndarray:
        """Matrix of the generator on column-stacked density matrices, built
        from no_jump_generator."""
        g, eye = self.no_jump_generator, np.eye(self.dim)
        lv = -sprepost(g, eye)
        lv -= sprepost(eye, g.conj().T)
        for rate, op in self.collapses:
            lv += sprepost(rate * op, op.conj().T)
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
    t, each propagated from the previous one.

    The truncated Taylor action of Al-Mohy & Higham, SIAM J. Sci. Comput. 33,
    488 (2011), Algorithm 3.2: with mu = tr(lv)/n and A = lv - mu I, a span t
    takes s substeps of at most m Taylor terms of exp(t A / s), (m, s)
    minimising m * ceil(t ||A||_1 / theta_m), each substep stopping once two
    successive terms fall below 2^-53 of the sum, and scaled by e^{t mu / s}.
    The result is backward stable to unit roundoff; its cost grows linearly
    with t ||A||_1.
    """
    n = lv.shape[0]
    mu = np.trace(lv) / n
    a = lv.copy()
    a[np.diag_indices(n)] -= mu
    norm = np.linalg.norm(a, 1)
    out = np.empty((len(times), n), dtype=complex)
    start = 0.0
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
        out[i] = v
    return out


def evolve(model: LindbladModel, rho0: np.ndarray, t: float,
           watch_truncation: bool = False) -> np.ndarray:
    """State at time t: exp(L t) applied to vec(rho0) as a truncated Taylor
    action (see _expm_action), without forming exp(L t).

    The result is hermitized and its trace and positivity are checked. With
    watch_truncation=True, population of the top two levels of the result
    above 1e-6 emits a TruncationWarning (bosonic truncated modes).
    """
    if not 0 <= t < np.inf:
        raise ValueError(f"t = {t} must be finite and >= 0")
    rho0 = np.asarray(rho0, dtype=complex)
    dim = _check_dims(model.hamiltonian, rho0)
    rho = _unvec(_expm_action(model.liouvillian, _vec(rho0), [t])[0], dim)
    rho = 0.5 * (rho + rho.conj().T)
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
    """Tr[left · exp(L tau)[initial_deviation]] on a finite, nonnegative,
    ascending tau grid.

    The quantum regression formula: the action of exp(L tau) on the deviation
    matrix, propagated by _expm_action from each grid point to the next.
    """
    tau_grid = np.asarray(tau_grid, dtype=float)
    if (tau_grid.ndim != 1 or not np.all((0 <= tau_grid) & (tau_grid < np.inf))
            or not np.all(np.diff(tau_grid) >= 0)):
        raise ValueError("tau_grid must be finite, nonnegative and ascending")
    mat = np.asarray(initial_deviation, dtype=complex)
    _check_dims(model.hamiltonian, mat, left)
    vs = _expm_action(model.liouvillian, _vec(mat), tau_grid)
    if not np.all(np.isfinite(vs)):
        raise PositivityViolation("two-time propagation diverged")
    return vs @ _vec(np.transpose(left))  # Tr[left M] = vec(left^T) . vec(M)
