"""Literal operator-form generators and reference conversions, kept out of
the package.

The package builds every superoperator directly in real Hermitian
coordinates (`HermitianCoordinates.sandwich_map`). These write the same
master equations as products of operators, and convert a column-stacked
superoperator matrix (`sprepost`, `LindbladModel.liouvillian`) into those
coordinates by gathering its columns, so tests can check the package's maps
against independent forms. The dense solvers at the end invert or solve the
whole real generator, against which the package's block-wise solves are
checked.
"""

import numpy as np

from qfeedback import operators as ops


def superop_D(a: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Lindblad dissipator D[A]rho = A rho A† - (A†A rho + rho A†A)/2."""
    ops._check_dims(a, rho)
    ad = a.conj().T
    ada = ad @ a
    return a @ rho @ ad - 0.5 * (ada @ rho + rho @ ada)


def real_map(co: ops.HermitianCoordinates, sup: np.ndarray) -> np.ndarray:
    """The real matrix R, in C order, of a Hermiticity-preserving
    superoperator sup on column-stacked matrices, in the coordinates co:
    r @ R = co.rows(unvec(sup vec(co.states(r)))), the transpose of what
    co.sandwich_map builds. A basis matrix has at most two entries, so this
    is a gather of at most two columns per coordinate."""
    image = co._on_basis(sup[co.vec_ij])  # lower triangle of images
    return np.vstack([image.real, image[co.lower].imag]).T.copy()


def master_equation_rhs(model: ops.LindbladModel, rho: np.ndarray) -> np.ndarray:
    """-i[H, rho] + sum_k r_k D[L_k] rho for a (not necessarily Hermitian)
    matrix rho."""
    rho = np.asarray(rho, dtype=complex)
    h = model.hamiltonian
    out = -1j * (h @ rho - rho @ h)
    for rate, op in model.collapses:
        out += rate * superop_D(op, rho)
    return out


def squeezed_bath_generator(n_bath: float, m_bath: complex, dim: int,
                            rho: np.ndarray) -> np.ndarray:
    """The squeezed-bath generator

        (N + 1) D[a] + N D[a†] - (M/2) [a†, [a†, .]] - (M*/2) [a, [a, .]],

    against which `intracavity.squeezed_bath_model`'s Lindblad
    decomposition is checked."""
    a = ops.destroy(dim)
    ad = a.conj().T
    out = (n_bath + 1.0) * superop_D(a, rho) + n_bath * superop_D(ad, rho)
    comm_ad = ad @ (ad @ rho - rho @ ad) - (ad @ rho - rho @ ad) @ ad
    comm_a = a @ (a @ rho - rho @ a) - (a @ rho - rho @ a) @ a
    out -= 0.5 * m_bath * comm_ad
    out -= 0.5 * np.conj(m_bath) * comm_a
    return out


def dense_steady_state(model: ops.LindbladModel):
    """(rho, cond): the stationary state from the inverse of the whole
    trace-constrained real generator (a copy of model.real_liouvillian with
    row 0 replaced by the trace row) and that matrix's 1-norm condition
    number, the references for the block-wise solve of
    operators.steady_state."""
    co = ops.coordinates(model.dim)
    a = model.real_liouvillian.copy()
    a[0] = co.trace_row
    inv = np.linalg.inv(a)
    rho = co.states(inv[:, 0])
    return (rho / np.trace(rho).real,
            np.linalg.norm(a, 1) * np.linalg.norm(inv, 1))


def dense_in_loop_spectrum(model_fb: ops.LindbladModel, c: np.ndarray,
                           f_op: np.ndarray, eta: float,
                           omega_grid) -> np.ndarray:
    """The corrected in-loop photocurrent spectrum with one solve per omega
    on the whole K = A - |rho_ss><tr| (see
    trajectories.in_loop_correlation_spectrum), rho_ss from
    dense_steady_state."""
    co = ops.coordinates(model_fb.dim)
    rho_ss = dense_steady_state(model_fb)[0]
    cd = c.conj().T
    dev = (c - 1j * f_op / eta) @ rho_ss + rho_ss @ (cd + 1j * f_op / eta)
    dev = co.rows(dev - np.trace(dev).real * rho_ss)
    x_col = co.expect_col(c + cd)
    k = model_fb.real_liouvillian - np.outer(co.rows(rho_ss), co.trace_row)
    eye = np.eye(len(k))
    vals = np.array([x_col @ np.linalg.solve(1j * w * eye - k, dev)
                     for w in omega_grid]).real
    return 1.0 + 2.0 * eta * vals
