"""Literal operator-form generators and reference conversions, kept out of
the package.

The package builds every superoperator directly in real Hermitian
coordinates (`HermitianCoordinates.sandwich_map`). These write the same
master equations as products of operators, and convert a column-stacked
superoperator matrix (`sprepost`, `LindbladModel.liouvillian`) into those
coordinates by gathering its columns, so tests can check the package's maps
against independent forms.
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
