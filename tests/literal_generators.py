"""Literal operator-form generators, kept out of the package.

The package builds every generator as a column-stacked superoperator matrix
(`LindbladModel.liouvillian`). These write the same master equations as
products of operators, so tests can check the matrices against an
independent form.
"""

import numpy as np

from qfeedback import operators as ops


def master_equation_rhs(model: ops.LindbladModel, rho: np.ndarray) -> np.ndarray:
    """-i[H, rho] + sum_k r_k D[L_k] rho for a (not necessarily Hermitian)
    matrix rho."""
    rho = np.asarray(rho, dtype=complex)
    h = model.hamiltonian
    out = -1j * (h @ rho - rho @ h)
    for rate, op in model.collapses:
        out += rate * ops.superop_D(op, rho)
    return out


def squeezed_bath_generator(n_bath: float, m_bath: complex, dim: int,
                            rho: np.ndarray) -> np.ndarray:
    """The squeezed-bath generator

        (N + 1) D[a] + N D[a†] - (M/2) [a†, [a†, .]] - (M*/2) [a, [a, .]],

    against which `intracavity.squeezed_bath_model`'s Lindblad
    decomposition is checked."""
    a = ops.destroy(dim)
    ad = a.conj().T
    out = (n_bath + 1.0) * ops.superop_D(a, rho) + n_bath * ops.superop_D(ad, rho)
    comm_ad = ad @ (ad @ rho - rho @ ad) - (ad @ rho - rho @ ad) @ ad
    comm_a = a @ (a @ rho - rho @ a) - (a @ rho - rho @ a) @ a
    out -= 0.5 * m_bath * comm_ad
    out -= 0.5 * np.conj(m_bath) * comm_a
    return out
