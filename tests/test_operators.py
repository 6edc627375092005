"""Operator algebra, superoperators, master-equation integration."""

import numpy as np
import pytest
from scipy.linalg import expm

from qfeedback import operators as ops
from qfeedback import trajectories as tj
from qfeedback.errors import (
    DegenerateSteadyState,
    DimensionMismatch,
    InvalidState,
)
from qfeedback.intracavity import (
    LinearCavityParams,
    parametric_model,
    squeezed_bath_model,
)


def damped_cavity(dim):
    return ops.LindbladModel(np.zeros((dim, dim), dtype=complex),
                             ((1.0, ops.destroy(dim)),))


def atom_decay():
    return ops.LindbladModel(np.zeros((2, 2), dtype=complex),
                             ((1.0, ops.sigma_minus()),))


class TestSuperopD:
    def test_vacuum_is_dark(self):
        rho = ops.fock_dm(2, 0)
        assert np.allclose(ops.superop_D(ops.destroy(2), rho), 0.0)

    def test_one_photon_decay(self):
        rho = ops.fock_dm(2, 1)
        out = ops.superop_D(ops.destroy(2), rho)
        expected = ops.fock_dm(2, 0) - ops.fock_dm(2, 1)
        assert np.allclose(out, expected)

    def test_traceless(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            rho = rng.normal(size=(4, 4))
            rho = rho @ rho.T + 0j
            rho /= np.trace(rho)
            assert abs(np.trace(ops.superop_D(a, rho))) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            ops.superop_D(ops.destroy(3), ops.fock_dm(2, 0))

    def test_column_stacked_matrices(self):
        # sprepost is np.kron(b^T, a) bit for bit, for any memory layout; the
        # Liouvillian built from G acts on vec(rho) as the rho-form generator
        rng = np.random.default_rng(4)
        a, b, rho, h = (rng.normal(size=(4, 4, 4))
                        + 1j * rng.normal(size=(4, 4, 4)))
        for x, y in ((a, b), (a.T, b.conj().T)):
            assert np.array_equal(ops.sprepost(x, y), np.kron(y.T, x))
        h = h + h.conj().T
        model = ops.LindbladModel(h, ((0.7, a), (1.3, b)))
        got = model.liouvillian @ rho.reshape(-1, order="F")
        want = (-1j * (h @ rho - rho @ h) + 0.7 * ops.superop_D(a, rho)
                + 1.3 * ops.superop_D(b, rho))
        assert np.max(np.abs(got - want.reshape(-1, order="F"))) < 1e-13
        g = 1j * h + 0.35 * a.conj().T @ a + 0.65 * b.conj().T @ b
        assert np.max(np.abs(model.no_jump_generator - g)) < 1e-13


def parametric(dim):
    return parametric_model(LinearCavityParams(l=0.0, theta=0.5), dim)


class TestModel:
    @pytest.mark.parametrize("hamiltonian, collapse, named", [
        (np.diag([np.nan, 0.0]), np.eye(2), "Hamiltonian"),
        (np.zeros((2, 2)), np.diag([np.inf, 0.0]), "collapse operator 1")],
        ids=["hamiltonian-nan", "collapse-inf"])
    def test_non_finite_operator_named(self, hamiltonian, collapse, named):
        with pytest.raises(InvalidState, match=f"{named} must be finite"):
            ops.LindbladModel(hamiltonian,
                              ((1.0, ops.sigma_minus()), (1.0, collapse)))


# (model, t) pairs on which the Taylor action must match scipy's dense expm:
# the paper's feedback models, the parametric cavity at two truncations, a
# long squeezed-bath run (t ||L||_1 about 5500), and the edge cases
EXPM_CASES = {
    "atom-feedback": lambda: (tj.feedback_master_equation(
        atom_decay(), -0.38 * ops.sigma_y(), 0.76), 0.5),
    "cavity-d12": lambda: (damped_cavity(12), 0.6),
    "cavity-d12-feedback": lambda: (tj.feedback_master_equation(
        damped_cavity(12), -0.15 * ops.quad_y(12), 0.8), 0.6),
    "parametric-d10": lambda: (parametric(10), 1.0),
    "parametric-d30": lambda: (parametric(30), 1.0),
    "squeezed-bath-t50": lambda: (squeezed_bath_model(1.0, np.sqrt(2.0), 12),
                                  50.0),
    "unitary": lambda: (ops.LindbladModel(
        ops.quad_x(6) + 0.3 * ops.number(6), ()), 3.0),
    "zero": lambda: (ops.LindbladModel(np.zeros((3, 3)), ()), 2.0),
    "t-zero": lambda: (damped_cavity(4), 0.0),
}


def dense_propagator(model, t):
    """scipy's expm(L t); a real L (no feedback) in real arithmetic, the same
    map at a quarter of the cost."""
    lv = model.liouvillian
    return expm((lv if lv.imag.any() else lv.real) * t)


class TestExpmAction:
    @pytest.mark.parametrize("name", sorted(EXPM_CASES))
    def test_matches_scipy_expm(self, name):
        model, t = EXPM_CASES[name]()
        rng = np.random.default_rng(11)
        n = model.dim ** 2
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        got = ops._expm_action(model.liouvillian, v, [t])
        want = dense_propagator(model, t) @ v
        assert got.shape == (1, n)
        assert np.max(np.abs(got[0] - want)) <= 1e-12 * np.max(np.abs(want))


class TestEvolve:
    def test_damped_cavity_exponential(self):
        dim = 6
        rho = ops.evolve(damped_cavity(dim), ops.fock_dm(dim, 1), 1.0)
        n = ops.expect(ops.number(dim), rho).real
        assert abs(n - np.exp(-1.0)) < 1e-6

    def test_identity_evolution(self):
        dim = 3
        model = ops.LindbladModel(np.zeros((dim, dim), dtype=complex), ())
        rho0 = ops.fock_dm(dim, 2)
        assert np.allclose(ops.evolve(model, rho0, 0.7), rho0, atol=1e-12)

    def test_atom_reaches_ground(self):
        rho = ops.evolve(atom_decay(), ops.fock_dm(2, 1), 20.0)
        assert np.max(np.abs(rho - ops.fock_dm(2, 0))) < 1e-6

    def test_trace_and_hermiticity_preserved(self):
        dim = 5
        h = ops.quad_x(dim) * 0.3
        model = ops.LindbladModel(h + 0j, ((1.0, ops.destroy(dim)),))
        rho = ops.evolve(model, ops.fock_dm(dim, 2), 2.0)
        assert abs(np.trace(rho).real - 1.0) < 1e-8
        assert ops.is_hermitian(rho)
        assert np.linalg.eigvalsh(rho).min() > -ops.TOL_POS


class TestSteadyState:
    def test_damped_cavity_vacuum(self):
        rho = ops.steady_state(damped_cavity(4))
        assert np.allclose(rho, ops.fock_dm(4, 0), atol=1e-10)

    def test_squeezed_bath_matches_evolve(self):
        model = squeezed_bath_model(1.0, np.sqrt(2.0), 12)
        rho_ss = ops.steady_state(model)
        rho_t = ops.evolve(model, ops.fock_dm(12, 0), 50.0)
        n_op = ops.number(12)
        assert abs(ops.expect(n_op, rho_ss).real
                   - ops.expect(n_op, rho_t).real) < 1e-6

    def test_unitary_only_degenerate(self):
        model = ops.LindbladModel(np.diag([0.0, 1.0]).astype(complex), ())
        with pytest.raises(DegenerateSteadyState):
            ops.steady_state(model)

    @staticmethod
    def two_dark_levels(leak):
        # |1> decays to |0>; |2> reaches it only through the leak |1><2|
        unit = np.eye(3, dtype=complex)
        collapses = [(1.0, np.outer(unit[0], unit[1]))]
        if leak:
            collapses.append((leak, np.outer(unit[1], unit[2])))
        return ops.LindbladModel(np.zeros((3, 3), dtype=complex),
                                 tuple(collapses))

    @pytest.mark.parametrize("leak", [0.0, 1e-13])
    def test_two_dark_levels_degenerate(self, leak):
        with pytest.raises(DegenerateSteadyState):
            ops.steady_state(self.two_dark_levels(leak))

    def test_small_leak_unique(self):
        rho = ops.steady_state(self.two_dark_levels(1e-3))
        assert np.allclose(rho, ops.fock_dm(3, 0), atol=1e-10)


class TestTwoTimeCorrelation:
    def test_vacuum_correlation_vanishes(self):
        model = damped_cavity(3)
        rho = ops.steady_state(model)
        a = ops.destroy(3)
        dev = a @ rho + rho @ a.conj().T
        tau = np.linspace(0.0, 3.0, 7)
        corr = ops.two_time_correlation(model, ops.quad_x(3), dev, tau)
        assert np.max(np.abs(corr)) < 1e-12

    def test_tau_zero_is_direct_trace(self):
        model = atom_decay()
        rho = 0.6 * ops.fock_dm(2, 0) + 0.4 * ops.fock_dm(2, 1)
        sm = ops.sigma_minus()
        dev = sm @ rho + rho @ sm.conj().T
        corr = ops.two_time_correlation(model, ops.sigma_x(), dev, [0.0])
        assert abs(corr[0] - np.trace(ops.sigma_x() @ dev)) < 1e-12

    def test_non_uniform_grid_matches_scipy_expm(self):
        model = parametric(10)
        rho = ops.steady_state(model)
        x = ops.quad_x(10)
        tau = np.array([0.0, 0.1, 0.15, 0.15, 0.7, 2.0, 2.05])
        corr = ops.two_time_correlation(model, x, x @ rho, tau)
        dev = ops._vec(x @ rho)
        want = np.array([np.trace(x @ ops._unvec(
            dense_propagator(model, t) @ dev, 10)) for t in tau])
        assert np.max(np.abs(corr - want)) <= 1e-12 * np.max(np.abs(want))

    def test_empty_grid(self):
        corr = ops.two_time_correlation(atom_decay(), ops.sigma_x(),
                                        ops.sigma_x(), [])
        assert corr.shape == (0,)

    def test_exponential_decay_rate(self):
        # sigma_x deviation under plain decay relaxes at gamma_x = 1/2
        model = atom_decay()
        tau = np.linspace(0.0, 4.0, 21)
        dev = 0.5 * ops.sigma_x() @ np.eye(2) + 0j
        corr = ops.two_time_correlation(model, ops.sigma_x(), dev, tau)
        rate = np.polyfit(tau, np.log(np.real(corr)), 1)[0]
        assert abs(rate + 0.5) < 1e-6


class TestInvariants:
    def test_squeezed_bath_nm_zero_equals_decay(self):
        dim = 6
        plain = damped_cavity(dim)
        bath = squeezed_bath_model(0.0, 0.0, dim)
        rho0 = ops.fock_dm(dim, 2)
        a = ops.evolve(plain, rho0, 1.2)
        b = ops.evolve(bath, rho0, 1.2)
        assert np.max(np.abs(a - b)) < 1e-10

    def test_truncation_warning(self):
        dim = 4
        # drive population to the top of the truncated space
        h = 2.0 * ops.quad_x(dim) + 0j
        model = ops.LindbladModel(h, ((1.0, ops.destroy(dim)),))
        with pytest.warns(Warning):
            ops.evolve(model, ops.fock_dm(dim, 0), 3.0, watch_truncation=True)
