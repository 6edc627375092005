"""Operator algebra, superoperators, master-equation integration."""

import numpy as np
import pytest

from qfeedback import operators as ops
from qfeedback.errors import (
    DegenerateSteadyState,
    DimensionMismatch,
)
from qfeedback.intracavity import squeezed_bath_model


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
        # sprepost is np.kron(b^T, a) bit for bit, for any memory layout, and
        # the dissipator matrix acts on vec(rho) as superop_D acts on rho
        rng = np.random.default_rng(4)
        a, b, rho = rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4))
        for x, y in ((a, b), (a.T, b.conj().T)):
            assert np.array_equal(ops.sprepost(x, y), np.kron(y.T, x))
            assert np.array_equal(ops.spre(x), np.kron(np.eye(4), x))
            assert np.array_equal(ops.spost(x), np.kron(x.T, np.eye(4)))
        got = ops.dissipator(a) @ rho.reshape(-1, order="F")
        want = ops.superop_D(a, rho).reshape(-1, order="F")
        assert np.max(np.abs(got - want)) < 1e-13


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
