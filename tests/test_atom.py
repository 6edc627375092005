"""In-loop atom: feedback master equation, decay rates, line narrowing."""

import math

import numpy as np
import pytest

from literal_generators import master_equation_rhs
from qfeedback import atom_squash as at, operators as ops
from qfeedback.errors import NegativePrefactor, UnreachableSqueezing


REF = at.AtomLoopParams.from_lambda(0.8, 0.95, -0.8 * 0.95)


def fitted_rate(model, direction, t1=1.0, t2=3.0):
    """Exponential decay rate of a transverse Bloch component."""
    rho0 = 0.5 * (np.eye(2, dtype=complex) + 0.8 * direction)
    v1 = ops.expect(direction, ops.evolve(model, rho0, t1)).real
    v2 = ops.expect(direction, ops.evolve(model, rho0, t2)).real
    return -(math.log(abs(v2)) - math.log(abs(v1))) / (t2 - t1)


class TestParams:
    def test_lambda_from_gain(self):
        p = at.AtomLoopParams(eta_mm=0.8, eps=1.0, g=-0.5)
        assert abs(p.lam - (-0.5 * 0.8 / 1.5)) < 1e-14

    def test_from_lambda_roundtrip(self):
        p = at.AtomLoopParams.from_lambda(0.7, 0.9, -0.4)
        assert abs(p.lam - (-0.4)) < 1e-12

    def test_lambda_floor(self):
        with pytest.raises(ValueError):
            at.AtomLoopParams.from_lambda(0.8, 1.0, -0.85)

    def test_gain_cap(self):
        with pytest.raises(ValueError):
            at.AtomLoopParams(0.8, 1.0, 1.0)


class TestFeedbackMasterEquation:
    def test_lambda_zero_plain_decay(self):
        p = at.AtomLoopParams(0.8, 0.95, 0.0)
        model = at.atom_feedback_master_equation(p)
        plain = ops.LindbladModel(np.zeros((2, 2), dtype=complex),
                                  ((1.0, ops.sigma_minus()),))
        assert np.max(np.abs(model.liouvillian - plain.liouvillian)) < 1e-14

    def test_matches_literal_generator(self):
        p = REF
        model = at.atom_feedback_master_equation(p)
        lam, he = p.lam, p.eta_mm * p.eps
        sm = ops.sigma_minus()
        sy2 = 0.5 * ops.sigma_y()
        rng = np.random.default_rng(2)
        for _ in range(5):
            r = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            rho = r @ r.conj().T
            rho = rho / np.trace(rho)
            m = sm @ rho + rho @ sm.conj().T
            expected = (ops.superop_D(sm, rho)
                        - 1j * lam * (sy2 @ m - m @ sy2)
                        + (lam * lam / he) * ops.superop_D(sy2, rho))
            assert np.max(np.abs(master_equation_rhs(model, rho)
                                 - expected)) < 1e-12

    def test_bloch_steady_state(self):
        for p in (REF, at.AtomLoopParams.from_lambda(0.6, 0.8, -0.3)):
            rho = ops.steady_state(at.atom_feedback_master_equation(p))
            sx, sy, sz = at.steady_state_bloch(p)
            assert abs(ops.expect(ops.sigma_x(), rho).real - sx) < 1e-8
            assert abs(ops.expect(ops.sigma_y(), rho).real - sy) < 1e-8
            assert abs(ops.expect(ops.sigma_z(), rho).real - sz) < 1e-8


class TestDecayRates:
    def test_lambda_zero_rates(self):
        p = at.AtomLoopParams(0.9, 0.9, 0.0)
        assert at.decay_rates(p) == (0.5, 0.5, 1.0, 1.0)

    def test_reference_point(self):
        gx, gy, gz, c = at.decay_rates(REF)
        assert abs(gx - 0.12) < 1e-12
        assert gy == 0.5
        assert abs(gz - 0.62) < 1e-12
        assert abs(c - 0.24) < 1e-12

    def test_minimum_gamma_x(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            eta, eps = rng.uniform(0.1, 1.0, 2)
            p_min = at.AtomLoopParams.from_lambda(eta, eps, -eta * eps)
            gx_min = at.decay_rates(p_min)[0]
            assert abs(gx_min - 0.5 * (1.0 - eta * eps)) < 1e-12
            lam = rng.uniform(-eta * eps, 0.5)
            p = at.AtomLoopParams.from_lambda(eta, eps, lam)
            assert at.decay_rates(p)[0] >= gx_min - 1e-12

    def test_gamma_z_never_below_pump(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            eta, eps = rng.uniform(0.1, 1.0, 2)
            lam = rng.uniform(-eta * eps * 0.999, 1.0)
            gx, gy, gz, c = at.decay_rates(
                at.AtomLoopParams.from_lambda(eta, eps, lam))
            assert gz - c >= -1e-15

    def test_fitted_rates_match(self):
        model = at.atom_feedback_master_equation(REF)
        gx, gy, _, _ = at.decay_rates(REF)
        assert abs(fitted_rate(model, ops.sigma_x()) - gx) < 1e-6
        assert abs(fitted_rate(model, ops.sigma_y()) - gy) < 1e-6


class TestInLoopSpectrum:
    def test_formula_identity(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            eta, eps = rng.uniform(0.1, 1.0, 2)
            lam = rng.uniform(-eta * eps * 0.999, 1.0)
            p = at.AtomLoopParams.from_lambda(eta, eps, lam)
            s = at.in_loop_spectrum_from_lambda(p)
            expected = 1.0 + 2.0 * lam / eta + lam * lam / (eta * eta * eps)
            assert abs(s - expected) < 1e-12

    def test_minimum_value(self):
        for eta, eps in ((0.8, 0.95), (0.5, 0.7), (0.9, 0.8)):
            p = at.AtomLoopParams.from_lambda(eta, eps, -eta * eps)
            assert abs(at.in_loop_spectrum_from_lambda(p) - (1.0 - eps)) < 1e-12

    def test_lambda_for_spectrum_roundtrip(self):
        eta, eps = 0.8, 0.95
        for s in (1.0, 0.5, 1.0 - eps + 1e-3):
            lam = at.lambda_for_spectrum(eta, eps, s)
            p = at.AtomLoopParams.from_lambda(eta, eps, lam)
            assert abs(at.in_loop_spectrum_from_lambda(p) - s) < 1e-12

    def test_unreachable(self):
        with pytest.raises(UnreachableSqueezing):
            at.lambda_for_spectrum(0.8, 0.95, 0.04)


class TestFluorescenceSpectrum:
    def test_lambda_zero_dark(self):
        p = at.AtomLoopParams(0.8, 0.95, 0.0)
        s = at.fluorescence_spectrum(p, np.linspace(-5, 5, 21))
        assert np.allclose(s.values, 0.0, atol=1e-15)

    def test_two_lorentzian_form(self):
        omega = np.linspace(-5.0, 5.0, 41)
        gx, gy, gz, c = at.decay_rates(REF)
        s = at.fluorescence_spectrum(REF, omega)
        pref = (1.0 - REF.eta_mm) * (gz - c) / (8.0 * math.pi * gz)
        expected = pref * (gx / (gx ** 2 + omega ** 2)
                           + gy / (gy ** 2 + omega ** 2))
        assert np.max(np.abs(s.values - expected)) < 1e-12
        assert np.all(s.values >= 0.0)

    def test_negative_prefactor_guard(self):
        with pytest.raises(NegativePrefactor):
            at._two_lorentzian_power(0.5, 0.5, 0.5, 1.0, 1.1, [0.0])


class TestFreeSqueezing:
    def test_l_one_is_vacuum(self):
        model, rates = at.free_squeezing_model(at.FreeSqueezeParams(0.8, 1.0))
        assert rates[:2] == (0.5, 0.5)
        plain = ops.LindbladModel(np.zeros((2, 2), dtype=complex),
                                  ((1.0, ops.sigma_minus()),))
        assert np.max(np.abs(model.liouvillian - plain.liouvillian)) < 1e-12

    def test_reference_rates(self):
        model, rates = at.free_squeezing_model(at.FreeSqueezeParams(0.8, 0.05))
        assert abs(rates[0] - 0.12) < 1e-12
        assert abs(rates[1] - 8.1) < 1e-12
        assert abs(fitted_rate(model, ops.sigma_x()) - 0.12) < 1e-6
        assert abs(fitted_rate(model, ops.sigma_y(), 0.1, 0.5) - 8.1) < 1e-6


class TestComparison:
    def test_s_equal_one_identical(self):
        cmp = at.compare_inloop_free(0.8, 1.0, 0.95)
        assert abs(cmp.lam) < 1e-14
        assert np.allclose(cmp.inloop_power, cmp.free_power, atol=1e-15)
        assert abs(cmp.inloop_rates[0] - cmp.free_rates[0]) < 1e-12

    def test_gamma_x_coincide_gamma_y_narrower(self):
        eta, eps = 0.8, 0.95
        for s in np.linspace(1.0 - eps + 1e-3, 1.0, 9):
            cmp = at.compare_inloop_free(eta, s, eps)
            assert abs(cmp.inloop_rates[0] - cmp.free_rates[0]) < 1e-12
            assert cmp.inloop_rates[1] == 0.5
            assert cmp.free_rates[1] >= 0.5 - 1e-15

    def test_reference_comparison(self):
        # S just above the 1 - eps floor: gamma_x near its minimum 0.12
        cmp = at.compare_inloop_free(0.8, 0.06, 0.95)
        assert abs(cmp.inloop_rates[0] - 0.12) < 0.01
        assert cmp.free_rates[1] > 6.0
