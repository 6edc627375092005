"""Riccati conditioned variance, optimal feedback, squeezed bath."""

import numpy as np
import pytest

from literal_generators import master_equation_rhs, squeezed_bath_generator
from qfeedback import intracavity as ic, operators as ops
from qfeedback.errors import DelayTooLarge, UnphysicalBath, UnstableMean


def hom(l=0.0, theta=0.5, eta=1.0):
    return ic.LinearCavityParams(l=l, theta=theta,
                                 measurement=ic.Homodyne(eta))


def qnd(l=0.0, theta=0.0, strength=1.0):
    return ic.LinearCavityParams(l=l, theta=theta,
                                 measurement=ic.Qnd(strength))


def conditioned_variance_rhs(params, u):
    """Riccati right-hand side -2 k0 U + c - s U^2 for the conditioned
    variance (see ic._riccati: homodyne U normally ordered, QND V symmetric
    ordered; the two coincide under (V - 1) -> V, eta -> H)."""
    s, c, _ = ic._riccati(params)
    return -2.0 * params.k0 * u + c - s * u * u


class TestVarianceNoFeedback:
    def test_threshold_limit(self):
        u = ic.variance_no_feedback(hom(theta=ic.THETA_MAX))
        assert abs(u + 0.5) < 1e-6

    def test_balanced(self):
        assert ic.variance_no_feedback(hom(l=0.3, theta=0.3)) == 0.0

    def test_substitution(self):
        assert abs(ic.variance_no_feedback(hom(l=1.0, theta=0.0)) - 1.0) < 1e-14


class TestConditionedVariance:
    def test_fixed_point_constant(self):
        p = hom(l=0.4, theta=0.6, eta=0.8)
        uss = ic.conditioned_variance_ss(p)
        t = np.linspace(0.0, 5.0, 11)
        series = ic.conditioned_variance_trajectory(p, uss, t)
        assert np.max(np.abs(series - uss)) < 1e-8

    def test_converges_to_closed_form(self):
        p = hom(theta=0.9, eta=1.0)
        t = np.linspace(0.0, 300.0, 151)
        series = ic.conditioned_variance_trajectory(p, 0.0, t)
        assert abs(series[-1] - ic.conditioned_variance_ss(p)) < 1e-6

    def test_riccati_root(self):
        for p in (hom(l=0.5, theta=0.7, eta=0.6), qnd(l=1.0, strength=3.0)):
            uss = ic.conditioned_variance_ss(p)
            assert abs(conditioned_variance_rhs(p, uss)) < 1e-12

    def test_attracting_root(self):
        p = hom(l=0.5, theta=0.7, eta=0.6)
        uss = ic.conditioned_variance_ss(p)
        t = np.linspace(0.0, 30.0, 31)
        for du in (0.1, -0.1):
            s = ic.conditioned_variance_trajectory(p, uss + du, t)
            assert abs(s[-1] - uss) < 1e-8

    @pytest.mark.parametrize("p", [hom(l=0.4, theta=0.6, eta=0.8),
                                   hom(l=0.0, theta=0.3, eta=1.0),
                                   qnd(l=1.0, theta=0.2, strength=3.0),
                                   qnd(l=0.0, theta=0.5, strength=0.5)])
    def test_closed_form_matches_ode(self, p):
        # the exact solution against an adaptive ODE solve, for starts above
        # and below the attracting root, on a grid that does not start at 0
        from scipy.integrate import solve_ivp
        uss = ic.conditioned_variance_ss(p)
        lowest = -1.0 if isinstance(p.measurement, ic.Homodyne) else 0.0
        t = np.linspace(0.5, 10.5, 41)
        for u0 in (uss + 3.0, uss + 0.2, 0.5 * (lowest + uss), lowest):
            assert u0 != uss
            ref = solve_ivp(lambda _, y: conditioned_variance_rhs(p, y[0]),
                            (t[0], t[-1]), [u0], t_eval=t, rtol=1e-12,
                            atol=1e-14).y[0]
            series = ic.conditioned_variance_trajectory(p, u0, t)
            assert np.max(np.abs(series - ref)) < 1e-9

    def test_start_at_repelling_root(self):
        # eta = 1, l = theta = 0: dU/dt = -U (U + 1), so U = -1 stays put
        p = hom(l=0.0, theta=0.0, eta=1.0)
        series = ic.conditioned_variance_trajectory(p, -1.0,
                                                    np.linspace(0, 1e3, 11))
        assert np.array_equal(series, np.full(11, -1.0))

    @pytest.mark.parametrize("t", [np.linspace(0.0, -5.0, 11),
                                   np.array([0.0, 1.0, 0.5])])
    def test_descending_grid_rejected(self, t):
        # backwards from u_init = 0.5 the closed form falls below the
        # homodyne floor of -1 by t = -5
        with pytest.raises(ValueError, match="ascending"):
            ic.conditioned_variance_trajectory(hom(), 0.5, t)

    def test_repeated_times_allowed(self):
        series = ic.conditioned_variance_trajectory(hom(), 0.5,
                                                    [0.0, 1.0, 1.0])
        assert series[1] == series[2]

    def test_qnd_strong_measurement(self):
        p = ic.LinearCavityParams(l=0.0, theta=ic.THETA_MAX,
                                  measurement=ic.Qnd(1e6))
        assert ic.conditioned_variance_ss(p) < 1e-3

    def test_eta_to_zero_recovers_u0(self):
        p = hom(l=0.5, theta=0.3, eta=1e-6)
        assert abs(ic.conditioned_variance_ss(p)
                   - ic.variance_no_feedback(p)) < 1e-6

    def test_qnd_homodyne_substitution_identity(self):
        # the QND rhs in V is the homodyne rhs with (V - 1) -> V, eta -> H
        rng = np.random.default_rng(5)
        for _ in range(20):
            l, theta = rng.uniform(0, 2), rng.uniform(0, 0.9)
            h = rng.uniform(0.1, 5.0)
            v = rng.uniform(0.0, 3.0)
            p_q = ic.LinearCavityParams(l=l, theta=theta,
                                        measurement=ic.Qnd(h))
            k0, d0 = p_q.k0, p_q.d0
            lhs = conditioned_variance_rhs(p_q, v)
            rhs = -2.0 * k0 * v + d0 - h * v * v
            assert abs(lhs - rhs) < 1e-12


class TestOptimalLambda:
    def test_sign_follows_u0(self):
        assert ic.optimal_lambda(hom(l=0.0, theta=0.5)) < 0
        assert ic.optimal_lambda(hom(l=0.5, theta=0.5)) == 0.0
        assert ic.optimal_lambda(qnd(l=0.5)) > 0

    def test_golden_section_recovery(self):
        p = hom(l=0.2, theta=0.6, eta=0.8)
        lam_star = ic.optimal_lambda(p)
        phi = (np.sqrt(5.0) - 1.0) / 2.0
        lo, hi = -p.k0 + 1e-6, 2.0
        while hi - lo > 1e-12:
            m1 = hi - phi * (hi - lo)
            m2 = lo + phi * (hi - lo)
            if ic.unconditioned_variance(p, m1) < ic.unconditioned_variance(p, m2):
                hi = m2
            else:
                lo = m1
        assert abs(0.5 * (lo + hi) - lam_star) < 1e-8

    def test_optimum_equals_conditioned(self):
        p = hom(l=0.3, theta=0.7, eta=0.9)
        lam_star = ic.optimal_lambda(p)
        assert abs(ic.unconditioned_variance(p, lam_star)
                   - ic.conditioned_variance_ss(p)) < 1e-12


class TestUnconditionedVariance:
    def test_lambda_zero(self):
        p = hom(l=0.5, theta=0.2, eta=0.7)
        assert abs(ic.unconditioned_variance(p, 0.0)
                   - ic.variance_no_feedback(p)) < 1e-14

    def test_parametric_optimum(self):
        for theta in (0.2, 0.5, 0.9):
            p = hom(l=0.0, theta=theta, eta=1.0)
            lam_star = ic.optimal_lambda(p)
            assert abs(ic.unconditioned_variance(p, lam_star) + theta) < 1e-12

    def test_unstable_mean(self):
        p = hom(theta=0.5)
        with pytest.raises(UnstableMean):
            ic.unconditioned_variance(p, -2.0)

    def test_no_classical_squeezing(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            p = hom(l=rng.uniform(0.0, 2.0), theta=0.0,
                    eta=rng.uniform(0.1, 1.0))
            lam = rng.uniform(-p.k0 + 1e-3, 3.0)
            assert ic.unconditioned_variance(p, lam) >= -1e-12


class TestDelay:
    def test_no_delay(self):
        p = hom(l=0.2, theta=0.4)
        assert ic.variance_with_delay(p, -0.2, 0.0) == \
            ic.unconditioned_variance(p, -0.2)

    def test_short_delay_factor(self):
        p = hom(l=0.2, theta=0.4)
        assert abs(ic.variance_with_delay(p, -0.2, 0.1)
                   - ic.unconditioned_variance(p, -0.2) * 0.98) < 1e-14

    def test_too_large(self):
        with pytest.raises(DelayTooLarge):
            ic.variance_with_delay(hom(), -1.0, 0.6)


class TestUMin:
    def test_perfect_detection_threshold(self):
        p = hom(l=0.0, theta=ic.THETA_MAX, eta=1.0)
        assert ic.u_min(p) < -1.0 + 1e-5

    def test_u0_zero(self):
        assert abs(ic.u_min(hom(l=0.3, theta=0.3, eta=0.8))) < 1e-14

    def test_never_above_u0(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            p = hom(l=rng.uniform(0, 2), theta=rng.uniform(0, 0.99),
                    eta=rng.uniform(0.01, 1.0))
            assert ic.u_min(p) <= ic.variance_no_feedback(p) + 1e-12


class TestFeedbackMasterEquationBridge:
    @pytest.mark.parametrize("eta", [1.0, 0.8])
    def test_unconditioned_variance_is_the_steady_state(self, eta):
        # the steady state of the feedback master equation with F = -(lam/2) y
        # at d = 24 has x variance <x^2> - <x>^2 - 1 equal to the closed form
        # U_lam, for no feedback, lam* / 2, lam* and a destabilizing lam
        from qfeedback import trajectories as tj
        p = ic.LinearCavityParams(l=0.0, theta=0.3,
                                  measurement=ic.Homodyne(eta))
        dim = 24
        model = ic.parametric_model(p, dim)
        x, y = ops.quad_x(dim), ops.quad_y(dim)
        lam_star = ic.optimal_lambda(p)
        for lam in (0.0, lam_star / 2.0, lam_star, -0.2):
            rho = ops.steady_state(
                tj.feedback_master_equation(model, -0.5 * lam * y, eta))
            u = (ops.expect(x @ x, rho).real - ops.expect(x, rho).real ** 2
                 - 1.0)
            assert abs(u - ic.unconditioned_variance(p, lam)) < 1e-12


class TestSqueezedBath:
    def test_nm_zero_plain_decay(self):
        model = ic.squeezed_bath_model(0.0, 0.0, 5)
        assert len(model.collapses) == 1
        rate, op = model.collapses[0]
        assert abs(rate - 1.0) < 1e-12
        assert np.allclose(np.abs(op), np.abs(ops.destroy(5)), atol=1e-12)

    def test_matches_literal_generator(self):
        model = ic.squeezed_bath_model(1.0, np.sqrt(2.0), 6)
        for rho in (ops.fock_dm(6, 0), ops.fock_dm(6, 2)):
            lhs = master_equation_rhs(model, rho)
            rhs = squeezed_bath_generator(1.0, np.sqrt(2.0), 6, rho)
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_unphysical(self):
        with pytest.raises(UnphysicalBath):
            ic.squeezed_bath_model(1.0, 2.0, 4)


class TestParametricModel:
    def test_moderate_theta_variance(self):
        # full-quantum steady state reproduces the Gaussian U0
        p = hom(l=0.0, theta=0.3)
        model = ic.parametric_model(p, 20)
        rho = ops.steady_state(model)
        x = ops.quad_x(20)
        vx = ops.expect(x @ x, rho).real - ops.expect(x, rho).real ** 2
        assert abs((vx - 1.0) - ic.variance_no_feedback(p)) < 1e-6
