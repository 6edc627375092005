"""Riccati conditioned variance, optimal feedback, the exact unconditioned
variance with and without delay, squeezed bath."""

import math

import numpy as np
import pytest

from literal_generators import master_equation_rhs, squeezed_bath_generator
from qfeedback import intracavity as ic, operators as ops
from qfeedback.errors import UnphysicalBath, UnstableLoop


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
        # homodyne U and QND V alike
        for p in (hom(l=0.3, theta=0.7, eta=0.9),
                  qnd(l=0.0, theta=0.3, strength=2.0)):
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
        with pytest.raises(UnstableLoop):
            ic.unconditioned_variance(p, -2.0)

    def test_no_classical_squeezing(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            p = hom(l=rng.uniform(0.0, 2.0), theta=0.0,
                    eta=rng.uniform(0.1, 1.0))
            lam = rng.uniform(-p.k0 + 1e-3, 3.0)
            assert ic.unconditioned_variance(p, lam) >= -1e-12
        # lambda^2 overflows: +inf, not NaN
        assert ic.unconditioned_variance(hom(theta=0.0), 1e200) >= -1e-12


class TestDelay:
    def test_no_delay(self):
        # at T = 0 the closed form is the Markovian
        # (k0 U0 + lambda^2 / 2 eta) / (k0 + lambda); that sum cancels near
        # U = 0, so the difference is measured against the size of its terms
        rng = np.random.default_rng(17)
        for _ in range(2000):
            p = hom(l=rng.uniform(0.0, 2.0), theta=rng.uniform(0.0, 0.99),
                    eta=rng.uniform(0.05, 1.0))
            lam = rng.uniform(-p.k0 + 1e-3, 3.0)
            k0, eta = p.k0, p.measurement.eta
            markov = ((k0 * ic.variance_no_feedback(p) + lam * lam / (2 * eta))
                      / (k0 + lam))
            size = (p.d0 + lam * lam / eta) / (2.0 * (k0 + lam))
            assert abs(ic.unconditioned_variance(p, lam) - markov) \
                < 1e-14 * size

    @pytest.mark.parametrize("theta, lam, delay", [
        (0.3, -0.3, 1.0),             # w real
        (0.3, 0.9, 0.5),              # w imaginary, |lambda| > k0
        (0.3, None, 0.7),             # w = 0: lambda = k0
        (ic.THETA_MAX, 2.0, 0.3)])    # k0 = 1 up to 5e-7
    def test_autocovariance_matches_quadrature(self, theta, lam, delay):
        # R(0) = (1/pi) int_0^inf |i w + k0 + lambda e^{-i w T}|^-2 dw, read
        # from the QND variance V = (D0 + lambda^2 / H) R(0) at l = 0, H = 1
        from scipy.integrate import quad
        p = qnd(l=0.0, theta=theta, strength=1.0)
        k0 = p.k0
        lam = k0 if lam is None else lam
        r0 = ic.unconditioned_variance(p, lam, delay) / (1.0 + lam * lam)
        def integrand(w):
            return abs(1j * w + k0 + lam * np.exp(-1j * w * delay)) ** -2

        ref = quad(integrand, 0.0, np.inf, limit=2000)[0] / math.pi
        assert abs(r0 - ref) < 1e-8

    def test_delayed_sme_tells_exact_from_first_order(self):
        # homodyne SME of the parametric cavity under feedback delayed by
        # T = 1 at lambda* = -0.3: the exact variance is -0.2401, the
        # first-order U_lambda (1 + lambda T) = -0.21. Each trajectory's
        # <x^2>_c, averaged over t >= 5, gives one estimate of U + 1 + <x>^2
        from qfeedback import trajectories as tj
        p = hom(l=0.0, theta=0.3, eta=1.0)
        lam, delay, dim = ic.optimal_lambda(p), 1.0, 8
        exact = ic.unconditioned_variance(p, lam, delay)
        assert abs(exact + 0.2401) < 1e-4
        cfg = tj.SmeConfig(
            model=ic.parametric_model(p, dim),
            detection=tj.HomodyneDiffusive(1.0), dt=2e-3, steps=10_000,
            seed=1000, snapshot_every=10,
            feedback=tj.Feedback(-0.5 * lam * ops.quad_y(dim),
                                 tj.Delayed(delay)))
        summary = tj.run_ensemble(cfg, 64, ops.fock_dm(dim, 0),
                                  keep_trajectories=True)
        assert summary.n_failed == 0
        late = summary.state_times >= 5.0
        states = np.array([r.states[late] for r in summary.trajectories])
        x = ops.quad_x(dim)
        mean_x = np.einsum("ntij,ji->nt", states, x).real
        mean_xx = np.einsum("ntij,ji->nt", states, x @ x).real
        per_traj = mean_xx.mean(axis=1) - mean_x.mean() ** 2 - 1.0
        u = per_traj.mean()
        stderr = per_traj.std(ddof=1) / math.sqrt(len(per_traj))
        assert abs(u - exact) < 4.0 * stderr
        assert abs(u - (-0.21)) > 8.0 * stderr


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

    def test_qnd_unconditioned_variance_is_the_steady_state(self):
        # QND: the monitored collapse sqrt(H)/2 x leads the parametric model,
        # and F = -(lam / (2 sqrt H)) y feeds back its current (eta = 1). At
        # lam* the steady state's x variance converges with d to V = V_c:
        # 0.453473 at d = 24 and 0.4532278 at d = 32
        from qfeedback import trajectories as tj
        h = 2.0
        p = qnd(l=0.0, theta=0.3, strength=h)
        dim = 32
        x, y = ops.quad_x(dim), ops.quad_y(dim)
        cavity = ic.parametric_model(p, dim)
        model = ops.LindbladModel(
            cavity.hamiltonian, ((1.0, 0.5 * math.sqrt(h) * x),
                                 *cavity.collapses))
        lam_star = ic.optimal_lambda(p)
        f_op = -(lam_star / (2.0 * math.sqrt(h))) * y
        rho = ops.steady_state(tj.feedback_master_equation(model, f_op, 1.0))
        v = ops.expect(x @ x, rho).real - ops.expect(x, rho).real ** 2
        assert abs(v - ic.unconditioned_variance(p, lam_star)) < 1e-5


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
