"""Two-mode QND cavity transfer functions and feedback spectra."""

import numpy as np
import pytest

from qfeedback import loop, qnd
from qfeedback.errors import MarginalStability, UnstableLoop


def params(kappa=1.0, gamma=1.0, chi=2.0):
    return qnd.QndParams(kappa, gamma, chi)


class TestQuadratureTransfer:
    def test_probe_x_unit_magnitude(self):
        p = params()
        omega = np.linspace(-10, 10, 41)
        xb, _ = qnd.quadrature_transfer(p, omega)
        assert np.allclose(np.abs(xb[..., 0, 0]), 1.0, atol=1e-12)
        # non-demolition: probe X picks up nothing from the meter input
        assert np.allclose(xb[..., 0, 1], 0.0)

    def test_low_frequency_measurement_gain(self):
        p = params(chi=50.0)   # Q = 200
        q = p.q_factor
        xb, _ = qnd.quadrature_transfer(p, 1e-4)
        assert abs(xb[1, 0] - (-q)) / q < 1e-3

    def test_low_frequency_backaction(self):
        p = params(chi=50.0)
        q = p.q_factor
        _, yb = qnd.quadrature_transfer(p, 1e-4)
        assert abs(yb[0, 1] - q) / q < 1e-3

    def test_gains_are_the_pair_response(self):
        p = params(kappa=3.0, gamma=0.5, chi=1.5)
        omega = np.linspace(-6, 6, 25)
        xb, yb = qnd.quadrature_transfer(p, omega)
        qp = p.q_factor * p.pair_response(omega)
        assert np.array_equal(xb[..., 1, 0], -qp)
        assert np.array_equal(yb[..., 0, 1], qp)

    def test_pair_response_is_the_pole_cascade(self):
        # the transform of the cascade of pair_poles = (kappa/2, gamma/2)
        p = params(kappa=3.0, gamma=0.5, chi=1.5)
        assert p.pair_poles == (1.5, 0.25)
        omega = np.linspace(-6, 6, 25)
        direct = 1.5 / ((3.0 + 2j * omega) * (0.5 + 2j * omega))
        assert np.allclose(p.pair_response(omega), direct, rtol=1e-15, atol=0)
        assert p.pair_response(0.0) == 1.0

    def test_q_factor(self):
        p = qnd.QndParams(4.0, 1.0, 3.0)
        assert abs(p.q_factor - 6.0) < 1e-14


class TestFeedbackSpectra:
    def filt(self, g, gamma_f=0.05, T=0.0):
        return loop.LoopFilter(g, loop.SinglePole(gamma_f), T)

    def test_open_loop(self):
        fb = qnd.QndFeedbackParams(params(), self.filt(0.0))
        omega = np.linspace(-4, 4, 33)
        sx, sy = qnd.qnd_feedback_output_spectra(fb, omega)
        assert np.allclose(sx.values, 1.0, atol=1e-12)
        p = params().pair_response(omega)
        assert np.allclose(
            sy.values, 1.0 + np.abs(params().q_factor * p) ** 2, atol=1e-12)

    def test_large_gain_floor(self):
        # narrowband electronic filter keeps the big-gain loop Nyquist-stable;
        # the limit is reached inside the filter band where |g h p| >> 1
        fb = qnd.QndFeedbackParams(params(), self.filt(-1e4, gamma_f=1e-6))
        omega = np.array([5e-7, 1e-6, 2e-6])
        sx, _ = qnd.qnd_feedback_output_spectra(fb, omega)
        floor = qnd.large_gain_limit(fb, omega)
        assert np.all(np.abs(sx.values - floor) / floor < 1e-3)

    def test_uncertainty_product(self):
        rng = np.random.default_rng(17)
        count = 0
        while count < 200:
            kappa, gamma, chi = rng.uniform(0.1, 10.0, 3)
            g = rng.uniform(-50.0, 0.99)
            fb = qnd.QndFeedbackParams(params(kappa, gamma, chi),
                                       self.filt(g, gamma_f=rng.uniform(0.01, 5)))
            omega = rng.uniform(-20, 20, 11)
            sx, sy = qnd.qnd_feedback_output_spectra(fb, omega,
                                                     check_stability=False)
            assert np.all(sx.values * sy.values >= 1.0 - 1e-12)
            count += 1

    def test_unstable_loop_raises(self):
        fb = qnd.QndFeedbackParams(params(),
                                   self.filt(-1e4, gamma_f=1.0, T=0.0))
        with pytest.raises(UnstableLoop):
            qnd.qnd_feedback_output_spectra(fb, np.array([0.0]))

    def test_marginal_without_stability_check(self):
        # at g = 1 and omega = 0 the loop transfer is exactly 1: the one
        # marginal guard holds with the Nyquist test switched off
        fb = qnd.QndFeedbackParams(params(), self.filt(1.0))
        with pytest.raises(MarginalStability):
            qnd.qnd_feedback_output_spectra(fb, np.array([0.0, 1.0]),
                                            check_stability=False)

    def test_large_q_limit(self):
        # added measurement noise vanishes as Q^-2
        fb_small = qnd.QndFeedbackParams(params(chi=500.0), self.filt(-0.5))
        omega = np.linspace(-2, 2, 21)
        sx, _ = qnd.qnd_feedback_output_spectra(fb_small, omega)
        lt = loop.loop_transfer(fb_small.filter, omega, fb_small.qnd.pair_poles)
        pure = 1.0 / np.abs(1.0 - lt) ** 2
        assert np.max(np.abs(sx.values - pure)) < 1e-5


def closed_loop_by_solve(fb, omega):
    """S_out_x and S_out_y from quadrature_transfer's blocks, the loop solved
    numerically at each omega. Unknowns u = (X_b,in, X_b,out, X_d,out) driven
    by the free probe input X_f and the meter input X_d,in, both vacuum:
        X_b,in  = X_f + G X_d,out / (-Q)
        X_b,out = x_bb X_b,in + x_bd X_d,in
        X_d,out = x_db X_b,in + x_dd X_d,in
    The loop feeds back onto X only, so Y_b,in is vacuum."""
    x, y = qnd.quadrature_transfer(fb.qnd, omega)
    g = loop.loop_transfer(fb.filter, omega)
    q = fb.qnd.q_factor
    m = np.zeros(omega.shape + (3, 3), dtype=complex)
    b = np.zeros(omega.shape + (3, 2), dtype=complex)
    m[:, 0, 0], m[:, 0, 2], b[:, 0, 0] = 1.0, g / q, 1.0
    m[:, 1, 1], m[:, 1, 0], b[:, 1, 1] = 1.0, -x[:, 0, 0], x[:, 0, 1]
    m[:, 2, 2], m[:, 2, 0], b[:, 2, 1] = 1.0, -x[:, 1, 0], x[:, 1, 1]
    u = np.linalg.solve(m, b)
    sx = np.sum(np.abs(u[:, 1, :]) ** 2, axis=-1)
    sy = np.sum(np.abs(y[:, 0, :]) ** 2, axis=-1)
    return sx, sy


class TestComposition:
    """The output spectra are quadrature_transfer composed with the loop: the
    filter acts on the whole photocurrent, meter noise included."""

    def test_matches_independent_solve(self):
        rng = np.random.default_rng(29)
        count = 0
        while count < 40:
            kappa, gamma, chi = rng.uniform(0.1, 10.0, 3)
            filt = loop.LoopFilter(rng.uniform(-20.0, 0.9),
                                   loop.SinglePole(rng.uniform(0.01, 5.0)),
                                   rng.choice([0.0, rng.uniform(0.0, 0.5)]))
            fb = qnd.QndFeedbackParams(params(kappa, gamma, chi), filt)
            if not loop.is_stable(filt, fb.qnd.pair_poles):
                continue
            omega = rng.uniform(-20.0, 20.0, 16)
            sx, sy = qnd.qnd_feedback_output_spectra(fb, omega)
            ref_x, ref_y = closed_loop_by_solve(fb, omega)
            assert np.allclose(sx.values, ref_x, rtol=1e-12, atol=0)
            assert np.allclose(sy.values, ref_y, rtol=1e-12, atol=0)
            count += 1

    def test_out_of_band_leaves_the_beam_alone(self):
        # a 1e-3 filter passes 1e-3 / omega of the photocurrent above its
        # band, so the loop neither squeezes nor adds meter noise there
        fb = qnd.QndFeedbackParams(
            params(), loop.LoopFilter(-10.0, loop.SinglePole(1e-3)))
        sx, _ = qnd.qnd_feedback_output_spectra(fb, np.array([2.0, 5.0, 20.0]))
        assert np.all(np.abs(sx.values - 1.0) < 1e-3)

    def test_floor_is_measurement_noise(self):
        # acceptance criterion 5's large-gain setup
        fb = qnd.QndFeedbackParams(
            params(), loop.LoopFilter(-1e4, loop.SinglePole(1e-6)))
        omega = np.array([5e-7, 1e-6, 2e-6])
        floor = qnd.large_gain_limit(fb, omega)
        q = fb.qnd.q_factor
        expected = 1.0 / np.abs(q * fb.qnd.pair_response(omega)) ** 2
        assert np.allclose(floor, expected, rtol=1e-14, atol=0)
        assert np.all(np.abs(floor * q ** 2 - 1.0) < 1e-6)
