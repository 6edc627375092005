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
        lt = loop.loop_transfer(fb_small.filter, omega,
                                extra=fb_small.qnd.pair_response)
        pure = 1.0 / np.abs(1.0 - lt) ** 2
        assert np.max(np.abs(sx.values - pure)) < 1e-5
