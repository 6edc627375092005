"""Closed-form loop spectra, Nyquist stability, optimal gains."""

import numpy as np
import pytest

from qfeedback import loop
from qfeedback.errors import DegenerateSplit, MarginalStability, UnstableLoop


def pole_filter(g, gamma=1.0, T=0.0):
    return loop.LoopFilter(g, loop.SinglePole(gamma), T)


def coherent(eta1=1.0, eta2=0.5):
    return loop.FeedbackBeamline(beta=1.0, eta1=eta1, eta2=eta2)


class TestLoopTransfer:
    def test_dc_value_is_gain(self):
        lt = loop.loop_transfer(pole_filter(-3.0, gamma=2.0), 0.0)
        assert abs(lt - (-3.0)) < 1e-14

    def test_single_pole_form(self):
        g, gamma, T = -2.0, 0.7, 0.3
        omega = np.array([0.0, 0.5, 2.0])
        lt = loop.loop_transfer(pole_filter(g, gamma, T), omega)
        expected = g * gamma / (gamma + 1j * omega) * np.exp(-1j * omega * T)
        assert np.allclose(lt, expected, atol=1e-14)

    def test_sampled_box_null(self):
        w = 1.0
        dt = w / 4096
        box = loop.Sampled(np.ones(4096), dt)
        filt = loop.LoopFilter(1.0, box, 0.0)
        lt = loop.loop_transfer(filt, 2.0 * np.pi / w)
        assert abs(lt) < 1e-9

    def test_sampled_ft_matches_direct_sum(self):
        rng = np.random.default_rng(5)
        dt = 0.01
        resp = loop.Sampled(rng.random(200), dt)
        omega = np.concatenate([[0.0], np.linspace(-700.0, 700.0, 1001)])
        k = np.arange(200)
        direct = np.exp(-1j * omega[:, None] * k[None, :] * dt) @ resp.h
        with np.errstate(invalid="ignore", divide="ignore"):
            box = np.where(omega == 0.0, dt,
                           (1 - np.exp(-1j * omega * dt)) / (1j * omega))
        assert np.max(np.abs(resp.ft(omega) - box * direct)) < 1e-12

    def test_sampled_normalization(self):
        box = loop.Sampled(np.full(100, 7.0), 0.01)
        assert abs(np.sum(box.h) * box.dt - 1.0) < 1e-9


class TestIsStable:
    def test_small_gain_always_stable(self):
        for g in (0.9, -0.99, 0.5):
            for T in (0.0, 1.0, 10.0):
                assert loop.is_stable(pole_filter(g, 1.0, T))

    def test_gain_above_one_unstable(self):
        assert not loop.is_stable(pole_filter(1.5, 1.0, 0.0))
        assert not loop.is_stable(pole_filter(1.5, 0.3, 2.0))

    def test_delayed_negative_gain(self):
        assert not loop.is_stable(pole_filter(-10.0, 1.0, 1.0))
        assert loop.is_stable(pole_filter(-10.0, 0.1, 1.0))

    def test_no_delay_negative_gain_stable(self):
        # without delay a negative-gain single-pole loop is always stable
        assert loop.is_stable(pole_filter(-1e4, 1.0, 0.0))


class TestMaxBandwidth:
    def test_paper_value(self):
        assert abs(loop.max_bandwidth(-10.0, 1.0) - np.pi / 10.0) < 1e-14

    def test_substitution(self):
        assert abs(loop.max_bandwidth(-1.0, np.pi) - 1.0) < 1e-14

    def test_scaling_and_sentinel(self):
        assert loop.max_bandwidth(-2.0, 1.0) == 0.5 * loop.max_bandwidth(-1.0, 1.0)
        assert loop.max_bandwidth(-1.0, 0.0) == np.inf


class TestInLoopSpectrum:
    def test_dc_suppression_factor(self):
        for g in (-0.5, -4.0):
            s = loop.in_loop_spectrum(coherent(), pole_filter(g), [0.0])
            assert abs(s.values[0] - 1.0 / (1.0 - g) ** 2) < 1e-12

    def test_open_loop(self):
        bl = loop.FeedbackBeamline(beta=1.0, eta1=0.9, eta2=0.6, s0x=3.0)
        s = loop.in_loop_spectrum(bl, pole_filter(0.0), [0.0, 1.0])
        assert np.allclose(s.values, 1.0 + 0.9 * 0.6 * 2.0)

    def test_g_minus_four(self):
        s = loop.in_loop_spectrum(coherent(), pole_filter(-4.0), [0.0])
        assert abs(s.values[0] - 0.04) < 1e-12

    def test_unstable_raises(self):
        with pytest.raises(UnstableLoop):
            loop.in_loop_spectrum(coherent(), pole_filter(1.5), [0.0])


class TestOutOfLoopSpectrum:
    def test_large_gain_floor(self):
        for eta2 in (0.5, 0.9):
            bl = coherent(eta2=eta2)
            s = loop.out_of_loop_spectrum(bl, pole_filter(-1e4), [0.0])
            assert abs(s.values[0] - 1.0 / eta2) < 1e-3

    def test_open_loop_coherent_is_one(self):
        s = loop.out_of_loop_spectrum(coherent(), pole_filter(0.0), [0.0, 2.0])
        assert np.allclose(s.values, 1.0, atol=1e-14)

    def test_always_above_shot_noise(self):
        omega = np.linspace(-5, 5, 101)
        for g in (-0.3, -2.0, -30.0):
            s = loop.out_of_loop_spectrum(coherent(), pole_filter(g), omega)
            assert np.all(s.values >= 1.0 - 1e-12)


class TestPhaseSpectra:
    def test_coherent_flat(self):
        s2y, s3y = loop.phase_spectra(coherent(), np.linspace(-2, 2, 9))
        assert np.allclose(s2y.values, 1.0)
        assert np.allclose(s3y.values, 1.0)

    def test_substitution(self):
        bl = loop.FeedbackBeamline(beta=1.0, eta1=1.0, eta2=0.5,
                                   s0x=1.0, s0y=3.0)
        s2y, s3y = loop.phase_spectra(bl, [0.0])
        assert abs(s2y.values[0] - 2.0) < 1e-14
        assert abs(s3y.values[0] - 2.0) < 1e-14

    def test_independent_of_gain(self):
        omega = np.linspace(-3, 3, 11)
        a = loop.phase_spectra(coherent(), omega)
        b = loop.phase_spectra(coherent(), omega)
        assert np.array_equal(a[0].values, b[0].values)


class TestInLoopQndSpectrum:
    def test_large_gain_dc(self):
        s = loop.in_loop_qnd_spectrum(coherent(eta2=0.8), pole_filter(-1e4), [0.0])
        assert abs(s.values[0] - (1.0 - 0.8) / 0.8) < 1e-3

    def test_optimal_gain_minimum(self):
        for eta2 in (0.3, 0.5, 0.95):
            g_opt = -eta2 / (1.0 - eta2)
            s = loop.in_loop_qnd_spectrum(coherent(eta2=eta2),
                                          pole_filter(g_opt), [0.0])
            assert abs(s.values[0] - (1.0 - eta2)) < 1e-12

    def test_half_split_boundary(self):
        s = loop.in_loop_qnd_spectrum(coherent(eta2=0.5), pole_filter(-1e4), [0.0])
        assert abs(s.values[0] - 1.0) < 1e-3

    def test_eta2_zero_degenerate(self):
        with pytest.raises(DegenerateSplit):
            loop.in_loop_qnd_spectrum(coherent(eta2=0.0), pole_filter(-1.0), [0.0])


class TestOptimalGainForInput:
    def test_squeezed_input_positive_gain(self):
        bl = loop.FeedbackBeamline(beta=1.0, eta1=1.0, eta2=0.5,
                                   s0x=0.5, s0y=2.5)
        transfer, _ = loop.optimal_gain_for_input(bl, 0.0)
        assert transfer.real > 0

    def test_coherent_nothing_to_do(self):
        transfer, s3 = loop.optimal_gain_for_input(coherent(), 0.0)
        assert transfer == 0
        assert abs(s3 - 1.0) < 1e-14

    def test_perfect_recovery(self):
        bl = loop.FeedbackBeamline(beta=1.0, eta1=1.0, eta2=0.3,
                                   s0x=1e-9, s0y=1e9)
        _, s3 = loop.optimal_gain_for_input(bl, 0.0)
        assert s3 < 1e-6


class TestCommutatorFactor:
    def test_open_loop(self):
        assert abs(loop.commutator_factor(pole_filter(0.0), 0.5) - 1.0) < 1e-14

    def test_dc_half(self):
        assert abs(loop.commutator_factor(pole_filter(-1.0), 0.0) - 0.5) < 1e-14

    def test_matches_s2x_s2y_product(self):
        omega = np.linspace(-3, 3, 13)
        filt = pole_filter(-2.0)
        fac = loop.commutator_factor(filt, omega)
        s2x = loop.in_loop_spectrum(coherent(), filt, omega)
        s2y, _ = loop.phase_spectra(coherent(), omega)
        assert np.allclose(np.abs(fac) ** 2, s2x.values * s2y.values, atol=1e-12)


class TestBeamlineValidation:
    def test_free_field_uncertainty_enforced(self):
        bl = loop.FeedbackBeamline(beta=1.0, eta1=1.0, eta2=0.5,
                                   s0x=0.5, s0y=1.0)
        with pytest.raises(ValueError):
            bl.input_spectra(np.array([0.0]))

    def test_golden_section_minimum(self):
        # S1x(0) over g has its unique minimum at g_opt
        eta2 = 0.7
        bl = coherent(eta2=eta2)

        def s1(g):
            return loop.in_loop_qnd_spectrum(bl, pole_filter(g), [0.0]).values[0]

        lo, hi = -10.0, 0.0
        phi = (np.sqrt(5.0) - 1.0) / 2.0
        while hi - lo > 1e-10:
            m1 = hi - phi * (hi - lo)
            m2 = lo + phi * (hi - lo)
            if s1(m1) < s1(m2):
                hi = m2
            else:
                lo = m1
        g_min = 0.5 * (lo + hi)
        assert abs(g_min - (-eta2 / (1.0 - eta2))) < 1e-7
