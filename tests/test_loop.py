"""Closed-form loop spectra, Nyquist stability, optimal gains."""

import tracemalloc

import numpy as np
import pytest

from qfeedback import loop, qnd
from qfeedback.errors import (
    DegenerateSplit,
    MarginalStability,
    NyquistUnresolved,
    UnstableLoop,
)


def pole_filter(g, gamma=1.0, T=0.0):
    return loop.LoopFilter(g, loop.SinglePole(gamma), T)


def coherent(eta1=1.0, eta2=0.5):
    return loop.FeedbackBeamline(beta=1.0, eta1=eta1, eta2=eta2)


def jumping_transfer(filt, omega, extra=None):
    """A loop transfer whose locus - 1 steps in phase by 2 rad at omega = 1:
    every refinement of the Nyquist grid leaves one interval that jumps."""
    omega = np.asarray(omega, dtype=float)
    return 1.0 + np.exp(2j * (omega >= 1.0))


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

    def test_single_pole_ft_exact_at_zero(self):
        # 1 / (1 + i omega / gamma) is exactly 1 at omega = 0, so L(0) = g
        for gamma in np.random.default_rng(20).uniform(0.01, 10.0, 5000):
            assert loop.SinglePole(gamma).ft(0.0) == 1.0
        assert loop.loop_transfer(pole_filter(0.999999999, 0.83127), 0.0) \
            == 0.999999999

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

    @pytest.mark.parametrize("x", [1e-10, 1e-8, 1e-6])
    def test_sampled_ft_small_omega_dt(self, x):
        # the transform of a box of unit area over [k dt, (k + 1) dt) is
        # e^{-i omega k dt} (1 - e^{-i x}) / (i x), x = omega dt; expm1 keeps
        # 1 - e^{-i x} exact to rounding where the subtraction cancels
        dt = 0.01
        h = np.array([0.5, 0.0, 2.0])
        resp = loop.Sampled(h, dt)
        omega = x / dt
        box = -np.expm1(-1j * x) / (1j * x)
        taps = np.exp(-1j * omega * dt * np.arange(3)) @ resp.h * dt
        exact = box * taps
        assert abs(resp.ft(omega) - exact) <= 1e-15 * abs(exact)
        assert abs(resp.ft(np.array([omega]))[0] - exact) <= 1e-15 * abs(exact)

    def test_high_frequency_bound(self):
        # |omega| |h~(omega)| <= ft_bound: the bound behind the cut of the
        # Nyquist contour; a Sampled bound is within 1.06 of the maximum
        # over one period of omega (it exceeds it by at most
        # 1 / (1 - N pi / n) ~ 1.05 at n = 64 (N + 1) points)
        rng = np.random.default_rng(9)
        omega = np.concatenate([-np.geomspace(1e-3, 1e6, 400),
                                np.geomspace(1e-3, 1e6, 400)])
        responses = [loop.SinglePole(gamma) for gamma in (0.01, 1.0, 300.0)]
        for _ in range(20):
            taps = int(rng.integers(1, 300))
            h = rng.random(taps) * (rng.random(taps) < 0.5)
            h[rng.integers(taps)] += 0.1
            responses.append(loop.Sampled(h, 10 ** rng.uniform(-3, 0)))
        for resp in responses:
            bound = np.abs(omega) * np.abs(resp.ft(omega))
            assert np.all(bound <= resp.ft_bound * (1 + 1e-12))
            if isinstance(resp, loop.Sampled):
                period = np.linspace(0.0, 2.0 * np.pi / resp.dt, 1 << 16)
                peak = np.max(period * np.abs(resp.ft(period)))
                assert peak <= resp.ft_bound <= 1.06 * peak

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

    @staticmethod
    def critical_gain(gamma, T):
        """g_c = -sqrt(1 + (zeta / (gamma T))^2), zeta in (pi/2, pi) solving
        tan zeta = -zeta / (gamma T): the delayed single-pole loop is stable
        iff g_c < g < 1 (Hayes), found by bisection on
        gamma T sin zeta + zeta cos zeta, which falls from gamma T to -pi."""
        lo, hi = 0.5 * np.pi, np.pi
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if gamma * T * np.sin(mid) + mid * np.cos(mid) > 0:
                lo = mid
            else:
                hi = mid
        return -np.sqrt(1.0 + (0.5 * (lo + hi) / (gamma * T)) ** 2)

    def test_delayed_single_pole_boundary(self):
        self.check_boundary()

    @staticmethod
    def verdicts(filt):
        """is_stable's verdict (Hayes' closed form for a single pole) and
        that of the Nyquist contour, counted by _nyquist_winding itself."""
        return loop.is_stable(filt), loop._nyquist_winding(filt) == 0

    def check_boundary(self):
        # three ways: Hayes in is_stable, the contour, and critical_gain
        for gamma in (0.01, 0.1, 1.0, 10.0):
            for T in (1e-3, 0.01, 0.1, 1.0, 10.0):
                g_c = self.critical_gain(gamma, T)
                assert abs(loop._critical_gain(gamma * T) - g_c) \
                    <= 1e-13 * abs(g_c)
                for eps in (1e-3, 1e-6):
                    inside = pole_filter(g_c * (1 - eps), gamma, T)
                    outside = pole_filter(g_c * (1 + eps), gamma, T)
                    assert self.verdicts(inside) == (True, True)
                    assert self.verdicts(outside) == (False, False)

    def test_random_single_poles_match_critical_gain(self):
        self.check_random_single_poles()

    def check_random_single_poles(self):
        # 26 of these have the contour cut 2 |g| gamma beyond
        # 100 max(gamma, 1, 1/T), far past the loop's own rates
        rng = np.random.default_rng(16)
        for _ in range(150):
            gamma = 10 ** rng.uniform(-1.5, 1.5)
            T = 10 ** rng.uniform(-2.0, 1.0)
            g = rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(0.0, np.log10(400))
            g_c = self.critical_gain(gamma, T)
            want = g_c < g < 1
            assert self.verdicts(pole_filter(g, gamma, T)) == (want, want)

    def test_boundary_in_small_contour_chunks(self, monkeypatch):
        # every contour spans many chunks, each refined on its own
        monkeypatch.setattr(loop, "_CONTOUR_CHUNK", 97)
        self.check_boundary()

    def test_random_single_poles_in_small_contour_chunks(self, monkeypatch):
        monkeypatch.setattr(loop, "_CONTOUR_CHUNK", 97)
        self.check_random_single_poles()

    def test_single_poles_never_sample_a_contour(self, monkeypatch):
        # is_stable judges every single pole without extra by Hayes' form
        def no_contour(*args, **kwargs):
            raise AssertionError("the Nyquist contour was sampled")

        monkeypatch.setattr(loop, "loop_transfer", no_contour)
        assert loop.is_stable(pole_filter(-10.0, 0.1, 1.0))
        assert not loop.is_stable(pole_filter(-10.0, 1.0, 1.0))
        assert loop.is_stable(pole_filter(-1e4, 1.0, 0.0))

    def test_critical_gain_limits(self):
        # -inf without delay, about -pi / (2 gamma T) for a short one, and
        # -1 for a long one, where every |g| < 1 is stable and no other
        assert loop._critical_gain(0.0) == -np.inf
        for gamma_t in (1e-6, 1e-9, 1e-300):
            g_c = loop._critical_gain(gamma_t)
            assert abs(g_c * gamma_t / (-0.5 * np.pi) - 1.0) < 2.0 * gamma_t
        assert loop._critical_gain(1e9) == -1.0
        assert loop._critical_gain(np.inf) == -1.0

    def test_long_contour_memory_is_bounded(self):
        # cut 2 |g| gamma = 6000 at spacing pi / 160: about 3e5 samples
        # before refinement, counted a chunk at a time
        g, gamma, T = -300.0, 10.0, 40.0
        tracemalloc.start()
        try:
            stable = loop._nyquist_winding(pole_filter(g, gamma, T)) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stable == (self.critical_gain(gamma, T) < g < 1)
        assert peak < 12e6

    @staticmethod
    def unique_contour(cut, lag):
        """The contour's chunks merged by np.unique: the reference."""
        spacing = np.pi / (4.0 * lag) if lag > 0 else 0.0
        n_lin = int(np.ceil(cut / spacing)) if lag > 0 else 1
        geom = np.geomspace(cut * 1e-9, cut, 3000)
        i = j = 0
        while i < n_lin or j < len(geom):
            lin = np.arange(i, min(i + loop._CONTOUR_CHUNK, n_lin)) * spacing
            log = geom[j:j + loop._CONTOUR_CHUNK]
            chunk = np.unique(np.concatenate([lin, log]))[:loop._CONTOUR_CHUNK]
            i += np.count_nonzero(lin <= chunk[-1])
            j += np.count_nonzero(log <= chunk[-1])
            yield chunk

    @pytest.mark.parametrize("chunk", [97, None])
    @pytest.mark.parametrize("cut, lag", [(1.0, 0.0), (20.0, 0.1),
                                          (500.0, 3.0), (6000.0, 40.0),
                                          (2.0, 1e3)])
    def test_contour_chunks_match_unique(self, cut, lag, chunk, monkeypatch):
        if chunk:
            monkeypatch.setattr(loop, "_CONTOUR_CHUNK", chunk)
        got, want = list(loop._contour(cut, lag)), list(
            self.unique_contour(cut, lag))
        assert len(got) == len(want)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_contour_drops_repeated_samples(self, monkeypatch):
        # a log grid on the linear one's samples 1, ..., 3000: every
        # sample both grids share appears once
        monkeypatch.setattr(loop, "_CONTOUR_CHUNK", 97)
        monkeypatch.setattr(np, "geomspace",
                            lambda lo, hi, n: np.arange(1.0, n + 1))
        got = np.concatenate(list(loop._contour(3000.0, np.pi / 4)))
        assert np.array_equal(got, np.arange(3001.0))
        assert all(np.array_equal(a, b) for a, b in zip(
            loop._contour(3000.0, np.pi / 4),
            self.unique_contour(3000.0, np.pi / 4)))

    def test_unit_gain_with_delay_is_marginal(self):
        # gains within CRITICAL_TOL of 1 are marginal too, as the T = 0 shortcut
        for g in (1.0, 1.0 - 1e-10, 1.0 + 1e-10):
            for T in (0.1, 1.0):
                with pytest.raises(MarginalStability):
                    loop.is_stable(pole_filter(g, 1.0, T))
        with pytest.raises(MarginalStability):
            loop.is_stable(loop.LoopFilter(1.0, loop.Sampled(np.ones(5), 0.1),
                                           0.5))

    @pytest.mark.parametrize("gamma, T", [(1.0, 1.0), (0.1, 1e-4),
                                          (10.0, 100.0)])
    def test_critical_gain_is_marginal(self, gamma, T):
        # within CRITICAL_TOL |g_c| of g_c, where |1 - L| at the crossing
        # frequency is about |g - g_c| / |g_c|, and a verdict just outside
        g_c = loop._critical_gain(gamma * T)
        for rel in (0.0, 0.5e-9, -0.5e-9):
            with pytest.raises(MarginalStability):
                loop.is_stable(pole_filter(g_c * (1 + rel), gamma, T))
        assert loop.is_stable(pole_filter(g_c * (1 - 2e-9), gamma, T))
        assert not loop.is_stable(pole_filter(g_c * (1 + 2e-9), gamma, T))

    def test_unresolved_contour_is_not_marginal(self, monkeypatch):
        # a sampled response still takes the contour through is_stable
        monkeypatch.setattr(loop, "loop_transfer", jumping_transfer)
        sampled = loop.LoopFilter(-2.0, loop.Sampled([1.0, 0.5], 0.1), 0.1)
        for judge in (loop.is_stable, loop._nyquist_winding):
            with pytest.raises(NyquistUnresolved) as err:
                judge(sampled)
            assert not isinstance(err.value, MarginalStability)
        with pytest.raises(NyquistUnresolved):
            loop._nyquist_winding(pole_filter(-2.0, 1.0, 0.1))

    def test_extra_must_have_unit_area(self):
        pair = qnd.QndParams(1.0, 2.0, 1.0).pair_response
        filt = pole_filter(-10.0, 0.05, 0.1)
        assert loop.is_stable(filt, extra=pair)
        with pytest.raises(ValueError, match="unit-area"):
            loop.is_stable(filt, extra=lambda w: 2.0 * pair(w))


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
        for spectrum in (loop.in_loop_spectrum, loop.out_of_loop_spectrum,
                         loop.in_loop_qnd_spectrum):
            with pytest.raises(DegenerateSplit):
                spectrum(coherent(eta2=0.0), pole_filter(-1.0), [0.0])


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


    def test_input_below_uncertainty_product_rejected(self):
        bl = loop.FeedbackBeamline(beta=1.0, eta1=1.0, eta2=0.5,
                                   s0x=0.5, s0y=1.0)
        with pytest.raises(ValueError, match="s0x \\* s0y >= 1"):
            loop.optimal_gain_for_input(bl, 0.0)


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
