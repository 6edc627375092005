"""Semiclassical Monte Carlo loop and PSD estimator."""

import numpy as np
import pytest

from qfeedback import loop, semiclassical as sc
from qfeedback.errors import (
    DivergenceDetected,
    SemiclassicalInexpressible,
    TooShort,
    UnstableLoop,
)


def make_sim(g=0.0, gamma=1.0, T=0.0, eta1=1.0, eta2=0.5, noise=None,
             dt=0.01, duration=400.0, seed=123):
    s0x = noise.spectrum if noise is not None else 1.0
    bl = loop.FeedbackBeamline(beta=1.0, eta1=eta1, eta2=eta2, s0x=s0x)
    filt = loop.LoopFilter(g, loop.SinglePole(gamma), T)
    return sc.SemiclassicalSim(beamline=bl, filter=filt, dt=dt,
                               duration=duration, seed=seed,
                               classical_noise=noise)


class TestSimulate:
    def test_open_loop_shot_noise(self):
        rec = sc.simulate(make_sim(g=0.0))
        # delta I / sqrt(I) should be unit white noise: binned variance ~ 1
        var = np.var(rec.di2) * rec.dt
        n = len(rec.di2)
        assert abs(var - 1.0) < 3.0 * np.sqrt(2.0 / n)

    def test_deterministic_reruns(self):
        a = sc.simulate(make_sim(g=-1.0, seed=9))
        b = sc.simulate(make_sim(g=-1.0, seed=9))
        assert np.array_equal(a.di2, b.di2)
        assert np.array_equal(a.di3, b.di3)

    def test_dc_suppression_psd(self):
        rec = sc.simulate(make_sim(g=-4.0, gamma=0.1, dt=0.05,
                                   duration=60000.0, seed=21))
        psd = sc.estimate_psd(rec.di2, rec.dt, 64)
        sel = np.abs(psd.omega) < 0.01
        target = 1.0 / 25.0
        err = np.mean(psd.stderr[sel]) / np.sqrt(np.sum(sel))
        assert abs(np.mean(psd.values[sel]) - target) < 3.0 * err

    def test_unstable_raises(self):
        with pytest.raises(UnstableLoop):
            sc.simulate(make_sim(g=-10.0, gamma=1.0, T=1.0, dt=0.002,
                                 duration=200.0))

    def test_noise_cross_independence(self):
        rec = sc.simulate(make_sim(g=0.0, eta1=0.0, seed=5))
        r = np.corrcoef(rec.di2, rec.di3)[0, 1]
        assert abs(r) < 4.0 / np.sqrt(len(rec.di2))


class TestClassicalNoise:
    def test_spectrum_shape(self):
        cn = sc.ClassicalNoise(2.0, 0.5)
        assert abs(cn.spectrum(0.0) - 3.0) < 1e-14
        assert abs(cn.spectrum(1e6) - 1.0) < 1e-9

    def test_squeezed_input_rejected(self):
        with pytest.raises(SemiclassicalInexpressible):
            sc.ClassicalNoise(-0.5, 1.0)

    def test_simulated_noise_matches_spectrum(self):
        cn = sc.ClassicalNoise(4.0, 0.5)
        rec = sc.simulate(make_sim(g=0.0, eta1=1.0, eta2=1.0, noise=cn,
                                   duration=20000.0, dt=0.02, seed=77))
        psd = sc.estimate_psd(rec.di2, rec.dt, 48)
        sel = np.abs(psd.omega) < 2.0
        expected = cn.spectrum(psd.omega[sel])
        dev = np.abs(psd.values[sel] - expected) / psd.stderr[sel]
        assert np.mean(dev < 3.0) > 0.9


class TestDiverges:
    def test_agrees_with_nyquist(self):
        cases = [(-10.0, 1.0, 1.0), (-10.0, 0.1, 1.0), (0.5, 1.0, 3.0),
                 (1.5, 1.0, 0.0), (-3.0, 2.0, 0.2)]
        for g, gamma, T in cases:
            filt = loop.LoopFilter(g, loop.SinglePole(gamma), T)
            dt = min(1.0 / gamma, T if T > 0 else 1.0) / 50.0
            assert sc.diverges(filt, dt, 400.0) == (not loop.is_stable(filt))


class TestEstimatePsd:
    def test_white_noise_normalization(self):
        rng = np.random.default_rng(11)
        dt = 0.1
        series = rng.standard_normal(200000) / np.sqrt(dt)
        psd = sc.estimate_psd(series, dt, 32)
        assert abs(np.mean(psd.values) - 1.0) < 0.02
        dev = np.abs(psd.values - 1.0) / psd.stderr
        assert np.mean(dev < 3.0) > 0.95

    def test_sine_peak(self):
        dt = 0.01
        t = np.arange(100000) * dt
        w0 = 3.0
        series = np.sin(w0 * t)
        psd = sc.estimate_psd(series, dt, 16)
        peak = psd.omega[np.argmax(psd.values)]
        assert abs(abs(peak) - w0) < 0.1

    @pytest.mark.parametrize("n, k", [(600, 8), (1000, 8), (10 ** 6, 64)])
    def test_window_count_matches_scipy(self, n, k):
        # an impulse at sample nperseg // 2 lies in the first Welch window
        # only (the next starts at nperseg - nperseg // 2, where the Hann
        # window of an even nperseg is exactly 0), so every density value is
        # w[nperseg // 2]^2 / sum(w^2) over the number of windows averaged
        from scipy import signal
        nperseg = sc.welch_segment_length(n, k)
        series = np.zeros(n)
        series[nperseg // 2] = 1.0
        psd = sc.estimate_psd(series, 1.0, k)
        w = signal.get_window("hann", nperseg)
        averaged = w[nperseg // 2] ** 2 / np.sum(w ** 2) / psd.values
        assert np.allclose(averaged, averaged[0], rtol=1e-9)
        count = int(round(averaged[0]))
        assert sc.welch_window_count(n, k) == count
        assert np.allclose(psd.stderr, psd.values * np.sqrt(1.06 / count),
                           rtol=1e-15, atol=0)

    def test_too_short(self):
        with pytest.raises(TooShort):
            sc.estimate_psd(np.zeros(32), 0.1, 64)


class TestAgainstClosedForms:
    @pytest.mark.parametrize("g,gamma,T,eta1,eta2,excess", [
        (-2.0, 1.0, 0.0, 1.0, 0.5, 0.0),
        (-0.8, 0.5, 0.5, 0.9, 0.7, 2.0),
        (0.6, 1.0, 0.0, 1.0, 0.4, 1.0),
    ])
    def test_psd_matches_quantum_spectra(self, g, gamma, T, eta1, eta2, excess):
        noise = sc.ClassicalNoise(excess, 0.5) if excess else None
        sim = make_sim(g=g, gamma=gamma, T=T, eta1=eta1, eta2=eta2,
                       noise=noise, dt=0.02, duration=20000.0, seed=31)
        rec = sc.simulate(sim)
        for series, closed in ((rec.di2, loop.in_loop_spectrum),
                               (rec.di3, loop.out_of_loop_spectrum)):
            psd = sc.estimate_psd(series, rec.dt, 48)
            sel = np.abs(psd.omega) < 3.0
            analytic = closed(sim.beamline, sim.filter, psd.omega[sel]).values
            dev = np.abs(psd.values[sel] - analytic) / psd.stderr[sel]
            assert np.mean(dev < 3.0) > 0.9
