"""Semiclassical Monte Carlo loop and PSD estimator."""

import warnings

import numpy as np
import pytest
from numpy.random import Generator, Philox
from scipy import signal

from qfeedback import loop, semiclassical as sc
from qfeedback.errors import (
    DivergenceDetected,
    MarginalStability,
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

    @pytest.mark.parametrize("noise", [None, sc.ClassicalNoise(2.0, 0.5)],
                             ids=["shot-noise", "classical-noise"])
    def test_matches_out_of_place_reference(self, noise):
        # simulate builds its arrays in place; the outputs must equal, bit
        # for bit, the out-of-place expressions on the same Philox draws
        sim = make_sim(g=-0.8, gamma=0.5, T=0.5, eta1=0.9, eta2=0.7,
                       noise=noise, dt=0.02, duration=2000.0, seed=31)
        rec = sc.simulate(sim)
        filt, dt = sim.filter, sim.dt
        burn = int(round(10.0 * sim._slowest_time() / dt))
        total = int(round(sim.duration / dt)) + burn
        rng = Generator(Philox(key=sim.seed))
        if noise is not None:
            decay = np.exp(-noise.pole * dt)
            var_ss = noise.excess * noise.pole / 2.0
            innov = rng.standard_normal(total)
            drive = np.sqrt(var_ss * (1.0 - decay ** 2)) * innov
            drive[0] += decay * np.sqrt(var_ss) * innov[0]
            x0 = sc._lfilter([1.0], [1.0, -decay], drive)
        else:
            x0 = np.zeros(total)
        xi2 = rng.standard_normal(total) / np.sqrt(dt)
        xi3 = rng.standard_normal(total) / np.sqrt(dt)
        eta1, eta2 = sim.beamline.eta1, sim.beamline.eta2
        s_in = np.sqrt(eta1 * eta2)
        s_out = np.sqrt(eta1 * (1.0 - eta2))
        g_out = filt.g * np.sqrt((1.0 - eta2) / eta2)
        y = sc._lfilter(*sc._loop_difference_eq(filt, dt), s_in * x0 + xi2)
        di2 = s_in * x0 + filt.g * y + xi2
        di3 = s_out * x0 + g_out * y + xi3
        assert np.array_equal(rec.di2, di2[burn:])
        assert np.array_equal(rec.di3, di3[burn:])

    @pytest.mark.parametrize("dt", [0.02, 0.001])
    def test_sampled_response_rejected(self, dt):
        # at dt = 0.02 the grid would be too coarse for the response and at
        # dt = 0.001 not its own: rejected once, for the response itself
        bl = loop.FeedbackBeamline(beta=1.0, eta1=1.0, eta2=0.5)
        filt = loop.LoopFilter(-1.0, loop.Sampled(np.ones(10), 0.02), 0.0)
        with pytest.raises(ValueError, match="single-pole loops only"):
            sc.SemiclassicalSim(beamline=bl, filter=filt, dt=dt,
                                duration=400.0, seed=1)

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

    def test_stability_map_raises_no_warnings(self):
        # criterion 4's grid: unstable loops overflow without a warning
        gains = (-12.0, -8.0, -4.0, -1.5, -0.8, 0.5, 1.5, 3.0, 6.0, 10.0)
        configs = ((1.0, 1.0), (0.1, 1.0), (1.0, 0.3), (2.0, 0.2), (1.0, 0.05))
        checked = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for gamma, T in configs:
                for g in gains:
                    filt = loop.LoopFilter(g, loop.SinglePole(gamma), T)
                    try:
                        stable = loop.is_stable(filt)
                    except MarginalStability:
                        continue
                    checked += 1
                    assert sc.diverges(filt, T / 64.0, 400.0) == (not stable)
        assert checked >= 45

    def test_decaying_impulse_response_has_no_subnormals(self):
        # criterion 4's g = -1.5, T = 0.05 loop: its exact impulse response
        # decays through the subnormal range (about 182 000 such samples),
        # as a full-length input and as [1.0] followed by zeros
        filt = loop.LoopFilter(-1.5, loop.SinglePole(1.0), 0.05)
        dt = 0.05 / 64.0
        impulse = np.zeros(int(round(400.0 / dt)))
        impulse[0] = 1.0
        b, a = sc._loop_difference_eq(filt, dt)
        for y in (sc._lfilter(b, a, impulse),
                  sc._lfilter(b, a, [1.0], len(impulse))):
            assert y.shape == impulse.shape
            subnormal = (y != 0.0) & (np.abs(y) < np.finfo(float).tiny)
            assert not np.any(subnormal)
            assert np.all(y[-len(y) // 4:] == 0.0)
        assert not sc.diverges(filt, dt, 400.0)

    def test_sampled_200_tap_agrees_with_nyquist(self):
        filt = loop.LoopFilter(-3.0, loop.Sampled(np.exp(-0.02 * np.arange(200)),
                                                  0.02), 0.2)
        assert sc.diverges(filt, 0.02, 400.0) == (not loop.is_stable(filt))

    def test_one_tap_box_recursion_lags_the_continuous_loop(self):
        # diverges runs the recursion y_n = g y_{n-1}, one sample of lag
        # more than the continuous loop is_stable judges: at g = -1.5 the
        # loop is stable and the recursion diverges
        filt = loop.LoopFilter(-1.5, loop.Sampled([1.0], 0.02), 0.0)
        assert loop.is_stable(filt)
        assert sc.diverges(filt, 0.02, 400.0)

    def test_sampled_loop_cut_far_past_its_rates(self):
        # the Nyquist cut 2 |g| ft_bound lies beyond 100 max(1/dt, 1, 1/T)
        filt = loop.LoopFilter(-80.0, loop.Sampled([1.0, 0.5, 0.25], 0.02),
                               0.1)
        assert 2.0 * 80.0 * filt.response.ft_bound > 100.0 / 0.02
        assert sc.diverges(filt, 0.02, 400.0) == (not loop.is_stable(filt))

    @pytest.mark.parametrize("dt, duration", [
        (0.0, 400.0), (-0.01, 400.0), (0.01, 0.02), (0.01, 0.0),
        (np.nan, 400.0), (0.01, np.nan), (0.01, np.inf), (np.inf, 400.0)])
    def test_bad_grid_rejected(self, dt, duration):
        # the message names the bad argument
        filt = loop.LoopFilter(-1.0, loop.SinglePole(1.0), 0.0)
        bad = "duration" if 0.0 < dt < np.inf else "dt"
        with pytest.raises(ValueError, match=f"^{bad} ") as err:
            sc.diverges(filt, dt, duration)
        assert type(err.value) is ValueError


class TestDelayGrid:
    @pytest.mark.parametrize("T, dt", [(0.205, 0.01), (0.215, 0.01),
                                       (0.5, 0.03), (1e-3, 0.01)])
    def test_fractional_delay_rejected(self, T, dt):
        filt = loop.LoopFilter(-1.0, loop.SinglePole(1.0), T)
        with pytest.raises(ValueError, match="whole number"):
            sc._loop_difference_eq(filt, dt)

    def test_fractional_delay_rejected_by_simulate(self):
        with pytest.raises(ValueError, match="whole number"):
            sc.simulate(make_sim(g=-1.0, T=0.205, dt=0.01))

    def test_oracle_and_map_grids_accepted(self):
        # criterion 3's delays and steps, criterion 4's T / 64 and the
        # sampled-response probe of the analysis workload
        grids = [(0.5, 0.02), (0.3, 0.015), (1.0, 0.02), (0.2, 0.02)]
        grids += [(T, T / 64.0) for T in (1.0, 0.3, 0.2, 0.05)]
        for T, dt in grids:
            filt = loop.LoopFilter(-1.0, loop.SinglePole(1.0), T)
            b, a = sc._loop_difference_eq(filt, dt)
            assert len(a) == int(round(T / dt)) + 2


def _reference_filters():
    """{name: (b, a, x)} cases for _lfilter against scipy.signal.lfilter."""
    noise = np.random.default_rng(8).standard_normal(20000)
    cases = []
    for d in (0, 25, 64):
        filt = loop.LoopFilter(-0.8, loop.SinglePole(1.0), d * 0.02)
        cases.append((f"pole_d{d}", *sc._loop_difference_eq(filt, 0.02), noise))
    sampled = loop.LoopFilter(-3.0, loop.Sampled(np.exp(-0.02 * np.arange(200)),
                                                 0.02), 0.2)
    cases.append(("sampled_200", *sc._loop_difference_eq(sampled, 0.02), noise))
    unstable = loop.LoopFilter(-4.0, loop.SinglePole(1.0), 1.0)
    impulse = np.zeros(25600)
    impulse[0] = 1.0
    cases.append(("unstable_impulse",
                  *sc._loop_difference_eq(unstable, 1.0 / 64.0), impulse))
    # a stable impulse response that decays below the flush level
    decaying = loop.LoopFilter(-1.5, loop.SinglePole(1.0), 0.05)
    impulse = np.zeros(512000)
    impulse[0] = 1.0
    cases.append(("decaying_impulse",
                  *sc._loop_difference_eq(decaying, 0.05 / 64.0), impulse))
    # shorter than one block, and for order 65 shorter than the order too
    cases.append(("short_order1", [0.3, 0.2], [1.0, -0.9], noise[:100]))
    _, b64, a64, _ = cases[2]
    cases.append(("short_order65", b64, a64, noise[:50]))
    return {name: case for name, *case in cases}


REFERENCE_FILTERS = _reference_filters()


class TestLfilter:
    @pytest.mark.parametrize("name", list(REFERENCE_FILTERS))
    def test_matches_scipy(self, name):
        b, a, x = REFERENCE_FILTERS[name]
        ref = signal.lfilter(b, a, x)
        y = sc._lfilter(b, a, x)
        assert y.shape == x.shape
        assert np.all(np.isfinite(ref))
        scale = np.max(np.abs(ref))
        if name == "unstable_impulse":
            assert 1e60 < scale < 1e80
        assert np.max(np.abs(y - ref)) <= 1e-12 * scale

    @pytest.mark.parametrize("name", [name for name in REFERENCE_FILTERS
                                      if name.endswith("_impulse")])
    def test_zero_input_tail_matches_scipy(self, name):
        # the impulse alone, followed by len(x) - 1 zeros
        b, a, x = REFERENCE_FILTERS[name]
        ref = signal.lfilter(b, a, x)
        y = sc._lfilter(b, a, [1.0], len(x))
        assert y.shape == x.shape
        assert np.max(np.abs(y - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("length", [300, 480, 50])
    def test_zero_input_tail_matches_padded_input(self, length):
        # order 65, m = 256: 300 samples end inside the second block; 480
        # also reach the p = 65 inputs the third block reads before it
        # starts; 50 are fewer than the order
        b, a, x = REFERENCE_FILTERS["pole_d64"]
        assert len(a) == 66
        short = x[:length]
        y = sc._lfilter(b, a, short, 20000)
        padded = sc._lfilter(b, a, np.pad(short, (0, 20000 - length)))
        assert y.shape == (20000,)
        assert np.max(np.abs(y - padded)) <= 1e-12 * np.max(np.abs(padded))

    def test_output_shorter_than_input_rejected(self):
        with pytest.raises(ValueError, match="shorter"):
            sc._lfilter([0.3, 0.2], [1.0, -0.9], np.ones(10), 9)

    def test_ou_initial_state_folds_into_first_sample(self):
        rng = np.random.default_rng(9)
        decay, x_init = np.exp(-0.5 * 0.02), 1.7
        drive = rng.standard_normal(3000)
        ref, _ = signal.lfilter([1.0], [1.0, -decay], drive,
                                zi=np.array([decay * x_init]))
        folded = drive.copy()
        folded[0] += decay * x_init
        y = sc._lfilter([1.0], [1.0, -decay], folded)
        assert np.max(np.abs(y - ref)) <= 1e-12 * np.max(np.abs(ref))


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

    @pytest.mark.parametrize("n, k", [(600, 8), (1000, 8), (1000, 13),
                                      (10 ** 6, 64)])
    def test_window_count_matches_scipy(self, n, k):
        # an impulse at sample nperseg // 2 lies in the first Welch window
        # only (the next starts at nperseg - nperseg // 2, where the Hann
        # window of an even nperseg is exactly 0), so every density value is
        # w[nperseg // 2]^2 / sum(w^2) over the number of windows averaged
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

    @pytest.mark.parametrize("shape, k", [((1000,), 8), ((1000,), 13),
                                          ((3, 2, 1000), 8), ((3, 2, 1000), 13)],
                             ids=["1d-even", "1d-odd", "stacked-even",
                                  "stacked-odd"])
    def test_matches_scipy_welch(self, shape, k):
        # k = 8 gives nperseg = 216 and k = 13 gives 128 (the ids name the
        # parity of k; every segment length is even)
        dt = 0.05
        series = np.random.default_rng(12).standard_normal(shape)
        nperseg = sc.welch_segment_length(shape[-1], k)
        freqs, pxx = signal.welch(
            series, fs=1.0 / dt, window="hann", nperseg=nperseg,
            noverlap=nperseg // 2, detrend=False, return_onesided=False,
            scaling="density", axis=-1)
        keep = np.nonzero(freqs >= 0)[0]
        keep = keep[np.argsort(freqs[keep])]
        psd = sc.estimate_psd(series, dt, k)
        assert psd.values.shape == shape[:-1] + (len(keep),)
        assert np.allclose(psd.omega, 2.0 * np.pi * freqs[keep],
                           rtol=1e-12, atol=0)
        assert np.allclose(psd.values, pxx[..., keep], rtol=1e-12, atol=0)

    def test_too_short(self):
        with pytest.raises(TooShort):
            sc.estimate_psd(np.zeros(32), 0.1, 64)


def _is_5_smooth(k):
    for q in (2, 3, 5):
        while k % q == 0:
            k //= q
    return k == 1


class TestWelchSegmentLength:
    @pytest.mark.parametrize("k", [1, 2, 3, 7, 8, 13, 48, 64, 255])
    def test_largest_5_smooth_below_the_fill_length(self, k):
        ns = list(range(1, 4000, 3)) + [20000, 10 ** 5 + 1, 10 ** 6, 10 ** 7 - 1]
        for n in ns:
            bound = int(2 * n / (k + 1))
            if bound < 8:
                with pytest.raises(TooShort):
                    sc.welch_segment_length(n, k)
                continue
            nperseg = sc.welch_segment_length(n, k)
            # the largest even 5-smooth length at most the bound
            assert nperseg % 2 == 0 and _is_5_smooth(nperseg)
            assert nperseg <= bound
            assert not any(_is_5_smooth(j)
                           for j in range(nperseg + 2, bound + 1, 2))
            # a shorter segment never averages fewer windows
            windows_at_bound = (n - bound) // (bound - bound // 2) + 1
            assert sc.welch_window_count(n, k) >= windows_at_bound

    def test_fast_length_at_a_million_samples(self):
        # the fill length 30769 = 29 * 1061 would put rfft on its slow path
        assert sc.welch_segment_length(10 ** 6, 64) == 30720
        # the semiclassical CLI default: 2000 / 0.01 samples, 64 segments
        assert sc.welch_segment_length(200000, 64) == 6144

    def test_at_least_the_requested_windows(self):
        # an odd 5-smooth length steps by (L + 1) / 2 and could fit one
        # window fewer (n = 3282, k = 8: L = 729, 7 windows); an even one
        # never does
        assert sc.welch_segment_length(3282, 8) == 720
        for k in (8, 13, 16, 32, 48, 64, 128):
            for n in range(100, 200001, 37):
                if int(2 * n / (k + 1)) < 8:
                    continue
                assert sc.welch_window_count(n, k) >= k, (n, k)


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
