"""Acceptance criteria: one test per criterion, one printed pass/fail line.

Each test prints ``ACCEPTANCE <n> <name>: PASS|FAIL (<elapsed>s)`` and then
asserts, so the summary of a verbose run shows the ten verdicts.
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from literal_generators import superop_D
from qfeedback import (
    atom_squash as at,
    intracavity as ic,
    loop,
    operators as ops,
    qnd,
    semiclassical as sc,
    trajectories as tj,
)
from qfeedback.errors import MarginalStability


def _report(num, name, ok, t0, budget):
    elapsed = time.monotonic() - t0
    verdict = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {num} {name}: {verdict} ({elapsed:.1f}s, budget {budget}s)")
    assert ok
    assert elapsed < budget


def pole_filter(g, gamma=1.0, T=0.0):
    return loop.LoopFilter(g, loop.SinglePole(gamma), T)


def cavity(dim):
    return ops.LindbladModel(np.zeros((dim, dim), dtype=complex),
                             ((1.0, ops.destroy(dim)),))


def atom_decay():
    return ops.LindbladModel(np.zeros((2, 2), dtype=complex),
                             ((1.0, ops.sigma_minus()),))


def test_criterion_1_in_loop_optimum():
    t0 = time.monotonic()
    ok = True
    for eta2 in (0.3, 0.5, 0.8, 0.95):
        bl = loop.FeedbackBeamline(beta=1.0, eta1=1.0, eta2=eta2)
        g_opt = -eta2 / (1.0 - eta2)
        s_opt = loop.in_loop_qnd_spectrum(bl, pole_filter(g_opt), [0.0]).values[0]
        ok &= abs(s_opt - (1.0 - eta2)) < 1e-12

        def s1(g):
            return loop.in_loop_qnd_spectrum(bl, pole_filter(g), [0.0]).values[0]

        res = minimize_scalar(s1, bounds=(5.0 * g_opt - 1.0, 0.0),
                              method="bounded",
                              options={"xatol": 1e-10})
        ok &= abs(res.fun - (1.0 - eta2)) < 1e-8
        ok &= abs(res.x - g_opt) < 1e-3 * (1.0 + abs(g_opt))
    _report(1, "in-loop optimum", ok, t0, 1.0)


def test_criterion_2_out_of_loop_floor():
    t0 = time.monotonic()
    ok = True
    for eta2 in (0.5, 0.9):
        bl = loop.FeedbackBeamline(beta=1.0, eta1=1.0, eta2=eta2)
        s3 = loop.out_of_loop_spectrum(bl, pole_filter(-1e4), [0.0]).values[0]
        ok &= abs(s3 - 1.0 / eta2) < 1e-3
    _report(2, "out-of-loop floor", ok, t0, 1.0)


def test_criterion_3_semiclassical_oracle():
    t0 = time.monotonic()
    # (g, gamma, T, eta1, eta2, excess, dt)
    tuples = [
        (-2.0, 1.0, 0.0, 1.0, 0.5, 0.0, 0.02),
        (-0.8, 0.5, 0.5, 0.9, 0.7, 2.0, 0.02),
        (0.6, 1.0, 0.0, 1.0, 0.4, 1.0, 0.02),
        (-4.0, 0.1, 0.0, 1.0, 0.5, 0.0, 0.02),
        (-1.5, 2.0, 0.3, 0.8, 0.9, 0.0, 0.015),
        (-0.5, 1.0, 1.0, 1.0, 0.3, 3.0, 0.02),
    ]
    ok = True
    for g, gamma, T, eta1, eta2, excess, dt in tuples:
        noise = sc.ClassicalNoise(excess, 0.5) if excess else None
        s0x = noise.spectrum if noise is not None else 1.0
        bl = loop.FeedbackBeamline(beta=1.0, eta1=eta1, eta2=eta2, s0x=s0x)
        filt = pole_filter(g, gamma, T)
        sim = sc.SemiclassicalSim(beamline=bl, filter=filt, dt=dt,
                                  duration=1e6 * dt, seed=2024,
                                  classical_noise=noise)
        rec = sc.simulate(sim)
        for series, closed in ((rec.di2, loop.in_loop_spectrum),
                               (rec.di3, loop.out_of_loop_spectrum)):
            psd = sc.estimate_psd(series, rec.dt, 64)
            band = np.nonzero(psd.omega <= 3.0)[0]
            idx = band[np.linspace(0, len(band) - 1, 64).astype(int)]
            analytic = closed(bl, filt, psd.omega[idx]).values
            dev = np.abs(psd.values[idx] - analytic) / psd.stderr[idx]
            ok &= np.mean(dev < 3.0) >= 0.9
    _report(3, "semiclassical oracle", ok, t0, 120.0)


def test_criterion_4_stability_map():
    t0 = time.monotonic()
    gains = (-12.0, -8.0, -4.0, -1.5, -0.8, 0.5, 1.5, 3.0, 6.0, 10.0)
    configs = ((1.0, 1.0), (0.1, 1.0), (1.0, 0.3), (2.0, 0.2), (1.0, 0.05))
    checked, agreed = 0, 0
    for gamma, T in configs:
        dt = T / 64.0
        for g in gains:
            filt = pole_filter(g, gamma, T)
            try:
                nyquist_stable = loop.is_stable(filt)
            except MarginalStability:
                continue
            checked += 1
            if sc.diverges(filt, dt, 400.0) == (not nyquist_stable):
                agreed += 1
    ok = checked >= 45 and agreed == checked
    _report(4, "stability map", ok, t0, 60.0)


def test_criterion_5_qnd_uncertainty_and_floor():
    t0 = time.monotonic()
    rng = np.random.default_rng(2718)
    ok = True
    for _ in range(10_000):
        kappa, gamma, chi = rng.uniform(0.1, 10.0, 3)
        fb = qnd.QndFeedbackParams(
            qnd.QndParams(kappa, gamma, chi),
            pole_filter(rng.uniform(-50.0, 0.99), rng.uniform(0.01, 5.0)))
        omega = rng.uniform(-20.0, 20.0, 5)
        sx, sy = qnd.qnd_feedback_output_spectra(fb, omega,
                                                 check_stability=False)
        if not np.all(sx.values * sy.values >= 1.0 - 1e-12):
            ok = False
            break
    # big-gain limit, probed inside the narrow electronic filter band where
    # the open-loop transfer is still large at g = -1e4
    fb = qnd.QndFeedbackParams(qnd.QndParams(1.0, 1.0, 2.0),
                               pole_filter(-1e4, gamma=1e-6))
    omega = np.array([5e-7, 1e-6, 2e-6])
    sx, _ = qnd.qnd_feedback_output_spectra(fb, omega)
    floor = qnd.large_gain_limit(fb, omega)
    ok &= bool(np.all(np.abs(sx.values - floor) / floor < 1e-3))
    _report(5, "QND uncertainty product and floor", ok, t0, 10.0)


def _ensemble_vs_master_equation(model, detection, feedback, rho0, obs,
                                 target_model):
    cfg = tj.SmeConfig(model=model, detection=detection, dt=1e-3, steps=1000,
                       seed=909, feedback=feedback, snapshot_every=250)
    summary = tj.run_ensemble(cfg, 2000, rho0, keep_trajectories=True)
    ok = True
    for k, t in enumerate(summary.state_times):
        target = ops.expect(obs, ops.evolve(target_model, rho0, t)).real
        vals = np.array([ops.expect(obs, r.states[k]).real
                         for r in summary.trajectories])
        stderr = vals.std(ddof=1) / math.sqrt(len(vals))
        ok &= abs(vals.mean() - target) < 4.0 * stderr
    return ok


def test_criterion_6_unraveling_consistency():
    t0 = time.monotonic()
    eta = 0.8
    dim = 4
    cav, atm = cavity(dim), atom_decay()
    rho_cav, rho_atm = ops.fock_dm(dim, 1), ops.fock_dm(2, 1)
    n_op, sz = ops.number(dim), ops.sigma_z()
    f_cav = -0.15 * ops.quad_y(dim)
    f_atm = -0.2 * ops.sigma_y()
    cases = [
        (cav, tj.PhotonCounting(), None, rho_cav, n_op, cav),
        (atm, tj.PhotonCounting(), None, rho_atm, sz, atm),
        (cav, tj.HomodyneDiffusive(eta), None, rho_cav, n_op, cav),
        (atm, tj.HomodyneDiffusive(eta), None, rho_atm, sz, atm),
        (cav, tj.HomodyneDiffusive(eta), tj.Feedback(f_cav), rho_cav, n_op,
         tj.feedback_master_equation(cav, f_cav, eta)),
        (atm, tj.HomodyneDiffusive(eta), tj.Feedback(f_atm), rho_atm, sz,
         tj.feedback_master_equation(atm, f_atm, eta)),
    ]
    ok = all(_ensemble_vs_master_equation(*case) for case in cases)
    _report(6, "unraveling consistency", ok, t0, 300.0)


def test_criterion_7_feedback_master_equation_and_spectrum():
    t0 = time.monotonic()
    eta_mm, eps = 0.8, 0.95
    lam = -eta_mm * eps
    eta_det = eta_mm * eps
    f_op = 0.5 * lam * ops.sigma_y()
    params = at.AtomLoopParams.from_lambda(eta_mm, eps, lam)

    # entrywise agreement of the two constructions, and against the literal
    # central-equation generator applied to a matrix-unit basis
    model_a = tj.feedback_master_equation(atom_decay(), f_op, eta_det)
    model_b = at.atom_feedback_master_equation(params)
    ok = np.max(np.abs(model_a.liouvillian - model_b.liouvillian)) < 1e-12
    sm = ops.sigma_minus()
    sy2 = 0.5 * ops.sigma_y()
    manual = np.zeros((4, 4), dtype=complex)
    for j in range(4):
        e = np.zeros((2, 2), dtype=complex)
        e[j % 2, j // 2] = 1.0
        m = sm @ e + e @ sm.conj().T
        out = (superop_D(sm, e) - 1j * lam * (sy2 @ m - m @ sy2)
               + (lam * lam / eta_det) * superop_D(sy2, e))
        manual[:, j] = out.reshape(-1, order="F")
    ok &= np.max(np.abs(model_a.liouvillian - manual)) < 1e-12

    # corrected in-loop spectrum vs Monte Carlo PSD; naive formula must fail
    cfg = tj.SmeConfig(model=atom_decay(),
                       detection=tj.HomodyneDiffusive(eta_det), dt=2e-3,
                       steps=250_000, seed=99,
                       feedback=tj.Feedback(f_op), snapshot_every=250_000)
    summary = tj.run_ensemble(cfg, 64, ops.fock_dm(2, 0), psd_segments=8)
    sel = summary.psd.omega <= 2.0
    omega = summary.psd.omega[sel]
    mc, err = summary.psd.values[sel], summary.psd.stderr[sel]
    corrected = tj.in_loop_correlation_spectrum(
        model_a, sm, f_op, eta_det, omega, corrected=True).values
    naive = tj.in_loop_correlation_spectrum(
        model_a, sm, f_op, eta_det, omega, corrected=False).values
    dev_c = np.abs(mc - corrected) / err
    dev_n = np.abs(mc - naive) / err
    ok &= np.mean(dev_c < 3.0) >= 0.9
    ok &= dev_n[0] > 5.0
    _report(7, "feedback master equation and in-loop spectrum", ok, t0, 300.0)


def test_criterion_8_intracavity_squeezing():
    t0 = time.monotonic()
    ok = True

    def u0(theta):
        return ic.variance_no_feedback(
            ic.LinearCavityParams(l=0.0, theta=theta))

    # theta -> 1 limit via linear extrapolation of two near-threshold values
    t1, t2 = 1.0 - 1e-6, 1.0 - 2e-6
    ok &= abs((2.0 * u0(t1) - u0(t2)) - (-0.5)) < 1e-12

    # perfect detection: best unconditioned variance is -theta (= -theta/eta
    # at eta = 1), and the symmetric-ordered minimum is 1 - theta
    for theta in np.linspace(0.0, 0.95, 20):
        p = ic.LinearCavityParams(l=0.0, theta=theta,
                                  measurement=ic.Homodyne(1.0))
        ok &= abs(ic.u_min(p) - (-theta)) < 1e-12
        ok &= abs((1.0 + ic.u_min(p)) - (1.0 - theta)) < 1e-12

    # imperfect detection: the optimum coincides with the conditioned
    # steady-state variance, U_min = lambda*/eta, on the full (theta, eta) grid
    for theta in np.linspace(0.0, 0.95, 10):
        for eta in np.linspace(0.1, 1.0, 10):
            p = ic.LinearCavityParams(l=0.0, theta=theta,
                                      measurement=ic.Homodyne(eta))
            lam_star = ic.optimal_lambda(p)
            ok &= abs(ic.u_min(p) - lam_star / eta) < 1e-12
            ok &= abs(ic.unconditioned_variance(p, lam_star)
                      - ic.u_min(p)) < 1e-12

    # strong intracavity QND measurement
    p_q = ic.LinearCavityParams(l=0.0, theta=ic.THETA_MAX,
                                measurement=ic.Qnd(1e6))
    ok &= ic.conditioned_variance_ss(p_q) < 1e-3

    # classical noise only (U0 >= 0): feedback never squeezes
    rng = np.random.default_rng(31)
    for _ in range(1000):
        p = ic.LinearCavityParams(l=rng.uniform(0.0, 2.0), theta=0.0,
                                  measurement=ic.Homodyne(rng.uniform(0.05, 1.0)))
        lam = rng.uniform(-p.k0 + 1e-3, 3.0)
        ok &= ic.unconditioned_variance(p, lam) >= -1e-12
    _report(8, "intracavity squeezing", ok, t0, 10.0)


def test_criterion_9_atom_line_narrowing():
    t0 = time.monotonic()
    ok = True
    rng = np.random.default_rng(77)
    for _ in range(20):
        eta, eps = rng.uniform(0.1, 1.0, 2)
        p = at.AtomLoopParams.from_lambda(eta, eps, -eta * eps)
        ok &= abs(at.decay_rates(p)[0] - 0.5 * (1.0 - eta * eps)) < 1e-12

    ref = at.AtomLoopParams.from_lambda(0.8, 0.95, -0.8 * 0.95)
    gx, gy, gz, c = at.decay_rates(ref)
    ok &= abs(gx - 0.12) < 1e-12
    _, free_rates = at.free_squeezing_model(at.FreeSqueezeParams(0.8, 0.05))
    ok &= abs(gx - free_rates[0]) < 1e-12
    ok &= gy == 0.5 and abs(free_rates[1] - 8.1) < 1e-12

    # all three rates recovered from the evolving master equation
    model = at.atom_feedback_master_equation(ref)
    t1, t2 = 1.0, 3.0
    for direction, rate in ((ops.sigma_x(), gx), (ops.sigma_y(), gy)):
        rho0 = 0.5 * (np.eye(2, dtype=complex) + 0.8 * direction)
        v1 = ops.expect(direction, ops.evolve(model, rho0, t1)).real
        v2 = ops.expect(direction, ops.evolve(model, rho0, t2)).real
        fit = -(math.log(abs(v2)) - math.log(abs(v1))) / (t2 - t1)
        ok &= abs(fit - rate) < 1e-6
    sz_ss = at.steady_state_bloch(ref)[2]
    sz = ops.sigma_z()
    d1 = ops.expect(sz, ops.evolve(model, ops.fock_dm(2, 0), t1)).real - sz_ss
    d2 = ops.expect(sz, ops.evolve(model, ops.fock_dm(2, 0), t2)).real - sz_ss
    fit_z = -(math.log(abs(d2)) - math.log(abs(d1))) / (t2 - t1)
    ok &= abs(fit_z - gz) < 1e-6

    # fluorescence spectrum: sum of Lorentzians of widths gamma_x, gamma_y
    omega = np.linspace(-10.0, 10.0, 801)
    p_omega = at.fluorescence_spectrum(ref, omega).values
    pref = (1.0 - ref.eta_mm) * (gz - c) / (8.0 * math.pi * gz)
    expected = pref * (0.12 / (0.12 ** 2 + omega ** 2)
                       + 0.5 / (0.5 ** 2 + omega ** 2))
    ok &= np.max(np.abs(p_omega - expected)) < 1e-12
    _report(9, "atom line narrowing", ok, t0, 60.0)


def test_criterion_10_determinism():
    t0 = time.monotonic()
    cfg = tj.SmeConfig(model=atom_decay(),
                       detection=tj.HomodyneDiffusive(0.8), dt=2e-3,
                       steps=300, seed=4242,
                       feedback=tj.Feedback(-0.2 * ops.sigma_y()),
                       snapshot_every=100)
    rho0 = ops.fock_dm(2, 1)
    base = tj.run_ensemble(cfg, 90, rho0, keep_trajectories=True)
    ok = True
    # trajectories 0..k-1 of a batch of k equal those of the batch of 90
    for k in (1, 2, 5, 45):
        small = tj.run_ensemble(cfg, k, rho0, keep_trajectories=True)
        ok &= len(small.trajectories) == k
        ok &= all(np.array_equal(a.record, b.record)
                  and np.array_equal(a.states, b.states)
                  for a, b in zip(small.trajectories, base.trajectories))
    # and a repeated batch of 90 gives identical aggregates
    again = tj.run_ensemble(cfg, 90, rho0, keep_trajectories=True)
    ok &= np.array_equal(base.mean_states, again.mean_states)
    ok &= np.array_equal(base.psd.values, again.psd.values)
    ok &= np.array_equal(base.xbar_variance, again.xbar_variance)
    ok &= all(np.array_equal(a.record, b.record)
              for a, b in zip(base.trajectories, again.trajectories))
    _report(10, "ensemble determinism", ok, t0, 60.0)
