"""The benchmark's workloads: inputs, reference values and checked operations.

Each workload's ``setup(seed, tiny)`` builds its models and reference values
and returns a list of ``Op``. An operation's ``run`` calls the package's public
functions through their module (``tj.run_ensemble``, not a bound name), so the
tracer's wrappers see the calls; its ``check`` is named and compares the
result with a reference that does not come from the code path being timed.
``tiny`` shrinks every size for the smoke mode.

Every random seed is derived from the benchmark's ``--seed``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from qfeedback import atom_squash as at
from qfeedback import intracavity as ic
from qfeedback import loop
from qfeedback import operators as ops
from qfeedback import qnd
from qfeedback import semiclassical as sc
from qfeedback import trajectories as tj
from qfeedback.errors import MarginalStability

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")


@dataclass
class Op:
    name: str
    run: Callable[[Any], Any]          # ctx -> result
    check_name: str
    check: Callable[[Any], bool]       # result -> passed


def derive_seed(seed: int, name: str) -> int:
    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def _zeros(d):
    return np.zeros((d, d), dtype=complex)


def _expect(op, rho):
    return float(np.trace(op @ rho).real)


# ---------------------------------------------------------------------------
# stochastic master equations


def _references(ref_model, rho0, dt, steps, snap, observables):
    """Observable means at each snapshot time, from operators.evolve."""
    refs = []
    for k in range(1, steps // snap + 1):
        rho_t = ops.evolve(ref_model, rho0, snap * k * dt)
        refs.append({key: _expect(o, rho_t) for key, o in observables.items()})
    return refs


def _sme_op(name, config, batch, rho0, refs, observables):
    """One run_ensemble. The check averages each observable over the snapshot
    times, per trajectory, and asks the ensemble mean of that average to lie
    within 4 standard errors of the same average of the references from
    operators.evolve under the (feedback) master equation. One comparison per
    observable: per-snapshot tests at B=64 misfire on the skewed early-time
    photon-number distribution, while a persistent bias still fails this one."""
    def run(ctx):
        return tj.run_ensemble(config, batch, rho0, keep_trajectories=True)

    def check(summary):
        if len(summary.state_times) != len(refs):
            return False
        for key, obs in observables.items():
            vals = np.array([np.mean([_expect(obs, rho) for rho in r.states])
                             for r in summary.trajectories])
            target = np.mean([ref[key] for ref in refs])
            stderr = vals.std(ddof=1) / math.sqrt(len(vals))
            if not abs(vals.mean() - target) <= 4.0 * stderr + 1e-12:
                return False
        return summary.n_success == batch

    return Op(name, run, "snapshot-averaged ensemble mean within 4 SE of "
              "evolve(feedback ME)", check)


def _delayed_op(name, config, batch, rho0):
    """Delayed feedback has no master equation to compare against."""
    def run(ctx):
        return tj.run_ensemble(config, batch, rho0, keep_trajectories=True)

    def check(summary):
        return (summary.n_success == batch
                and all(np.all(np.isfinite(r.record))
                        for r in summary.trajectories))

    return Op(name, run, "all trajectories succeed, records finite", check)


def setup_sme_atom(seed: int, tiny: bool):
    """The paper's in-loop atom (d=2) under Markovian homodyne feedback at the
    optimal lambda = -eta*eps. Why: at small d and a large batch the SME step
    kernel does nearly all the work, and the noise and record arrays are
    allocated up front at B x steps, so this workload also carries that
    memory."""
    eta, eps = 0.8, 0.95
    lam = -eta * eps
    f_op = 0.5 * lam * ops.sigma_y()
    model = ops.LindbladModel(_zeros(2), ((1.0, ops.sigma_minus()),))
    batch, steps, snap = (16, 40, 10) if tiny else (256, 1000, 250)
    config = tj.SmeConfig(
        model=model, detection=tj.HomodyneDiffusive(eta * eps), dt=2e-3,
        steps=steps, seed=derive_seed(seed, "atom_feedback"),
        feedback=tj.Feedback(f_op), snapshot_every=snap)
    rho0 = ops.fock_dm(2, 0)
    observables = {"sigma_z": ops.sigma_z(), "sigma_x": ops.sigma_x()}
    refs = _references(tj.feedback_master_equation(model, f_op, eta * eps),
                       rho0, config.dt, steps, snap, observables)
    return [_sme_op("atom_feedback", config, batch, rho0, refs, observables)]


def setup_sme_cavity(seed: int, tiny: bool):
    """A damped cavity at d=12 from Fock state 3, B=64: photon counting,
    finite-LO homodyne jump (beta=1), diffusive homodyne with Markovian
    feedback F = -0.15 y, and the same feedback delayed by 50 dt. Why: the same
    kernel at a dimension where per-trajectory cost grows with d, plus the
    jump path, the delay buffer and the dt/2 retry path. The homodyne-jump
    operation fails today (its first no-jump Euler step from a pure state dips
    below the positivity tolerance, and so does the dt/2 retry); it stays in
    the workload and is counted as failed."""
    d, dt, eta = 12, 1e-3, 0.8
    batch, steps, snap = (16, 200, 100) if tiny else (64, 600, 150)
    cav = ops.LindbladModel(_zeros(d), ((1.0, ops.destroy(d)),))
    rho0 = ops.fock_dm(d, 3)
    observables = {"n": ops.number(d)}
    f_op = -0.15 * ops.quad_y(d)
    refs_cav = _references(cav, rho0, dt, steps, snap, observables)
    refs_fb = _references(tj.feedback_master_equation(cav, f_op, eta), rho0,
                          dt, steps, snap, observables)

    def config(name, detection, feedback=None):
        return tj.SmeConfig(model=cav, detection=detection, dt=dt, steps=steps,
                            seed=derive_seed(seed, name), feedback=feedback,
                            snapshot_every=snap)

    return [
        _sme_op("cavity_counting", config("cavity_counting", tj.PhotonCounting()),
                batch, rho0, refs_cav, observables),
        _sme_op("cavity_homodyne_jump",
                config("cavity_homodyne_jump", tj.HomodyneJump(1.0)),
                batch, rho0, refs_cav, observables),
        _sme_op("cavity_markovian_feedback",
                config("cavity_markovian_feedback", tj.HomodyneDiffusive(eta),
                       tj.Feedback(f_op)),
                batch, rho0, refs_fb, observables),
        _delayed_op("cavity_delayed_feedback",
                    config("cavity_delayed_feedback", tj.HomodyneDiffusive(eta),
                           tj.Feedback(f_op, tj.Delayed(50 * dt))),
                    batch, rho0),
    ]


# ---------------------------------------------------------------------------
# deterministic analysis


def _resolvent_spectrum(model, c, f_op, eta, omega, corrected):
    """In-loop photocurrent spectrum from the resolvent of the Liouvillian,
    S = 1 + 2 eta Re 1/2 Tr[x ((i w - K)^-1 + (-i w - K)^-1) dev] with
    K = L - |rho_ss><1|: exact linear algebra, independent of the tau-grid
    integration that in_loop_correlation_spectrum performs."""
    d = model.dim
    lv = model.liouvillian
    null = np.linalg.svd(lv)[2][-1].conj()
    rho_ss = null.reshape((d, d), order="F")
    rho_ss = rho_ss / np.trace(rho_ss)
    cd = c.conj().T
    if corrected:
        dev = (c - 1j * f_op / eta) @ rho_ss + rho_ss @ (cd + 1j * f_op / eta)
    else:
        dev = c @ rho_ss + rho_ss @ cd
    dev = dev - np.trace(dev) * rho_ss
    vec_dev = dev.reshape(-1, order="F")
    x_row = (c + cd).T.reshape(-1, order="F")    # Tr[x M] = x_row . vec(M)
    k = lv - np.outer(rho_ss.reshape(-1, order="F"),
                      np.eye(d).reshape(-1, order="F"))
    eye = np.eye(d * d)
    out = np.empty(len(omega))
    for i, w in enumerate(omega):
        plus = np.linalg.solve(1j * w * eye - k, vec_dev)
        minus = np.linalg.solve(-1j * w * eye - k, vec_dev)
        out[i] = 1.0 + eta * (x_row @ (plus + minus)).real
    return out


def setup_analysis(seed: int, tiny: bool):
    """The deterministic layers with no SME stepping: steady states of the
    parametric cavity at d = 10, 20, 30; propagation and two-time correlation
    at d=10; corrected and naive in-loop correlation spectra for the atom and
    the corrected one for a d=10 cavity; a Nyquist stability map cross-checked
    against the impulse-response probe, including a 200-tap sampled response;
    QND spectra with the stability check on; the semiclassical oracle against
    the closed-form spectra; intracavity and in-loop-atom closed forms. Why:
    exact-linear-algebra, Nyquist and Welch work shows here, and SME-kernel
    changes should move nothing."""
    rng_seed = derive_seed(seed, "analysis")
    theta = 0.5
    cav_p = ic.LinearCavityParams(l=0.0, theta=theta)
    u0 = ic.variance_no_feedback(cav_p)
    k0 = cav_p.k0
    op_list = []

    # steady states: the x variance of the truncated parametric cavity
    # against the Gaussian closed form; tolerances are the truncation error
    for d, tol in ((10, 1e-3), (20, 1e-6), (30, 1e-9)):
        def run(ctx, d=d):
            return ops.steady_state(ic.parametric_model(cav_p, d))

        def check(rho, d=d, tol=tol):
            x = ops.quad_x(d)
            vx = _expect(x @ x, rho) - _expect(x, rho) ** 2
            return abs((vx - 1.0) - u0) < tol

        op_list.append(Op(f"steady_state_d{d}", run,
                          "x variance matches the Gaussian steady state", check))

    d = 10
    x10 = ops.quad_x(d)
    t_evolve = 1.0

    def run_evolve(ctx):
        return ops.evolve(ic.parametric_model(cav_p, d), ops.fock_dm(d, 0),
                          t_evolve)

    def check_evolve(rho):
        expected = u0 * (1.0 - math.exp(-2.0 * k0 * t_evolve))
        return abs((_expect(x10 @ x10, rho) - 1.0) - expected) < 1e-5

    op_list.append(Op("evolve_d10", run_evolve,
                      "x variance follows the Ornstein-Uhlenbeck transient",
                      check_evolve))

    rho_ss10 = ops.steady_state(ic.parametric_model(cav_p, d))
    tau = np.linspace(0.0, 2.0, 21)

    def run_corr(ctx):
        return ops.two_time_correlation(ic.parametric_model(cav_p, d), x10,
                                        x10 @ rho_ss10, tau)

    def check_corr(corr):
        expected = np.exp(-k0 * tau) * _expect(x10 @ x10, rho_ss10)
        return np.max(np.abs(corr - expected)) < 1e-4

    op_list.append(Op("two_time_correlation_d10", run_corr,
                      "<x(tau) x(0)> decays at the linear drift rate k0",
                      check_corr))

    # in-loop photocurrent spectra
    n_omega = 10 if tiny else 100
    omega = np.linspace(0.0, 2.0, n_omega)
    eta, eps = 0.8, 0.95
    lam = -eta * eps
    f_atom = 0.5 * lam * ops.sigma_y()
    sm = ops.sigma_minus()
    atom = ops.LindbladModel(_zeros(2), ((1.0, sm),))
    atom_fb = tj.feedback_master_equation(atom, f_atom, eta * eps)
    ref = {c: _resolvent_spectrum(atom_fb, sm, f_atom, eta * eps, omega, c)
           for c in (True, False)}
    for corrected, label in ((True, "corrected"), (False, "naive")):
        def run(ctx, corrected=corrected):
            model = tj.feedback_master_equation(atom, f_atom, eta * eps)
            return tj.in_loop_correlation_spectrum(model, sm, f_atom, eta * eps,
                                                   omega, corrected=corrected)

        def check(spec, corrected=corrected):
            # each formula matches its own resolvent value; the naive one
            # must also miss the corrected one at dc (it is wrong in a loop)
            rel = np.abs(spec.values - ref[corrected]) / np.abs(ref[corrected])
            misses = abs(spec.values[0] - ref[True][0]) > 0.1 * abs(ref[True][0])
            return bool(np.max(rel) < 1e-3 and (corrected or misses))

        op_list.append(Op(f"atom_spectrum_{label}", run,
                          "matches its resolvent spectrum" if corrected else
                          "matches its resolvent spectrum, misses the corrected"
                          " one at dc", check))

    d_cav = 4 if tiny else 10
    f_scale = -0.15
    f_cav = f_scale * ops.quad_y(d_cav)
    cav = ops.LindbladModel(_zeros(d_cav), ((1.0, ops.destroy(d_cav)),))
    # a linear loop: the x current drives x through the cavity response
    # gamma/(gamma + i w) with gamma = 1/2 and gain 4 f, independent of eta
    closed = loop.LoopFilter(4.0 * f_scale, loop.SinglePole(0.5))
    vacuum_beam = loop.FeedbackBeamline(beta=1.0, eta1=1.0, eta2=0.5)

    def run_cav(ctx):
        model = tj.feedback_master_equation(cav, f_cav, eta)
        return tj.in_loop_correlation_spectrum(model, ops.destroy(d_cav), f_cav,
                                               eta, omega, corrected=True)

    def check_cav(spec):
        expected = loop.in_loop_spectrum(vacuum_beam, closed, omega).values
        return bool(np.max(np.abs(spec.values - expected)) < 1e-3)

    op_list.append(Op(f"cavity_spectrum_d{d_cav}", run_cav,
                      "matches the closed-form single-pole loop spectrum",
                      check_cav))

    # Nyquist stability map, as in acceptance criterion 4
    gains = (-12.0, -8.0, -4.0, -1.5, -0.8, 0.5, 1.5, 3.0, 6.0, 10.0)
    configs = ((1.0, 1.0), (0.1, 1.0), (1.0, 0.3), (2.0, 0.2), (1.0, 0.05))
    if tiny:
        gains, configs = gains[::3], configs[:2]

    def run_map(ctx):
        checked = agreed = 0
        for gamma, delay in configs:
            for g in gains:
                filt = loop.LoopFilter(g, loop.SinglePole(gamma), delay)
                try:
                    nyquist_stable = loop.is_stable(filt)
                except MarginalStability:
                    continue
                checked += 1
                if sc.diverges(filt, delay / 64.0, 400.0) == (not nyquist_stable):
                    agreed += 1
        return checked, agreed

    min_checked = 0.9 * len(gains) * len(configs)
    op_list.append(Op("stability_map", run_map,
                      "Nyquist agrees with the impulse probe everywhere",
                      lambda r: r[0] >= min_checked and r[1] == r[0]))

    taps = 20 if tiny else 200
    sampled = loop.LoopFilter(-3.0, loop.Sampled(np.exp(-0.02 * np.arange(taps)),
                                                 0.02), 0.2)

    def run_sampled(ctx):
        return loop.is_stable(sampled), sc.diverges(sampled, 0.02, 400.0)

    op_list.append(Op(f"stability_sampled_{taps}tap", run_sampled,
                      "Nyquist agrees with the impulse probe",
                      lambda r: r[0] == (not r[1])))

    # QND spectra with the stability check on, as in acceptance criterion 5
    qnd_default = qnd.QndFeedbackParams(
        qnd.QndParams(1.0, 1.0, 2.0),
        loop.LoopFilter(-10.0, loop.SinglePole(0.05), 0.0))
    qnd_big = qnd.QndFeedbackParams(qnd.QndParams(1.0, 1.0, 2.0),
                                    loop.LoopFilter(-1e4, loop.SinglePole(1e-6)))
    omega_qnd = np.linspace(-5.0, 5.0, 512)
    omega_floor = np.array([5e-7, 1e-6, 2e-6])

    def run_qnd(ctx):
        sx, sy = qnd.qnd_feedback_output_spectra(qnd_default, omega_qnd)
        bx, _ = qnd.qnd_feedback_output_spectra(qnd_big, omega_floor)
        return sx, sy, bx, qnd.large_gain_limit(qnd_big, omega_floor)

    def check_qnd(r):
        sx, sy, bx, floor = r
        return bool(np.all(sx.values * sy.values >= 1.0 - 1e-12)
                    and np.all(np.abs(bx.values - floor) / floor < 1e-3))

    op_list.append(Op("qnd_spectra", run_qnd,
                      "uncertainty product >= 1 and the large-gain floor",
                      check_qnd))

    # semiclassical oracle against the closed-form spectra (criterion 3)
    tuples = [(-2.0, 1.0, 0.0, 1.0, 0.5, 0.0, 0.02),
              (-0.8, 0.5, 0.5, 0.9, 0.7, 2.0, 0.02)]
    n_samples = 2e4 if tiny else 1e6

    def run_oracle(ctx):
        out = []
        for i, (g, gamma, delay, eta1, eta2, excess, dt) in enumerate(tuples):
            noise = sc.ClassicalNoise(excess, 0.5) if excess else None
            beam = loop.FeedbackBeamline(
                beta=1.0, eta1=eta1, eta2=eta2,
                s0x=noise.spectrum if noise is not None else 1.0)
            filt = loop.LoopFilter(g, loop.SinglePole(gamma), delay)
            sim = sc.SemiclassicalSim(beamline=beam, filter=filt, dt=dt,
                                      duration=n_samples * dt,
                                      seed=derive_seed(rng_seed, f"oracle{i}"),
                                      classical_noise=noise)
            rec = sc.simulate(sim)
            for series, closed_form in ((rec.di2, loop.in_loop_spectrum),
                                        (rec.di3, loop.out_of_loop_spectrum)):
                psd = sc.estimate_psd(series, rec.dt, 64)
                band = np.nonzero(psd.omega <= 3.0)[0]
                idx = band[np.linspace(0, len(band) - 1, 64).astype(int)]
                analytic = closed_form(beam, filt, psd.omega[idx]).values
                out.append(np.abs(psd.values[idx] - analytic) / psd.stderr[idx])
        return out

    op_list.append(Op("semiclassical_oracle", run_oracle,
                      ">= 90% of PSD points within 3 SE of the closed form",
                      lambda devs: all(np.mean(dev < 3.0) >= 0.9 for dev in devs)))

    # intracavity closed forms (criterion 8)
    n_random = 50 if tiny else 1000

    def run_intracavity(ctx):
        ok = abs((2.0 * ic.variance_no_feedback(
            ic.LinearCavityParams(l=0.0, theta=1.0 - 1e-6))
            - ic.variance_no_feedback(
                ic.LinearCavityParams(l=0.0, theta=1.0 - 2e-6))) + 0.5) < 1e-12
        for th in np.linspace(0.0, 0.95, 10):
            for eta_h in np.linspace(0.1, 1.0, 10):
                p = ic.LinearCavityParams(l=0.0, theta=th,
                                          measurement=ic.Homodyne(eta_h))
                lam_star = ic.optimal_lambda(p)
                ok &= abs(ic.u_min(p) - lam_star / eta_h) < 1e-12
                ok &= abs(ic.unconditioned_variance(p, lam_star)
                          - ic.u_min(p)) < 1e-12
        p_q = ic.LinearCavityParams(l=0.0, theta=ic.THETA_MAX,
                                    measurement=ic.Qnd(1e6))
        ok &= ic.conditioned_variance_ss(p_q) < 1e-3
        rng = np.random.default_rng(derive_seed(rng_seed, "intracavity"))
        for _ in range(n_random):
            p = ic.LinearCavityParams(
                l=rng.uniform(0.0, 2.0), theta=0.0,
                measurement=ic.Homodyne(rng.uniform(0.05, 1.0)))
            lam_r = rng.uniform(-p.k0 + 1e-3, 3.0)
            ok &= ic.unconditioned_variance(p, lam_r) >= -1e-12
        return bool(ok)

    op_list.append(Op("intracavity_closed_forms", run_intracavity,
                      "criterion-8 identities hold", lambda ok: ok))

    # in-loop atom closed forms (criterion 9, closed-form part)
    omega_fl = np.linspace(-10.0, 10.0, 801)

    def run_atom(ctx):
        p = at.AtomLoopParams.from_lambda(eta, eps, lam)
        gx, gy, gz, c = at.decay_rates(p)
        _, free = at.free_squeezing_model(at.FreeSqueezeParams(eta, 0.05))
        s_min = at.in_loop_spectrum_from_lambda(p)
        lam_half = at.lambda_for_spectrum(eta, eps, 0.5)
        s_half = at.in_loop_spectrum_from_lambda(
            at.AtomLoopParams.from_lambda(eta, eps, lam_half))
        sz = at.steady_state_bloch(p)[2]
        power = at.fluorescence_spectrum(p, omega_fl).values
        return gx, gy, gz, c, free, s_min, s_half, sz, power

    def check_atom(r):
        gx, gy, gz, c, free, s_min, s_half, sz, power = r
        pref = (1.0 - eta) * (gz - c) / (8.0 * math.pi * gz)
        expected = pref * (gx / (gx ** 2 + omega_fl ** 2)
                           + gy / (gy ** 2 + omega_fl ** 2))
        return bool(abs(gx - 0.12) < 1e-12 and abs(gx - free[0]) < 1e-12
                    and gy == 0.5 and abs(s_min - (1.0 - eps)) < 1e-12
                    and abs(s_half - 0.5) < 1e-12 and -1.0 < sz < 0.0
                    and np.max(np.abs(power - expected)) < 1e-12)

    op_list.append(Op("atom_closed_forms", run_atom,
                      "line narrowing and in-loop optimum identities",
                      check_atom))
    return op_list


# ---------------------------------------------------------------------------
# command line

# Output columns each subcommand must write.
CLI_COLUMNS = {
    "spectra": ["omega", "s2x", "s3x", "s2y", "s3y"],
    "stability": ["g", "gamma", "T", "stable", "marginal", "max_bandwidth"],
    "semiclassical": ["omega", "psd2", "psd2_err", "analytic2",
                      "psd3", "psd3_err", "analytic3"],
    "qnd": ["omega", "s_out_x", "s_out_y", "large_gain_floor"],
    "trajectory": ["time", "mean_n", "xbar_variance"],
    "intracavity": ["lam", "u_lambda", "u0", "u_conditioned_ss"],
    "atom": ["quantity", "value"],
}
CLI_SEEDED = ("semiclassical", "trajectory")
CLI_TIMEOUT_S = 60.0


@dataclass
class ProcessResult:
    returncode: int
    seconds: float
    maxrss_kb: int
    csv_path: str
    spans: list


class ProcessFailed(Exception):
    pass


def run_process(argv, cwd, timeout):
    """Start argv with the package on PYTHONPATH, wait for it and return
    (exit code, wall seconds, peak RSS in KiB) from its own rusage."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    with open(os.path.join(cwd, "stderr.txt"), "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, seconds, usage.ru_maxrss


def _cli_op(sub, seed):
    extra = ["--seed", str(derive_seed(seed, sub))] if sub in CLI_SEEDED else []

    def run(ctx):
        out = os.path.join(ctx.workdir, sub + ".csv")
        for stale in (out, out + ".config"):
            if os.path.exists(stale):
                os.remove(stale)
        if ctx.tracer is None:
            argv = [sys.executable, "-c", "from qfeedback.cli import main; main()"]
        else:
            spans_path = os.path.join(ctx.workdir, sub + ".spans.json")
            argv = [sys.executable, os.path.join(BENCH_DIR, "spans.py"), spans_path]
        code, seconds, rss = run_process(argv + [sub, "--output", out] + extra,
                                         ctx.workdir, CLI_TIMEOUT_S)
        spans = []
        if ctx.tracer is not None and os.path.exists(spans_path):
            with open(spans_path) as fh:
                spans = json.load(fh)
        result = ProcessResult(code, seconds, rss, out, spans)
        ctx.processes.append((sub, result))
        if code != 0:
            raise ProcessFailed(f"qfeedback {sub} exited with {code}")
        return result

    def check(result):
        if not os.path.exists(result.csv_path):
            return False
        with open(result.csv_path) as fh:
            rows = [ln.rstrip("\n") for ln in fh if not ln.startswith("#")]
        return len(rows) >= 2 and rows[0].split(",") == CLI_COLUMNS[sub]

    return Op(f"cli_{sub}", run, "exit 0 and CSV with the expected columns",
              check)


def setup_cli(seed: int, tiny: bool):
    """Each of the seven subcommands with default settings, as a fresh process
    started through qfeedback.cli.main. Why: a fresh process pays the package
    import on every call, and each subcommand's own work is small, so this is
    the only workload where import-time changes show; the in-process workloads
    have every module loaded already. Setup imports qfeedback.cli to resolve
    the entry point."""
    import qfeedback.cli
    if not callable(getattr(qfeedback.cli, "main", None)):
        raise RuntimeError("qfeedback.cli.main is missing")
    return [_cli_op(sub, seed) for sub in CLI_COLUMNS]


WORKLOADS = {
    "sme-atom": setup_sme_atom,
    "sme-cavity": setup_sme_cavity,
    "analysis": setup_analysis,
    "cli": setup_cli,
}
