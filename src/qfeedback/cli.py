"""Command-line front end: config ingestion, experiment orchestration,
deterministic seeding, CSV emission.

Every subcommand writes one CSV whose '#'-prefixed header records the tool
version, the subcommand, the full effective configuration (with the source of
each value), and the seed, followed by 17-significant-digit values. A config
file (INI, one section named after the subcommand) may supply any flag;
explicit flags win. The effective configuration is also echoed to
``<output>.config`` in the output directory.

Exit codes: 0 success, 2 invalid parameters or config, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys

import numpy as np

from . import __version__
from .errors import MarginalStability, ParseError, QFeedbackError, UnknownKey

OUTDIR_ENV = "QFEEDBACK_OUTDIR"


# ---------------------------------------------------------------------------
# option tables (shared by argparse and the config-file loader)

_OPTIONS = {
    "spectra": [
        ("g", float, -4.0, "feedback gain"),
        ("gamma", float, 1.0, "single-pole filter bandwidth"),
        ("T", float, 0.0, "loop delay"),
        ("eta1", float, 1.0, "pre-loop efficiency"),
        ("eta2", float, 0.5, "in-loop beam-splitter transmission"),
        ("s0x", float, 1.0, "input amplitude spectrum"),
        ("s0y", float, 1.0, "input phase spectrum"),
        ("wmax", float, 5.0, "max frequency"),
        ("n", int, 512, "number of frequencies"),
    ],
    "stability": [
        ("g-min", float, -10.0, "lowest gain"),
        ("g-max", float, 2.0, "highest gain"),
        ("n-g", int, 49, "number of gains"),
        ("gamma", float, 1.0, "single-pole filter bandwidth"),
        ("T", float, 0.1, "loop delay"),
    ],
    "semiclassical": [
        ("g", float, -2.0, "feedback gain"),
        ("gamma", float, 1.0, "single-pole filter bandwidth"),
        ("T", float, 0.0, "loop delay"),
        ("eta1", float, 1.0, "pre-loop efficiency"),
        ("eta2", float, 0.5, "in-loop beam-splitter transmission"),
        ("excess", float, 2.0, "classical excess noise at dc"),
        ("pole", float, 0.5, "classical noise bandwidth"),
        ("dt", float, 0.01, "time step"),
        ("duration", float, 2000.0, "simulated time after burn-in"),
        ("segments", int, 64, "Welch segments"),
        ("seed", int, 1234, "RNG seed"),
    ],
    "qnd": [
        ("kappa", float, 1.0, "probe-mode decay"),
        ("gamma-m", float, 1.0, "meter-mode decay"),
        ("chi", float, 2.0, "QND coupling"),
        ("g", float, -10.0, "feedback gain"),
        ("gamma-f", float, 0.05, "electronic filter bandwidth"),
        ("T", float, 0.0, "loop delay"),
        ("wmax", float, 5.0, "max frequency"),
        ("n", int, 512, "number of frequencies"),
    ],
    "trajectory": [
        ("preset", str, "damped-cavity",
         "damped-cavity | atom-homodyne | atom-feedback"),
        ("n-traj", int, 1, "ensemble size"),
        ("steps", int, 200, "steps per trajectory"),
        ("dt", float, 1e-3, "time step"),
        ("seed", int, 42, "RNG seed"),
        ("snapshot-every", int, 10, "state snapshot thinning"),
        ("eta", float, 0.8, "homodyne efficiency"),
        ("lam", float, -0.5, "feedback parameter (atom-feedback)"),
    ],
    "intracavity": [
        ("mode", str, "sweep", "sweep | series"),
        ("l", float, 0.0, "x diffusion drive"),
        ("theta", float, 0.5, "parametric drive"),
        ("eta", float, 1.0, "homodyne efficiency"),
        ("lam-min", float, 0.0, "sweep start"),
        ("lam-max", float, 2.0, "sweep end"),
        ("n", int, 101, "sweep / series points"),
        ("u-init", float, 0.0, "series initial variance"),
        ("t-max", float, 10.0, "series duration"),
    ],
    "atom": [
        ("eta", float, 0.8, "mode matching"),
        ("eps", float, 0.95, "homodyne efficiency"),
        ("lam", float, 0.0, "feedback parameter"),
        ("lambda-opt", bool, False, "use the optimal lambda = -eta eps"),
        ("compare-l", float, 0.0, "if > 0, free-squeezing comparison at L"),
    ],
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfeedback",
        description="Electro-optic feedback spectra, stability, and "
                    "quantum-trajectory experiments.")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="subcommand", required=True)
    for name, opts in _OPTIONS.items():
        sp = subs.add_parser(name)
        sp.add_argument("--config", type=str, default=None,
                        help="INI file with a [%s] section" % name)
        sp.add_argument("--output", type=str, default=None,
                        help="CSV path (default $%s/%s.csv)" % (OUTDIR_ENV, name))
        for opt, typ, default, hlp in opts:
            flag = "--" + opt
            if typ is bool:
                sp.add_argument(flag, action="store_const", const=True,
                                default=None, dest=_dest(opt), help=hlp)
            else:
                sp.add_argument(flag, type=typ, default=None,
                                dest=_dest(opt), help=hlp)
    return parser


def _dest(opt: str) -> str:
    return opt.replace("-", "_")


def load_config(path: str, subcommand: str) -> dict:
    """Read the [subcommand] section of an INI config into typed values."""
    cp = configparser.ConfigParser()
    try:
        with open(path) as fh:
            cp.read_file(fh, source=path)
    except configparser.Error as exc:
        line = getattr(exc, "lineno", "?")
        raise ParseError(f"{path}:{line}: {exc.message}") from exc
    if not cp.has_section(subcommand):
        return {}
    known = {_dest(o): typ for o, typ, _, _ in _OPTIONS[subcommand]}
    out = {}
    unknown = []
    for key, raw in cp.items(subcommand):
        dest = _dest(key)
        if dest not in known:
            unknown.append(key)
            continue
        typ = known[dest]
        try:
            out[dest] = (cp.getboolean(subcommand, key) if typ is bool
                         else typ(raw))
        except ValueError as exc:
            raise ParseError(f"{path}: key '{key}': {exc}") from exc
    if unknown:
        raise UnknownKey(f"{path}: unknown keys for [{subcommand}]: "
                         + ", ".join(sorted(unknown)))
    return out


def _merge(args: argparse.Namespace, subcommand: str):
    """flags > config file > defaults; returns (values, provenance). Every
    float option must be finite."""
    from_file = load_config(args.config, subcommand) if args.config else {}
    values, source = {}, {}
    for opt, typ, default, _ in _OPTIONS[subcommand]:
        dest = _dest(opt)
        flag_val = getattr(args, dest)
        if flag_val is not None:
            values[dest], source[dest] = flag_val, "flag"
        elif dest in from_file:
            values[dest], source[dest] = from_file[dest], "file"
        else:
            values[dest], source[dest] = default, "default"
        if typ is float and not math.isfinite(values[dest]):
            raise ValueError(f"{opt} = {values[dest]} must be finite")
    return values, source


def _fmt(x) -> str:
    if isinstance(x, (bool, int, str)):
        return str(x)
    return "%.17g" % float(x)


def _write_csv(path, subcommand, values, source, colnames, columns):
    lines = [f"# qfeedback {__version__}", f"# subcommand: {subcommand}"]
    for key in sorted(values):
        lines.append(f"# config: {key} = {_fmt(values[key])} [{source[key]}]")
    seed = values.get("seed", "none")
    lines.append(f"# seed: {seed}")
    cols = [np.atleast_1d(np.asarray(c)) for c in columns]
    with open(path, "w", newline="") as fh:
        for ln in lines:
            fh.write(ln + "\n")
        fh.write(",".join(colnames) + "\n")
        for row in zip(*cols):
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    with open(str(path) + ".config", "w") as fh:
        fh.write(f"[{subcommand}]\n")
        for key in sorted(values):
            fh.write(f"{key} = {_fmt(values[key])}  ; {source[key]}\n")


def _output_path(args, subcommand):
    if args.output:
        return args.output
    outdir = os.environ.get(OUTDIR_ENV, ".")
    return os.path.join(outdir, subcommand + ".csv")


# ---------------------------------------------------------------------------
# subcommand bodies: each imports the modules it calls, so a subcommand's
# process loads only those


def _run_spectra(v):
    from . import loop
    bl = loop.FeedbackBeamline(beta=1.0, eta1=v["eta1"], eta2=v["eta2"],
                               s0x=v["s0x"], s0y=v["s0y"])
    filt = loop.LoopFilter(v["g"], loop.SinglePole(v["gamma"]), v["T"])
    omega = np.linspace(-v["wmax"], v["wmax"], v["n"])
    s2x = loop.in_loop_spectrum(bl, filt, omega)
    s3x = loop.out_of_loop_spectrum(bl, filt, omega)
    s2y, s3y = loop.phase_spectra(bl, omega)
    return (["omega", "s2x", "s3x", "s2y", "s3y"],
            [omega, s2x.values, s3x.values, s2y.values, s3y.values])


def _run_stability(v):
    from . import loop
    gains = np.linspace(v["g_min"], v["g_max"], v["n_g"])
    stable = np.empty(len(gains))
    marginal = np.zeros(len(gains))
    for i, g in enumerate(gains):
        filt = loop.LoopFilter(float(g), loop.SinglePole(v["gamma"]), v["T"])
        try:
            stable[i] = 1.0 if loop.is_stable(filt) else 0.0
        except MarginalStability:
            stable[i], marginal[i] = 0.0, 1.0
    bw = np.array([loop.max_bandwidth(float(g), v["T"]) if g != 0 else np.inf
                   for g in gains])
    return (["g", "gamma", "T", "stable", "marginal", "max_bandwidth"],
            [gains, np.full_like(gains, v["gamma"]),
             np.full_like(gains, v["T"]), stable, marginal, bw])


def _run_semiclassical(v):
    from . import loop, semiclassical
    noise = semiclassical.ClassicalNoise(v["excess"], v["pole"])
    bl = loop.FeedbackBeamline(beta=1.0, eta1=v["eta1"], eta2=v["eta2"],
                               s0x=noise.spectrum, s0y=1.0)
    filt = loop.LoopFilter(v["g"], loop.SinglePole(v["gamma"]), v["T"])
    sim = semiclassical.SemiclassicalSim(
        beamline=bl, filter=filt, dt=v["dt"], duration=v["duration"],
        seed=v["seed"], classical_noise=noise)
    rec = semiclassical.simulate(sim)
    p2 = semiclassical.estimate_psd(rec.di2, rec.dt, v["segments"])
    p3 = semiclassical.estimate_psd(rec.di3, rec.dt, v["segments"])
    a2 = loop.in_loop_spectrum(bl, filt, p2.omega)
    a3 = loop.out_of_loop_spectrum(bl, filt, p3.omega)
    return (["omega", "psd2", "psd2_err", "analytic2",
             "psd3", "psd3_err", "analytic3"],
            [p2.omega, p2.values, p2.stderr, a2.values,
             p3.values, p3.stderr, a3.values])


def _run_qnd(v):
    from . import loop, qnd
    params = qnd.QndFeedbackParams(
        qnd=qnd.QndParams(v["kappa"], v["gamma_m"], v["chi"]),
        filter=loop.LoopFilter(v["g"], loop.SinglePole(v["gamma_f"]), v["T"]))
    omega = np.linspace(-v["wmax"], v["wmax"], v["n"])
    sx, sy = qnd.qnd_feedback_output_spectra(params, omega)
    floor = qnd.large_gain_limit(params, omega)
    return (["omega", "s_out_x", "s_out_y", "large_gain_floor"],
            [omega, sx.values, sy.values, floor])


def _trajectory_config(v):
    from . import operators as ops, trajectories
    if v["preset"] == "damped-cavity":
        dim = 5
        model = ops.LindbladModel(np.zeros((dim, dim), dtype=complex),
                                  ((1.0, ops.destroy(dim)),))
        det = trajectories.PhotonCounting()
        fb = None
        rho0 = ops.fock_dm(dim, 1)
        obs = ops.number(dim)
        obs_name = "mean_n"
    elif v["preset"] in ("atom-homodyne", "atom-feedback"):
        model = ops.LindbladModel(np.zeros((2, 2), dtype=complex),
                                  ((1.0, ops.sigma_minus()),))
        det = trajectories.HomodyneDiffusive(v["eta"])
        fb = None
        if v["preset"] == "atom-feedback":
            fb = trajectories.Feedback(0.5 * v["lam"] * ops.sigma_y())
        rho0 = 0.5 * (np.eye(2, dtype=complex)
                      + np.array([[0, 1], [1, 0]], dtype=complex))
        obs = ops.sigma_z()
        obs_name = "mean_sz"
    else:
        raise ValueError(f"unknown preset '{v['preset']}'")
    config = trajectories.SmeConfig(
        model=model, detection=det, dt=v["dt"], steps=v["steps"],
        seed=v["seed"], feedback=fb, snapshot_every=v["snapshot_every"])
    return config, rho0, obs, obs_name


def _run_trajectory(v):
    from . import trajectories
    config, rho0, obs, obs_name = _trajectory_config(v)
    summary = trajectories.run_ensemble(config, v["n_traj"], rho0)
    mean_obs = np.einsum("tij,ji->t", summary.mean_states, obs).real
    return (["time", obs_name, "xbar_variance"],
            [summary.state_times, mean_obs, summary.xbar_variance])


def _run_intracavity(v):
    from . import intracavity
    meas = intracavity.Homodyne(v["eta"])
    params = intracavity.LinearCavityParams(
        l=v["l"], theta=v["theta"], measurement=meas)
    if v["mode"] == "series":
        t = np.linspace(0.0, v["t_max"], v["n"])
        u = intracavity.conditioned_variance_trajectory(params, v["u_init"], t)
        return (["t", "u_conditioned"], [t, u])
    if v["mode"] != "sweep":
        raise ValueError(f"unknown mode '{v['mode']}'")
    lams = np.linspace(v["lam_min"], v["lam_max"], v["n"])
    u = np.array([intracavity.unconditioned_variance(params, float(x))
                  for x in lams])
    u0 = np.full_like(lams, intracavity.variance_no_feedback(params))
    uc = np.full_like(lams, intracavity.conditioned_variance_ss(params))
    return (["lam", "u_lambda", "u0", "u_conditioned_ss"], [lams, u, u0, uc])


def _run_atom(v):
    from . import atom_squash
    lam = -v["eta"] * v["eps"] if v["lambda_opt"] else v["lam"]
    params = atom_squash.AtomLoopParams.from_lambda(v["eta"], v["eps"], lam)
    gx, gy, gz, c = atom_squash.decay_rates(params)
    s = atom_squash.in_loop_spectrum_from_lambda(params)
    _, _, sz = atom_squash.steady_state_bloch(params)
    names = ["lambda", "gamma_x", "gamma_y", "gamma_z", "C",
             "in_loop_spectrum", "steady_sz"]
    vals = [lam, gx, gy, gz, c, s, sz]
    if v["compare_l"] > 0:
        _, free = atom_squash.free_squeezing_model(
            atom_squash.FreeSqueezeParams(v["eta"], v["compare_l"]))
        names += ["free_gamma_x", "free_gamma_y", "free_gamma_z", "free_C"]
        vals += list(free)
    return (["quantity", "value"], [np.array(names), np.array(vals)])


_RUNNERS = {
    "spectra": _run_spectra,
    "stability": _run_stability,
    "semiclassical": _run_semiclassical,
    "qnd": _run_qnd,
    "trajectory": _run_trajectory,
    "intracavity": _run_intracavity,
    "atom": _run_atom,
}


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    sub = args.subcommand
    try:
        values, source = _merge(args, sub)
        colnames, columns = _RUNNERS[sub](values)
        path = _output_path(args, sub)
        _write_csv(path, sub, values, source, colnames, columns)
    except (QFeedbackError, ValueError, TypeError) as exc:
        code = getattr(exc, "exit_code", 2)
        kind = "invalid parameters" if code == 2 else "numerical failure"
        print(f"qfeedback {sub}: {kind}: {exc}", file=sys.stderr)
        return code
    print(path)
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
