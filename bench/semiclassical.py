"""Time the semiclassical layer of two checkouts, alternating them every round.

Four timings per side and round:

- `simulate_s`: `semiclassical.simulate` with the defaults of
  `qfeedback semiclassical` (g = -2, gamma = 1, T = 0, eta1 = 1, eta2 = 0.5,
  classical noise 2.0 / 0.5, dt = 0.01, duration 2000, seed 1234);
- `estimate_psd_s`: `estimate_psd` on 10^6 white-noise samples, 64 segments;
- `diverges_map_s`: `diverges` over acceptance criterion 4's stability map
  (10 gains x 5 (gamma, T) configurations, dt = T / 64, 400 time units,
  marginal gains skipped as the criterion skips them);
- `cli_s` and `cli_rss_mb`: a fresh `python -m qfeedback semiclassical` with
  default settings, wall time and peak resident memory of that process.

The in-process timings run in a fresh worker process per side and round: one
untimed warm-up call, then the best of --repeats calls. Every round runs both
sides, and the side that goes first alternates, so slow drift of a shared
host reaches both sides alike. The worker also reports the import time of
`qfeedback` and whether `scipy.signal` was loaded after all calls.

Run from the root of a checkout; --parent points at the `src` directory of
the checkout to compare against (for example an exported copy of the parent
commit):

    python bench/semiclassical.py --parent /tmp/parent/src --out BENCH.json

The change side is this checkout's `src`. The JSON written to --out holds
both sides' samples, medians and quartiles, and how many rounds each side won.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
IN_PROCESS = ("simulate_s", "estimate_psd_s", "diverges_map_s")
METRICS = IN_PROCESS + ("cli_s", "cli_rss_mb", "import_s")
GAINS = (-12.0, -8.0, -4.0, -1.5, -0.8, 0.5, 1.5, 3.0, 6.0, 10.0)
CONFIGS = ((1.0, 1.0), (0.1, 1.0), (1.0, 0.3), (2.0, 0.2), (1.0, 0.05))


def best_of(fn, repeats: int) -> float:
    fn()                                   # warm-up, untimed
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def worker(repeats: int) -> None:
    """Time the in-process calls of the checkout on PYTHONPATH; print JSON."""
    start = time.perf_counter()
    import numpy as np
    from qfeedback import loop, semiclassical as sc
    from qfeedback.errors import MarginalStability
    import_s = time.perf_counter() - start

    noise = sc.ClassicalNoise(2.0, 0.5)
    beam = loop.FeedbackBeamline(beta=1.0, eta1=1.0, eta2=0.5,
                                 s0x=noise.spectrum, s0y=1.0)
    sim = sc.SemiclassicalSim(
        beamline=beam, filter=loop.LoopFilter(-2.0, loop.SinglePole(1.0), 0.0),
        dt=0.01, duration=2000.0, seed=1234, classical_noise=noise)
    series = np.random.default_rng(8).standard_normal(10 ** 6)
    probes = []
    for gamma, delay in CONFIGS:
        for g in GAINS:
            filt = loop.LoopFilter(g, loop.SinglePole(gamma), delay)
            try:
                stable = loop.is_stable(filt)
            except MarginalStability:
                continue
            probes.append((filt, delay / 64.0, stable))

    def run_map():
        for filt, dt, stable in probes:
            if sc.diverges(filt, dt, 400.0) == stable:
                raise RuntimeError(f"diverges disagrees with Nyquist: {filt}")

    out = {
        "import_s": import_s,
        "simulate_s": best_of(lambda: sc.simulate(sim), repeats),
        "estimate_psd_s": best_of(lambda: sc.estimate_psd(series, 0.01, 64),
                                  repeats),
        "diverges_map_s": best_of(run_map, repeats),
        "probes": len(probes),
        "scipy_signal_loaded": "scipy.signal" in sys.modules,
    }
    print(json.dumps(out))


def run_side(src: str, repeats: int, workdir: str) -> dict:
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--worker",
         "--repeats", str(repeats)],
        env=env, cwd=workdir, capture_output=True, text=True, check=True)
    out = json.loads(proc.stdout.splitlines()[-1])
    csv = os.path.join(workdir, "semiclassical.csv")
    start = time.perf_counter()
    cli = subprocess.Popen(
        [sys.executable, "-m", "qfeedback", "semiclassical", "--output", csv],
        env=env, cwd=workdir, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(cli.pid, 0)
    out["cli_s"] = time.perf_counter() - start
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(f"qfeedback semiclassical failed with {src}")
    out["cli_rss_mb"] = usage.ru_maxrss / 1024.0
    return out


def summary(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", help="src directory of the other checkout")
    parser.add_argument("--out", help="JSON file to write")
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--worker", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        worker(args.repeats)
        return
    if not (args.parent and args.out):
        parser.error("--parent and --out are required")
    srcs = {"parent": os.path.abspath(args.parent),
            "change": os.path.join(ROOT, "src")}
    samples = {side: [] for side in srcs}
    with tempfile.TemporaryDirectory() as workdir:
        for rnd in range(args.rounds):
            order = ("parent", "change") if rnd % 2 == 0 else ("change", "parent")
            for side in order:
                samples[side].append(run_side(srcs[side], args.repeats, workdir))
            print(f"round {rnd + 1}/{args.rounds}: " + "  ".join(
                f"{m} {samples['parent'][-1][m]:.3f} -> "
                f"{samples['change'][-1][m]:.3f}" for m in METRICS),
                flush=True)
    sides = {}
    for side, runs in samples.items():
        sides[side] = {
            "scipy_signal_loaded": [r["scipy_signal_loaded"] for r in runs],
            "probes": runs[0]["probes"],
            "samples": {m: [r[m] for r in runs] for m in METRICS},
            "summary": {m: summary([r[m] for r in runs]) for m in METRICS},
        }
    wins = {m: sum(c[m] < p[m] for p, c in zip(samples["parent"],
                                                samples["change"]))
            for m in METRICS}
    result = {
        "env": {"python": platform.python_version(),
                "numpy": __import__("numpy").__version__,
                "nproc": os.cpu_count(),
                "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")},
        "rounds": args.rounds, "repeats": args.repeats,
        "metric": "seconds (cli_rss_mb: MiB); in-process timings are the "
                  "best of repeats after one warm-up call, one sample per "
                  "side and round; summary over rounds",
        "change_wins": wins,
        "sides": sides,
    }
    for m in METRICS:
        p, c = sides["parent"]["summary"][m], sides["change"]["summary"][m]
        print(f"{m:16s} parent {p['median']:.4f} [{p['q1']:.4f}, {p['q3']:.4f}]"
              f"  change {c['median']:.4f} [{c['q1']:.4f}, {c['q3']:.4f}]"
              f"  change lower in {wins[m]}/{args.rounds}")
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
