"""Time the Nyquist stability layer of two checkouts, alternating them every round.

Timings per side and round:

- `stability_grid_s`: `loop.is_stable` over the grid of `qfeedback stability`
  with default settings (49 gains from -10 to 2, gamma = 1, T = 0.1; the
  marginal g = 1 counted as it raises);
- `criterion4_map_s`: `is_stable` over acceptance criterion 4's map (10 gains x
  5 (gamma, T) configurations, marginal gains counted as they raise);
- `sampled_200_s`: `is_stable` on the 200-tap `Sampled` loop of the `analysis`
  benchmark workload (g = -3, h_k = exp(-0.02 k), dt = 0.02, T = 0.2);
- `qnd_default_s`: `is_stable` on the QND pair loop with the defaults of
  `qfeedback qnd` (kappa = gamma_m = 1, chi = 2, g = -10, gamma_f = 0.05);
- `cli_s` and `cli_rss_mb`: a fresh `python -m qfeedback stability` with
  default settings, wall time and peak resident memory of that process.

The in-process timings run in a fresh worker process per side and round: one
untimed warm-up call, then the best of --repeats calls. Every round runs both
sides, and the side that goes first alternates, so slow drift of a shared
host reaches both sides alike. The worker also reports the import time of
`qfeedback` and every stable / unstable / marginal decision it saw, and each
round compares the data rows of the two sides' `stability` CSVs.

Run from the root of a checkout; --parent points at the `src` directory of
the checkout to compare against (for example an exported copy of the parent
commit):

    python bench/loop.py --parent /tmp/parent/src --out BENCH.json

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
IN_PROCESS = ("stability_grid_s", "criterion4_map_s", "sampled_200_s",
              "qnd_default_s")
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
    from qfeedback import loop, qnd
    from qfeedback.errors import MarginalStability
    import_s = time.perf_counter() - start

    def decisions(cases):
        out = []
        for filt, extra in cases:
            try:
                out.append(int(loop.is_stable(filt, extra)))
            except MarginalStability:
                out.append(-1)
        return out

    grid = [(loop.LoopFilter(float(g), loop.SinglePole(1.0), 0.1), None)
            for g in np.linspace(-10.0, 2.0, 49)]
    cmap = [(loop.LoopFilter(g, loop.SinglePole(gamma), delay), None)
            for gamma, delay in CONFIGS for g in GAINS]
    sampled = [(loop.LoopFilter(
        -3.0, loop.Sampled(np.exp(-0.02 * np.arange(200)), 0.02), 0.2), None)]
    pair = qnd.QndParams(1.0, 1.0, 2.0).pair_response
    qnd_case = [(loop.LoopFilter(-10.0, loop.SinglePole(0.05), 0.0), pair)]
    cases = {"stability_grid_s": grid, "criterion4_map_s": cmap,
             "sampled_200_s": sampled, "qnd_default_s": qnd_case}
    out = {"import_s": import_s}
    for name, group in cases.items():
        out[name] = best_of(lambda: decisions(group), repeats)
    out["decisions"] = {name: decisions(group)
                        for name, group in cases.items()}
    print(json.dumps(out))


def csv_rows(path: str) -> list:
    with open(path) as fh:
        return [line for line in fh if not line.startswith("#")]


def run_side(src: str, repeats: int, workdir: str) -> dict:
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--worker",
         "--repeats", str(repeats)],
        env=env, cwd=workdir, capture_output=True, text=True, check=True)
    out = json.loads(proc.stdout.splitlines()[-1])
    csv = os.path.join(workdir, "stability.csv")
    start = time.perf_counter()
    cli = subprocess.Popen(
        [sys.executable, "-m", "qfeedback", "stability", "--output", csv],
        env=env, cwd=workdir, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(cli.pid, 0)
    out["cli_s"] = time.perf_counter() - start
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(f"qfeedback stability failed with {src}")
    out["cli_rss_mb"] = usage.ru_maxrss / 1024.0
    out["csv_rows"] = csv_rows(csv)
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
                f"{m} {samples['parent'][-1][m]:.4f} -> "
                f"{samples['change'][-1][m]:.4f}" for m in METRICS),
                flush=True)
    pairs = list(zip(samples["parent"], samples["change"]))
    sides = {}
    for side, runs in samples.items():
        sides[side] = {
            "decisions": runs[0]["decisions"],
            "samples": {m: [r[m] for r in runs] for m in METRICS},
            "summary": {m: summary([r[m] for r in runs]) for m in METRICS},
        }
    wins = {m: sum(c[m] < p[m] for p, c in pairs) for m in METRICS}
    result = {
        "env": {"python": platform.python_version(),
                "numpy": __import__("numpy").__version__,
                "nproc": os.cpu_count(),
                "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")},
        "rounds": args.rounds, "repeats": args.repeats,
        "metric": "seconds (cli_rss_mb: MiB); in-process timings are the "
                  "best of repeats after one warm-up call, one sample per "
                  "side and round; summary over rounds",
        "same_decisions": all(p["decisions"] == c["decisions"]
                              for p, c in pairs),
        "same_csv_rows": all(p["csv_rows"] == c["csv_rows"] for p, c in pairs),
        "change_wins": wins,
        "sides": sides,
    }
    for m in METRICS:
        p, c = sides["parent"]["summary"][m], sides["change"]["summary"][m]
        print(f"{m:18s} parent {p['median']:.4f} [{p['q1']:.4f}, {p['q3']:.4f}]"
              f"  change {c['median']:.4f} [{c['q1']:.4f}, {c['q3']:.4f}]"
              f"  change lower in {wins[m]}/{args.rounds}")
    print(f"same decisions: {result['same_decisions']}, "
          f"same stability CSV rows: {result['same_csv_rows']}")
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
