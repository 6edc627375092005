"""The A/B driver shared by the bench/ scripts.

A script times one layer of two checkouts. It supplies its case names and a
worker, which runs one case in a fresh process with one checkout's `src` on
PYTHONPATH and prints one JSON line; a `run_side` that runs one side once
(one worker process per case, merged by `run_cases`, plus any fresh-process
CLI timing) and returns its sample; and a report that turns both sides'
samples into the JSON written to --out. Each case gets its own process so
that its time does not depend on what the cases before it allocated or
warmed up. This module holds the rest: the command line (--parent, --out,
--rounds, --repeats and the internal --worker and --case), the rounds, each
of which runs both sides with the side that goes first alternating so that
slow drift of a shared host reaches both alike, best-of timing, quartile
summaries, round wins, fresh-process timing and the env block.
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
SIDES = ("parent", "change")


def best_of(fn, repeats: int) -> float:
    """The shortest of `repeats` timed calls of fn, after one untimed call."""
    fn()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def summary(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def change_wins(samples: dict, key) -> int:
    """The rounds in which the change's sample[key] was below the parent's."""
    return sum(c[key] < p[key]
               for p, c in zip(samples["parent"], samples["change"]))


def sides_summary(samples: dict, metrics) -> dict:
    """Per side: every round's sample and the quartiles of each metric."""
    return {side: {"samples": {m: [r[m] for r in runs] for m in metrics},
                   "summary": {m: summary([r[m] for r in runs])
                               for m in metrics}}
            for side, runs in samples.items()}


def print_summary(sides: dict, wins: dict, rounds: int) -> None:
    for m, n in wins.items():
        p, c = sides["parent"]["summary"][m], sides["change"]["summary"][m]
        print(f"{m:28s} parent {p['median']:.4f} [{p['q1']:.4f}, {p['q3']:.4f}]"
              f"  change {c['median']:.4f} [{c['q1']:.4f}, {c['q3']:.4f}]"
              f"  change lower in {n}/{rounds}")


def last_round(metrics, digits: int = 4):
    """A progress function: every metric of the last round, parent -> change."""
    def progress(samples: dict) -> str:
        return "  ".join(f"{m} {samples['parent'][-1][m]:.{digits}f} -> "
                         f"{samples['change'][-1][m]:.{digits}f}"
                         for m in metrics)
    return progress


def env() -> dict:
    import numpy as np
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def run_worker(script: str, src: str, repeats: int, cwd: str, case: str):
    """Run `script --worker --case case` in a fresh process on `src`; its
    last JSON line."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(script), "--worker",
         "--repeats", str(repeats), "--case", case],
        env=dict(os.environ, PYTHONPATH=src), cwd=cwd, capture_output=True,
        text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def run_cases(script: str, src: str, repeats: int, cwd: str, cases) -> dict:
    """run_worker once per case, each in a fresh process, merged into one
    sample: dict entries joined key by key, lists concatenated in case
    order, and any other entry (such as import_s) taken from the first case
    that reports it."""
    out = {}
    for case in cases:
        for key, value in run_worker(script, src, repeats, cwd,
                                     case).items():
            if key not in out:
                out[key] = value
            elif isinstance(value, dict):
                out[key].update(value)
            elif isinstance(value, list):
                out[key] += value
    return out


def time_python(args: list, src: str, cwd: str, environ: dict | None = None):
    """Run `python *args` on `src` as a fresh process: its wall seconds and
    peak resident MiB. Raises if it exits nonzero. The process gets `environ`
    (default: this process's environment) with PYTHONPATH set to `src`."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable] + list(args),
        env=dict(os.environ if environ is None else environ, PYTHONPATH=src),
        cwd=cwd,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - start
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(f"python {' '.join(args)} failed with {src}")
    return seconds, usage.ru_maxrss / 1024.0


def time_cli(args: list, src: str, cwd: str, environ: dict | None = None):
    """time_python for `python -m qfeedback *args`."""
    return time_python(["-m", "qfeedback"] + list(args), src, cwd, environ)


def main(argv, script: str, doc: str, worker, report, rounds: int,
         repeats: int, run_side=None, progress=None, cases=()) -> None:
    """The command line of the bench script `script`.

    With --worker, calls worker(repeats, case) for the --case named; a
    script without in-process timings passes worker=None and its own
    run_side. Otherwise runs --rounds rounds of run_side(src, repeats,
    workdir) on both sides (by default run_cases over `cases`; workdir is a
    temporary directory shared by every run), printing progress(samples)
    after each, and writes {"env": ..., **report(samples, args)} to --out.
    """
    if run_side is None:
        def run_side(src, repeats, workdir):
            return run_cases(script, src, repeats, workdir, cases)
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("--parent", help="src directory of the other checkout")
    parser.add_argument("--out", help="JSON file to write")
    parser.add_argument("--rounds", type=int, default=rounds)
    parser.add_argument("--repeats", type=int, default=repeats)
    parser.add_argument("--worker", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--case", choices=cases or None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        worker(args.repeats, args.case)
        return
    if not (args.parent and args.out):
        parser.error("--parent and --out are required")
    srcs = {"parent": os.path.abspath(args.parent),
            "change": os.path.join(ROOT, "src")}
    samples = {side: [] for side in SIDES}
    with tempfile.TemporaryDirectory() as workdir:
        for rnd in range(args.rounds):
            for side in SIDES if rnd % 2 == 0 else SIDES[::-1]:
                samples[side].append(run_side(srcs[side], args.repeats,
                                              workdir))
            line = progress(samples) if progress else "done"
            print(f"round {rnd + 1}/{args.rounds}: {line}", flush=True)
    result = {"env": env(), **report(samples, args)}
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
