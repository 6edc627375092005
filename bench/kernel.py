"""Time the SME step kernel, `trajectories._Kernel.step`, of two checkouts,
alternating them every round.

Four unravelings (photon counting, homodyne jump with beta = 1, diffusive
homodyne with Markovian feedback F = -0.15 y, and the same feedback delayed)
on a damped cavity, at d in {2, 4, 8, 12, 16, 20, 24} and batch sizes B in
{1, 64, 256}. Each case starts B rows from a Fock state, draws its noise from a
fixed Philox stream (the same on every checkout), and times STEPS consecutive
steps, next to the time to build the kernel. Rows are padded to a multiple of
the kernel's row block, as the engine pads them, so B = 1 pays what a lone
trajectory pays. The delayed case feeds back the record of the previous step
(a delay of one step), so every step pays for the kick.

Every round runs one fresh worker process per side, and the side that goes
first alternates, so slow drift of a shared host reaches both sides alike. A
worker runs every case once untimed, then times each case --repeats times
(one round over all cases per repeat, so a burst of load from other
processes hits one repeat of a case rather than all of them) and reports the
best. The summary per case is the median over rounds of microseconds per
trajectory-step and of the build time, and how many rounds the change won.

Run from the root of a checkout; --parent points at the `src` directory of
the checkout to compare against (for example an exported copy of the parent
commit):

    python bench/kernel.py --parent /tmp/parent/src --out BENCH.json

The change side is this checkout's `src`.
"""

from __future__ import annotations

import json
import math
import statistics
import time

import numpy as np
from numpy.random import Generator, Philox

import _ab

DIMS = (2, 4, 8, 12, 16, 20, 24)
BATCHES = (1, 64, 256)
UNRAVELINGS = ("counting", "homodyne_jump", "markovian_feedback",
               "delayed_feedback")
DT, ETA, STEPS, SEED = 1e-3, 0.8, 200, 2024
METRICS = ("us_per_traj_step", "build_ms")


def kernel_for(name: str, dim: int):
    from qfeedback import operators as ops
    from qfeedback import trajectories as tj

    # a fresh model, so no operator or Liouvillian cached on it is reused
    model = ops.LindbladModel(np.zeros((dim, dim), dtype=complex),
                              ((1.0, ops.destroy(dim)),))
    f_op = -0.15 * ops.quad_y(dim)
    if name == "counting":
        return tj._Kernel(model, DT)
    if name == "homodyne_jump":
        return tj._Kernel(model, DT, beta=1.0)
    return tj._Kernel(model, DT, eta=ETA, f_op=f_op,
                      delayed=name == "delayed_feedback")


class Case:
    """One (unraveling, d, B): its kernel, fixed noise and start rows."""

    def __init__(self, name: str, dim: int, batch: int):
        from qfeedback import operators as ops
        from qfeedback import trajectories as tj

        self.name, self.dim, self.batch = name, dim, batch
        self.kernel = kernel = kernel_for(name, dim)
        self.best_build = math.inf
        self.rows = -(-batch // tj._ROW_PAD) * tj._ROW_PAD
        gen = Generator(Philox(key=SEED))
        self.noise = np.full((STEPS, self.rows), kernel.idle_noise)
        if kernel.diffusive:
            self.noise[:, :batch] = (gen.standard_normal((STEPS, batch))
                                     * math.sqrt(DT))
        else:
            self.noise[:, :batch] = gen.random((STEPS, batch))
        rho0 = ops.fock_dm(dim, min(3, dim - 1))
        self.r0 = np.tile(kernel.rows(rho0), (self.rows, 1))
        self.best = math.inf
        self.records = np.empty((STEPS, self.rows))

    def run(self, records=None) -> None:
        r, old = self.r0.copy(), None
        delayed = self.name == "delayed_feedback"
        for k in range(STEPS):
            r, record, _ = self.kernel.step(r, self.noise[k], old)
            if delayed:
                old = record
            if records is not None:
                records[k] = record

    def time_once(self) -> None:
        start = time.perf_counter()
        kernel_for(self.name, self.dim)
        built = time.perf_counter()
        self.run()
        self.best_build = min(self.best_build, built - start)
        self.best = min(self.best, time.perf_counter() - built)

    def result(self) -> dict:
        out = {"unraveling": self.name, "d": self.dim, "B": self.batch,
               "rows": self.rows,
               "us_per_traj_step": 1e6 * self.best / (STEPS * self.batch),
               "build_ms": 1e3 * self.best_build}
        if not self.kernel.diffusive:
            out["detections"] = int(self.records[:, :self.batch].sum())
        return out


def worker(repeats: int) -> None:
    """Time every case of the checkout on PYTHONPATH; print JSON."""
    cases = [Case(name, dim, batch) for name in UNRAVELINGS
             for dim in DIMS for batch in BATCHES]
    with np.errstate(all="ignore"):
        for case in cases:
            case.run(case.records)             # warm-up, untimed
        for _ in range(repeats):
            for case in cases:
                case.time_once()
    print(json.dumps([case.result() for case in cases]))


def report(samples: dict, args) -> dict:
    results = []
    for i, first in enumerate(samples["parent"][0]):
        row = {k: first[k] for k in ("unraveling", "d", "B", "rows")}
        for side, runs in samples.items():
            for m in METRICS:
                row[f"{side}_{m}"] = statistics.median(r[i][m] for r in runs)
            if "detections" in first:
                row[f"{side}_detections"] = runs[0][i]["detections"]
        for m in METRICS:
            row[f"change_wins_{m}"] = sum(
                c[i][m] < p[i][m]
                for p, c in zip(samples["parent"], samples["change"]))
        results.append(row)
        print(f"{row['unraveling']:20s} d={row['d']:2d} B={row['B']:3d} "
              + "  ".join(f"{m} {row['parent_' + m]:9.3f} -> "
                          f"{row['change_' + m]:9.3f} "
                          f"({row['change_wins_' + m]}/{args.rounds})"
                          for m in METRICS))
    return {
        "dt": DT, "steps": STEPS, "seed": SEED, "rounds": args.rounds,
        "repeats": args.repeats,
        "metric": "per side and round, the best of repeats in one worker: "
                  "microseconds per trajectory-step and kernel build "
                  "milliseconds; reported as the median over rounds, with "
                  "the rounds in which the change was faster",
        "results": results,
    }


def main(argv=None) -> None:
    _ab.main(argv, __file__, __doc__, worker, report, rounds=5, repeats=2)


if __name__ == "__main__":
    main()
