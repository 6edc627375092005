"""Time the SME driver, `trajectories._integrate`, of two checkouts,
alternating them every round.

Four unravelings (photon counting, homodyne jump with beta = 1, diffusive
homodyne with Markovian feedback F = -0.15 y, and the same feedback delayed
by one step, so every step pays for the kick) on a damped cavity, at d in
{2, 12} with batch sizes B in {1, 64, 256}, and at d = 20 with B in {1, 64}.
Each case integrates B trajectories from Fock state 3 (state 1 at d = 2)
for STEPS steps with the driver the ensembles use: the noise draws, the
steps, the positivity gate every POSITIVITY_CHECK_EVERY steps and at the
end, and whatever renormalization each checkout does. Timing the driver
rather than one kernel step keeps work that moves between the step and the
gate on the clock. The time to build the kernel is reported next to it, and
so is the number of coordinates the kernel steps per row (its `width`; d^2
for a kernel without one). A checkout whose `_Kernel` takes the initial
state gets it; one without that argument is built as before.

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

import inspect
import json
import math
import statistics
import time

import numpy as np

import _ab

# (d, B); d = 20 measures the jump unravelings of a lone trajectory there
SIZES = ((2, 1), (2, 64), (2, 256), (12, 1), (12, 64), (12, 256), (20, 1),
         (20, 64))
UNRAVELINGS = ("counting", "homodyne_jump", "markovian_feedback",
               "delayed_feedback")
DT, ETA, STEPS, SEED = 1e-3, 0.8, 200, 2024
METRICS = ("us_per_traj_step", "build_ms")


def config_for(name: str, dim: int):
    from qfeedback import operators as ops
    from qfeedback import trajectories as tj

    # a fresh model, so no operator or Liouvillian cached on it is reused
    model = ops.LindbladModel(np.zeros((dim, dim), dtype=complex),
                              ((1.0, ops.destroy(dim)),))
    f_op = -0.15 * ops.quad_y(dim)
    detection, feedback = {
        "counting": (tj.PhotonCounting(), None),
        "homodyne_jump": (tj.HomodyneJump(1.0), None),
        "markovian_feedback": (tj.HomodyneDiffusive(ETA), tj.Feedback(f_op)),
        "delayed_feedback": (tj.HomodyneDiffusive(ETA),
                             tj.Feedback(f_op, tj.Delayed(DT))),
    }[name]
    return tj.SmeConfig(model=model, detection=detection, dt=DT, steps=STEPS,
                        seed=SEED, feedback=feedback)


class Case:
    """One (unraveling, d, B): its configuration, kernel and seeds."""

    def __init__(self, name: str, dim: int, batch: int):
        from qfeedback import operators as ops

        self.name, self.dim, self.batch = name, dim, batch
        self.rho0 = ops.fock_dm(dim, min(3, dim - 1))
        self.kernel, self.config = self.build()
        self.seeds = [SEED ^ i for i in range(batch)]
        self.best = self.best_build = math.inf
        self.records = self.failed = None

    def build(self):
        """A kernel for a fresh configuration, and that configuration."""
        from qfeedback import trajectories as tj
        config = config_for(self.name, self.dim)
        args = [config.model, config.dt, config.detection, config.feedback]
        if "rho0" in inspect.signature(tj._Kernel).parameters:
            args.append(self.rho0)
        return tj._Kernel(*args), config

    def run(self):
        from qfeedback import trajectories as tj
        return tj._integrate(self.kernel, self.config, self.rho0, self.seeds)

    def time_once(self) -> None:
        start = time.perf_counter()
        self.build()
        built = time.perf_counter()
        self.run()
        self.best_build = min(self.best_build, built - start)
        self.best = min(self.best, time.perf_counter() - built)

    def result(self) -> dict:
        from qfeedback import trajectories as tj
        out = {"unraveling": self.name, "d": self.dim, "B": self.batch,
               "rows": -(-self.batch // tj._ROW_PAD) * tj._ROW_PAD,
               "width": getattr(self.kernel, "width", self.dim ** 2),
               "us_per_traj_step": 1e6 * self.best / (STEPS * self.batch),
               "build_ms": 1e3 * self.best_build,
               "failed": int(np.count_nonzero(self.failed))}
        if not self.kernel.diffusive:
            out["detections"] = int(self.records.sum())
        return out


def worker(repeats: int) -> None:
    """Time every case of the checkout on PYTHONPATH; print JSON."""
    cases = [Case(name, dim, batch) for name in UNRAVELINGS
             for dim, batch in SIZES]
    for case in cases:
        case.records, _, case.failed = case.run()     # warm-up, untimed
    for _ in range(repeats):
        for case in cases:
            case.time_once()
    print(json.dumps([case.result() for case in cases]))


def report(samples: dict, args) -> dict:
    results = []
    for i, first in enumerate(samples["parent"][0]):
        row = {k: first[k] for k in ("unraveling", "d", "B", "rows")}
        for side, runs in samples.items():
            row[f"{side}_width"] = runs[0][i]["width"]
            for m in METRICS:
                row[f"{side}_{m}"] = statistics.median(r[i][m] for r in runs)
            row[f"{side}_failed"] = runs[0][i]["failed"]
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
                  "microseconds per trajectory-step of _integrate and kernel "
                  "build milliseconds; reported as the median over rounds, "
                  "with the rounds in which the change was faster",
        "results": results,
    }


def main(argv=None) -> None:
    _ab.main(argv, __file__, __doc__, worker, report, rounds=15,
             repeats=2)


if __name__ == "__main__":
    main()
