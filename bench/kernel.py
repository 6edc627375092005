"""Time the SME step kernel, `trajectories._Kernel.step`, per trajectory-step.

Four unravelings (photon counting, homodyne jump with beta = 1, diffusive
homodyne with Markovian feedback F = -0.15 y, and the same feedback delayed)
on a damped cavity, at d in {2, 4, 8, 12, 16, 20, 24} and batch sizes B in
{1, 64, 256}. Each case starts B rows from a Fock state, draws its noise from a
fixed Philox stream (the same on every checkout), and times STEPS consecutive
steps; the best of REPEATS rounds over all cases is reported as microseconds
per trajectory-step, next to the best time to build the kernel. Rows are padded
to a multiple of the kernel's row block, as the engine pads them, so B = 1 pays
what a lone trajectory pays.

The script runs against either row layout of the kernel: real Hermitian
coordinates, converted by the kernel's own `rows`, or (older checkouts, whose
kernel has no `rows`) complex column-stacked vec(rho).

Run from the root of a checkout, pointing PYTHONPATH at the package to time:

    PYTHONPATH=src python bench/kernel.py --label change --out BENCH.json

Each call appends one labelled run to the JSON list in --out.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import time

import numpy as np
from numpy.random import Generator, Philox

from qfeedback import operators as ops
from qfeedback import trajectories as tj

DIMS = (2, 4, 8, 12, 16, 20, 24)
BATCHES = (1, 64, 256)
UNRAVELINGS = ("counting", "homodyne_jump", "markovian_feedback",
               "delayed_feedback")
DT, ETA, STEPS, REPEATS, SEED = 1e-3, 0.8, 200, 7, 2024


def kernel_for(name: str, dim: int):
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
        row = kernel.rows(rho0) if hasattr(kernel, "rows") else ops._vec(rho0)
        self.r0 = np.tile(row, (self.rows, 1))
        self.best = math.inf
        self.records = np.empty((STEPS, self.rows))

    def run(self, records=None) -> None:
        r, old = self.r0.copy(), None
        delayed = self.name == "delayed_feedback"
        for k in range(STEPS):
            r, record, xbar, _ = self.kernel.step(r, self.noise[k], old)
            if delayed:
                old = (self.noise[k], xbar)
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


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--out", required=True, help="JSON file to append to")
    args = parser.parse_args(argv)
    cases = [Case(name, dim, batch) for name in UNRAVELINGS
             for dim in DIMS for batch in BATCHES]
    with np.errstate(all="ignore"):
        for case in cases:
            case.run(case.records)             # warm-up, untimed
        # each round times every case once, so a burst of load from other
        # processes hits one repeat of a case rather than all of them
        for _ in range(REPEATS):
            for case in cases:
                case.time_once()
    results = [case.result() for case in cases]
    for res in results:
        print(f"{res['unraveling']:20s} d={res['d']:2d} B={res['B']:3d} "
              f"{res['us_per_traj_step']:9.3f} us/traj-step "
              f"(build {res['build_ms']:.2f} ms)")
    run = {
        "label": args.label,
        "env": {"python": platform.python_version(), "numpy": np.__version__,
                "nproc": os.cpu_count(),
                "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")},
        "dt": DT, "steps": STEPS, "repeats": REPEATS, "seed": SEED,
        "metric": "best of repeats, microseconds per trajectory-step; "
                  "build_ms: best of repeats, kernel construction",
        "results": results,
    }
    runs = []
    if os.path.exists(args.out):
        with open(args.out) as fh:
            runs = json.load(fh)
    runs.append(run)
    with open(args.out, "w") as fh:
        json.dump(runs, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
