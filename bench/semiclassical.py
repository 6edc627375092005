"""Time the semiclassical layer of two checkouts, alternating them every round.

Per side and round:

- `simulate_s`: `semiclassical.simulate` with the defaults of
  `qfeedback semiclassical` (g = -2, gamma = 1, T = 0, eta1 = 1, eta2 = 0.5,
  classical noise 2.0 / 0.5, dt = 0.01, duration 2000, seed 1234);
- `simulate_peak_mb`: the `tracemalloc` peak of one such call, in MB
  (10^6 bytes) of Python-level allocations, taken after the timings;
- `oracle_simulate_s` and `oracle_simulate_peak_mb`: the same for the larger
  of acceptance criterion 3's loops at the oracle's size (g = -0.8,
  gamma = 0.5, T = 0.5, eta1 = 0.9, eta2 = 0.7, classical noise 2.0 / 0.5,
  dt = 0.02, 10^6 samples: an order-26 recursion);
- `estimate_psd_s` and `estimate_psd_peak_mb`: `estimate_psd` on 10^6
  white-noise samples, 64 segments, and the tracemalloc peak of one call;
- `diverges_map_s`: `diverges` over acceptance criterion 4's stability map
  (10 gains x 5 (gamma, T) configurations, dt = T / 64, 400 time units,
  marginal gains skipped as the criterion skips them);
- `diverges_s.gamma<gamma>_T<T>`: the same map's gains at one (gamma, T)
  configuration, so that each response length shows on its own (400 time
  units at dt = T / 64: 25 600 samples at T = 1, 512 000 at T = 0.05);
- `cli_s` and `cli_rss_mb`: a fresh `python -m qfeedback semiclassical` with
  default settings, wall time and peak resident memory of that process.

Each in-process case runs in its own fresh worker process per side and
round, so that no case's time depends on the cases before it: one untimed
warm-up call, then the best of --repeats calls. Every round runs both sides,
and the side that goes first alternates, so slow drift of a shared host
reaches both sides alike. The workers also report the import time of
`qfeedback`, whether `scipy.signal` was loaded after each case, and (the
`diverges_map_s` case) the `diverges` verdict of every probe of the map,
which the report compares between the sides round by round.

Run from the root of a checkout; --parent points at the `src` directory of
the checkout to compare against (for example an exported copy of the parent
commit):

    python bench/semiclassical.py --parent /tmp/parent/src --out BENCH.json

The change side is this checkout's `src`. The JSON written to --out holds
both sides' samples, medians and quartiles, and how many rounds each side won.
"""

from __future__ import annotations

import json
import os
import sys
import time

import _ab

GAINS = (-12.0, -8.0, -4.0, -1.5, -0.8, 0.5, 1.5, 3.0, 6.0, 10.0)
CONFIGS = ((1.0, 1.0), (0.1, 1.0), (1.0, 0.3), (2.0, 0.2), (1.0, 0.05))
ROWS = tuple(f"diverges_s.gamma{gamma}_T{delay}" for gamma, delay in CONFIGS)
IN_PROCESS = ("simulate_s", "oracle_simulate_s", "estimate_psd_s",
              "diverges_map_s") + ROWS
PEAKS = ("simulate_peak_mb", "oracle_simulate_peak_mb", "estimate_psd_peak_mb")
METRICS = IN_PROCESS + PEAKS + ("cli_s", "cli_rss_mb", "import_s")


def worker(repeats: int, case: str) -> None:
    """Time the in-process case `case` of the checkout on PYTHONPATH; print
    JSON."""
    start = time.perf_counter()
    import tracemalloc

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
    oracle = sc.SemiclassicalSim(
        beamline=loop.FeedbackBeamline(beta=1.0, eta1=0.9, eta2=0.7,
                                       s0x=noise.spectrum, s0y=1.0),
        filter=loop.LoopFilter(-0.8, loop.SinglePole(0.5), 0.5),
        dt=0.02, duration=20000.0, seed=31, classical_noise=noise)
    series = np.random.default_rng(8).standard_normal(10 ** 6)
    rows = {row: [] for row in ROWS}
    for row, (gamma, delay) in zip(ROWS, CONFIGS):
        for g in GAINS:
            filt = loop.LoopFilter(g, loop.SinglePole(gamma), delay)
            try:
                stable = loop.is_stable(filt)
            except MarginalStability:
                continue
            rows[row].append((filt, delay / 64.0, stable))
    probes = [probe for row in rows.values() for probe in row]

    def peak_mb(fn):
        tracemalloc.start()
        fn()
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        return peak / 1e6

    def run_map(probes):
        for filt, dt, stable in probes:
            if sc.diverges(filt, dt, 400.0) == stable:
                raise RuntimeError(f"diverges disagrees with Nyquist: {filt}")

    cases = {
        "simulate_s": lambda: sc.simulate(sim),
        "oracle_simulate_s": lambda: sc.simulate(oracle),
        "estimate_psd_s": lambda: sc.estimate_psd(series, 0.01, 64),
        "diverges_map_s": lambda: run_map(probes),
        **{row: lambda row=row: run_map(rows[row]) for row in ROWS},
    }
    out = {"import_s": import_s, case: _ab.best_of(cases[case], repeats)}
    peak = case.removesuffix("_s") + "_peak_mb"
    if peak in PEAKS:
        out[peak] = peak_mb(cases[case])
    if case == "diverges_map_s":
        out["probes"] = len(probes)
        out["decisions"] = [int(sc.diverges(filt, dt, 400.0))
                            for filt, dt, _ in probes]
    out["scipy_signal_loaded"] = {case: "scipy.signal" in sys.modules}
    print(json.dumps(out))


def run_side(src: str, repeats: int, workdir: str) -> dict:
    out = _ab.run_cases(__file__, src, repeats, workdir, IN_PROCESS)
    csv = os.path.join(workdir, "semiclassical.csv")
    out["cli_s"], out["cli_rss_mb"] = _ab.time_cli(
        ["semiclassical", "--output", csv], src, workdir)
    return out


def report(samples: dict, args) -> dict:
    sides = _ab.sides_summary(samples, METRICS)
    for side, runs in samples.items():
        sides[side] = {
            "scipy_signal_loaded": [any(r["scipy_signal_loaded"].values())
                                    for r in runs],
            "probes": runs[0]["probes"], "decisions": runs[0]["decisions"],
            **sides[side]}
    wins = {m: _ab.change_wins(samples, m) for m in METRICS}
    same = all(p["decisions"] == c["decisions"]
               for p, c in zip(samples["parent"], samples["change"]))
    _ab.print_summary(sides, wins, args.rounds)
    print(f"same diverges decisions: {same}")
    return {
        "rounds": args.rounds, "repeats": args.repeats,
        "metric": "seconds (cli_rss_mb: MiB, *_peak_mb: MB of "
                  "tracemalloc peak); in-process timings are the "
                  "best of repeats after one warm-up call in a fresh process "
                  "per case, one sample per side and round; summary over "
                  "rounds",
        "same_decisions": same,
        "change_wins": wins,
        "sides": sides,
    }


def main(argv=None) -> None:
    _ab.main(argv, __file__, __doc__, worker, report, rounds=10, repeats=3,
             run_side=run_side, progress=_ab.last_round(METRICS, 3),
             cases=IN_PROCESS)


if __name__ == "__main__":
    main()
