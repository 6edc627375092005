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
- `beyond_big_s`: `is_stable` on four loops whose contour cut 2|g|·ft_bound
  lies beyond `big` = 100·max(rate, 1, 1/T) (rate gamma or 1/dt), where a
  contour truncated at `big` stops short of it: the single pole gamma = 3.2,
  T = 4.4, g = -301; the `Sampled` taps [1, 0.5, 0.25] at dt = 0.02 with
  T = 0.1, g = -80; the one-tap box at dt = 0.02 with T = 0, g = -30; and
  the QND pair of `qnd_default_s` with gamma_f = 1, g = -1e4;
- `cli_s` and `cli_rss_mb`: a fresh `python -m qfeedback stability` with
  default settings, wall time and peak resident memory of that process.

Each in-process case runs in its own fresh worker process per side and
round, so that no case's time depends on the cases before it: one untimed
warm-up call, then the best of --repeats calls. Every round runs both sides,
and the side that goes first alternates, so slow drift of a shared host
reaches both sides alike. The workers also report the import time of
`qfeedback` and every stable / unstable / marginal decision they saw, and
each round compares the data rows of the two sides' `stability` CSVs.

Run from the root of a checkout; --parent points at the `src` directory of
the checkout to compare against (for example an exported copy of the parent
commit):

    python bench/loop.py --parent /tmp/parent/src --out BENCH.json

The change side is this checkout's `src`. The JSON written to --out holds
both sides' samples, medians and quartiles, and how many rounds each side won.
"""

from __future__ import annotations

import json
import os
import time

import _ab

IN_PROCESS = ("stability_grid_s", "criterion4_map_s", "sampled_200_s",
              "qnd_default_s", "beyond_big_s")
METRICS = IN_PROCESS + ("cli_s", "cli_rss_mb", "import_s")
GAINS = (-12.0, -8.0, -4.0, -1.5, -0.8, 0.5, 1.5, 3.0, 6.0, 10.0)
CONFIGS = ((1.0, 1.0), (0.1, 1.0), (1.0, 0.3), (2.0, 0.2), (1.0, 0.05))


def worker(repeats: int, case: str) -> None:
    """Time the in-process case `case` of the checkout on PYTHONPATH; print
    JSON."""
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
    beyond = [
        (loop.LoopFilter(-301.0, loop.SinglePole(3.2), 4.4), None),
        (loop.LoopFilter(-80.0, loop.Sampled([1.0, 0.5, 0.25], 0.02), 0.1),
         None),
        (loop.LoopFilter(-30.0, loop.Sampled([1.0], 0.02), 0.0), None),
        (loop.LoopFilter(-1e4, loop.SinglePole(1.0), 0.0), pair)]
    cases = {"stability_grid_s": grid, "criterion4_map_s": cmap,
             "sampled_200_s": sampled, "qnd_default_s": qnd_case,
             "beyond_big_s": beyond}
    group = cases[case]
    print(json.dumps({"import_s": import_s,
                      case: _ab.best_of(lambda: decisions(group), repeats),
                      "decisions": {case: decisions(group)}}))


def csv_rows(path: str) -> list:
    with open(path) as fh:
        return [line for line in fh if not line.startswith("#")]


def run_side(src: str, repeats: int, workdir: str) -> dict:
    out = _ab.run_cases(__file__, src, repeats, workdir, IN_PROCESS)
    csv = os.path.join(workdir, "stability.csv")
    out["cli_s"], out["cli_rss_mb"] = _ab.time_cli(
        ["stability", "--output", csv], src, workdir)
    out["csv_rows"] = csv_rows(csv)
    return out


def report(samples: dict, args) -> dict:
    pairs = list(zip(samples["parent"], samples["change"]))
    sides = _ab.sides_summary(samples, METRICS)
    for side, runs in samples.items():
        sides[side] = {"decisions": runs[0]["decisions"], **sides[side]}
    wins = {m: _ab.change_wins(samples, m) for m in METRICS}
    result = {
        "rounds": args.rounds, "repeats": args.repeats,
        "metric": "seconds (cli_rss_mb: MiB); in-process timings are the "
                  "best of repeats after one warm-up call in a fresh process "
                  "per case, one sample per side and round; summary over "
                  "rounds",
        "same_decisions": all(p["decisions"] == c["decisions"]
                              for p, c in pairs),
        "same_csv_rows": all(p["csv_rows"] == c["csv_rows"] for p, c in pairs),
        "change_wins": wins,
        "sides": sides,
    }
    _ab.print_summary(sides, wins, args.rounds)
    print(f"same decisions: {result['same_decisions']}, "
          f"same stability CSV rows: {result['same_csv_rows']}")
    return result


def main(argv=None) -> None:
    _ab.main(argv, __file__, __doc__, worker, report, rounds=10, repeats=3,
             run_side=run_side, progress=_ab.last_round(METRICS),
             cases=IN_PROCESS)


if __name__ == "__main__":
    main()
