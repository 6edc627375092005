"""Time the exact master-equation solvers of two checkouts (propagation,
steady states, the in-loop spectrum), alternating them every round.

Per side and round (every in-process case builds its models inside the
timed call, as a caller with a new model does, so that a generator cached on
a model is not timed as a cache hit on one side alone):

- `evolve_cavity_s`: `operators.evolve` at the reference points of the
  `sme-cavity` benchmark workload: the damped cavity at d = 12 from Fock state
  3, t = 0.15, 0.3, 0.45 and 0.6, under its own master equation and under the
  Markovian-feedback one (F = -0.15 y, eta = 0.8); eight calls on two
  models, as the workload computes its references;
- `evolve_atom_s`: `evolve` at the reference points of `sme-atom`: the atom
  (d = 2) under Markovian homodyne feedback at lambda = -eta eps
  (eta eps = 0.76), t = 0.5, 1, 1.5 and 2; four calls on one model;
- `evolve_d10_s` and `evolve_d30_s`: `evolve` of the parametric cavity
  (theta = 0.5, l = 0) from vacuum to t = 1 at d = 10 and d = 30;
- `correlation_d10_s`: `two_time_correlation` of x at d = 10 on 21 points of
  [0, 2], as in the `analysis` workload (the stationary state computed
  before timing);
- `squeezed_bath_t50_s`: `evolve` of the squeezed-bath cavity (N = 1,
  M = sqrt 2, d = 12) from vacuum to t = 50, the worst case of an action whose
  cost grows with t ||L||_1 (about 5500 here);
- `steady_state_d10_s`, `steady_state_d20_s` and `steady_state_d30_s`:
  `steady_state` of a parametric cavity (theta = 0.5, l = 0) built in the
  call, as in the `analysis` workload;
- `steady_state_d30_peak_mb`: the tracemalloc peak, in MB, of that call at
  d = 30 (the model built before tracing starts, its generator inside);
- `steady_state_dense_d30_s`: `steady_state` of a seeded dense model at
  d = 30 (a random Hermitian H and three random collapses), whose real
  generator is one invariant block: the cost of the block scan where there is
  no structure to exploit;
- `steady_state_dense_d30_peak_mb`: the tracemalloc peak, in MB, of that
  call, traced as `steady_state_d30_peak_mb`: the case where the block the
  trace row is written into is the whole generator;
- `steady_state_atom_s`: `steady_state` of the atom under Markovian homodyne
  feedback, as in `evolve_atom_s`: the per-call overhead at d = 2;
- `in_loop_cavity_d10_s`: `in_loop_correlation_spectrum` of the damped cavity
  at d = 10 under Markovian feedback (F = -0.15 y, eta = 0.8) on 100
  frequencies of [0, 2], the feedback model built in the call, as in the
  `analysis` workload;
- `in_loop_cavity_d16_s`: the same spectrum at d = 16;
- `fresh_s` and `fresh_rss_mb`: a fresh interpreter that imports
  `qfeedback.operators` and calls `evolve` once (the cavity at d = 12,
  t = 0.6): wall time and peak resident memory of that process.

The in-process timings run in a fresh worker process per side and round: one
untimed warm-up call, then the best of --repeats calls. Every round runs both
sides, and the side that goes first alternates, so slow drift of a shared
host reaches both sides alike. The worker also reports the import time of
`qfeedback.operators`, whether scipy was loaded after all calls, and every
result, from which the report takes each case's largest difference between
the two sides relative to the largest entry.

Run from the root of a checkout; --parent points at the `src` directory of
the checkout to compare against (for example an exported copy of the parent
commit):

    python bench/propagate.py --parent /tmp/parent/src --out BENCH.json

The change side is this checkout's `src`. The JSON written to --out holds
both sides' samples, medians and quartiles, and how many rounds each side won.
"""

from __future__ import annotations

import json
import sys
import time
import tracemalloc

import _ab

IN_PROCESS = ("evolve_cavity_s", "evolve_atom_s", "evolve_d10_s",
              "evolve_d30_s", "correlation_d10_s", "squeezed_bath_t50_s",
              "steady_state_d10_s", "steady_state_d20_s",
              "steady_state_d30_s", "steady_state_dense_d30_s",
              "steady_state_atom_s", "in_loop_cavity_d10_s",
              "in_loop_cavity_d16_s")
METRICS = IN_PROCESS + ("steady_state_d30_peak_mb",
                        "steady_state_dense_d30_peak_mb", "fresh_s",
                        "fresh_rss_mb", "import_s")
FRESH = ("import numpy as np\n"
         "from qfeedback import operators as ops\n"
         "cav = ops.LindbladModel(np.zeros((12, 12)),"
         " ((1.0, ops.destroy(12)),))\n"
         "ops.evolve(cav, ops.fock_dm(12, 3), 0.6)\n")


def worker(repeats: int) -> None:
    """Time the in-process calls of the checkout on PYTHONPATH; print JSON."""
    start = time.perf_counter()
    import numpy as np
    from qfeedback import operators as ops
    import_s = time.perf_counter() - start
    from qfeedback import intracavity as ic, trajectories as tj

    def cavity(d):
        return ops.LindbladModel(np.zeros((d, d)), ((1.0, ops.destroy(d)),))

    def cavity_fb(d):
        return tj.feedback_master_equation(cavity(d), -0.15 * ops.quad_y(d),
                                           0.8)

    def atom_fb():
        atom = ops.LindbladModel(np.zeros((2, 2)),
                                 ((1.0, ops.sigma_minus()),))
        return tj.feedback_master_equation(atom, -0.38 * ops.sigma_y(), 0.76)

    cav_p = ic.LinearCavityParams(l=0.0, theta=0.5)

    def parametric(d):
        return ic.parametric_model(cav_p, d)

    def dense30():
        rng = np.random.default_rng(30)
        h, *cs = (rng.normal(size=(4, 30, 30))
                  + 1j * rng.normal(size=(4, 30, 30)))
        return ops.LindbladModel(h + h.conj().T,
                                 tuple(zip(rng.uniform(0.1, 2.0, 3), cs)))

    x10 = ops.quad_x(10)
    rho10 = ops.steady_state(parametric(10))
    tau = np.linspace(0.0, 2.0, 21)
    omega = np.linspace(0.0, 2.0, 100)

    def peak_mb(model):
        """The tracemalloc peak of steady_state(model), in MB."""
        tracemalloc.start()
        ops.steady_state(model)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        return peak / 1e6

    cases = {
        "evolve_cavity_s": lambda: [
            ops.evolve(m, ops.fock_dm(12, 3), 0.15 * k)
            for m in (cavity(12), cavity_fb(12)) for k in range(1, 5)],
        "evolve_atom_s": lambda: [
            ops.evolve(m, ops.fock_dm(2, 0), 0.5 * k)
            for m in (atom_fb(),) for k in range(1, 5)],
        **{f"evolve_d{d}_s": lambda d=d: [
            ops.evolve(parametric(d), ops.fock_dm(d, 0), 1.0)]
           for d in (10, 30)},
        "correlation_d10_s": lambda: [ops.two_time_correlation(
            parametric(10), x10, x10 @ rho10, tau)],
        "squeezed_bath_t50_s": lambda: [ops.evolve(
            ic.squeezed_bath_model(1.0, np.sqrt(2.0), 12), ops.fock_dm(12, 0),
            50.0)],
        **{f"steady_state_d{d}_s": lambda d=d: [ops.steady_state(parametric(d))]
           for d in (10, 20, 30)},
        "steady_state_dense_d30_s": lambda: [ops.steady_state(dense30())],
        "steady_state_atom_s": lambda: [ops.steady_state(atom_fb())],
        **{f"in_loop_cavity_d{d}_s": lambda d=d: [
            tj.in_loop_correlation_spectrum(
                cavity_fb(d), ops.destroy(d), -0.15 * ops.quad_y(d), 0.8,
                omega).values]
           for d in (10, 16)},
    }
    out = {"import_s": import_s}
    for name, fn in cases.items():
        out[name] = _ab.best_of(fn, repeats)
    out["steady_state_d30_peak_mb"] = peak_mb(parametric(30))
    out["steady_state_dense_d30_peak_mb"] = peak_mb(dense30())
    results = {}
    for name, fn in cases.items():
        flat = np.concatenate([r.ravel() for r in fn()])
        results[name] = [flat.real.tolist(), flat.imag.tolist()]
    out["results"] = results
    out["scipy_loaded"] = "scipy" in sys.modules
    print(json.dumps(out))


def run_side(src: str, repeats: int, workdir: str) -> dict:
    out = _ab.run_worker(__file__, src, repeats, workdir)
    out["fresh_s"], out["fresh_rss_mb"] = _ab.time_python(["-c", FRESH], src,
                                                          workdir)
    return out


def agreement(parent: dict, change: dict) -> dict:
    """Per case: max |change - parent| / max |parent| over every result."""
    import numpy as np
    rel = {}
    for name, (re_p, im_p) in parent.items():
        p = np.array(re_p) + 1j * np.array(im_p)
        c = np.array(change[name][0]) + 1j * np.array(change[name][1])
        rel[name] = float(np.max(np.abs(c - p)) / np.max(np.abs(p)))
    return rel


def report(samples: dict, args) -> dict:
    sides = _ab.sides_summary(samples, METRICS)
    for side, runs in samples.items():
        sides[side] = {"scipy_loaded": [r["scipy_loaded"] for r in runs],
                       **sides[side]}
    wins = {m: _ab.change_wins(samples, m) for m in METRICS}
    rel = agreement(samples["parent"][0]["results"],
                    samples["change"][0]["results"])
    _ab.print_summary(sides, wins, args.rounds)
    for name, value in rel.items():
        print(f"{name:28s} change vs parent: {value:.2e} relative")
    return {
        "rounds": args.rounds, "repeats": args.repeats,
        "metric": "seconds (fresh_rss_mb: MiB, steady_state_d30_peak_mb and "
                  "steady_state_dense_d30_peak_mb: MB traced); in-process timings are the best of repeats "
                  "after one warm-up call, one sample per side and round; "
                  "summary over rounds",
        "relative_difference": rel,
        "change_wins": wins,
        "sides": sides,
    }


def main(argv=None) -> None:
    _ab.main(argv, __file__, __doc__, worker, report, rounds=10, repeats=3,
             run_side=run_side, progress=_ab.last_round(METRICS, 3))


if __name__ == "__main__":
    main()
