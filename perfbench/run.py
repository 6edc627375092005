"""Benchmark of the qfeedback package, measured from outside the package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run it from the root of a source checkout; it imports the package from src/.
A run sets the workload up (``setup_s`` is the median of three fresh
interpreters: this process and two probes), then repeats the workload's fixed
list of operations, each followed by its correctness check, for about
``--seconds``; ``wall_s`` is the median pass. Both are reported at a
reference host speed measured by a calibration slice (see Calibration).
With ``--trace 0`` it prints the end-to-end metrics named in
BENCHMARK.json; with ``--trace 1`` it alternates untraced and traced passes
and prints the per-layer metrics, including the tracing overhead. The last
line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``failed`` counts operations that raised (for the CLI: exited non-zero) or
whose check rejected the result; ``correct`` is false when any check rejected
a result the program returned as good. The lines before it record the
environment, each operation's outcome, and the median, tail percentile and
sample count of every timing.

``--smoke`` runs every workload at tiny sizes, traced and untraced, and
asserts that every metric in BENCHMARK.json is emitted with its unit and that
the traced runs produce spans for every layer.
"""

import time

_START = time.perf_counter()   # setup_s counts from here: a fresh interpreter

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 2
PROBE_TIMEOUT_S = 120.0

STEP_US = "trajectories.step_us."     # + SME operation name
CLI_PROCESS = "cli.process_s."        # + subcommand
LOOP_SPECTRA = ("loop.in_loop_spectrum", "loop.out_of_loop_spectrum",
                "loop.phase_spectra", "loop.in_loop_qnd_spectrum")


class PackageMissing(Exception):
    pass


def load_package():
    """Import qfeedback from this checkout's src/; return (import seconds,
    number of loaded modules)."""
    init = os.path.join(SRC, "qfeedback", "__init__.py")
    if not os.path.isfile(init):
        raise PackageMissing(f"no package source at {init}")
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import qfeedback
    import_s = time.perf_counter() - t0
    if os.path.realpath(qfeedback.__file__) != os.path.realpath(init):
        raise PackageMissing(f"qfeedback imported from {qfeedback.__file__}")
    return import_s, len(sys.modules)


def read_benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# statistics and environment


def tail(samples):
    """Median, plus the highest whole percentile with at least ten samples
    beyond it (nearest rank; None for ten samples or fewer)."""
    n = len(samples)
    med = statistics.median(samples)
    if n <= 10:
        return med, None, n
    p = (100 * (n - 10)) // n
    rank = max(1, -(-p * n // 100))
    return med, (p, sorted(samples)[rank - 1]), n


def describe(name, samples, unit):
    med, best, n = tail(samples)
    extra = f", p{best[0]} {best[1]:.6g}" if best else ", no tail (n <= 10)"
    return f"{name}: median {med:.6g} {unit}{extra}, n={n}"


def git_commit():
    """The commit from .git/HEAD if this checkout has one (read directly, so
    nothing outside the checkout is touched)."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = os.path.join(ROOT, ".git", name)
        if os.path.exists(loose):
            with open(loose) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(workload, seed):
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    thread_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                   "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {
        "workload": workload, "seed": seed,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas,
        "blas_threads_env": {k: os.environ.get(k) for k in thread_vars},
        "git_commit": git_commit(),
    }


# ---------------------------------------------------------------------------
# host speed

# The shared hosts this runs on drift in speed by tens of percent over
# minutes, more than one run can average out. A fixed calibration slice runs
# before every operation and after every pass, and the end-to-end times are
# reported at a reference speed: measured time x CALIBRATION_REF_S / slice time.
CALIBRATION_REF_S = 0.05


class Calibration:
    """A fixed slice of the kinds of work the package does: stacked 2x2
    products (the SME kernel at small d), a dense product, and
    interpreter-bound Python."""

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self._np = np
        self._stack = (rng.standard_normal((256, 2, 2))
                       + 1j * rng.standard_normal((256, 2, 2)))
        self._dense = rng.standard_normal((96, 96)) + 0j
        self.samples = []
        self.slice()            # first-call costs (BLAS threads, caches)
        self.samples.clear()

    def slice(self) -> float:
        np = self._np
        t0 = time.perf_counter()
        a = self._stack
        for _ in range(160):
            a = a @ a
            a = a / (np.abs(np.einsum("bii->b", a))[:, None, None] + 1.0)
        m = self._dense
        for _ in range(70):
            m = m @ self._dense
            m = m / np.abs(m).max()
        acc = 0
        for i in range(200_000):
            acc += (i * 7) % 13
        elapsed = time.perf_counter() - t0
        self.samples.append(elapsed)
        return elapsed


# ---------------------------------------------------------------------------
# passes


class Context:
    def __init__(self, workdir, tracer):
        self.workdir = workdir
        self.tracer = tracer
        self.processes = []      # (subcommand, ProcessResult) of CLI children


def run_pass(op_list, ctx, cal):
    """Run every operation once, each followed by its check, with a
    calibration slice before each operation and after the last. The pass
    time counts the operations only."""
    outcomes = []
    slices = []
    for op in op_list:
        slices.append(cal.slice())
        t0 = time.perf_counter()
        span = ctx.tracer.op(op.name) if ctx.tracer else contextlib.nullcontext()
        detail = ""
        with span:
            try:
                result = op.run(ctx)
            except Exception as exc:   # a failed operation is counted, not fatal
                status, detail = "raised", f"{type(exc).__name__}: {exc}"
            else:
                try:
                    status = "ok" if op.check(result) else "wrong"
                except Exception as exc:
                    status, detail = "wrong", f"check {type(exc).__name__}: {exc}"
        outcomes.append((op.name, status, time.perf_counter() - t0, detail))
    slices.append(cal.slice())
    wall = sum(o[2] for o in outcomes)
    return {"wall": wall,
            "wall_ref": wall * CALIBRATION_REF_S / statistics.median(slices),
            "outcomes": outcomes, "processes": ctx.processes, "span_lists": []}


def traced_pass(op_list, workdir, cal):
    from spans import Tracer
    tracer = Tracer()
    tracer.install()
    try:
        rec = run_pass(op_list, Context(workdir, tracer), cal)
    finally:
        tracer.uninstall()
    rec["span_lists"] = [tracer.spans] + [p.spans for _, p in rec["processes"]]
    return rec


def measure(op_list, workdir, seconds, trace, cal):
    """Repeat passes for about `seconds`: whole passes, stopping when one more
    would end further from the target than stopping now. With tracing,
    alternate untraced and traced passes and make at least one of each."""
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        if trace and len(traced) < len(untraced):
            traced.append(traced_pass(op_list, workdir, cal))
        else:
            untraced.append(run_pass(op_list, Context(workdir, None), cal))
        elapsed = time.perf_counter() - start
        typical = statistics.median(r["wall"] for r in untraced + traced)
        if elapsed + typical / 2.0 >= seconds and (traced or not trace):
            return untraced, traced


# ---------------------------------------------------------------------------
# per-layer metrics from spans


def layer_values(rec, import_info, names):
    """Per-layer values of one traced pass; `names` are the metric names, which
    carry the SME operation and CLI subcommand of the per-operation metrics."""
    from spans import self_times
    rows = []
    for spans in rec["span_lists"]:
        rows.extend(zip(spans, self_times(spans)))

    def total(pred):
        return sum(st for s, st in rows if pred(s))

    def is_func(*names):
        return lambda s: s["func"] in names

    ens = [(s, st) for s, st in rows if s["func"] == "trajectories.run_ensemble"]
    metas = [s["meta"] for s, _ in ens]
    v = {"import.qfeedback_s": import_info[0],
         "import.modules_loaded": import_info[1]}
    for name in names:
        if name.startswith(STEP_US):
            hits = [(s, st) for s, st in ens if s["op"] == name[len(STEP_US):]]
            steps = sum(s["meta"]["traj_steps"] for s, _ in hits)
            v[name] = 1e6 * sum(st for _, st in hits) / steps if steps else 0.0
        elif name.startswith(CLI_PROCESS):
            v[name] = sum(p.seconds for sub, p in rec["processes"]
                          if sub == name[len(CLI_PROCESS):])
    n_traj = sum(m["n_traj"] for m in metas)
    v["trajectories.traj_steps"] = sum(m["traj_steps"] for m in metas)
    v["trajectories.noise_mb"] = max((m["noise_mb"] for m in metas), default=0.0)
    v["trajectories.traj_ok_ratio"] = (
        sum(m["n_success"] for m in metas) / n_traj if n_traj else 0.0)
    v["trajectories.retried"] = sum(m["retried"] for m in metas)
    v["trajectories.min_snapshot_eig"] = min(
        (m["min_eig"] for m in metas if "min_eig" in m), default=0.0)
    v["trajectories.estimate_psd.s"] = total(
        lambda s: s["site"] == "trajectories.estimate_psd")
    v["trajectories.in_loop_correlation_spectrum.s"] = total(
        is_func("trajectories.in_loop_correlation_spectrum"))
    v["operators.two_time_correlation.s"] = total(
        is_func("operators.two_time_correlation"))
    for d in (10, 20, 30):
        v[f"operators.steady_state.s.d{d}"] = total(
            lambda s, d=d: (s["func"] == "operators.steady_state"
                            and s["meta"].get("d") == d))
    v["operators.evolve.s"] = total(is_func("operators.evolve"))
    v["loop.is_stable.s"] = total(is_func("loop.is_stable"))
    v["loop.is_stable.calls"] = sum(1 for s, _ in rows
                                    if s["func"] == "loop.is_stable")
    v["loop.spectra.s"] = total(is_func(*LOOP_SPECTRA))
    v["semiclassical.simulate.s"] = total(is_func("semiclassical.simulate"))
    v["semiclassical.samples"] = sum(s["meta"].get("samples", 0) for s, _ in rows
                                     if s["func"] == "semiclassical.simulate")
    v["semiclassical.estimate_psd.s"] = total(
        lambda s: (s["func"] == "semiclassical.estimate_psd"
                   and s["site"] != "trajectories.estimate_psd"))
    v["semiclassical.diverges.s"] = total(is_func("semiclassical.diverges"))
    v["qnd.spectra.s"] = total(lambda s: s["func"].startswith("qnd."))
    v["intracavity.s"] = total(lambda s: s["func"].startswith("intracavity."))
    v["atom_squash.s"] = total(lambda s: s["func"].startswith("atom_squash."))
    return v


def span_report(traced):
    """Per call site: call count and per-call self time across traced passes."""
    from spans import self_times
    by_site = {}
    for rec in traced:
        for spans in rec["span_lists"]:
            for s, st in zip(spans, self_times(spans)):
                if s["site"] != "op":
                    by_site.setdefault(s["site"], []).append(st)
    return by_site


# ---------------------------------------------------------------------------
# main


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny sizes (smoke mode)")
    parser.add_argument("--probe-setup", action="store_true",
                        help="set the workload up, print the time, exit")
    parser.add_argument("--smoke", action="store_true")
    return parser.parse_args(argv)


def probe_setup(args):
    """Set-up time of a fresh interpreter running this same script."""
    argv = [sys.executable, os.path.abspath(__file__), "--probe-setup",
            "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        argv.append("--tiny")
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                         timeout=PROBE_TIMEOUT_S, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def main(argv=None):
    args = parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        print("--workload is required", file=sys.stderr)
        return 2
    spec = read_benchmark_spec()
    try:
        import_info = load_package()
    except (PackageMissing, ImportError) as exc:
        print(f"perfbench: cannot load qfeedback: {exc}", file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    op_list = workloads.WORKLOADS[args.workload](args.seed, args.tiny)
    setup_main = time.perf_counter() - _START
    if args.probe_setup:
        print(json.dumps({"setup_s": setup_main}))
        return 0
    # each set-up time is scaled by the calibration slices around it
    cal = Calibration()
    setups_ref = [setup_main * CALIBRATION_REF_S / cal.slice()]
    setups = [setup_main]
    for _ in range(SETUP_PROBES):
        before = cal.samples[-1]
        setups.append(probe_setup(args))
        around = (before + cal.slice()) / 2.0
        setups_ref.append(setups[-1] * CALIBRATION_REF_S / around)

    print("env " + json.dumps(environment(args.workload, args.seed)))
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        untraced, traced = measure(op_list, workdir, args.seconds,
                                   bool(args.trace), cal)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for op in op_list:
        print(f"check {op.name}: {op.check_name}")
    records = untraced + traced
    outcomes = [o for rec in records for o in rec["outcomes"]]
    for name in dict.fromkeys(o[0] for o in outcomes):
        mine = [o for o in outcomes if o[0] == name]
        bad = [o for o in mine if o[1] != "ok"]
        print(describe(f"op {name}", [o[2] for o in mine], "s")
              + f", failed {len(bad)}/{len(mine)}"
              + (f" ({bad[0][1]}: {bad[0][3]})" if bad else ""))
    attempted = len(outcomes)
    failed = sum(1 for o in outcomes if o[1] != "ok")
    correct = not any(o[1] == "wrong" for o in outcomes)
    walls = [rec["wall"] for rec in untraced]
    speed = CALIBRATION_REF_S / statistics.median(cal.samples)
    print(describe("calibration slice", cal.samples, "s")
          + f"; speed factor {speed:.6g}")
    print(describe("setup (measured)", setups, "s"))
    print(describe("setup at reference speed", setups_ref, "s"))
    print(describe("pass (measured, untraced)", walls, "s"))
    print(describe("pass at reference speed (untraced)",
                   [rec["wall_ref"] for rec in untraced], "s"))

    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        per_pass = [layer_values(rec, import_info, names) for rec in traced]
        values = {k: statistics.median(p[k] for p in per_pass)
                  for k in per_pass[0]}
        values["trace.overhead_s"] = (
            statistics.median(rec["wall"] for rec in traced)
            - statistics.median(walls))
        print(describe("pass (measured, traced)",
                       [rec["wall"] for rec in traced], "s"))
        by_site = span_report(traced)
        for site, samples in sorted(by_site.items()):
            print(describe(f"span {site} self", samples, "s"))
        print("spans " + json.dumps(sorted(by_site)))
        wanted = spec["per_layer"]
    else:
        if args.workload == "cli":
            peak_kb = max(p.maxrss_kb for rec in untraced
                          for _, p in rec["processes"])
        else:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {"setup_s": statistics.median(setups_ref),
                  "wall_s": statistics.median(rec["wall_ref"] for rec in untraced),
                  "peak_rss_mb": peak_kb / 1024.0,
                  "ok_frac": (attempted - failed) / attempted}
        print(f"fail_frac: {failed / attempted:.6g} "
              f"({failed}/{attempted} operations)")
        wanted = spec["end_to_end"]

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"perfbench: no value for {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


# ---------------------------------------------------------------------------
# smoke mode

# Per-layer metrics each workload's traced run must drive above zero, so that
# every layer is seen producing spans somewhere.
EXPECTED_NONZERO = {
    "sme-atom": ["trajectories.step_us.atom_feedback", "trajectories.traj_steps",
                 "trajectories.noise_mb", "trajectories.traj_ok_ratio",
                 "trajectories.estimate_psd.s"],
    "sme-cavity": ["trajectories.step_us.cavity_counting",
                   "trajectories.step_us.cavity_homodyne_jump",
                   "trajectories.step_us.cavity_markovian_feedback",
                   "trajectories.step_us.cavity_delayed_feedback",
                   "trajectories.traj_steps", "trajectories.estimate_psd.s"],
    "analysis": ["trajectories.in_loop_correlation_spectrum.s",
                 "operators.two_time_correlation.s",
                 "operators.steady_state.s.d10", "operators.steady_state.s.d20",
                 "operators.steady_state.s.d30", "operators.evolve.s",
                 "loop.is_stable.s", "loop.is_stable.calls", "loop.spectra.s",
                 "semiclassical.simulate.s", "semiclassical.samples",
                 "semiclassical.estimate_psd.s", "semiclassical.diverges.s",
                 "qnd.spectra.s", "intracavity.s", "atom_squash.s"],
    "cli": ["cli.process_s.spectra", "cli.process_s.stability",
            "cli.process_s.semiclassical", "cli.process_s.qnd",
            "cli.process_s.trajectory", "cli.process_s.intracavity",
            "cli.process_s.atom", "loop.spectra.s", "semiclassical.simulate.s",
            "qnd.spectra.s", "intracavity.s", "atom_squash.s"],
}
# Emitted everywhere but legitimately zero or signed.
MAY_BE_ZERO = {"trajectories.retried", "trajectories.min_snapshot_eig",
               "trace.overhead_s", "import.qfeedback_s", "import.modules_loaded"}


def smoke():
    spec = read_benchmark_spec()
    problems = []
    covered = set()
    for workload in spec["workloads"]:
        name = workload["name"]
        for trace in (0, 1):
            argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                    "--seed", "7", "--seconds", "0", "--trace", str(trace),
                    "--tiny"]
            out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                                 timeout=600)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                problems.append(f"{name} trace={trace}: exit {out.returncode}: "
                                f"{out.stderr.strip()[-500:]}")
                continue
            result = json.loads(lines[-1])
            wanted = spec["per_layer"] if trace else spec["end_to_end"]
            got = result["metrics"]
            for m in wanted:
                if got.get(m["name"], {}).get("unit") != m["unit"]:
                    problems.append(f"{name} trace={trace}: {m['name']} "
                                    f"missing or not in {m['unit']}")
            if set(got) != {m["name"] for m in wanted}:
                problems.append(f"{name} trace={trace}: unexpected metrics")
            if trace:
                for metric in EXPECTED_NONZERO[name]:
                    if not got.get(metric, {}).get("value", 0) > 0:
                        problems.append(f"{name}: no spans for {metric}")
                covered.update(EXPECTED_NONZERO[name])
            print(f"smoke {name} trace={trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
    uncovered = {m["name"] for m in spec["per_layer"]} - covered - MAY_BE_ZERO
    if uncovered:
        problems.append(f"layers without an expected span: {sorted(uncovered)}")
    for p in problems:
        print("SMOKE FAIL " + p)
    print("smoke: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
