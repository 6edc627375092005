"""Span tracing for the qfeedback benchmark, installed from outside the package.

A ``Tracer`` replaces layer entry points in each qfeedback module's namespace
with wrappers that record a span: call site, defining function, start, end,
the enclosing span and a few counts. Names one module imported from another
(``trajectories.estimate_psd``, ``trajectories.steady_state``, ...) are
wrapped in the importing module too, so a call made inside a layer nests as a
child span, and a layer's self time is its span minus its children.

Run as a script, this file is the traced CLI child: it installs the tracer,
calls ``qfeedback.cli.main`` with the remaining arguments and writes the spans
to the JSON file named by the first argument::

    python3 perfbench/spans.py SPANS.json spectra --output out.csv
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import re
import sys
import time
from contextlib import contextmanager

# Entry points wrapped in each module. The per-step kernels (step_*) and the
# operator constructors are left alone: they run thousands of times per
# trajectory and are not layer boundaries.
ENTRY_POINTS = {
    "operators": ("steady_state", "evolve", "two_time_correlation"),
    "trajectories": ("run_ensemble", "run_trajectory",
                     "feedback_master_equation",
                     "in_loop_correlation_spectrum",
                     "steady_state", "two_time_correlation", "estimate_psd"),
    "loop": ("is_stable", "in_loop_spectrum", "out_of_loop_spectrum",
             "phase_spectra", "in_loop_qnd_spectrum"),
    "semiclassical": ("simulate", "estimate_psd", "diverges", "is_stable"),
    "qnd": ("qnd_feedback_output_spectra", "large_gain_limit", "is_stable"),
    # closed-form modules: every public function defined there
    "intracavity": None,
    "atom_squash": None,
}

_ONLY_SUCCEEDED = re.compile(r"only (\d+)/(\d+) trajectories succeeded")


def _public_functions(mod):
    return tuple(name for name, obj in vars(mod).items()
                 if inspect.isfunction(obj) and not name.startswith("_")
                 and obj.__module__ == mod.__name__)


def _short(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


# ---------------------------------------------------------------------------
# counts attached to spans


def _min_eig(states) -> float:
    import numpy as np
    return float(np.linalg.eigvalsh(states).min())


def _ensemble_meta(args, kwargs, result, exc):
    """Counts for one run_ensemble call: attempted trajectory-steps, the up-front
    noise allocation (computed from the array sizes, not measured), successes,
    retries and the most negative snapshot eigenvalue."""
    config = args[0] if args else kwargs["config"]
    n_traj = args[1] if len(args) > 1 else kwargs["n_traj"]
    steps = config.steps
    diffusive = type(config.detection).__name__ == "HomodyneDiffusive"
    # uniform draws for counting; standard normals plus the scaled dW copy
    # for diffusive detection, each float64 at B x steps
    noise_bytes = n_traj * steps * 8 * (2 if diffusive else 1)
    meta = {"traj_steps": n_traj * steps, "n_traj": n_traj,
            "noise_mb": noise_bytes / 1e6, "retried": 0}
    if exc is None:
        meta["n_success"] = result.n_success
        kept = result.trajectories or []
        meta["retried"] = sum(1 for r in kept
                              if r.diagnostics.get("refinements", 0) > 0)
        states = [r.states for r in kept if r.states is not None]
        if states:
            meta["min_eig"] = min(_min_eig(s) for s in states)
    else:
        found = _ONLY_SUCCEEDED.search(str(exc))
        meta["n_success"] = int(found.group(1)) if found else 0
    return meta


def _steady_state_meta(args, kwargs, result, exc):
    model = args[0] if args else kwargs["model"]
    return {"d": model.dim}


def _simulate_meta(args, kwargs, result, exc):
    return {"samples": 0 if exc is not None else len(result.di2)}


META = {
    "trajectories.run_ensemble": _ensemble_meta,
    "operators.steady_state": _steady_state_meta,
    "semiclassical.simulate": _simulate_meta,
}


# ---------------------------------------------------------------------------
# tracer


class Tracer:
    """Records spans in memory; ``install`` patches the package, ``uninstall``
    restores it."""

    def __init__(self):
        self.spans = []     # dicts: site, func, t0, t1, parent, op, meta
        self._stack = []
        self._op = None
        self._saved = []

    def _wrap(self, site: str, fn):
        func = f"{_short(fn.__module__)}.{fn.__name__}"
        meta_fn = META.get(func)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = {"site": site, "func": func, "t0": time.perf_counter(),
                    "t1": None, "parent": self._stack[-1] if self._stack else -1,
                    "op": self._op, "meta": {}}
            self.spans.append(span)
            self._stack.append(idx)
            result, exc = None, None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                span["t1"] = time.perf_counter()
                self._stack.pop()
                if meta_fn is not None:
                    span["meta"] = meta_fn(args, kwargs, result, exc)

        return traced

    def install(self) -> None:
        for short, names in ENTRY_POINTS.items():
            mod = importlib.import_module(f"qfeedback.{short}")
            for name in names or _public_functions(mod):
                original = getattr(mod, name)
                self._saved.append((mod, name, original))
                setattr(mod, name, self._wrap(f"{short}.{name}", original))

    def uninstall(self) -> None:
        while self._saved:
            mod, name, original = self._saved.pop()
            setattr(mod, name, original)

    @contextmanager
    def op(self, name: str):
        """Root span of one benchmark operation; spans inside carry its name."""
        idx = len(self.spans)
        self.spans.append({"site": "op", "func": f"op.{name}",
                           "t0": time.perf_counter(), "t1": None,
                           "parent": -1, "op": name, "meta": {}})
        self._stack.append(idx)
        self._op = name
        try:
            yield
        finally:
            self.spans[idx]["t1"] = time.perf_counter()
            self._stack.pop()
            self._op = None


def self_times(spans) -> list:
    """Span duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["t1"] - s["t0"]
    return [s["t1"] - s["t0"] - c for s, c in zip(spans, child)]


def _cli_child(argv) -> None:
    spans_path = argv[1]
    sys.argv = ["qfeedback"] + argv[2:]
    import qfeedback.cli
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.op("cli." + sys.argv[1]):
            qfeedback.cli.main()
    finally:
        with open(spans_path, "w") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    _cli_child(sys.argv)
