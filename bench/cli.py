"""Time the seven `qfeedback` subcommands of two checkouts as fresh processes,
alternating the checkouts every round.

Per side, round and bytecode mode, each subcommand runs once with default
settings as `python -m qfeedback <subcommand>`:

- `<mode>.<subcommand>_s` and `<mode>.<subcommand>_rss_mb`: wall time and
  peak resident memory of that process;
- `<mode>.total_s`: the seven wall times summed.

The two modes:

- `source`: PYTHONDONTWRITEBYTECODE=1 and no bytecode cache for the
  package, so every process compiles each qfeedback module it imports from
  source, as a fresh checkout does when bytecode writes are off; numpy and
  the standard library load from their installed bytecode;
- `cached`: bytecode writes on, with PYTHONPYCACHEPREFIX pointing into the
  temporary directory, and every subcommand run once untimed first, so each
  timed process loads all its modules from cached bytecode.

Each side's `src` is copied per mode into a temporary directory, so neither
mode reads the other's cache and nothing is written into the checkouts.
Every round runs both sides, and the side that goes first alternates, so
slow drift of a shared host reaches both sides alike.

Per side the JSON also lists the `qfeedback.*` modules that each subcommand
loads, taken once in a separate untimed process.

Run from the root of a checkout; --parent points at the `src` directory of
the checkout to compare against (for example an exported copy of the parent
commit):

    python bench/cli.py --parent /tmp/parent/src --out BENCH.json

The change side is this checkout's `src`. The JSON written to --out holds
both sides' samples, medians and quartiles, and how many rounds each side won.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import _ab

SUBCOMMANDS = ("spectra", "stability", "semiclassical", "qnd", "trajectory",
               "intracavity", "atom")
MODES = ("source", "cached")
METRICS = tuple(f"{mode}.{name}" for mode in MODES
                for name in ("total_s",) + tuple(
                    f"{sub}_{unit}" for sub in SUBCOMMANDS
                    for unit in ("s", "rss_mb")))

# run one subcommand in-process; print its exit status and the package
# modules it loaded
_LIST_MODULES = (
    "import json, sys\n"
    "from qfeedback.cli import run\n"
    "status = run([sys.argv[1], '--output', sys.argv[2]])\n"
    "print(json.dumps([status, sorted(m for m in sys.modules"
    " if m.startswith('qfeedback.'))]))\n")


def _environ(mode: str, workdir: str) -> dict:
    environ = dict(os.environ)
    environ.pop("PYTHONPYCACHEPREFIX", None)
    if mode == "source":
        environ["PYTHONDONTWRITEBYTECODE"] = "1"
    else:
        environ.pop("PYTHONDONTWRITEBYTECODE", None)
        environ["PYTHONPYCACHEPREFIX"] = os.path.join(workdir, "pycache")
    return environ


def loaded_modules(sub: str, src: str, cwd: str, environ: dict) -> list:
    """The qfeedback.* modules a fresh process loads to run `sub`."""
    proc = subprocess.run(
        [sys.executable, "-c", _LIST_MODULES, sub,
         os.path.join(cwd, sub + ".csv")],
        env=dict(environ, PYTHONPATH=src), cwd=cwd, capture_output=True,
        text=True, check=True)
    status, modules = json.loads(proc.stdout.splitlines()[-1])
    if status != 0:
        raise RuntimeError(f"qfeedback {sub} failed with {src}")
    return modules


def _prepare(src: str, mode: str, workdir: str):
    """A copy of `src` for `mode` in workdir, its environment and the modules
    each subcommand loads; in the cached mode, also warm the cache."""
    copy = shutil.copytree(src, tempfile.mkdtemp(prefix=mode, dir=workdir),
                           ignore=shutil.ignore_patterns("__pycache__"),
                           dirs_exist_ok=True)
    environ = _environ(mode, workdir)
    modules = {}
    for sub in SUBCOMMANDS:
        modules[sub] = loaded_modules(sub, copy, workdir, environ)
        if mode == "cached":
            _ab.time_cli([sub, "--output", os.path.join(workdir, "w.csv")],
                         copy, workdir, environ)
    return copy, environ, modules


def side_runner():
    """A run_side for _ab.main that prepares each (src, mode) once."""
    prepared = {}

    def run_side(src: str, repeats: int, workdir: str) -> dict:
        out = {}
        for mode in MODES:
            if (src, mode) not in prepared:
                prepared[src, mode] = _prepare(src, mode, workdir)
            copy, environ, modules = prepared[src, mode]
            for sub in SUBCOMMANDS:
                csv = os.path.join(workdir, sub + ".csv")
                out[f"{mode}.{sub}_s"], out[f"{mode}.{sub}_rss_mb"] = \
                    _ab.time_cli([sub, "--output", csv], copy, workdir,
                                 environ)
            out[f"{mode}.total_s"] = sum(out[f"{mode}.{sub}_s"]
                                         for sub in SUBCOMMANDS)
        out["modules"] = modules
        return out

    return run_side


def report(samples: dict, args) -> dict:
    sides = _ab.sides_summary(samples, METRICS)
    for side, runs in samples.items():
        sides[side] = {"modules": runs[0]["modules"], **sides[side]}
    wins = {m: _ab.change_wins(samples, m) for m in METRICS}
    _ab.print_summary(sides, wins, args.rounds)
    return {
        "rounds": args.rounds,
        "metric": "seconds of wall time per fresh process (_rss_mb: peak "
                  "resident MiB); one sample per side, mode and round; "
                  "summary over rounds",
        "change_wins": wins,
        "sides": sides,
    }


def main(argv=None) -> None:
    _ab.main(argv, __file__, __doc__, None, report, rounds=10, repeats=1,
             run_side=side_runner(),
             progress=_ab.last_round(("source.total_s", "cached.total_s"), 3))


if __name__ == "__main__":
    main()
