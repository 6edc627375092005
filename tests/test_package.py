"""Package-level contracts: import cost, `python -m` entry points, README."""

import ast
import importlib.util
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import qfeedback

SRC = os.path.dirname(os.path.dirname(os.path.abspath(qfeedback.__file__)))
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
README = os.path.join(ROOT, "README.md")


def run_python(args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable] + args, cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def test_import_loads_no_scipy_submodules():
    code = ("import sys, qfeedback\n"
            "print(sorted(m for m in ('scipy.signal', 'scipy.integrate',"
            " 'scipy.linalg')"
            " if m in sys.modules))")
    proc = run_python(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_package_source_imports_no_scipy():
    pkg = pathlib.Path(qfeedback.__file__).parent
    for path in sorted(pkg.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            assert all(m.split(".")[0] != "scipy" for m in modules), (
                f"{path.name}:{node.lineno} imports scipy")


def test_exact_linear_algebra_loads_no_scipy():
    code = ("import sys\n"
            "import numpy as np\n"
            "from qfeedback import operators as ops\n"
            "model = ops.LindbladModel(ops.quad_x(4),"
            " ((1.0, ops.destroy(4)),))\n"
            "rho = ops.steady_state(model)\n"
            "ops.evolve(model, ops.fock_dm(4, 2), 1.0)\n"
            "ops.two_time_correlation(model, ops.quad_x(4),"
            " ops.destroy(4) @ rho, np.linspace(0.0, 2.0, 5))\n"
            "print('scipy' in sys.modules)")
    proc = run_python(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def loaded_modules(code):
    """Every module a fresh process has loaded after running `code`."""
    proc = run_python(["-c", code + "\nimport json, sys\n"
                       "print(json.dumps(sorted(sys.modules)))"])
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def subcommand_modules(sub, tmp_path):
    out = tmp_path / f"{sub}.csv"
    return loaded_modules(f"from qfeedback.cli import run\n"
                          f"assert run([{sub!r}, '--output', {str(out)!r}]) == 0")


LAZY_NAMES = ("atom_squash", "errors", "intracavity", "loop", "operators",
              "qnd", "semiclassical", "trajectories", "QFeedbackError",
              "FeedbackBeamline", "LoopFilter", "Sampled", "SinglePole",
              "Spectrum", "LindbladModel")


def test_import_loads_no_submodule():
    loaded = loaded_modules("import qfeedback")
    assert "qfeedback" in loaded
    assert not [m for m in loaded if m.startswith("qfeedback.")]


@pytest.mark.parametrize("sub, module", [
    ("spectra", "loop"), ("stability", "loop"), ("qnd", "qnd"),
    ("intracavity", "intracavity")])
def test_closed_form_subcommands_skip_the_sme_engine(sub, module, tmp_path):
    loaded = subcommand_modules(sub, tmp_path)
    assert f"qfeedback.{module}" in loaded
    assert not loaded & {"qfeedback.trajectories", "qfeedback.semiclassical",
                         "numpy.random"}


def test_qnd_subcommand_leaves_numpy_ma_unloaded(tmp_path):
    # numpy.ma costs about 13 ms per process. The process runs the package
    # as `python -m qfeedback qnd` does, whose stability check takes the
    # closed form, and then judges the benchmark's 200-tap sampled loop,
    # whose Nyquist contour merges its grids by hand: np.unique would import
    # numpy.ma
    out = tmp_path / "qnd.csv"
    code = ("import runpy, sys\n"
            f"sys.argv = ['qfeedback', 'qnd', '--output', {str(out)!r}]\n"
            "try:\n"
            "    runpy.run_module('qfeedback', run_name='__main__',"
            " alter_sys=True)\n"
            "except SystemExit as stop:\n"
            "    assert not stop.code, stop.code\n"
            "import numpy as np\n"
            "from qfeedback import loop\n"
            "taps = loop.Sampled(np.exp(-0.02 * np.arange(200)), 0.02)\n"
            "assert loop.is_stable(loop.LoopFilter(-3.0, taps, 0.2))\n"
            "print('qfeedback.qnd' in sys.modules, 'numpy.ma' in sys.modules)")
    proc = run_python(["-c", code], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "True False"
    assert out.exists()


def test_atom_subcommand_skips_trajectories(tmp_path):
    loaded = subcommand_modules("atom", tmp_path)
    assert "qfeedback.atom_squash" in loaded
    assert "qfeedback.trajectories" not in loaded


def test_lazy_namespace():
    assert qfeedback.LoopFilter is qfeedback.loop.LoopFilter
    assert qfeedback.LindbladModel is qfeedback.operators.LindbladModel
    assert qfeedback.QFeedbackError is qfeedback.errors.QFeedbackError
    from qfeedback import Spectrum, loop
    assert Spectrum is loop.Spectrum
    assert set(LAZY_NAMES) <= set(dir(qfeedback))
    for name in LAZY_NAMES:
        assert getattr(qfeedback, name) is not None
    with pytest.raises(AttributeError, match="no_such_name"):
        qfeedback.no_such_name  # noqa: B018


def test_benchmark_entry_points_exist():
    # the benchmark tracer wraps these names by getattr: one that a change
    # deletes or renames would break the traced benchmark, not this suite
    path = os.path.join(ROOT, "perfbench", "spans.py")
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for short, names in spans.ENTRY_POINTS.items():
        mod = importlib.import_module(f"qfeedback.{short}")
        names = names or spans._public_functions(mod)
        assert names, short
        missing = [n for n in names if not callable(getattr(mod, n, None))]
        assert not missing, f"qfeedback.{short} lacks {missing}"


def test_riccati_series_loads_no_scipy_integrate():
    code = ("import sys\n"
            "import numpy as np\n"
            "from qfeedback import intracavity as ic\n"
            "p = ic.LinearCavityParams(l=0.2, theta=0.3,"
            " measurement=ic.Homodyne(0.8))\n"
            "ic.conditioned_variance_trajectory(p, 0.0, np.linspace(0, 5, 11))\n"
            "print('scipy.integrate' in sys.modules)")
    proc = run_python(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_semiclassical_paths_load_no_scipy_signal(tmp_path):
    out = tmp_path / "sc.csv"
    code = ("import sys\n"
            "from qfeedback import cli, loop, operators as ops\n"
            "from qfeedback import semiclassical as sc, trajectories as tj\n"
            f"assert cli.run(['semiclassical', '--duration', '200',"
            f" '--segments', '8', '--output', {str(out)!r}]) == 0\n"
            "unstable = loop.LoopFilter(10.0, loop.SinglePole(1.0), 0.3)\n"
            "assert sc.diverges(unstable, 0.3 / 64, 400.0)\n"
            "model = ops.LindbladModel(ops.sigma_x() * 0j,"
            " ((1.0, ops.sigma_minus()),))\n"
            "cfg = tj.SmeConfig(model=model,"
            " detection=tj.HomodyneDiffusive(0.8), dt=1e-2, steps=400,"
            " seed=5, snapshot_every=400)\n"
            "summary = tj.run_ensemble(cfg, 4, ops.fock_dm(2, 0),"
            " psd_segments=8)\n"
            "assert summary.psd is not None\n"
            "print('scipy.signal' in sys.modules)")
    proc = run_python(["-c", code])
    assert proc.returncode == 0, proc.stderr
    # cli.run prints the CSV path first
    assert proc.stdout.splitlines() == [str(out), "False"]


def test_python_dash_m_entry_points(tmp_path):
    for i, module in enumerate(("qfeedback", "qfeedback.cli")):
        out = tmp_path / f"out{i}.csv"
        proc = run_python(["-m", module, "spectra", "--output", str(out)],
                          cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        rows = [ln for ln in out.read_text().splitlines()
                if not ln.startswith("#")]
        assert rows[0] == "omega,s2x,s3x,s2y,s3y"
        assert len(rows) == 513


def test_readme_quick_start_runs():
    with open(README) as fh:
        text = fh.read()
    snippet = re.search(r"```python\n(.*?)```", text, re.S).group(1)
    namespace = {}
    exec(compile(snippet, "README.md", "exec"), namespace)
    assert namespace["s2"].values.shape == (256,)
    assert namespace["summary"].n_success >= 180


def test_readme_dotted_names_resolve():
    # every backticked dotted name in the README that starts with the
    # package, one of its modules or one of its classes names an attribute
    # that exists, so a removed name does not linger in the documentation
    pkg = pathlib.Path(qfeedback.__file__).parent
    roots = {"qfeedback": qfeedback}
    for path in sorted(pkg.glob("[!_]*.py")):
        module = importlib.import_module(f"qfeedback.{path.stem}")
        roots[path.stem] = module
        roots.update((name, obj) for name, obj in vars(module).items()
                     if isinstance(obj, type)
                     and obj.__module__ == module.__name__)
    with open(README) as fh:
        names = re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`", fh.read())
    checked = [name for name in names if name.split(".")[0] in roots]
    assert len(checked) >= 16
    for name in checked:
        head, *parts = name.split(".")
        obj = roots[head]
        for part in parts:
            assert hasattr(obj, part), f"README names `{name}`"
            obj = getattr(obj, part)
