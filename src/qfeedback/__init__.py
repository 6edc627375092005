"""qfeedback: quantum-optical electro-optic feedback toolkit.

Closed-form feedback-loop spectra and Nyquist stability of delayed loops, a
semiclassical Monte Carlo oracle, QND-cavity feedback spectra, stochastic
master equation (quantum trajectory) engines with homodyne-mediated feedback,
intracavity conditioned-variance (Riccati) squeezing, and the in-loop
two-level atom.

``import qfeedback`` loads no submodule. The submodules and the names
re-exported here resolve on first attribute access (PEP 562), so a process
pays only for the modules it uses.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = ("atom_squash", "errors", "intracavity", "loop", "operators",
               "qnd", "semiclassical", "trajectories")
# re-exported name -> defining submodule
_EXPORTS = {
    "QFeedbackError": "errors",
    "FeedbackBeamline": "loop",
    "LoopFilter": "loop",
    "Sampled": "loop",
    "SinglePole": "loop",
    "Spectrum": "loop",
    "LindbladModel": "operators",
}

__all__ = list(_SUBMODULES) + list(_EXPORTS)


def __getattr__(name):
    if name in _SUBMODULES:
        # importing a submodule binds it on the package, so this runs once
        return importlib.import_module(f"{__name__}.{name}")
    if name in _EXPORTS:
        value = getattr(importlib.import_module(
            f"{__name__}.{_EXPORTS[name]}"), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
