"""Parameter validation rejects NaN wherever it rejects an out-of-range value."""

import math

import numpy as np
import pytest

from qfeedback import atom_squash as at
from qfeedback import intracavity as ic
from qfeedback import loop, operators as ops, qnd, semiclassical as sc
from qfeedback import trajectories as tj

NAN = math.nan


def _atom(rate=1.0):
    return ops.LindbladModel(np.zeros((2, 2), dtype=complex),
                             ((rate, ops.sigma_minus()),))


def _sme(dt):
    return tj.SmeConfig(model=_atom(), detection=tj.PhotonCounting(), dt=dt,
                        steps=10, seed=1)


def _sim(dt=0.01, duration=2000.0):
    beam = loop.FeedbackBeamline(beta=1.0, eta1=1.0, eta2=0.5)
    return sc.SemiclassicalSim(
        beamline=beam, filter=loop.LoopFilter(-2.0, loop.SinglePole(1.0)),
        dt=dt, duration=duration, seed=1)


# each entry builds an object from one NaN (or infinite) parameter
CASES = {
    "SinglePole.gamma": lambda: loop.SinglePole(NAN),
    "Sampled.dt": lambda: loop.Sampled(np.ones(4), NAN),
    "Sampled.dt inf": lambda: loop.Sampled(np.ones(4), math.inf),
    "Sampled.h nan tap": lambda: loop.Sampled(np.array([1.0, NAN]), 0.1),
    "Sampled.h inf tap": lambda: loop.Sampled(np.array([1.0, math.inf]), 0.1),
    "LoopFilter.g": lambda: loop.LoopFilter(NAN, loop.SinglePole(1.0)),
    "LoopFilter.g inf": lambda: loop.LoopFilter(math.inf, loop.SinglePole(1.0)),
    "LoopFilter.delay_T": lambda: loop.LoopFilter(-1.0, loop.SinglePole(1.0),
                                                  NAN),
    "LoopFilter.delay_T inf": lambda: loop.LoopFilter(
        -1.0, loop.SinglePole(1.0), math.inf),
    "LinearCavityParams.l": lambda: ic.LinearCavityParams(l=NAN, theta=0.5),
    "Qnd.strength": lambda: ic.Qnd(NAN),
    "conditioned_variance_trajectory.u_init": lambda: (
        ic.conditioned_variance_trajectory(
            ic.LinearCavityParams(l=0.1, theta=0.5), NAN, np.linspace(0, 1, 3))),
    "QndParams.kappa": lambda: qnd.QndParams(NAN, 1.0, 2.0),
    "QndParams.chi": lambda: qnd.QndParams(1.0, 1.0, NAN),
    "ClassicalNoise.excess": lambda: sc.ClassicalNoise(NAN, 0.5),
    "ClassicalNoise.pole": lambda: sc.ClassicalNoise(2.0, NAN),
    "SemiclassicalSim.dt": lambda: _sim(dt=NAN),
    "SemiclassicalSim.duration": lambda: _sim(duration=NAN),
    "HomodyneJump.beta": lambda: tj.HomodyneJump(NAN),
    "SmeConfig.dt": lambda: _sme(NAN),
    "LindbladModel.rate": lambda: _atom(NAN),
    "AtomLoopParams.g": lambda: at.AtomLoopParams(1.0, 1.0, NAN),
    "FreeSqueezeParams.big_l": lambda: at.FreeSqueezeParams(1.0, NAN),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_nan_parameter_rejected(name):
    with pytest.raises(ValueError):
        CASES[name]()
