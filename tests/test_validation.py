"""Parameter validation rejects NaN wherever it rejects an out-of-range value,
and checks a range before the arithmetic it guards."""

import math

import numpy as np
import pytest

from qfeedback import atom_squash as at
from qfeedback import intracavity as ic
from qfeedback import loop, operators as ops, qnd, semiclassical as sc
from qfeedback import trajectories as tj
from qfeedback.errors import DimensionMismatch, InvalidState

NAN, INF = math.nan, math.inf


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
    "SinglePole.gamma inf": lambda: loop.SinglePole(INF),
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
    "LinearCavityParams.l inf": lambda: ic.LinearCavityParams(l=INF,
                                                             theta=0.5),
    "Qnd.strength": lambda: ic.Qnd(NAN),
    "Qnd.strength inf": lambda: ic.Qnd(INF),
    "unconditioned_variance.lam": lambda: ic.unconditioned_variance(
        ic.LinearCavityParams(l=0.1, theta=0.5), NAN),
    "unconditioned_variance.lam inf": lambda: ic.unconditioned_variance(
        ic.LinearCavityParams(l=0.1, theta=0.5), INF),
    "unconditioned_variance.delay": lambda: ic.unconditioned_variance(
        ic.LinearCavityParams(l=0.1, theta=0.5), 0.0, NAN),
    "unconditioned_variance.delay inf": lambda: ic.unconditioned_variance(
        ic.LinearCavityParams(l=0.1, theta=0.5), 0.0, INF),
    "conditioned_variance_trajectory.u_init": lambda: (
        ic.conditioned_variance_trajectory(
            ic.LinearCavityParams(l=0.1, theta=0.5), NAN, np.linspace(0, 1, 3))),
    "conditioned_variance_trajectory.t_grid": lambda: (
        ic.conditioned_variance_trajectory(
            ic.LinearCavityParams(l=0.1, theta=0.5), 1.0, [0.0, NAN, 1.0])),
    "conditioned_variance_trajectory.t_grid inf": lambda: (
        ic.conditioned_variance_trajectory(
            ic.LinearCavityParams(l=0.1, theta=0.5), 1.0, [0.0, INF])),
    "QndParams.kappa": lambda: qnd.QndParams(NAN, 1.0, 2.0),
    "QndParams.kappa inf": lambda: qnd.QndParams(INF, 1.0, 2.0),
    "QndParams.gamma inf": lambda: qnd.QndParams(1.0, INF, 2.0),
    "QndParams.chi": lambda: qnd.QndParams(1.0, 1.0, NAN),
    "QndParams.chi inf": lambda: qnd.QndParams(1.0, 1.0, INF),
    "ClassicalNoise.excess": lambda: sc.ClassicalNoise(NAN, 0.5),
    "ClassicalNoise.excess inf": lambda: sc.ClassicalNoise(INF, 0.5),
    "ClassicalNoise.pole": lambda: sc.ClassicalNoise(2.0, NAN),
    "ClassicalNoise.pole inf": lambda: sc.ClassicalNoise(2.0, INF),
    "SemiclassicalSim.dt": lambda: _sim(dt=NAN),
    "SemiclassicalSim.duration": lambda: _sim(duration=NAN),
    "HomodyneJump.beta": lambda: tj.HomodyneJump(NAN),
    "HomodyneJump.beta inf": lambda: tj.HomodyneJump(INF),
    "Feedback.operator": lambda: tj.Feedback(np.full((2, 2), NAN)),
    "Feedback.operator inf": lambda: tj.Feedback(np.diag([INF, 1.0])),
    "Delayed.delay": lambda: tj.Delayed(NAN),
    "Delayed.delay inf": lambda: tj.Delayed(INF),
    "SmeConfig.dt": lambda: _sme(NAN),
    "LindbladModel.rate": lambda: _atom(NAN),
    "LindbladModel.rate inf": lambda: _atom(INF),
    "LindbladModel.hamiltonian": lambda: ops.LindbladModel(
        np.full((2, 2), NAN), ()),
    "LindbladModel.hamiltonian inf": lambda: ops.LindbladModel(
        np.diag([INF, 0.0]), ()),
    "LindbladModel.collapse": lambda: ops.LindbladModel(
        np.zeros((2, 2)), ((1.0, np.full((2, 2), NAN)),)),
    "LindbladModel.collapse inf": lambda: ops.LindbladModel(
        np.zeros((2, 2)), ((1.0, np.diag([INF, 0.0])),)),
    "evolve.t": lambda: ops.evolve(_atom(), ops.fock_dm(2, 1), NAN),
    "evolve.t inf": lambda: ops.evolve(_atom(), ops.fock_dm(2, 1), INF),
    "two_time_correlation.tau_grid": lambda: ops.two_time_correlation(
        _atom(), ops.sigma_x(), ops.sigma_x(), [0.0, NAN, 1.0]),
    "two_time_correlation.tau_grid inf": lambda: ops.two_time_correlation(
        _atom(), ops.sigma_x(), ops.sigma_x(), [0.0, 1.0, INF]),
    "AtomLoopParams.g": lambda: at.AtomLoopParams(1.0, 1.0, NAN),
    "lambda_for_spectrum.s_target": lambda: at.lambda_for_spectrum(
        0.8, 0.95, NAN),
    "lambda_for_spectrum.s_target inf": lambda: at.lambda_for_spectrum(
        0.8, 0.95, INF),
    "AtomLoopParams.from_lambda nan": lambda: (
        at.AtomLoopParams.from_lambda(0.8, 0.95, NAN)),
    "FreeSqueezeParams.big_l": lambda: at.FreeSqueezeParams(1.0, NAN),
    "FreeSqueezeParams.big_l inf": lambda: at.FreeSqueezeParams(1.0, INF),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_nan_parameter_rejected(name):
    with pytest.raises(ValueError):
        CASES[name]()


# out-of-range arguments that once crashed before their check could run:
# an empty grid was indexed, and lambda = -eta divided by zero
RANGE_CASES = {
    "conditioned_variance_trajectory.t_grid empty": lambda: (
        ic.conditioned_variance_trajectory(
            ic.LinearCavityParams(l=0.1, theta=0.5), 1.0, np.empty(0))),
    "conditioned_variance_trajectory.t_grid 2-D": lambda: (
        ic.conditioned_variance_trajectory(
            ic.LinearCavityParams(l=0.1, theta=0.5), 1.0, np.zeros((2, 2)))),
    "AtomLoopParams.from_lambda at -eta": lambda: (
        at.AtomLoopParams.from_lambda(0.8, 0.95, -0.8)),
    "AtomLoopParams.from_lambda eta = lam = 0": lambda: (
        at.AtomLoopParams.from_lambda(0.0, 0.95, 0.0)),
}


@pytest.mark.parametrize("name", sorted(RANGE_CASES))
def test_out_of_range_rejected(name):
    with pytest.raises(ValueError):
        RANGE_CASES[name]()


@pytest.mark.parametrize("g, T, arg", [(NAN, 1.0, "g"), (INF, 1.0, "g"),
                                       (-2.0, NAN, "T"), (-2.0, INF, "T")])
def test_max_bandwidth_rejects_non_finite(g, T, arg):
    with pytest.raises(ValueError, match=f"^{arg} = "):
        loop.max_bandwidth(g, T)


# matrices that are not density matrices, as initial states of evolve
BAD_STATES = {
    "non-Hermitian": np.array([[0.5, 1.0], [0.0, 0.5]]),
    "negative eigenvalue": np.diag([2.0, -1.0]),
    "nan": np.full((2, 2), NAN),
}


@pytest.mark.parametrize("name", sorted(BAD_STATES))
def test_evolve_rejects_invalid_initial_state(name):
    with pytest.raises(InvalidState):
        ops.evolve(_atom(), BAD_STATES[name], 1.0)


# operands of mismatched dimension: each one raises DimensionMismatch (exit
# code 2) before any arithmetic can broadcast it or index past it
DIMENSION_CASES = {
    "in_loop_correlation_spectrum.f_op": lambda: (
        tj.in_loop_correlation_spectrum(_atom(), ops.sigma_minus(),
                                        np.ones((1, 1)), 0.8, [0.0, 1.0])),
    "in_loop_correlation_spectrum.c": lambda: (
        tj.in_loop_correlation_spectrum(_atom(), np.ones((1, 1)),
                                        ops.sigma_x(), 0.8, [0.0, 1.0])),
    "feedback_master_equation.f_op": lambda: tj.feedback_master_equation(
        _atom(), np.eye(3), 0.8),
    "LindbladModel.hamiltonian": lambda: ops.LindbladModel(np.zeros((2, 3))),
}


@pytest.mark.parametrize("name", sorted(DIMENSION_CASES))
def test_dimension_mismatch_rejected(name):
    with pytest.raises(DimensionMismatch) as err:
        DIMENSION_CASES[name]()
    assert err.value.exit_code == 2
