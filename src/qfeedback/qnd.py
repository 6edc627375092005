"""Two-mode QND measurement cavity and QND-based feedback spectra.

The coupling H = (chi/2) x_a y_c is used only through its linear
frequency-domain input-output relations (quadrature_transfer); measurement
quality is Q = 4 chi / sqrt(gamma kappa). The feedback spectra compose those
relations with the loop: the whole meter photocurrent, probe signal and meter
noise alike, passes the electronic filter G = g h~ e^{-i omega T} and is
written onto the probe input, so the free beam leaves with
S_out_x = (1 + g^2 |h~|^2 / Q^2) / |1 - G p~|^2, which falls to the
measurement noise 1 / |Q p~|^2 as g -> -infinity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UnstableLoop
from .loop import (LoopFilter, SinglePole, Spectrum, _closed_loop, is_stable,
                   loop_transfer)


@dataclass(frozen=True)
class QndParams:
    kappa: float   # probe-mode decay
    gamma: float   # meter-mode decay
    chi: float     # cross-quadrature coupling

    def __post_init__(self):
        for name in ("kappa", "gamma", "chi"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(
                    f"{name} = {getattr(self, name)} must be finite and > 0")

    @property
    def q_factor(self) -> float:
        return 4.0 * self.chi / np.sqrt(self.gamma * self.kappa)

    @property
    def pair_poles(self) -> tuple[float, float]:
        """Rates (kappa/2, gamma/2) of the probe-meter pair's two real poles."""
        return 0.5 * self.kappa, 0.5 * self.gamma

    def pair_response(self, omega):
        """p~(omega) = gamma kappa / [(kappa + 2 i omega)(gamma + 2 i omega)],
        the transform of the cascade of pair_poles."""
        return np.prod([SinglePole(r).ft(omega) for r in self.pair_poles],
                       axis=0)


@dataclass(frozen=True)
class QndFeedbackParams:
    qnd: QndParams
    filter: LoopFilter


def quadrature_transfer(params: QndParams, omega):
    """Frequency-domain input-output maps (b_in, d_in) -> (b_out, d_out).

    Returns (X_block, Y_block), each shaped (..., 2, 2). The X quadrature of
    the probe passes through with unit magnitude (the non-demolition
    property); the meter output reads it with gain x_db = -Q p~, and the
    probe phase quadrature absorbs the back-action y_bd = Q p~, with p~ the
    pair response. The diagonal entries are all-pass, of unit magnitude.
    """
    omega = np.asarray(omega, dtype=float)
    k, g = params.kappa, params.gamma
    zk = -(k - 2j * omega) / (k + 2j * omega)
    zg = -(g - 2j * omega) / (g + 2j * omega)
    qp = params.q_factor * params.pair_response(omega)
    zero = np.zeros_like(zk)
    x_block = np.stack([np.stack([zk, zero], axis=-1),
                        np.stack([-qp, zg], axis=-1)], axis=-2)
    y_block = np.stack([np.stack([zk, qp], axis=-1),
                        np.stack([zero, zg], axis=-1)], axis=-2)
    return x_block, y_block


def qnd_feedback_output_spectra(params: QndFeedbackParams, omega_grid,
                                check_stability: bool = True):
    """Output spectra of the squeezed free beam produced by feeding back the
    QND readout, for vacuum inputs (unit spectra).

    With (x, y) = quadrature_transfer, the meter readout divided by -Q is
    R = p~ X_b,in + (x_dd / -Q) X_d,in. The filter G = g h~ e^{-i omega T}
    acts on all of it, and G R adds to the probe input, so

        S_out_x = |x_bb|^2 (1 + |G x_dd / Q|^2) / |1 - G p~|^2
                = (1 + g^2 |h~|^2 / Q^2) / |1 - g h~ p~ e^{-i omega T}|^2
        S_out_y = |y_bb|^2 + |y_bd|^2 = 1 + |Q p~|^2.

    check_stability runs the stability test on the loop G p~ first
    (UnstableLoop), loop.is_stable with the pair's two poles; either way
    |1 - G p~| < loop.CRITICAL_TOL on the grid raises MarginalStability.
    """
    omega_grid = np.asarray(omega_grid, dtype=float)
    filt, pair = params.filter, params.qnd.pair_poles
    if check_stability and not is_stable(filt, pair):
        raise UnstableLoop(f"QND loop with g = {filt.g} is unstable")
    x, y = quadrature_transfer(params.qnd, omega_grid)
    q = params.qnd.q_factor
    meter = loop_transfer(filt, omega_grid) * x[..., 1, 1] / q
    den = np.abs(_closed_loop(filt, omega_grid, pair)) ** 2
    sx = np.abs(x[..., 0, 0]) ** 2 * (1.0 + np.abs(meter) ** 2) / den
    sy = np.abs(y[..., 0, 0]) ** 2 + np.abs(y[..., 0, 1]) ** 2
    return Spectrum(omega_grid, sx), Spectrum(omega_grid, sy)


def large_gain_limit(params: QndFeedbackParams, omega):
    """g -> -infinity limit of qnd_feedback_output_spectra's S_out_x wherever
    h~(omega) != 0. The filter acts on the whole photocurrent, meter noise
    included, so the fed-back meter noise |G x_dd / Q|^2 grows with the loop
    gain |G p~|^2, and their ratio is the floor 1 / |Q p~(omega)|^2 whatever
    the filter: the residual is the measurement noise."""
    p = params.qnd
    return 1.0 / np.abs(p.q_factor * p.pair_response(omega)) ** 2
