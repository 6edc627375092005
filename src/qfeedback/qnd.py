"""Two-mode QND measurement cavity and QND-based feedback spectra.

The coupling H = (chi/2) x_a y_c is used only through its linear
frequency-domain input-output relations; measurement quality is
Q = 4 chi / sqrt(gamma kappa).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UnstableLoop
from .loop import LoopFilter, Spectrum, is_stable, loop_transfer


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

    def pair_response(self, omega):
        """p~(omega) = gamma kappa / [(kappa + 2 i omega)(gamma + 2 i omega)]."""
        omega = np.asarray(omega, dtype=float)
        return (self.gamma * self.kappa
                / ((self.kappa + 2j * omega) * (self.gamma + 2j * omega)))


@dataclass(frozen=True)
class QndFeedbackParams:
    qnd: QndParams
    filter: LoopFilter


def quadrature_transfer(params: QndParams, omega):
    """Frequency-domain input-output maps (b_in, d_in) -> (b_out, d_out).

    Returns (X_block, Y_block), each shaped (..., 2, 2). The X quadrature of
    the probe passes through with unit magnitude (the non-demolition
    property); its readout appears on the meter output with gain -Q p~
    relative terms, while the probe phase quadrature absorbs the back-action.
    """
    omega = np.asarray(omega, dtype=float)
    k, g = params.kappa, params.gamma
    q = params.q_factor
    zk = (k - 2j * omega) / (k + 2j * omega)
    zg = (g - 2j * omega) / (g + 2j * omega)
    zero = np.zeros_like(zk)
    xbb = -zk
    xdb = -g * k * q / ((k + 2j * omega) * (g + 2j * omega))
    xdd = -zg
    x_block = np.stack([
        np.stack([xbb, zero], axis=-1),
        np.stack([xdb, xdd], axis=-1),
    ], axis=-2)
    ybb = -zk
    ybd = q * g * k / ((g + 2j * omega) * (k + 2j * omega))
    ydd = -zg
    y_block = np.stack([
        np.stack([ybb, ybd], axis=-1),
        np.stack([zero, ydd], axis=-1),
    ], axis=-2)
    return x_block, y_block


def qnd_feedback_output_spectra(params: QndFeedbackParams, omega_grid,
                                check_stability: bool = True):
    """Output spectra of the squeezed free beam produced by feeding back the
    QND readout:

        S_out_x = (1 + g^2 / Q^2) / |1 - g p~ h~ e^{-i omega T}|^2
        S_out_y = 1 + |Q p~|^2

    for vacuum inputs (unit spectra). The effective loop response is the
    electronic filter times the two-cavity pair response p~.
    """
    omega_grid = np.asarray(omega_grid, dtype=float)
    filt = params.filter
    if check_stability and not is_stable(filt, extra=params.qnd.pair_response):
        raise UnstableLoop(f"QND loop with g = {filt.g} is unstable")
    q = params.qnd.q_factor
    lt = loop_transfer(filt, omega_grid, extra=params.qnd.pair_response)
    den = np.abs(1.0 - lt) ** 2
    sx = (1.0 + filt.g ** 2 / q ** 2) / den
    p = params.qnd.pair_response(omega_grid)
    sy = 1.0 + np.abs(q * p) ** 2
    return Spectrum(omega_grid, sx), Spectrum(omega_grid, sy)


def large_gain_limit(params: QndFeedbackParams, omega):
    """g -> -infinity floor of the output amplitude spectrum:
    |Q p~(omega) h~(omega)|^-2 (the residual is the measurement noise)."""
    omega = np.asarray(omega, dtype=float)
    q = params.qnd.q_factor
    p = params.qnd.pair_response(omega)
    h = params.filter.response.ft(omega)
    return 1.0 / np.abs(q * p * h) ** 2
