"""Spectral boundary-integral toolkit for elastostatic spheres.

Closed-form Neumann-Poincare spectra for the Lame system on spheres, the
core-shell-matrix transmission solver exhibiting anomalous localized
resonance, and brute-force quadrature / finite-difference oracles that
cross-check every closed form.
"""

from .harmonics import ModeIndex, a_coeff, eval_solid_mode, eval_trace_mode
from .kelvin import KernelCoeffs, LameParams, gamma_laplace, kelvin_matrix
from .oracle import FDStencil, QuadratureRule
from .potentials import (
    np_decomposed_multiplier,
    np_eigenvalue,
    scalar_sl_multiplier,
)
from .transmission import (
    EnergyReport,
    PlasmonicConfig,
    ShellGeometry,
    SourceSpectrum,
    choose_n0,
    classify_calr,
    plasmonic_params,
    synth_source,
    transfer_factors,
)

__all__ = [
    "EnergyReport",
    "FDStencil",
    "KernelCoeffs",
    "LameParams",
    "ModeIndex",
    "PlasmonicConfig",
    "QuadratureRule",
    "ShellGeometry",
    "SourceSpectrum",
    "a_coeff",
    "choose_n0",
    "classify_calr",
    "eval_solid_mode",
    "eval_trace_mode",
    "gamma_laplace",
    "kelvin_matrix",
    "np_decomposed_multiplier",
    "np_eigenvalue",
    "plasmonic_params",
    "scalar_sl_multiplier",
    "synth_source",
    "transfer_factors",
]

__version__ = "0.1.0"
