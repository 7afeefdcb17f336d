"""Entanglement entropy of two coupled oscillator modes at finite temperature.

The pipeline: map a pair of coupled LC circuits onto dimensionless
oscillator parameters (`model`), expand the thermal normal-mode state
in the bare product basis through an overlap tensor (`hermite`,
`transform`), reduce it (`state`), and score the marginals with
von Neumann and Tsallis entropies (`entropy`).  The state and entropy
stages work on stacks of states, one per temperature.  The `cli` module
wires the stages into a deterministic temperature sweep.
"""
from .entropy import NonPositiveQ, bipartite_entropies, spectra, spectrum_entropies
from .hermite import (
    GaussianQuadraticForm,
    NotPositiveDefinite,
    UnsupportedDegree,
    gauss2d_integral,
    gauss2d_moment,
    hermite_poly,
    ho_eigenfunction,
    ho_eigenfunctions,
    quad2d,
)
from .model import (
    SMALL_ANGLE_LIMIT,
    CircuitParams,
    DegenerateFrequencies,
    FrequencyMethod,
    NormalModes,
    UnstableMode,
    normal_modes,
    rotation_angle_exact,
    rotation_angle_small,
)
from .state import (
    DimensionMismatch,
    NonPositiveTemperature,
    NotAProductDimension,
    canonical_densities,
    partial_traces,
    rotate_thermal,
    thermal_spectra,
    thermal_weights,
    validity_diagnostics,
)
from .transform import (
    IndexOutOfRange,
    TransformTensor,
    build_transform,
    gaussian_coefficients,
    overlap_element_closed,
    overlap_element_quadrature,
)

__version__ = "0.1.0"

__all__ = [
    "CircuitParams",
    "DegenerateFrequencies",
    "DimensionMismatch",
    "FrequencyMethod",
    "GaussianQuadraticForm",
    "IndexOutOfRange",
    "NonPositiveQ",
    "NonPositiveTemperature",
    "NormalModes",
    "NotAProductDimension",
    "NotPositiveDefinite",
    "SMALL_ANGLE_LIMIT",
    "TransformTensor",
    "UnstableMode",
    "UnsupportedDegree",
    "bipartite_entropies",
    "build_transform",
    "canonical_densities",
    "gauss2d_integral",
    "gauss2d_moment",
    "gaussian_coefficients",
    "hermite_poly",
    "ho_eigenfunction",
    "ho_eigenfunctions",
    "normal_modes",
    "overlap_element_closed",
    "overlap_element_quadrature",
    "partial_traces",
    "quad2d",
    "rotate_thermal",
    "rotation_angle_exact",
    "rotation_angle_small",
    "spectra",
    "spectrum_entropies",
    "thermal_spectra",
    "thermal_weights",
    "validity_diagnostics",
    "__version__",
]
