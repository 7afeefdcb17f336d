"""Entanglement entropy of two coupled oscillator modes at finite temperature.

The pipeline: map a pair of coupled LC circuits onto dimensionless
oscillator parameters (`model`), expand the thermal normal-mode state
in the bare product basis through an overlap tensor (`hermite`,
`transform`), reduce it (`state`), and score the marginals with
von Neumann and Tsallis entropies (`entropy`).  The `cli` module wires
the stages into a deterministic temperature sweep.
"""
from .entropy import (
    EntropyReport,
    NonPositiveQ,
    analyze_bipartite,
    tsallis_entropy,
    von_neumann_entropy,
)
from .hermite import (
    DEFAULT_QUAD_ORDER,
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
    Basis,
    DensityMatrix,
    DimensionMismatch,
    NonPositiveTemperature,
    NotAProductDimension,
    SubspaceDiagnostics,
    density_from_array,
    partial_trace,
    purity,
    subspace_validity,
    thermal_density,
    transform_density,
)
from .transform import (
    IndexOutOfRange,
    TransformMethod,
    TransformTensor,
    build_transform,
    gaussian_coefficients,
    overlap_element_closed,
    overlap_element_quadrature,
)

__version__ = "0.1.0"

__all__ = [
    "Basis",
    "CircuitParams",
    "DEFAULT_QUAD_ORDER",
    "DegenerateFrequencies",
    "DensityMatrix",
    "DimensionMismatch",
    "EntropyReport",
    "FrequencyMethod",
    "GaussianQuadraticForm",
    "IndexOutOfRange",
    "NonPositiveQ",
    "NonPositiveTemperature",
    "NormalModes",
    "NotAProductDimension",
    "NotPositiveDefinite",
    "SMALL_ANGLE_LIMIT",
    "SubspaceDiagnostics",
    "TransformMethod",
    "TransformTensor",
    "UnstableMode",
    "UnsupportedDegree",
    "analyze_bipartite",
    "build_transform",
    "density_from_array",
    "gauss2d_integral",
    "gauss2d_moment",
    "gaussian_coefficients",
    "hermite_poly",
    "ho_eigenfunction",
    "ho_eigenfunctions",
    "normal_modes",
    "overlap_element_closed",
    "overlap_element_quadrature",
    "partial_trace",
    "purity",
    "quad2d",
    "rotation_angle_exact",
    "rotation_angle_small",
    "subspace_validity",
    "thermal_density",
    "transform_density",
    "tsallis_entropy",
    "von_neumann_entropy",
    "__version__",
]
