"""logklab: exact-arithmetic log K-stability calculator for polarised pairs."""

from .exactnum import (
    Polynomial,
    decimal_string,
    format_rational,
    parse_rational,
    poly_interpolate,
    power_sum,
)
from .pairmodel import (
    CATALOG,
    DivisorSpec,
    PolarisedPair,
    ScalarReport,
    avg_scalar_s1,
    avg_scalar_sD,
    avg_scalar_sbeta,
    validate_pair,
)
from .normalcone import (
    CriticalBracket,
    DFReport,
    NormalConeCoefficients,
    coefficients,
    critical_c,
    df_closed,
    df_from_coefficients,
    find_destabilizer,
    g_factor,
    instability_threshold,
    jna_normal_cone,
)
from .thresholds import (
    AngleWindow,
    ExistenceCase,
    PositivityData,
    SingularCriteriaInput,
    Verdict,
    VerdictStatus,
    alpha_beta_lower_bound,
    beta_u,
    entropy_threshold_check,
    eta_feasibility,
    existence_window,
    min_multiplicity_eta0,
    singular_criteria,
    uniform_stability_window,
)
from .weightoracle import (
    HilbertModel,
    WeightSample,
    dims_and_weights,
    flatness_check,
    jna_finite_k,
    oracle_report,
    recover_coefficients,
)

__version__ = "0.1.0"
