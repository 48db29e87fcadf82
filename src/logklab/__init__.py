"""logklab: exact-arithmetic log K-stability calculator for polarised pairs.

The names below are exported lazily (PEP 562): `from logklab import X`
imports X's module on first use, so `import logklab` alone loads no module
and a CLI process loads only the modules its subcommand runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each exported name, under the module that defines it.
_EXPORTS = {
    "exactnum": (
        "decimal_string", "format_rational", "parse_rational",
    ),
    "pairmodel": (
        "CATALOG", "HilbertModel", "PolarisedPair", "ScalarReport",
        "avg_scalar_s1", "avg_scalar_sD", "avg_scalar_sbeta", "validate_pair",
    ),
    "closedform": (
        "DFReport", "NormalConeCoefficients", "coefficients", "df_checked",
        "df_from_coefficients", "instability_threshold",
    ),
    "normalcone": (
        "CriticalBracket", "critical_c", "find_destabilizer",
    ),
    "thresholds": (
        "AngleWindow", "PositivityData", "SingularCriteriaInput", "Verdict",
        "VerdictStatus", "alpha_beta_lower_bound", "angle_window", "beta_u",
        "entropy_threshold_check", "eta_feasibility", "min_multiplicity_eta0", "singular_criteria",
    ),
    "weightoracle": (
        "WeightSample", "dims_and_weights", "oracle_report",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})
