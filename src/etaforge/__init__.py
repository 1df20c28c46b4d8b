"""etaforge: exact eta invariants of coupled Dirac operators on circle
bundles over Kähler bases, with closed forms cross-validated against
brute-force oracles.

``forms`` (exterior-algebra suites) and ``measure`` (floating-point
spectral-measure checks) are imported on first use of one of their names, so
that commands which need neither do not pay for loading them (PEP 562).
"""

from importlib import import_module as _import_module

from .cohomology import (
    Geometry,
    hrr_chi,
    index_integral,
    integrate,
    projective_like_geometry,
    surface_geometry,
)
from .errors import (
    EtaforgeError,
    InvalidDolbeaultData,
    NoConsistentConvention,
    ProviderConsistencyError,
    SeriesDomainError,
    UnknownHodgeData,
    UsageError,
)
from .eta import (
    DEFAULT_CONVENTIONS,
    ApsCheck,
    CalibrationResult,
    ConventionSet,
    EtaValue,
    adiabatic_limit,
    aps_difference_check,
    asymptotic_eta,
    calibrate,
    exact_eta,
    transgression,
)
from .flow import Crossing, FlowResult, flow_in_delta_closed, flow_in_delta_oracle, flow_in_s_oracle
from .hodge import HodgeProvider, HrrVanishingHodge, SurfaceHodge, TableHodge
from .scalars import TruncSeries, fractional_part, universal_series
from .spectrum import (
    DolbeaultProvider,
    EigRecord,
    QuadSurd,
    finite_eta_partial,
    kernel_dimension,
    type1_eigenvalues,
    type2_eigenvalues,
    type2_records,
    validate_epsilon,
)

__version__ = "0.1.0"

# submodule -> the names the package re-exports from it on first access
_LAZY = {
    "forms": (
        "EndForm",
        "GaussRat",
        "KahlerModel",
        "build_tensors",
        "constant_curvature_block",
        "identity_suite",
        "parity_count",
        "parity_expected",
        "trace_expansion_check",
    ),
    "measure": (
        "LaplaceCheck",
        "ModelPoint",
        "NearZeroBound",
        "laplace_check",
        "near_zero_bound",
    ),
}
_LAZY_NAMES = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    if name in _LAZY:
        return _import_module(f".{name}", __name__)
    if name in _LAZY_NAMES:
        return getattr(_import_module(f".{_LAZY_NAMES[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = sorted(
    {name for name in globals() if not name.startswith("_")} | _LAZY.keys() | _LAZY_NAMES.keys()
)


def __dir__() -> list[str]:
    return sorted(globals().keys() | set(__all__))
