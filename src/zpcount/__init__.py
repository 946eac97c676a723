"""Exact counting of additive (k+1)-tuples x0 = x1 + ... + xk in Z_p.

Everything arithmetic is exact (Python integers); spectral quantities carry
certified error bounds and escalate precision rather than silently round.
"""

import importlib as _importlib

from .core import (
    VERSION,
    AffineMap,
    InvariantError,
    OrbitCatalog,
    PrecisionError,
    SizeGuardError,
    Subset,
    build_orbit_catalog,
    is_odd_prime,
    orbit_catalog,
    subset_masks_of_size,
)
from .counting import (
    indicator,
    power_sigma,
    s_count,
    s_k_count,
    sigma_vector,
)
from .extremal import (
    EXHAUSTIVE_ORBITS,
    EXHAUSTIVE_RAW,
    INTERVAL_SCAN,
    PointVerdict,
    SearchReport,
    TheoremVerdict,
    minimize_s_general,
    minimize_sk,
    optimal_t,
    scan_k0,
    translate_phase_index,
    verify_thm_interval_extremal,
    verify_thm_k1,
    verify_thm_knot1,
)

__version__ = VERSION

# The spectral layer (and mpmath with it) and the pollard layer load on first
# use of one of their names (PEP 562), so importing zpcount, or running a CLI
# command that needs only the exact layers, does not pay for them.
_LAZY = {
    **dict.fromkeys((
        "AngleCheck", "FourierProfile", "FValue", "F_value", "ProjectionRanking",
        "SpectralLevels", "TGoodScan", "angle_check_punctured", "dft_indicator",
        "exact_arg_lattice_index", "primary_image", "projection_scores",
        "spectral_levels", "t_good_scan",
    ), "fourier"),
    **dict.fromkeys((
        "EqualityCase", "EqualityTag", "ThresholdProfile", "check_extremality_conditions",
        "classify_equality_k2", "critical_r0", "interval_profile",
        "optimal_interval_translate", "pollard_lhs_rhs", "threshold_profile",
        "threshold_set",
    ), "pollard"),
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups are plain namespace hits
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _LAZY.keys())


__all__ = [
    "VERSION", "__version__",
    "AffineMap", "InvariantError", "OrbitCatalog", "PrecisionError", "SizeGuardError",
    "Subset", "build_orbit_catalog", "is_odd_prime", "orbit_catalog",
    "subset_masks_of_size",
    "indicator", "power_sigma", "s_count", "s_k_count", "sigma_vector",
    "EXHAUSTIVE_ORBITS", "EXHAUSTIVE_RAW", "INTERVAL_SCAN", "PointVerdict", "SearchReport",
    "TheoremVerdict", "minimize_s_general", "minimize_sk", "optimal_t", "scan_k0",
    "translate_phase_index", "verify_thm_interval_extremal", "verify_thm_k1",
    "verify_thm_knot1",
    *_LAZY,
]
