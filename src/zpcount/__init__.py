"""Exact counting of additive (k+1)-tuples x0 = x1 + ... + xk in Z_p.

Everything arithmetic is exact (Python integers); spectral quantities carry
certified error bounds and escalate precision rather than silently round.
"""

import importlib as _importlib

# Every public name and the layer that defines it.  A layer loads on first
# use of one of its names (PEP 562), so importing zpcount runs none of them,
# and a name loads its own layer and what that layer imports: the spectral
# layer (and mpmath with it) only for a fourier name.
_LAZY = {
    **dict.fromkeys((
        "VERSION", "AffineMap", "InvariantError", "OrbitCatalog", "PrecisionError",
        "SizeGuardError", "Subset", "build_orbit_catalog", "is_odd_prime", "orbit_catalog",
        "subset_masks_of_size",
    ), "core"),
    **dict.fromkeys((
        "indicator", "power_sigma", "s_count", "s_k_count", "sigma_vector",
    ), "counting"),
    **dict.fromkeys((
        "EXHAUSTIVE_ORBITS", "EXHAUSTIVE_RAW", "INTERVAL_SCAN", "PointVerdict", "SearchReport",
        "TheoremVerdict", "minimize_s_general", "minimize_sk", "optimal_t", "scan_k0",
        "translate_phase_index", "verify_thm_interval_extremal", "verify_thm_k1",
        "verify_thm_knot1",
    ), "extremal"),
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

__all__ = ["__version__", *_LAZY]


def __getattr__(name: str):
    source = "VERSION" if name == "__version__" else name
    layer = _LAZY.get(source)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_importlib.import_module(f".{layer}", __name__), source)
    globals()[name] = value  # later lookups are plain namespace hits
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
