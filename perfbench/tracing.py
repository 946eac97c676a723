"""Layer spans and counters recorded around zpcount's public functions.

Tracer.install() wraps every public function of zpcount.core, counting,
pollard, fourier, extremal and cli, plus the two canonical-form methods of
Subset, and puts each wrapper at every module attribute that still refers to
the original.  The modules import each other's functions by name
(zpcount.extremal.power_sigma is counting.power_sigma), so patching only the
defining module would miss most calls.  uninstall() restores every patched
attribute.

A span is one call of a wrapped function.  Spans are folded into per-function
totals as they close (calls, inclusive seconds, self seconds); self time is
the span's duration minus the time its child spans cover.  A few functions
also feed counters (catalog sizes, operand bit lengths, precision
escalations).  Nothing is written until the benchmark asks for a snapshot.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time

LAYERS = ("core", "counting", "pollard", "fourier", "extremal", "cli")

# Called on every Subset construction; a span around them would only measure
# the wrapper.
UNWRAPPED = {"prime_context", "is_odd_prime"}
METHODS = (("Subset", "canonical"), ("Subset", "dilation_class_canonical"))

_MAX_COUNTERS = ("max_entry_bits", "dft_max_prec_bits")


def zpcount_modules() -> dict:
    return {layer: importlib.import_module(f"zpcount.{layer}") for layer in LAYERS}


def zpcount_caches() -> list:
    """Every lru_cache in zpcount, public or private, found by attribute scan."""
    seen: dict[int, object] = {}
    for mod in zpcount_modules().values():
        for obj in vars(mod).values():
            if callable(getattr(obj, "cache_clear", None)) and not isinstance(obj, type):
                seen[id(obj)] = obj
    return list(seen.values())


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []
        self.stats: dict[str, list] = {}
        self.counters: dict[str, int] = {}
        self.sigma_keys: set = set()
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: dict[str, object] = {}
        self.reset()

    # --- recording -----------------------------------------------------------

    def reset(self) -> None:
        for rec in self.stats.values():
            rec[:] = [0, 0.0, 0.0]
        self.counters = {
            "catalog_subsets": 0, "catalog_hits": 0, "max_entry_bits": 0,
            "dft_max_prec_bits": 0, "escalated_dft_calls": 0, "checked": 0,
        }
        self.sigma_keys = set()
        self.stack.clear()

    def _wrap(self, fn, name: str):
        rec = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self.stack
        clock = time.perf_counter
        hook = _HOOKS.get(name)

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [0.0, None]  # child seconds, per-span scratch slot
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[0]
                if parent is not None:
                    parent[0] += dt
            if hook is not None:
                hook(self, fn, args, kwargs, result, frame, parent)
            return result

        return functools.update_wrapper(wrapper, fn)

    def install(self) -> None:
        if self._patches:
            return
        mods = zpcount_modules()
        originals: dict[int, tuple[object, object]] = {}
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or attr in UNWRAPPED or isinstance(obj, type):
                    continue
                if not callable(obj) or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if name not in self._wrappers:
                    self._wrappers[name] = self._wrap(obj, name)
                originals[id(obj)] = (obj, self._wrappers[name])
        sites = [m for n, m in list(sys.modules.items())
                 if m is not None and (n == "zpcount" or n.startswith("zpcount."))]
        for site in sites:
            for attr, obj in list(vars(site).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(site, attr, hit[1])
                    self._patches.append((site, attr, obj))
        core = mods["core"]
        for cls_name, meth in METHODS:
            cls = getattr(core, cls_name)
            original = cls.__dict__[meth]
            name = f"core.{cls_name}.{meth}"
            if name not in self._wrappers:
                self._wrappers[name] = self._wrap(original, name)
            setattr(cls, meth, self._wrappers[name])
            self._patches.append((cls, meth, original))

    def uninstall(self) -> None:
        while self._patches:
            site, attr, original = self._patches.pop()
            setattr(site, attr, original)

    # --- reporting -----------------------------------------------------------

    def snapshot(self) -> dict:
        counters = dict(self.counters, sigma_distinct=len(self.sigma_keys))
        return {"stats": {k: list(v) for k, v in self.stats.items() if v[0]},
                "counters": counters}


def merge_snapshots(snaps: list[dict]) -> dict:
    """Sum several snapshots (counts, seconds); maxima stay maxima."""
    stats: dict[str, list] = {}
    counters: dict[str, float] = {}
    for snap in snaps:
        for name, (calls, incl, self_s) in snap["stats"].items():
            rec = stats.setdefault(name, [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += incl
            rec[2] += self_s
        for key, value in snap["counters"].items():
            if key in _MAX_COUNTERS:
                counters[key] = max(counters.get(key, 0), value)
            else:
                counters[key] = counters.get(key, 0) + value
    return {"stats": stats, "counters": counters}


def layer_self_seconds(snap: dict) -> dict[str, float]:
    out = {layer: 0.0 for layer in LAYERS}
    for name, (_, _, self_s) in snap["stats"].items():
        out[name.split(".", 1)[0]] += self_s
    return out


def layer_metrics(snap: dict) -> dict[str, float]:
    """The per-layer metrics of one traced pass (cli.* filled in by the caller)."""
    stats, c = snap["stats"], snap["counters"]

    def calls(*names):
        return sum(stats.get(n, (0, 0.0, 0.0))[0] for n in names)

    def incl(*names):
        return sum(stats.get(n, (0, 0.0, 0.0))[1] for n in names)

    def own(*names):
        return sum(stats.get(n, (0, 0.0, 0.0))[2] for n in names)

    layer_self = layer_self_seconds(snap)
    catalog_calls = calls("core.orbit_catalog")
    sigma_calls = calls("counting.sigma_vector")
    canonical = ("core.Subset.canonical", "core.Subset.dilation_class_canonical")
    minimize = ("extremal.minimize_sk", "extremal.minimize_s_general")
    return {
        "core.catalog_builds": calls("core.build_orbit_catalog"),
        "core.catalog_s": incl("core.build_orbit_catalog"),
        "core.catalog_subsets": c["catalog_subsets"],
        "core.catalog_hit_ratio": c["catalog_hits"] / catalog_calls if catalog_calls else 0.0,
        "core.canonical_calls": calls(*canonical),
        "core.canonical_s": incl(*canonical),
        "core.self_s": layer_self["core"],
        "counting.convolve_calls": calls("counting.cyclic_convolve"),
        "counting.convolve_s": incl("counting.cyclic_convolve"),
        "counting.power_sigma_calls": calls("counting.power_sigma"),
        "counting.power_sigma_s": incl("counting.power_sigma"),
        "counting.max_entry_bits": c["max_entry_bits"],
        "counting.sigma_vector_calls": sigma_calls,
        "counting.sigma_vector_s": incl("counting.sigma_vector"),
        "counting.sigma_distinct_ratio": c["sigma_distinct"] / sigma_calls if sigma_calls else 0.0,
        "counting.self_s": layer_self["counting"],
        "pollard.extremality_calls": calls("pollard.check_extremality_conditions"),
        "pollard.extremality_self_s": own("pollard.check_extremality_conditions"),
        "pollard.profile_calls": calls("pollard.profile_from_sigma"),
        "pollard.profile_s": incl("pollard.profile_from_sigma"),
        "pollard.lhs_rhs_calls": calls("pollard.pollard_lhs_rhs"),
        "pollard.classify_calls": calls("pollard.classify_equality_k2"),
        "pollard.classify_s": incl("pollard.classify_equality_k2"),
        "pollard.self_s": layer_self["pollard"],
        "fourier.dft_calls": calls("fourier.dft_indicator"),
        "fourier.dft_s": incl("fourier.dft_indicator"),
        "fourier.dft_max_prec_bits": c["dft_max_prec_bits"],
        "fourier.escalated_dft_calls": c["escalated_dft_calls"],
        "fourier.F_value_s": incl("fourier.F_value"),
        "fourier.self_s": layer_self["fourier"],
        "extremal.minimize_calls": calls(*minimize),
        "extremal.minimize_self_s": own(*minimize),
        "extremal.checked": c["checked"],
        "extremal.self_s": layer_self["extremal"],
        "cli.self_s": layer_self["cli"],
    }


# --- counters fed from particular spans -----------------------------------------


def _convolve(tr, fn, args, kwargs, result, frame, parent):
    if result:
        bits = max(result).bit_length()
        if bits > tr.counters["max_entry_bits"]:
            tr.counters["max_entry_bits"] = bits


def _sigma(tr, fn, args, kwargs, result, frame, parent):
    sets = args[0] if args else kwargs["sets"]
    tr.sigma_keys.add((sets[0].p,) + tuple(s.mask for s in sets))


def _build(tr, fn, args, kwargs, result, frame, parent):
    tr.counters["catalog_subsets"] += math.comb(result.p, result.a)
    if parent is not None:
        parent[1] = True  # the enclosing orbit_catalog call missed its cache


def _catalog(tr, fn, args, kwargs, result, frame, parent):
    if frame[1] is None:
        tr.counters["catalog_hits"] += 1


def _dft(tr, fn, args, kwargs, result, frame, parent):
    # An escalated DFT asks for more bits than the first DFT its parent span
    # asked for: the precision-doubling loops.  F_value's single, k-dependent
    # working precision is not an escalation.
    prec = result.precision
    c = tr.counters
    if prec > c["dft_max_prec_bits"]:
        c["dft_max_prec_bits"] = prec
    if parent is not None:
        if parent[1] is None:
            parent[1] = prec
        elif prec > parent[1]:
            c["escalated_dft_calls"] += 1


def _minimize(tr, fn, args, kwargs, result, frame, parent):
    tr.counters["checked"] += result.checked


_HOOKS = {
    "counting.cyclic_convolve": _convolve,
    "counting.sigma_vector": _sigma,
    "core.build_orbit_catalog": _build,
    "core.orbit_catalog": _catalog,
    "fourier.dft_indicator": _dft,
    "extremal.minimize_sk": _minimize,
    "extremal.minimize_s_general": _minimize,
}
