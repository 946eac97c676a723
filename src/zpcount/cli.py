"""Command-line surface: every library operation behind one executable.

Every command computes in one process, from scratch.  Outputs are
deterministic JSON (sorted keys; reports carry no clock, and the only time
in the output is the "elapsed" that _timed stamps on each search's JSON), CSV
with fixed versioned columns, or a short human summary.  Each JSON document
embeds the command and its parameters so `recheck FILE` can re-run the
computation and confirm the stored result byte-for-byte (elapsed excluded).

Every command but recheck takes --p, and the one prime guard checks it
before any set literal is read; recheck applies the same guard to the
stored params.

Exit codes: 0 success; 1 usage or guard error, a precision escalation that
hit its cap, a claim range that holds no point to test (for scan-k0, also a
--k-limit below the first eligible k), and a recheck file that is missing,
unreadable, not a zpcount report or malformed (stored params missing or of
the wrong type); 2 a verification verdict failed or a recheck mismatch; 3
an internal invariant check failed, such as an attainer whose recount
(s_k_count for the one sweep behind minimize, verify thm3/thm5 and scan-k0,
the sweep's correlation for minimize --method raw) misses the minimum.

Lane errors (exit 1) come from one table, _LANES, which routes fresh and
stored params alike to the first lane whose choosing params are all given:
with none, "minimize needs --sizes, or --a and --k"; a fresh flag that lane
never reads, "pollard --sizes does not read --set".  recheck ignores such
stored params, so a pollard report holding sizes and sets replays --sizes.

Each command imports the layers it runs and no others: the spectral layer
(zpcount.fourier, and mpmath with it) is loaded by spectrum and angle-check,
zpcount.pollard by pollard, so a process that runs one of the exact commands
(count, sigma, optimal-t, minimize, verify, scan-k0, orbits) never pays for
them at start-up.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import time

from .core import (
    VERSION, InvariantError, PrecisionError, Subset, enumeration_guard, is_odd_prime,
    orbit_catalog, prime_context,
)
from .counting import (
    count_vector_to_json, decimal_str, power_sigma, s_count, s_k_count, sigma_vector,
)
from .extremal import (
    minimize_s_general, minimize_sk, optimal_t, scan_k0, translate_phase_index,
    verify_thm_interval_extremal, verify_thm_k1, verify_thm_knot1,
)

CSV_SCHEMA = "1"


def _parse_residues(text: str, p: int) -> list[int]:
    """Comma-separated residues; negatives reduce mod p; "x..y" spans a range."""
    out: list[int] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            raise ValueError("empty entry in set literal")
        if ".." in token:
            lo_s, hi_s = token.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
            if hi < lo:
                raise ValueError(f"descending range {token!r}")
            if hi - lo + 1 > p:
                raise ValueError(f"range {token!r} longer than the group")
            out.extend(v % p for v in range(lo, hi + 1))
        else:
            out.append(int(token) % p)
    if len(set(out)) != len(out):
        raise ValueError(f"set literal repeats a residue mod {p}")
    return out


def _parse_sizes(text: str) -> tuple[int, ...]:
    """Comma-separated set sizes."""
    tokens = [token.strip() for token in text.split(",")]
    if not all(tokens):
        raise ValueError("empty entry in size list")
    return tuple(int(token) for token in tokens)


# --- handlers: params dict in, result dict out ---------------------------------


def _run_count(params: dict) -> dict:
    p = params["p"]
    sets = [Subset.from_residues(p, xs) for xs in params["sets"]]
    k = params.get("k")
    if len(sets) == 1:
        if k is None:
            raise ValueError("one set needs --k to count (k+1)-tuples")
        value = s_k_count(sets[0], k)
    else:
        if k is not None and k != len(sets) - 1:
            raise ValueError("explicit sets fix k; drop --k or match it")
        k = len(sets) - 1
        value = s_count(sets[0], sets[1:])
    return {"p": p, "k": k, "sets": [list(s.members()) for s in sets],
            "count": decimal_str(value)}


def _run_sigma_power(params: dict) -> dict:
    p = params["p"]
    sets = [Subset.from_residues(p, xs) for xs in params["sets"]]
    if len(sets) != 1:
        raise ValueError("--k powers a single set; give exactly one --set")
    return {"p": p, "sigma": count_vector_to_json(power_sigma(sets[0], params["k"]))}


def _run_sigma(params: dict) -> dict:
    p = params["p"]
    sets = [Subset.from_residues(p, xs) for xs in params["sets"]]
    return {"p": p, "sigma": count_vector_to_json(sigma_vector(sets))}


def _run_pollard_sizes(params: dict) -> dict:
    from .pollard import critical_r0, interval_profile, optimal_interval_translate

    p, sizes = params["p"], tuple(params["sizes"])
    return {
        "p": p,
        "sizes": list(sizes),
        "r0": critical_r0(sizes, p),
        "interval_profile": interval_profile(p, sizes[1:]).to_json(),
        "optimal_head_translate": optimal_interval_translate(sizes, p),
    }


def _run_pollard_sets(params: dict) -> dict:
    from .pollard import classify_equality_k2, critical_r0, pollard_lhs_rhs, threshold_profile

    p = params["p"]
    sets = sorted((Subset.from_residues(p, xs) for xs in params["sets"]), key=lambda s: s.size)
    sizes = (params["a0"],) + tuple(s.size for s in sets)
    r0 = critical_r0(sizes, p)
    prof = threshold_profile(sets)
    partial = []
    for r in range(1, max(r0, 1) + 1):
        lhs, rhs = pollard_lhs_rhs(sets, r)
        partial.append({"r": r, "lhs": lhs, "rhs": rhs})
    out = {
        "p": p,
        "sizes": list(sizes),
        "r0": r0,
        "profile": prof.to_json(),
        "partial_sums": partial,
    }
    if len(sets) == 2 and 1 <= r0 <= sets[0].size <= sets[1].size < p:
        out["classification"] = classify_equality_k2(sets[0], sets[1], r0).to_json()
    return out


def _precision(params: dict) -> int:
    """The working precision of a spectral command: --precision, else the
    library default.  Capped here at MAX_PRECISION, the ladder's cap, because
    angle-check climbs no ladder and would otherwise run at any size."""
    from .fourier import DEFAULT_PRECISION, MAX_PRECISION

    prec = params.get("precision", DEFAULT_PRECISION)
    if not isinstance(prec, int) or not 1 <= prec <= MAX_PRECISION:
        raise ValueError(f"--precision must be a positive number of bits up to "
                         f"{MAX_PRECISION}, got {prec!r}")
    return prec


def _run_spectrum(params: dict) -> dict:
    from .fourier import spectral_levels

    depth = params.get("depth", 3)
    if not isinstance(depth, int) or depth < 1:
        raise ValueError(f"--depth must be >= 1, got {depth!r}")
    levels = spectral_levels(params["p"], params["a"], depth=depth,
                             precision=_precision(params))
    return levels.to_json()


def _run_optimal_t(params: dict) -> dict:
    p, a, k = params["p"], params["a"], params["k"]
    ts = sorted(optimal_t(p, a, k))
    return {
        "p": p, "a": a, "k": k, "t": ts,
        "phase_indices": [translate_phase_index(p, a, k, t) for t in ts],
    }


def _run_angle_check(params: dict) -> dict:
    from .fourier import angle_check_punctured

    return angle_check_punctured(params["p"], params["a"], _precision(params)).to_json()


def _run_angle_sweep(params: dict) -> dict:
    from .fourier import angle_check_punctured

    p = params["p"]
    prec = _precision(params)
    if p < 7:  # no a in 3..p-3: an empty sweep would pass vacuously
        raise ValueError(f"angle-check: the range holds no point to test (p={p})")
    checks = [angle_check_punctured(p, a_, prec).to_json() for a_ in range(3, p - 2)]
    return {"p": p, "checks": checks,
            "all_passed": all(c["passed"] and c["branch_ok"] for c in checks)}


def _timed(build, *args, **kwargs) -> dict:
    """The JSON of build(*args, **kwargs)'s report, stamped with "elapsed",
    the call's wall time in seconds: the one clock the CLI reads."""
    start = time.perf_counter()
    report = build(*args, **kwargs)
    return {**report.to_json(), "elapsed": round(time.perf_counter() - start, 6)}


def _run_minimize_sizes(params: dict) -> dict:
    return _timed(minimize_s_general, params["p"], params["sizes"],
                  mode=params.get("mode", "auto"))


def _run_minimize(params: dict) -> dict:
    return _timed(minimize_sk, params["p"], params["a"], params["k"],
                  method=params.get("method", "auto"))


def _run_thm1_all_sizes(params: dict) -> dict:
    p, k = params["p"], params["k"]
    verdicts = [_timed(verify_thm_interval_extremal, p, sizes)
                for sizes in itertools.product(range(1, p + 1), repeat=k + 1)]
    return {"p": p, "k": k, "all_passed": all(v["passed"] for v in verdicts),
            "verdicts": verdicts}


def _run_thm1(params: dict) -> dict:
    return _timed(verify_thm_interval_extremal, params["p"], params["sizes"])


def _run_thm3(params: dict) -> dict:
    p = params["p"]
    ks = range(max(params.get("k_min", 2), 2), params["k_max"] + 1)
    return _timed(verify_thm_knot1, p, params["a"], [k for k in ks if k % p != 1])


def _run_thm5(params: dict) -> dict:
    return _timed(verify_thm_k1, params["p"], params["a"],
                  range(params.get("s_min", 1), params["s_max"] + 1))


def _run_cor7(params: dict) -> dict:
    """Orbit-count characterization sweep over odd primes p <= p_max:
    at least 3 orbits exactly when (p >= 13 and 3 <= a <= p-3) or
    (p >= 11 and 4 <= a <= p-4).

    p_max is prime and has the largest catalogs of the sweep, so its guard
    is checked before any catalog is built."""
    p_max = params["p"]
    for a in range(1, p_max):
        enumeration_guard(p_max, a)
    rows = []
    for p in range(3, p_max + 1):
        if not is_odd_prime(p):
            continue
        for a in range(1, p):
            n = len(orbit_catalog(p, a).reps)
            expected_ge3 = (p >= 13 and 3 <= a <= p - 3) or (p >= 11 and 4 <= a <= p - 4)
            rows.append({"p": p, "a": a, "orbits": n,
                         "expected_ge3": expected_ge3, "holds": (n >= 3) == expected_ge3})
    return {"p_max": p_max, "all_passed": all(row["holds"] for row in rows), "rows": rows}


def _run_scan_k0(params: dict) -> dict:
    return _timed(scan_k0, params["p"], params["a"], params["mode"],
                  k_limit=params.get("k_limit", 500), window=params.get("window"))


def _run_orbits(params: dict) -> dict:
    return orbit_catalog(params["p"], params["a"]).to_json()


# Every command's lanes, and for verify every claim's, in the order they are
# tried: (name, the params that choose it, the other params it reads, handler).
_LANES = {
    "count": (("count", "sets", "k", _run_count),),
    "sigma": (("sigma --k", "k", "sets", _run_sigma_power), ("sigma", "sets", "", _run_sigma)),
    "pollard": (("pollard --sizes", "sizes", "", _run_pollard_sizes),
                ("pollard --set", "sets a0", "", _run_pollard_sets)),
    "spectrum": (("spectrum", "a", "depth precision", _run_spectrum),),
    "optimal-t": (("optimal-t", "a k", "", _run_optimal_t),),
    "angle-check": (("angle-check --a", "a", "precision", _run_angle_check),
                    ("angle-check", "", "precision", _run_angle_sweep)),
    "minimize": (("minimize --sizes", "sizes", "mode", _run_minimize_sizes),
                 ("minimize --a/--k", "a k", "method", _run_minimize)),
    "verify": {
        "thm1": (("verify thm1 --all-sizes", "all_sizes k", "", _run_thm1_all_sizes),
                 ("verify thm1 --sizes", "sizes", "", _run_thm1)),
        "thm3": (("verify thm3", "a k_max", "k_min", _run_thm3),),
        "thm5": (("verify thm5", "a s_max", "s_min", _run_thm5),),
        "cor7": (("verify cor7", "", "", _run_cor7),),
    },
    "scan-k0": (("scan-k0", "a mode", "k_limit window", _run_scan_k0),),
    "orbits": (("orbits", "a", "", _run_orbits),),
}


def _flag(key: str) -> str:
    return "--set" if key == "sets" else f"--{key.replace('_', '-')}"


def _lane(command: str, params: dict, fresh: bool = False):
    """The handler of command's first lane (for verify, its claim's) whose
    choosing params are all present, else a ValueError naming them; fresh
    params may hold no flag that lane never reads but at a _LANE_DEFAULTS value."""
    lanes, title = _LANES[command], command
    if command == "verify":
        lanes, title = lanes[params["claim"]], f"verify {params['claim']}"
    for name, choose, reads, handler in lanes:
        if all(key in params for key in choose.split()):
            read = ("threads", "p", "claim", *choose.split(), *reads.split())
            unread = [_flag(key) for key, val in params.items()
                      if key not in read and val != _LANE_DEFAULTS.get(key)]
            if fresh and unread:
                raise ValueError(f"{name} does not read {', '.join(unread)}")
            return handler
    needs = [" and ".join(map(_flag, choose.split())) for _, choose, _, _ in lanes]
    raise ValueError(f"{title} needs {', or '.join(needs)}")


def _verification_failed(result: dict) -> bool:
    """Whether a result carries a verdict that failed (exit 2): only verdicts
    have all_passed, passed or branch_ok keys, and each one must hold."""
    return not all(result.get(key, True) for key in ("all_passed", "passed", "branch_ok"))


def _strip_elapsed(obj):
    if isinstance(obj, dict):
        return {k: _strip_elapsed(v) for k, v in obj.items() if k != "elapsed"}
    if isinstance(obj, list):
        return [_strip_elapsed(v) for v in obj]
    return obj


def _emit(doc: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(doc, sort_keys=True, indent=2))
    elif fmt == "csv":
        _emit_csv(doc)
    else:
        _emit_human(doc)


def _emit_csv(doc: dict) -> None:
    import csv

    writer = csv.writer(sys.stdout)
    writer.writerow(["schema", f"{doc['command']}/{CSV_SCHEMA}"])
    result = doc["result"]
    if "points" in result:  # a verify or scan-k0 verdict, one row per point
        x = "k" if doc["command"] == "scan-k0" else "x"
        writer.writerow([x, "status", "threshold", "passed"])
        rows = [[pt["x"], pt["status"], result["threshold"], result["passed"]]
                for pt in result["points"]]
    else:
        writer.writerow(["key", "value"])
        rows = [[k, json.dumps(v, sort_keys=True)] for k, v in sorted(result.items())]
    writer.writerows(rows)


def _emit_human(doc: dict) -> None:
    print(f"{doc['command']}:")
    for key, value in sorted(doc["result"].items()):
        text = json.dumps(value, sort_keys=True)
        if len(text) > 120:
            text = text[:117] + "..."
        print(f"  {key}: {text}")


def _run_recheck(path: str, fmt: str) -> int:
    """Recompute a stored report from scratch and compare; nothing but the
    stored command and params is taken from the file."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror}") from None
    if not (isinstance(doc, dict) and {"command", "params", "result"} <= doc.keys()
            and isinstance(doc["params"], dict)):
        raise ValueError(f"{path} is not a zpcount report (needs command, params, result)")
    command, params = doc["command"], doc["params"]
    if not (isinstance(command, str) and command in _LANES):
        raise ValueError(f"{path}: cannot recheck command {command!r}")
    _prime_guard(params)
    try:
        result = _lane(command, params)(params)
    except (KeyError, TypeError) as exc:  # a param missing or of the wrong type
        raise ValueError(f"{path}: malformed {command} params "
                         f"({type(exc).__name__}: {exc})") from None
    fresh = json.loads(json.dumps(result))  # normalize tuples
    match = _strip_elapsed(fresh) == _strip_elapsed(doc["result"])
    _emit({"command": "recheck", "params": {"file": path},
           "result": {"target": command, "match": match}}, fmt)
    return 0 if match else 2


# Defaults of flags that only one lane of a command reads: every report of
# that command records them whichever lane it takes, so a flag left at its
# default is never one the lane fails to read.
_LANE_DEFAULTS = {"method": "auto", "mode": "auto", "k_min": 2, "s_min": 1}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv", "human"), default="json")
    common.add_argument("--threads", type=int, choices=(1,), default=1,
                        help="always 1: every search runs in one process (recorded in params)")
    prime = argparse.ArgumentParser(add_help=False, parents=[common])
    prime.add_argument("--p", type=int, required=True,
                       help="odd prime (verify cor7: sweep primes up to this value)")

    parser = argparse.ArgumentParser(
        prog="zpcount",
        description="Counts of additive (k+1)-tuples in Z_p and their minimizers.",
    )
    parser.add_argument("--version", action="version", version=f"zpcount {VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("count", parents=[prime],
                        help="s_k of one set, or s(A0; A1..Ak) of explicit sets")
    sp.add_argument("--set", action="append", required=True, metavar="RESIDUES")
    sp.add_argument("--k", type=int)

    sp = sub.add_parser("sigma", parents=[prime],
                        help="count vector of a set list or a k-th power")
    sp.add_argument("--set", action="append", required=True, metavar="RESIDUES")
    sp.add_argument("--k", type=int)

    sp = sub.add_parser("pollard", parents=[prime],
                        help="threshold profile, r0, partial sums, equality class")
    sp.add_argument("--sizes", metavar="A0,A1,..")
    sp.add_argument("--set", action="append", metavar="RESIDUES")
    sp.add_argument("--a0", type=int, help="head size (set mode)")

    sp = sub.add_parser("spectrum", parents=[prime],
                        help="top coefficient-magnitude levels across orbits")
    sp.add_argument("--a", type=int, required=True)
    sp.add_argument("--depth", type=int, default=3)
    sp.add_argument("--precision", type=int, help="working precision in bits")

    sp = sub.add_parser("optimal-t", parents=[prime],
                        help="translates of [a] with the most negative dominant term")
    sp.add_argument("--a", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)

    sp = sub.add_parser("angle-check", parents=[prime],
                        help="punctured-interval argument vs the pi/p lattice")
    sp.add_argument("--a", type=int)
    sp.add_argument("--precision", type=int, help="working precision in bits")

    sp = sub.add_parser("minimize", parents=[prime],
                        help="exact minimum of s_k (--a/--k) or s (--sizes)")
    sp.add_argument("--a", type=int)
    sp.add_argument("--k", type=int)
    sp.add_argument("--sizes", metavar="A0,A1,..")
    sp.add_argument("--method", choices=("auto", "raw"), default=_LANE_DEFAULTS["method"])
    sp.add_argument("--mode", choices=("auto", "full", "interval"), default=_LANE_DEFAULTS["mode"])

    sp = sub.add_parser("verify", parents=[prime],
                        help="point-by-point verdicts for the structural claims")
    sp.add_argument("claim", choices=("thm1", "thm3", "thm5", "cor7"))
    sp.add_argument("--a", type=int)
    sp.add_argument("--k", type=int)
    sp.add_argument("--sizes", metavar="A0,A1,..")
    sp.add_argument("--all-sizes", action="store_true")
    sp.add_argument("--k-min", type=int, default=_LANE_DEFAULTS["k_min"])
    sp.add_argument("--k-max", type=int)
    sp.add_argument("--s-min", type=int, default=_LANE_DEFAULTS["s_min"])
    sp.add_argument("--s-max", type=int)

    sp = sub.add_parser("scan-k0", parents=[prime],
                        help="least k* whose claim holds across a trailing window")
    sp.add_argument("--a", type=int, required=True)
    sp.add_argument("--mode", choices=("knot1", "k1-even", "k1-part2"), required=True)
    sp.add_argument("--k-limit", type=int, default=500)
    sp.add_argument("--window", type=int)

    sp = sub.add_parser("orbits", parents=[prime],
                        help="affine orbit catalog for (p, a)")
    sp.add_argument("--a", type=int, required=True)

    sp = sub.add_parser("recheck", parents=[common],
                        help="re-run a stored JSON report and compare")
    sp.add_argument("file")
    return parser


# Parsed flags that are not params: the subcommand, the output format, and
# the set and size literals, which enter params parsed (as sets and sizes).
_NOT_PARAMS = ("command", "format", "set", "sizes")


def _prime_guard(params: dict) -> None:
    """The CLI's one prime guard, run on fresh and replayed params alike
    before anything reads p: every command but recheck takes --p."""
    prime_context(params.get("p"))


def _params_from_args(args: argparse.Namespace) -> dict:
    given = vars(args)
    params = {key: val for key, val in given.items()
              if key not in _NOT_PARAMS and val is not None and val is not False}
    _prime_guard(params)
    if given.get("sizes"):
        params["sizes"] = list(_parse_sizes(given["sizes"]))
    if given.get("set"):
        params["sets"] = [_parse_residues(text, params["p"]) for text in given["set"]]
    return params


def _glue_value_flags(argv: list[str]) -> list[str]:
    """Join "--set -1..12" into "--set=-1..12" so leading minus signs survive."""
    out: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in ("--set", "--sizes") and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_glue_value_flags(list(sys.argv[1:] if argv is None else argv)))
    except SystemExit as exc:  # argparse uses 2 for usage errors; keep that for verdicts
        if exc.code not in (0, None):
            return 1
        return 0
    try:
        if args.command == "recheck":
            return _run_recheck(args.file, args.format)
        params = _params_from_args(args)
        result = _lane(args.command, params, fresh=True)(params)
    except (ValueError, PrecisionError) as exc:  # ValueError includes SizeGuardError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvariantError as exc:
        print(f"error: invariant violated: {exc}", file=sys.stderr)
        return 3
    doc = {"command": args.command, "params": params, "result": result}
    _emit(doc, args.format)
    return 2 if _verification_failed(result) else 0


if __name__ == "__main__":
    sys.exit(main())
