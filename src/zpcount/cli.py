"""Command-line surface: every library operation behind one executable.

Every command computes in one process, from scratch.  Outputs are
deterministic JSON (sorted keys; reports carry no clock, and the only time
in the output is the "elapsed" that _timed stamps on each search's JSON), CSV
with fixed versioned columns, or a short human summary.  Each JSON document
embeds the command and its parameters so `recheck FILE` can re-run the
computation and confirm the stored result byte-for-byte (elapsed excluded).

One table, _LANES, declares the command line and routes it.  A command's
flags are its lanes' params and --p, which the one prime guard checks
before any set literal is read (recheck guards a stored p alike); a lane row
is the only place a flag is declared, and the values of --mode and --method
are left to the library to check.  Fresh and stored params alike take the
first lane (for verify, of the claim) whose choosing params are all given:
with none, "minimize needs --sizes, or --a and --k"; a fresh flag that lane
never reads, "pollard --sizes does not read --set".  recheck ignores such
stored params, so a pollard report holding sizes and sets replays --sizes.

Exit codes: 0 success; 1 a usage error (argparse's too: every error is one
"error: ..." line), a guard error, a precision escalation that hit its cap,
a claim range that holds no point to test (for scan-k0, also a --k-limit
below the first eligible k), and a recheck file that is missing,
unreadable, not a zpcount report or malformed (stored params missing or of
the wrong type); 2 a verification verdict failed or a recheck mismatch; 3
an internal invariant check failed, such as an attainer whose recount
(s_k_count for the one sweep behind minimize, verify thm3/thm5 and scan-k0,
the sweep's correlation for minimize --method raw) misses the minimum.

Every command loads the exact layers (zpcount.core, zpcount.counting and
zpcount.extremal), which this module imports.  The spectral layer
(zpcount.fourier, and mpmath with it) is loaded only by spectrum and
angle-check, and zpcount.pollard only by pollard, so the other commands
never pay for them at start-up.  Likewise a process builds the parser of
its command alone; --help, --version and a missing or unknown command build
all of them, and the full --help lists every command.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import time

from .core import (
    VERSION, InvariantError, PrecisionError, Subset, _integer, enumeration_guard,
    is_odd_prime, orbit_catalog, prime_context,
)
from .counting import (
    count_vector_to_json, decimal_str, power_sigma, s_count, s_k_count, sigma_vector,
)
from .extremal import (
    minimize_s_general, minimize_sk, optimal_t, scan_k0, translate_phase_index,
    verify_thm_interval_extremal, verify_thm_k1, verify_thm_knot1,
)

CSV_SCHEMA = "1"


def _residues(p: int, members) -> list[int]:
    """The one rule for a set, given as a --set literal or stored in a report:
    every member an integer, read mod p, and no residue repeated."""
    out = [_integer("sets", x) % p for x in members]
    if len(set(out)) != len(out):
        raise ValueError(f"set literal repeats a residue mod {p}")
    return out


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
            out.extend(range(lo, hi + 1))
        else:
            out.append(int(token))
    return _residues(p, out)


def _parse_sizes(text: str) -> tuple[int, ...]:
    """Comma-separated set sizes."""
    tokens = [token.strip() for token in text.split(",")]
    if not all(tokens):
        raise ValueError("empty entry in size list")
    return tuple(int(token) for token in tokens)


# --- handlers: params dict in, result dict out ---------------------------------


def _subsets(params: dict) -> list[Subset]:
    p = params["p"]
    return [Subset.from_residues(p, _residues(p, xs)) for xs in params["sets"]]


def _run_count(params: dict) -> dict:
    p, sets = params["p"], _subsets(params)
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
    p, sets = params["p"], _subsets(params)
    if len(sets) != 1:
        raise ValueError("--k powers a single set; give exactly one --set")
    return {"p": p, "sigma": count_vector_to_json(power_sigma(sets[0], params["k"]))}


def _run_sigma(params: dict) -> dict:
    return {"p": params["p"], "sigma": count_vector_to_json(sigma_vector(_subsets(params)))}


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

    p, sets = params["p"], sorted(_subsets(params), key=lambda s: s.size)
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
    library default.  The library refuses one below 1 or above MAX_PRECISION."""
    from .fourier import DEFAULT_PRECISION

    return params.get("precision", DEFAULT_PRECISION)


def _run_spectrum(params: dict) -> dict:
    from .fourier import spectral_levels

    return spectral_levels(params["p"], params["a"], depth=params["depth"],
                           precision=_precision(params)).to_json()


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
    return _timed(minimize_s_general, params["p"], params["sizes"], mode=params["mode"])


def _run_minimize(params: dict) -> dict:
    return _timed(minimize_sk, params["p"], params["a"], params["k"], method=params["method"])


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
    ks = range(max(params["k_min"], 2), params["k_max"] + 1)
    return _timed(verify_thm_knot1, p, params["a"], [k for k in ks if k % p != 1])


def _run_thm5(params: dict) -> dict:
    return _timed(verify_thm_k1, params["p"], params["a"],
                  range(params["s_min"], params["s_max"] + 1))


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
                  k_limit=params["k_limit"], window=params.get("window"))


def _run_orbits(params: dict) -> dict:
    return orbit_catalog(params["p"], params["a"]).to_json()


# Every command's lanes, and for verify every claim's, in the order they are
# tried: (name, the params that choose it, the other params it reads, handler).
_LANES = {
    "count": (("count", "sets", "k", _run_count),),
    "sigma": (("sigma --k", "k sets", "", _run_sigma_power), ("sigma", "sets", "", _run_sigma)),
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

# The params every report of a command records whichever lane it takes: at
# these values when their flag is not given, fresh or stored, so a flag given
# at its default is never one the chosen lane fails to read.
_DEFAULTS = {
    "spectrum": {"depth": 3},
    "minimize": {"method": "auto", "mode": "auto"},
    "verify": {"k_min": 2, "s_min": 1},
    "scan-k0": {"k_limit": 500},
}

# The lane params whose flags are not int-valued: the set and size literals,
# parsed into params as sets and sizes, a switch, and the two named choices,
# whose values the library checks.
_KINDS = {
    "sets": {"action": "append", "dest": "sets", "metavar": "RESIDUES"},
    "sizes": {"metavar": "A0,A1,.."},
    "all_sizes": {"action": "store_true"},
    "mode": {},
    "method": {},
}


def _flag(key: str) -> str:
    return "--set" if key == "sets" else f"--{key.replace('_', '-')}"


def _lane(command: str, params: dict, fresh: bool = False):
    """The handler of command's first lane (for verify, its claim's) whose
    choosing params are all present, else a ValueError naming them; fresh
    params may hold no flag that lane never reads but at its _DEFAULTS value.
    Every int param the lane reads is read here, through _integer, so a
    stored true or 2.0 is a TypeError before the handler runs."""
    lanes, title = _LANES[command], command
    if command == "verify":
        lanes, title = lanes[params["claim"]], f"verify {params['claim']}"
    for name, choose, reads, handler in lanes:
        if all(key in params for key in choose.split()):
            lane = (*choose.split(), *reads.split())
            read = ("threads", "p", "claim", *lane)
            unread = sorted(_flag(key) for key, val in params.items()
                            if key not in read and val != _DEFAULTS.get(command, {}).get(key))
            if fresh and unread:
                raise ValueError(f"{name} does not read {', '.join(unread)}")
            for key in lane:
                if key in params and key not in _KINDS:
                    params[key] = _integer(key, params[key])
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
    command = doc["command"]
    if not (isinstance(command, str) and command in _LANES):
        raise ValueError(f"{path}: cannot recheck command {command!r}")
    params = {**_DEFAULTS.get(command, {}), **doc["params"]}
    try:
        _prime_guard(params)
        result = _lane(command, params)(params)
    except (KeyError, TypeError) as exc:  # a param missing or of the wrong type
        raise ValueError(f"{path}: malformed {command} params "
                         f"({type(exc).__name__}: {exc})") from None
    fresh = json.loads(json.dumps(result))  # normalize tuples
    match = _strip_elapsed(fresh) == _strip_elapsed(doc["result"])
    _emit({"command": "recheck", "params": {"file": path},
           "result": {"target": command, "match": match}}, fmt)
    return 0 if match else 2


# One line per command for --help.
_HELP = {
    "count": "s_k of one set, or s(A0; A1..Ak) of explicit sets",
    "sigma": "count vector of a set list or a k-th power",
    "pollard": "threshold profile, r0, partial sums, equality class",
    "spectrum": "top coefficient-magnitude levels across orbits",
    "optimal-t": "translates of [a] with the most negative dominant term",
    "angle-check": "punctured-interval argument vs the pi/p lattice",
    "minimize": "exact minimum of s_k (--a/--k) or s (--sizes)",
    "verify": "point-by-point verdicts for the structural claims",
    "scan-k0": "least k* whose claim holds across a trailing window",
    "orbits": "affine orbit catalog for (p, a)",
    "recheck": "re-run a stored JSON report and compare",
}


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors are ValueErrors, so that main
    prints each as one line, like every other error, and exits 1."""

    def error(self, message: str):
        raise ValueError(message)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """Every command of _LANES, plus recheck, or only the subcommand named by
    command.  A command's flags are --p and its lanes' params (for verify,
    every claim's), each an int flag unless _KINDS says otherwise; every
    subcommand takes --format and --threads."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv", "human"), default="json")
    common.add_argument("--threads", type=int, choices=(1,), default=1,
                        help="always 1: every search runs in one process (recorded in params)")
    prime = argparse.ArgumentParser(add_help=False, parents=[common])
    prime.add_argument("--p", type=int,
                       help="odd prime (verify cor7: sweep primes up to this value)")
    parser = _Parser(prog="zpcount",
                     description="Counts of additive (k+1)-tuples in Z_p and their minimizers.")
    parser.add_argument("--version", action="version", version=f"zpcount {VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, lanes in _LANES.items():
        if command not in (None, name):
            continue
        sp = sub.add_parser(name, parents=[prime], help=_HELP.get(name))
        if name == "verify":
            sp.add_argument("claim", choices=tuple(lanes))
            lanes = [lane for claim_lanes in lanes.values() for lane in claim_lanes]
        for key in dict.fromkeys(k for _, choose, reads, _ in lanes
                                 for k in f"{choose} {reads}".split()):
            sp.add_argument(_flag(key), **_KINDS.get(key, {"type": int}))
    if command in (None, "recheck"):
        sub.add_parser("recheck", parents=[common], help=_HELP["recheck"]).add_argument("file")
    return parser


# Parsed flags that are not params: the subcommand and the output format.
_NOT_PARAMS = ("command", "format")


def _prime_guard(params: dict) -> None:
    """The CLI's one prime guard, run on fresh and replayed params alike
    before anything reads p: every command but recheck takes --p.  A stored
    p that is not an integer is a malformed param (TypeError), refused before
    the cached prime_context, which cannot hash a list or a dict."""
    p = params.get("p")
    prime_context(p if p is None else _integer("p", p))


def _params_from_args(args: argparse.Namespace) -> dict:
    params = {**_DEFAULTS.get(args.command, {}),
              **{key: val for key, val in vars(args).items()
                 if key not in _NOT_PARAMS and val is not None and val is not False}}
    _prime_guard(params)
    if "sizes" in params:
        params["sizes"] = list(_parse_sizes(params["sizes"]))
    if "sets" in params:
        params["sets"] = [_parse_residues(text, params["p"]) for text in params["sets"]]
    return params


def _glue_value_flags(argv: list[str]) -> list[str]:
    """Join "--set -1..12" into "--set=-1..12" so leading minus signs survive."""
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in ("--set", "--sizes"):
            out[-1] += f"={tok}"
        else:
            out.append(tok)
    return out


def main(argv: list[str] | None = None) -> int:
    argv = _glue_value_flags(sys.argv[1:] if argv is None else argv)
    # a known command needs only its own subcommand; --help, --version, an
    # unknown command or none at all get the full parser and its listing
    command = argv[0] if argv and (argv[0] in _LANES or argv[0] == "recheck") else None
    try:
        args = build_parser(command).parse_args(argv)
        if args.command == "recheck":
            return _run_recheck(args.file, args.format)
        params = _params_from_args(args)
        result = _lane(args.command, params, fresh=True)(params)
    except SystemExit as exc:  # --help and --version, printed; usage errors are ValueErrors
        return exc.code
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
