"""Exact minimization of tuple counts over subsets of Z_p, with verdicts.

minimize_sk finds the true minimum of s_k over all a-subsets: s_k is
constant on dilation classes, so every translate of every affine-orbit
representative is scanned via the identity
s_k(R + t) = sum_{y in R} sigma_R^(k)(y - (k-1)t).  For k = 1 mod p every
translate reads the same entry, so s_k is constant on whole affine orbits and
the attainers are orbit representatives.  minimize_s_general covers the
mixed-size count s(A_0; A_1, ..., A_k), either brute-force over all
configurations (tiny p) or along the interval family.

One search serves every k and every claim: _class_minima, one sweep over an
ascending k-range by counting's _translate_rows (minimize_sk runs it at a
single k).  Each reported attainer is recounted before it is emitted, by
the route its search did not use, and a disagreement raises InvariantError:
sweep attainers by s_k_count, raw-search attainers (scored by s_k_count) by
the sweep's row, mixed-size witnesses by s_count.

The verify_* / scan_k0 functions turn the structural claims into point-by-
point verdicts backed solely by exact bigint comparisons; spectral data is
used to predict, never to decide.  The predicted translates come from
optimal_t, which places the dominant spectral term's phase on the (pi/p)*Z
lattice by integer arithmetic alone, so this layer never imports
zpcount.fourier.  Every search runs in process and from scratch; nothing is
read from or written to disk, and no clock is read: a report recomputed
compares equal, and the CLI stamps the wall time ("elapsed") on its JSON.
"""

from __future__ import annotations

from itertools import product
from math import comb, inf, prod
from typing import Iterable, Iterator, Sequence

from .core import (  # InvariantError is re-exported from here
    InvariantError, SizeGuardError, Subset, _check_claim_range, _integer, _Record,
    orbit_catalog, prime_context, subset_masks_of_size,
)
from .counting import _translate_rows, decimal_str, s_count, s_k_count, sigma_vector

EXHAUSTIVE_ORBITS = "EXHAUSTIVE_ORBITS"
EXHAUSTIVE_RAW = "EXHAUSTIVE_RAW"
INTERVAL_SCAN = "INTERVAL_SCAN"

GENERAL_TUPLE_GUARD = 4 * 10**6  # full-mode configuration budget
WITNESS_CAP = 24  # stored attainer configurations per general report


class SearchReport(_Record):
    """Outcome of one exact minimization.

    extremal_orbits carries one canonical representative per attaining class
    (affine orbits when k = 1 mod p, dilation classes otherwise), and
    extremal_kind says which: "orbit", "dilation-class" or "config".  For the
    mixed-size search the witnesses are whole configurations instead,
    extremal_configs, and attainer_count tallies the (A_1, ..., A_k) tuples
    at the minimum.
    """

    __slots__ = _fields = ("p", "sizes", "k", "min_value", "extremal_orbits", "extremal_kind",
                           "method", "checked", "extremal_configs", "attainer_count")
    _defaults = {"extremal_configs": (), "attainer_count": 0}

    def to_json(self) -> dict:
        out = {
            "p": self.p,
            "sizes": list(self.sizes),
            "k": self.k,
            "min_value": decimal_str(self.min_value),
            "extremal_orbits": [list(s.members()) for s in self.extremal_orbits],
            "extremal_kind": self.extremal_kind,
            "method": self.method,
            "checked": self.checked,
        }
        if self.extremal_configs:
            out["extremal_configs"] = [
                [list(s.members()) for s in cfg] for cfg in self.extremal_configs
            ]
            out["attainer_count"] = self.attainer_count
        return out


class PointVerdict(_Record):
    """One tested point: x is the k (or s) tested, status is "holds", "fails"
    or "below-threshold", and details a fresh dict unless one is given."""

    __slots__ = _fields = ("x", "status", "details")

    def __init__(self, x: int, status: str, details: dict | None = None) -> None:
        super().__init__(x, status, {} if details is None else details)

    def to_json(self) -> dict:
        return {"x": self.x, "status": self.status, "details": self.details}


class TheoremVerdict(_Record):
    """Point-by-point outcome of one structural claim over a parameter range."""

    __slots__ = _fields = ("theorem_id", "params", "points", "threshold", "passed")

    def to_json(self) -> dict:
        return {
            "theorem_id": self.theorem_id,
            "params": self.params,
            "points": [pt.to_json() for pt in self.points],
            "threshold": self.threshold,
            "passed": self.passed,
        }


# --- s_k minimization ----------------------------------------------------------


def _argmin(pairs: Iterable[tuple[object, int]], cap: float = inf) -> tuple[int, list, int]:
    """(least value, the first cap keys attaining it in input order, how many
    keys attain it) over (key, value) pairs; a smaller value resets both."""
    best = None
    keys: list = []
    count = 0
    for key, val in pairs:
        if best is None or val < best:
            best, keys, count = val, [key], 1
        elif val == best:
            count += 1
            if len(keys) < cap:
                keys.append(key)
    return best, keys, count


def _recount(what: str, recounts: Iterable[tuple[str, int]], best: int, where: str) -> None:
    """Raise InvariantError unless every recount equals best, the search's
    minimum: recounts pairs each attainer, as printed, with its count by the
    route the search did not use; what names the count, where the search."""
    for shown, recount in recounts:
        if recount != best:
            raise InvariantError(
                f"{what} recount of {shown} is {recount}, search found {best} ({where})"
            )


def _class_minima(
    p: int, a: int, ks: Sequence[int]
) -> Iterator[tuple[list[tuple], int, tuple[Subset, ...]]]:
    """The one exact search: for each k of ks (ascending), the rows of every
    orbit representative (in catalog order, as _translate_rows gives them),
    the least s_k over every translate of every representative, and its
    attainers in ascending order: the winning orbit representatives for k = 1
    mod p (each row is constant), the attaining dilation classes otherwise.
    Each attainer is recounted by s_k_count (the rows come from the stepped
    correlation)."""
    reps = orbit_catalog(p, a).reps
    for k, rows in zip(ks, _translate_rows(reps, ks)):
        # one key per representative (its best translate) keeps _argmin's
        # input at len(reps), not p times that; the attaining translates are
        # expanded for the winning representatives only
        best, winners, _ = _argmin(((rep, row), min(row)) for rep, row in zip(reps, rows))
        if k % p == 1:  # catalog order is ascending and each rep canonical
            attainers = tuple(rep for rep, _ in winners)
        else:
            attainers = tuple(sorted({
                rep.translate(t).dilation_class_canonical()
                for rep, row in winners
                for t, val in enumerate(row)
                if val == best
            }))
        _recount(f"s_{k}", ((f"attainer {list(rep.members())}", s_k_count(rep, k))
                            for rep in attainers), best, f"p={p}, a={a}")
        yield rows, best, attainers


def minimize_sk(p: int, a: int, k: int, *, method: str = "auto") -> SearchReport:
    """Exact minimum of s_k over all a-subsets of Z_p, with every attaining
    class.

    The default method is the one sweep, _class_minima, at k: a translate
    scan of the orbit representatives, whose attainers are orbits for k = 1
    mod p and dilation classes otherwise; method="raw" re-derives the same
    answer from all C(p,a) subsets.  Every emitted attainer is re-counted
    before the report is returned, by the route its search did not use:
    by s_k_count in the sweep, by the sweep's row at t = 0 in the raw
    search (which scores every subset by s_k_count).
    """
    prime_context(p)
    a, k = _integer("a", a), _integer("k", k)
    if not 1 <= a <= p - 1:
        raise ValueError(f"need 1 <= a <= p-1, got a={a}")
    if k < 2:
        raise ValueError(f"need k >= 2, got k={k}")
    if method not in ("auto", "raw"):
        raise ValueError(f"unknown method {method!r}")
    resolved = EXHAUSTIVE_RAW if method == "raw" else EXHAUSTIVE_ORBITS
    orbit_level = k % p == 1
    if resolved == EXHAUSTIVE_RAW:
        subsets = (Subset(p, m) for m in subset_masks_of_size(p, a))
        best, found, _ = _argmin((s, s_k_count(s, k)) for s in subsets)
        canonical = Subset.canonical if orbit_level else Subset.dilation_class_canonical
        attainers = tuple(sorted({canonical(s) for s in found}))
        rows = next(_translate_rows(attainers, [k]))  # row[0] is s_k of the set itself
        _recount(f"s_{k}", ((f"attainer {list(rep.members())}", row[0])
                            for rep, row in zip(attainers, rows)), best, f"p={p}, a={a}")
        checked = comb(p, a)
    else:
        _, best, attainers = next(_class_minima(p, a, [k]))
        checked = len(orbit_catalog(p, a).reps) * (1 if orbit_level else p)
    return SearchReport(
        p=p,
        sizes=(a,),
        k=k,
        min_value=best,
        extremal_orbits=attainers,
        extremal_kind="orbit" if orbit_level else "dilation-class",
        method=resolved,
        checked=checked,
    )


# --- mixed-size minimization ----------------------------------------------------


def _cheapest_config(tail: tuple[Subset, ...], a0: int) -> tuple[tuple[Subset, ...], int]:
    """(A_0, *tail) with the cheapest A_0 for a fixed right-hand configuration
    (the a0 residues with the smallest count-vector entries, ties broken by
    residue), and its count."""
    sig = sigma_vector(tail)
    picked = sorted(range(len(sig)), key=lambda y: (sig[y], y))[:a0]
    return (Subset.from_residues(len(sig), picked), *tail), sum(sig[y] for y in picked)


def minimize_s_general(
    p: int, sizes: Sequence[int], *, mode: str = "auto"
) -> SearchReport:
    """Exact minimum of s(A_0; A_1, ..., A_k) over all configurations with
    the given sizes.

    Full mode enumerates every (A_1, ..., A_k) tuple and pairs it with its
    cheapest A_0 (the a_0 residues of smallest count); interval mode only
    scans s([a_0] + t; [a_1], ..., [a_k]) over the p translates.  auto picks
    full when the tuple budget allows, interval otherwise.  Both modes read
    counts off the sigma vector of the summands, and every stored witness is
    re-counted by s_count before the report is returned.
    """
    prime_context(p)
    sizes = tuple(_integer("size", x) for x in sizes)
    if len(sizes) < 2:
        raise ValueError("need a head size and at least one summand size")
    if not all(1 <= x <= p for x in sizes):
        raise ValueError(f"sizes must lie in [1, {p}], got {sizes}")
    a0, rest = sizes[0], sizes[1:]
    k = len(rest)
    n_tuples = prod(comb(p, ai) for ai in rest)
    if mode == "auto":
        mode = "full" if n_tuples <= GENERAL_TUPLE_GUARD else "interval"
    if mode not in ("full", "interval"):
        raise ValueError(f"unknown mode {mode!r}")

    if mode == "interval":
        tail = tuple(Subset.interval(p, ai) for ai in rest)
        sig = sigma_vector(tail)
        heads = (Subset.interval(p, a0, start=t) for t in range(p))
        configs = (((head, *tail), sum(sig[y] for y in head.members())) for head in heads)
        method, checked = INTERVAL_SCAN, p
    else:
        if n_tuples > GENERAL_TUPLE_GUARD:
            raise SizeGuardError(
                f"{n_tuples} configurations exceed the full-search budget"
            )
        mask_pools = [
            [Subset(p, m) for m in subset_masks_of_size(p, ai)] for ai in rest
        ]
        configs = (_cheapest_config(tail, a0) for tail in product(*mask_pools))
        method, checked = EXHAUSTIVE_RAW, n_tuples
    best, witnesses, count = _argmin(configs, WITNESS_CAP)
    _recount("s", ((f"witness {[list(s.members()) for s in cfg]}", s_count(cfg[0], list(cfg[1:])))
                   for cfg in witnesses), best, f"p={p}, sizes={list(sizes)}")
    return SearchReport(
        p=p,
        sizes=sizes,
        k=k,
        min_value=best,
        extremal_orbits=(),
        extremal_kind="config",
        method=method,
        checked=checked,
        extremal_configs=tuple(witnesses),
        attainer_count=count,
    )


# --- structural claim verdicts ---------------------------------------------------


def verify_thm_interval_extremal(p: int, sizes: Sequence[int]) -> TheoremVerdict:
    """Check that the interval configuration attains the true mixed-size
    minimum, and (uniform sizes, k != 1 mod p) that a single common set
    B = [a] + eta with eta = -t/(k-1) also attains it."""
    sizes = tuple(_integer("size", x) for x in sizes)
    full = minimize_s_general(p, sizes, mode="full")
    ivl = minimize_s_general(p, sizes, mode="interval")
    ok = full.min_value == ivl.min_value
    details = {
        "brute_min": decimal_str(full.min_value),
        "interval_min": decimal_str(ivl.min_value),
        "interval_head": list(ivl.extremal_configs[0][0].members()),
    }
    k = len(sizes) - 1
    uniform = len(set(sizes)) == 1
    if uniform and k % p != 1 and k >= 2:
        ctx = prime_context(p)
        a = sizes[0]
        head = ivl.extremal_configs[0][0]  # the first attaining translate [a] + t
        t = next((x for x in head if x - 1 not in head), 0)
        eta = (-t * ctx.inv[(k - 1) % p]) % p
        common = Subset.interval(p, a).translate(eta)
        common_val = s_count(common, [common] * k)
        details["common_set"] = common.members()
        details["common_value"] = decimal_str(common_val)
        ok = ok and common_val == full.min_value
    elif uniform:
        details["common_set"] = None
        details["common_set_note"] = "common-set reduction needs k != 1 mod p"
    status = "holds" if ok else "fails"
    return TheoremVerdict(
        theorem_id="thm1",
        params={"p": p, "sizes": list(sizes)},
        points=(PointVerdict(0, status, details),),
        threshold=None,
        passed=ok,
    )


def _verdict(
    theorem_id: str,
    params: dict,
    xs: Sequence[int],
    judged: Iterable[tuple[bool, dict]],
    *,
    k_limit: float = inf,
    window: float = inf,
) -> TheoremVerdict:
    """Pair each x of xs (ascending) with the next (holds, details) that
    judged yields, label the points and build the verdict.

    The threshold is the least x <= k_limit such that every point in
    [x, x + window] holds; failing points before it are "below-threshold",
    the rest "fails".  The default limits give the least x from which the
    claim holds through the end of the range.  A range with no point, or
    with no point at or below k_limit, has no threshold candidate to test,
    so it is a usage error, raised before judged is read, never a failed
    claim: a generator evaluates no point until then."""
    if not xs:
        raise ValueError(f"{theorem_id}: the range holds no point to test")
    if xs[0] > k_limit:
        raise ValueError(f"{theorem_id}: no point of the range lies at or below "
                         f"k_limit={k_limit}")
    raw_points = [(x, *pt) for x, pt in zip(xs, judged, strict=True)]
    threshold = None
    for i, (x, _, _) in enumerate(raw_points):
        if x > k_limit:
            break
        if all(h for xx, h, _ in raw_points[i:] if xx <= x + window):
            threshold = x
            break
    points = tuple(
        PointVerdict(
            x,
            "holds" if holds else (
                "below-threshold" if threshold is not None and x < threshold else "fails"
            ),
            det,
        )
        for x, holds, det in raw_points
    )
    return TheoremVerdict(
        theorem_id=theorem_id,
        params=params,
        points=points,
        threshold=threshold,
        passed=threshold is not None,
    )


# --- optimal interval translates (pure integer arithmetic) -----------------------


def translate_phase_index(p: int, a: int, k: int, t: int) -> int:
    """m in [0, 2p) with the dominant-term phase of [a]+t equal to pi*m/p."""
    return (-(2 * t + a - 1) * (k - 1)) % (2 * p)


def optimal_t(p: int, a: int, k: int) -> frozenset[int]:
    """Translates t making the dominant spectral term of [a]+t most negative.

    For (a-1)(k-1) even the reachable phases are the even multiples of pi/p
    and two translates tie at pi +- pi/p (each the reflection of the other);
    otherwise the phases are the odd multiples and t with phase exactly pi is
    unique.  Exact integer arithmetic throughout.  k = 1 mod p is rejected:
    translates are then equivalent and no direction is preferred.
    """
    ctx = prime_context(p)
    if not 1 <= a <= p - 1:
        raise ValueError(f"need 1 <= a <= p-1, got a={a}")
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    if k % p == 1:
        raise ValueError("k = 1 mod p leaves all translates equivalent")
    big_k = k - 1
    m0 = (-(a - 1) * big_k) % (2 * p)
    inv = ctx.inv[big_k % p]
    targets = (p,) if m0 % 2 == 1 else (p + 1, p - 1)
    out = set()
    for target in targets:
        diff = (m0 - target) % (2 * p)
        t = (diff // 2) * inv % p
        if diff % 2 or translate_phase_index(p, a, k, t) != target:
            raise InvariantError(f"translate {t} of [{a}] in Z_{p} misses phase {target} at k={k}")
        out.add(t)
    if len(targets) == 2 and {(-(a - 1) - t) % p for t in out} != out:
        raise InvariantError(f"optimal translates {sorted(out)} of [{a}] in Z_{p} are not reflections")
    return frozenset(out)


def _optimal_class(p: int, a: int, k: int) -> tuple[Subset, list[int]]:
    """The knot1 prediction at k != 1 mod p: the dilation class of the optimal
    interval translates and their phase indices."""
    ts = optimal_t(p, a, k)
    classes = {Subset.interval(p, a).translate(t).dilation_class_canonical() for t in ts}
    if len(classes) != 1:  # the two even-case translates are reflections
        raise InvariantError(
            f"optimal translates of [{a}] in Z_{p} at k={k} span {len(classes)} "
            "dilation classes"
        )
    return classes.pop(), sorted(translate_phase_index(p, a, k, t) for t in ts)


def verify_thm_knot1(p: int, a: int, k_range: Iterable[int]) -> TheoremVerdict:
    """For each k != 1 mod p, check the minimizers of s_k are exactly the
    dilations of the predicted optimal interval translate; points before the
    last failure are labelled below-threshold and the threshold is the least
    tested k from which the claim holds through the end of the range."""
    _check_claim_range(p, a)
    ks = sorted(set(k_range))
    if any(k % p == 1 or k < 2 for k in ks):
        raise ValueError("k values must be >= 2 and != 1 mod p")

    def judged() -> Iterator[tuple[bool, dict]]:
        for k, (_, min_value, attainers) in zip(ks, _class_minima(p, a, ks)):
            predicted, phases = _optimal_class(p, a, k)
            yield attainers == (predicted,), {
                "min_value": decimal_str(min_value),
                "extremal": [s.members() for s in attainers],
                "predicted": predicted.members(),
                "phase_indices": phases,
            }

    return _verdict(
        "thm3", {"p": p, "a": a, "k_range": [ks[0], ks[-1]] if ks else []},
        ks, judged(),
    )


def verify_thm_k1(p: int, a: int, s_range: Iterable[int]) -> TheoremVerdict:
    """Exponents k = s*p + 1: with a and k both even the interval orbit must
    be uniquely extremal; otherwise the minimum must undercut the interval,
    the interval must be the unique maximum, and each point is bucketed by
    whether the punctured-interval orbit is the unique minimizer ("2b"),
    some other orbit wins ("2c"), or the attainers mix."""
    _check_claim_range(p, a)
    ss = sorted(set(s_range))
    if any(s < 1 for s in ss):
        raise ValueError("s values must be >= 1")
    interval_orbit = Subset.interval(p, a).canonical()
    punctured_orbit = Subset.punctured_interval(p, a).canonical()

    def judged() -> Iterator[tuple[bool, dict]]:
        ks = [s * p + 1 for s in ss]
        reps = orbit_catalog(p, a).reps
        for k, (rows, min_value, attainers) in zip(ks, _class_minima(p, a, ks)):
            values = {rep: row[0] for rep, row in zip(reps, rows)}  # each row is constant
            interval_value = values[interval_orbit]
            details = {
                "k": k,
                "values": {str(rep.members()): decimal_str(v) for rep, v in values.items()},
                "min_value": decimal_str(min_value),
            }
            if a % 2 == 0 and k % 2 == 0:
                holds = attainers == (interval_orbit,)
                details["part"] = "1"
            else:
                below = min_value < interval_value
                interval_is_max = all(interval_value > v for rep, v in values.items()
                                      if rep != interval_orbit)
                if attainers == (punctured_orbit,):
                    bucket = "2b"
                elif interval_orbit not in attainers and punctured_orbit not in attainers:
                    bucket = "2c"
                else:
                    bucket = "mixed"
                holds = below and interval_is_max
                details["part"] = "2"
                details["bucket"] = bucket
                details["interval_is_max"] = interval_is_max
            yield holds, details

    return _verdict(
        "thm5", {"p": p, "a": a, "s_range": [ss[0], ss[-1]] if ss else []},
        ss, judged(),
    )


def scan_k0(
    p: int,
    a: int,
    mode: str,
    *,
    k_limit: int = 500,
    window: int | None = None,
) -> TheoremVerdict:
    """Locate the least k* whose claim holds for every eligible k in
    [k*, k* + window].

    mode "knot1" tests the optimal-translate claim over k != 1 mod p;
    "k1-even" tests unique interval extremality over even k = 1 mod p
    (a must be even); "k1-part2" tests min < interval count over the
    remaining k = 1 mod p.  Violations are listed exactly; no monotonicity
    is assumed.  Like the claims it scans, it needs p >= 7 and
    3 <= a <= p-3, and at least one eligible k <= k_limit.
    """
    _check_claim_range(p, a)
    if window is None:
        window = 4 * p
    if window < 0:
        raise ValueError(f"window must be >= 0, got {window}")
    if mode == "knot1":
        family = [k for k in range(2, k_limit + window + 1) if k % p != 1]
    elif mode == "k1-even":
        if a % 2 != 0:
            raise ValueError("mode k1-even needs even a")
        family = [
            k for k in range(p + 1, k_limit + window + 1, p) if k % 2 == 0
        ]
    elif mode == "k1-part2":
        family = [
            k for k in range(p + 1, k_limit + window + 1, p)
            if not (a % 2 == 0 and k % 2 == 0)
        ]
    else:
        raise ValueError(f"unknown mode {mode!r}")

    interval_orbit = Subset.interval(p, a).canonical()

    def judged() -> Iterator[tuple[bool, dict]]:
        interval_index = orbit_catalog(p, a).reps.index(interval_orbit)
        for k, (rows, min_value, attainers) in zip(family, _class_minima(p, a, family)):
            details = {}
            if mode == "knot1":
                predicted, _ = _optimal_class(p, a, k)
                holds = attainers == (predicted,)
                details["predicted"] = predicted.members()
            elif mode == "k1-even":
                holds = attainers == (interval_orbit,)
            else:
                interval_value = rows[interval_index][0]  # each k = 1 mod p row is constant
                details["interval_value"] = decimal_str(interval_value)
                holds = min_value < interval_value
            details["min_value"] = decimal_str(min_value)
            details["n_attainers"] = len(attainers)
            if not holds:
                details["extremal"] = [s.members() for s in attainers]
            yield holds, details

    return _verdict(
        f"scan-{mode}",
        {"p": p, "a": a, "mode": mode, "k_limit": k_limit, "window": window},
        family, judged(), k_limit=k_limit, window=window,
    )
