from collections import Counter

import pytest

from zpcount import (
    InvariantError, SizeGuardError, Subset, minimize_s_general, minimize_sk, optimal_t,
    orbit_catalog, s_count, s_k_count, scan_k0, sigma_vector, verify_thm_interval_extremal,
    verify_thm_k1, verify_thm_knot1,
)

from zpcount import extremal
from zpcount.counting import SWEEP_RESTART_GAP, _translate_rows
from zpcount.extremal import _argmin, _class_minima, _verdict

from conftest import brute_s_k, outcome


def test_argmin_keeps_ties_in_order_and_counts_past_the_cap():
    pairs = [("a", 3), ("b", 1), ("c", 2), ("d", 1), ("e", 1)]
    assert _argmin(pairs) == (1, ["b", "d", "e"], 3)
    # cap limits the keys kept, never the count of attainers
    assert _argmin(iter(pairs), cap=2) == (1, ["b", "d"], 3)
    # a later smaller value resets both the keys and the count
    assert _argmin(pairs + [("f", 0), ("g", 0)], cap=1) == (0, ["f"], 2)


def test_minimize_sk_tiny_vs_brute():
    from itertools import combinations

    for p, a, k in ((5, 2, 2), (5, 3, 3), (7, 3, 2), (7, 4, 4)):
        rep = minimize_sk(p, a, k)
        brute = min(
            brute_s_k(Subset.from_residues(p, xs), k)
            for xs in combinations(range(p), a)
        )
        assert rep.min_value == brute
        for cls in rep.extremal_orbits:
            assert s_k_count(cls, k) == rep.min_value


def test_minimize_sk_methods_agree():
    for p, a, k in ((7, 3, 2), (7, 3, 8), (11, 3, 12), (7, 4, 5)):
        r1 = minimize_sk(p, a, k)
        r2 = minimize_sk(p, a, k, method="raw")
        assert r1.min_value == r2.min_value
        assert r1.extremal_orbits == r2.extremal_orbits


# the raw search scores every a-subset at every k (about 39 s for all k <= 60
# at p <= 13), so above p = 7 it judges the sweep at a few k, and the
# per-point search (one power_sigma start per k) judges every other k
_RAW_KS = {7: range(2, 61), 11: (2, 3, 10, 35, 60), 13: (2, 12, 60)}


@pytest.mark.parametrize("p", sorted(_RAW_KS))
def test_sweep_matches_raw_and_per_point_search(p):
    for a in range(3, p - 2):
        ks = list(range(2, 61))
        for k, (_, best, attainers) in zip(ks, _class_minima(p, a, ks)):
            point = minimize_sk(p, a, k)
            assert (best, attainers) == (point.min_value, point.extremal_orbits), (a, k)
            if k in _RAW_KS[p]:
                raw = minimize_sk(p, a, k, method="raw")
                assert (best, attainers) == (raw.min_value, raw.extremal_orbits), (a, k)


# brute_s_k enumerates a^k tuples (3^15 is about 6 s per set), so k = 15 is
# reported at a = 2 only
@pytest.mark.parametrize("a, ks", [(3, [2, 3, 4, 6, 8, 9]), (4, [2, 3, 5, 8]), (2, [2, 8, 15])])
def test_sweep_rows_vs_brute(a, ks):
    # the gaps step the sweep through k values it does not report; at k = 8
    # and 15 = 1 mod 7 every translate reads entry 0, so each row is constant
    reps = orbit_catalog(7, a).reps
    for k, rows in zip(ks, _translate_rows(reps, ks)):
        for rep, row in zip(reps, rows):
            assert list(row) == [brute_s_k(rep.translate(t), k) for t in range(7)], (k, rep)
            if k % 7 == 1:
                assert len(set(row)) == 1, (k, rep)


def test_sweep_restarts_across_wide_gaps():
    # gaps of 37 and 159 exceed SWEEP_RESTART_GAP, the gap of 16 does not
    ks = [2, 3, 40, 44, 60, 219]
    assert [k1 - k0 > SWEEP_RESTART_GAP for k0, k1 in zip(ks, ks[1:])] == [
        False, True, False, False, True]
    for k, (_, best, attainers) in zip(ks, _class_minima(7, 3, ks)):
        raw = minimize_sk(7, 3, k, method="raw")
        assert (best, attainers) == (raw.min_value, raw.extremal_orbits), k


def _zeroing_sweep(monkeypatch, lie):
    """Patch extremal's sweep so that the row of rep at k reads 0 at every
    translate wherever lie(k, rep) holds."""
    real = extremal._translate_rows

    def lying(reps, ks):
        for k, rows in zip(ks, real(reps, ks)):
            yield [(0,) * len(row) if lie(k, rep) else row for rep, row in zip(reps, rows)]

    monkeypatch.setattr(extremal, "_translate_rows", lying)


@pytest.mark.parametrize("call, a, k", [
    (lambda: minimize_sk(13, 5, 4), 5, 4),
    (lambda: verify_thm_knot1(13, 5, [4, 5]), 5, 5),
    (lambda: scan_k0(13, 5, "knot1", k_limit=4, window=0), 5, 3),
    # k = 14 = 1 mod 13: the same sweep serves the orbit-level lane
    (lambda: minimize_sk(13, 5, 14), 5, 14),
    (lambda: verify_thm_k1(13, 5, [1]), 5, 14),
    (lambda: scan_k0(13, 5, "k1-part2", k_limit=14, window=0), 5, 14),
    (lambda: scan_k0(13, 4, "k1-even", k_limit=14, window=0), 4, 14),
], ids=["minimize-start", "thm3-step", "scan-knot1-step", "minimize-k1-start", "thm5-start",
        "scan-k1-part2-start", "scan-k1-even-start"])
def test_sweep_attainers_are_recounted_by_the_half_power(monkeypatch, call, a, k):
    # a sweep that zeroes the interval's row at k, its first k (the start) or
    # a later one (a step), makes the interval the minimizer with count 0;
    # only the s_k_count recount of the attainers sees it
    interval = Subset.interval(13, a).canonical()
    _zeroing_sweep(monkeypatch, lambda k_, rep: k_ == k and rep == interval)
    with pytest.raises(InvariantError, match=rf"s_{k} recount of attainer .* search found 0"):
        call()


def test_minimize_sk_flagship_value():
    rep = minimize_sk(17, 14, 3)
    assert rep.min_value == 2255
    named1 = Subset.from_residues(17, range(-1, 13)).dilation_class_canonical()
    named2 = Subset.from_residues(17, list(range(6, 19)) + [3]).dilation_class_canonical()
    assert named1 in rep.extremal_orbits
    assert named2 in rep.extremal_orbits


def test_minimize_sk_orbit_vs_dilation_kind():
    # k = 1 mod p: whole affine orbits share the count
    assert minimize_sk(7, 3, 8).extremal_kind == "orbit"
    # otherwise only dilation classes do
    assert minimize_sk(7, 3, 3).extremal_kind == "dilation-class"


def test_minimize_s_general_modes_agree():
    for sizes in ((2, 2, 2), (3, 3, 3), (1, 4, 2), (4, 2, 3), (5, 3, 2)):
        f = minimize_s_general(5, sizes, mode="full")
        i = minimize_s_general(5, sizes, mode="interval")
        assert f.min_value == i.min_value
        for cfg in f.extremal_configs:
            assert s_count(cfg[0], list(cfg[1:])) == f.min_value


def test_interval_mode_recounts_its_witnesses(monkeypatch):
    # the interval scan reads counts off one sigma vector and re-counts each
    # witness by s_count, so a wrong s_count is caught, not reported
    real = extremal.s_count
    monkeypatch.setattr(extremal, "s_count", lambda a0, sets: real(a0, sets) + 1)
    with pytest.raises(InvariantError, match="s recount of witness"):
        minimize_s_general(7, (3, 3, 3), mode="interval")


def test_minimize_s_general_edges():
    assert minimize_s_general(5, (5, 3, 2), mode="full").min_value == 6
    assert minimize_s_general(7, (2, 2, 2), mode="full").min_value == 0
    with pytest.raises(ValueError):
        minimize_s_general(7, (0, 2, 2))
    with pytest.raises(SizeGuardError):
        minimize_s_general(31, (15, 15, 15, 15), mode="full")


def test_search_report_json():
    j = minimize_sk(7, 3, 2).to_json()
    assert j["p"] == 7 and j["k"] == 2
    assert isinstance(j["min_value"], str)
    assert j["method"] in ("EXHAUSTIVE_ORBITS", "EXHAUSTIVE_RAW")


def test_verify_thm1_verdicts():
    v = verify_thm_interval_extremal(7, (3, 3, 3))
    assert v.passed
    det = v.points[0].details
    assert det["brute_min"] == det["interval_min"]
    # uniform sizes, k != 1 mod p: a single common set attains the minimum
    common = Subset.from_residues(7, det["common_set"])
    assert s_k_count(common, 2) == int(det["common_value"])
    assert verify_thm_interval_extremal(5, (2, 3, 4)).passed


def test_verify_thm1_reads_the_head_translate_off_the_interval_search(monkeypatch):
    # the common set comes from the first attaining interval translate, which
    # the interval search already found: no s_count re-scan of the translates
    for p, a, k in ((7, 3, 2), (7, 2, 3), (7, 4, 3), (13, 3, 2), (5, 2, 4)):
        sizes = (a,) * (k + 1)
        tail = [Subset.interval(p, a)] * k
        best = min(s_count(Subset.interval(p, a, start=t), tail) for t in range(p))
        t = next(t for t in range(p) if s_count(Subset.interval(p, a, start=t), tail) == best)
        eta = -t * pow(k - 1, -1, p) % p
        det = verify_thm_interval_extremal(p, sizes).points[0].details
        assert det["common_set"] == Subset.interval(p, a).translate(eta).members()
    # the reports of the two searches the verdict runs are captured, not rerun
    real_search, reports = extremal.minimize_s_general, {}

    def search(p, sizes, *, mode):
        reports[mode] = real_search(p, sizes, mode=mode)
        return reports[mode]

    real = extremal.s_count
    calls = []
    monkeypatch.setattr(extremal, "minimize_s_general", search)
    monkeypatch.setattr(extremal, "s_count", lambda *args: calls.append(1) or real(*args))
    verify_thm_interval_extremal(11, (4, 4, 4))
    full, ivl = reports["full"], reports["interval"]
    # one recount per stored witness of each search, plus the common set
    assert len(calls) == len(full.extremal_configs) + len(ivl.extremal_configs) + 1 == 26


def test_verify_thm_knot1_small():
    ks = [k for k in range(2, 30) if k % 7 != 1]
    v = verify_thm_knot1(7, 3, ks)
    assert v.passed
    assert v.threshold == 2
    assert all(pt.status == "holds" for pt in v.points)
    for pt in v.points:
        assert set(pt.details["phase_indices"]) <= {6, 7, 8}
    with pytest.raises(ValueError):
        verify_thm_knot1(7, 3, [8])  # 8 = 1 mod 7


def test_verify_thm_k1_part1_even():
    v = verify_thm_k1(7, 4, range(1, 13))
    assert v.passed
    for pt in v.points:
        if pt.details["part"] == "1":
            assert pt.details["k"] % 2 == 0
            assert pt.status in ("holds", "below-threshold")


def test_verify_thm_k1_part2_buckets():
    v = verify_thm_k1(13, 3, range(1, 16))
    buckets = {pt.details.get("bucket") for pt in v.points if pt.details["part"] == "2"}
    assert "2b" in buckets and "2c" in buckets
    for pt in v.points:
        if pt.details["part"] == "2" and pt.status == "holds":
            interval_value = int(pt.details["values"]["(0, 1, 2)"])
            assert int(pt.details["min_value"]) < interval_value


def test_verify_thm_k1_counts_each_orbit_once(monkeypatch):
    # k = s*p + 1 makes s_k constant on affine orbits: each command makes one
    # sweep, over the catalog representatives and exactly its family's ks,
    # and counts by s_k_count only to recount the attainers; k1-part2 reads
    # the interval's count off the sweep instead of counting it again
    reps = orbit_catalog(11, 4).reps
    commands = [(lambda: verify_thm_k1(11, 4, range(1, 4)), (12, 23, 34)),
                (lambda: scan_k0(11, 4, "k1-even", k_limit=40, window=0), (12, 34)),
                (lambda: scan_k0(11, 4, "k1-part2", k_limit=40, window=0), (23,))]
    attainers = {k: minimize_sk(11, 4, k, method="raw").extremal_orbits for k in (12, 23, 34)}
    real_rows, real_count = extremal._translate_rows, extremal.s_k_count
    sweeps, counts = [], Counter()

    def rows(reps, ks):
        sweeps.append((tuple(reps), tuple(ks)))
        return real_rows(reps, ks)

    def counted(a, k):
        counts[a.mask, k] += 1
        return real_count(a, k)

    monkeypatch.setattr(extremal, "_translate_rows", rows)
    monkeypatch.setattr(extremal, "s_k_count", counted)
    for call, ks in commands:
        sweeps.clear()
        counts.clear()
        call()
        assert sweeps == [(reps, ks)], ks
        assert counts == Counter({(s.mask, k): 1 for k in ks for s in attainers[k]}), ks


@pytest.mark.parametrize("k", [3, 8], ids=["k-not-1", "k-1"])
def test_raw_attainers_are_recounted_by_the_sweep(monkeypatch, k):
    # the raw search scores every subset with s_k_count; a count that lies
    # about {0, 1, 2} makes it the unique minimizer, and only the recount by
    # the sweep's row catches it
    real = extremal.s_k_count
    lie = Subset.from_residues(7, [0, 1, 2])
    monkeypatch.setattr(extremal, "s_k_count", lambda s, k: 0 if s == lie else real(s, k))
    with pytest.raises(InvariantError, match=rf"s_{k} recount of attainer .* search found 0"):
        minimize_sk(7, 3, k, method="raw")


@pytest.mark.parametrize("k", [3, 8], ids=["k-not-1", "k-1"])
def test_a_lying_sweep_fails_the_raw_recount(monkeypatch, k):
    # the raw search reads the sweep only to recount its attainers, so rows
    # that read 0 disagree with the true minimum it found by s_k_count
    _zeroing_sweep(monkeypatch, lambda k_, rep: True)
    with pytest.raises(InvariantError,
                       match=rf"s_{k} recount of attainer .* is 0, search found [1-9]"):
        minimize_sk(7, 3, k, method="raw")


def test_scan_k0_modes():
    sc = scan_k0(7, 3, "knot1", k_limit=60)
    assert sc.passed and sc.threshold == 2
    sc2 = scan_k0(7, 4, "k1-even", k_limit=200)
    assert sc2.passed and sc2.threshold is not None
    sc3 = scan_k0(7, 3, "k1-part2", k_limit=200)
    assert sc3.passed and sc3.threshold is not None
    with pytest.raises(ValueError):
        scan_k0(7, 3, "k1-even")  # odd a has no even-k family
    with pytest.raises(ValueError):
        scan_k0(7, 3, "bogus")
    # a negative window would certify k = 2, a point labelled "fails"
    with pytest.raises(ValueError, match="window must be >= 0"):
        scan_k0(11, 3, "knot1", k_limit=40, window=-1)


@pytest.mark.parametrize("search", [
    lambda: minimize_sk(7, 3, 2),
    lambda: minimize_sk(7, 3, 8, method="raw"),
    lambda: minimize_s_general(5, (2, 2, 2)),
    lambda: minimize_s_general(5, (2, 3), mode="interval"),
    lambda: verify_thm_interval_extremal(5, (2, 2, 3)),
    lambda: verify_thm_knot1(7, 3, range(2, 6)),
    lambda: verify_thm_k1(7, 3, range(1, 3)),
    lambda: scan_k0(7, 3, "knot1", k_limit=10),
], ids=["minimize-sk", "minimize-sk-raw", "minimize-general", "minimize-general-interval",
        "thm1", "thm3", "thm5", "scan-k0"])
def test_recomputed_reports_compare_equal(search):
    # a report is a value: no field records when or for how long it ran, so
    # the same search run twice gives equal records and equal JSON
    first, second = search(), search()
    assert first is not second and first == second
    assert first.to_json() == second.to_json()
    assert "elapsed" not in type(first)._fields and "elapsed" not in first.to_json()


@pytest.mark.parametrize("call", [
    lambda: verify_thm_knot1(7, 3, []),
    lambda: verify_thm_knot1(7, 3, range(10, 5)),
    lambda: verify_thm_k1(7, 3, []),
    lambda: scan_k0(7, 3, "knot1", k_limit=1, window=0),
    lambda: _verdict("t", {}, [], []),
], ids=["thm3-empty", "thm3-descending", "thm5-empty", "scan-k0-empty", "verdict"])
def test_empty_range_is_a_usage_error(call):
    # no point was tested, so there is no verdict to report, passing or failing
    with pytest.raises(ValueError, match="the range holds no point to test"):
        call()


@pytest.mark.parametrize("call", [
    lambda: scan_k0(7, 3, "knot1", k_limit=0),
    lambda: scan_k0(7, 4, "k1-even", k_limit=3),
    lambda: scan_k0(7, 3, "k1-part2", k_limit=7),
    lambda: _verdict("t", {}, [2], (extremal.minimize_sk(7, 3, k) for k in [2]), k_limit=1),
], ids=["scan-knot1", "scan-k1-even", "scan-k1-part2", "verdict"])
def test_k_limit_below_every_point_is_a_usage_error(monkeypatch, call):
    # every point may hold, but no threshold candidate was tested; the limit
    # is checked before any point is evaluated
    calls = []
    for name in ("minimize_sk", "_class_minima", "_translate_rows"):
        monkeypatch.setattr(extremal, name, lambda *args, name=name: calls.append(name))
    with pytest.raises(ValueError, match="no point of the range lies at or below k_limit"):
        call()
    assert calls == []


@pytest.mark.parametrize("p, a", [(5, 2), (7, 2), (7, 5), (11, 9)])
def test_claim_range_guard_is_shared(p, a):
    from zpcount.fourier import angle_check_punctured

    for call in (lambda: verify_thm_knot1(p, a, [2]), lambda: verify_thm_k1(p, a, [1]),
                 lambda: scan_k0(p, a, "knot1"), lambda: scan_k0(p, a, "k1-even"),
                 lambda: angle_check_punctured(p, a)):
        with pytest.raises(ValueError, match=r"need p >= 7 and 3 <= a <= p-3"):
            call()


def test_minimize_input_guards():
    with pytest.raises(ValueError):
        minimize_sk(7, 0, 2)
    with pytest.raises(ValueError):
        minimize_sk(7, 3, 1)
    with pytest.raises(ValueError):
        minimize_sk(8, 3, 2)


def test_translate_row_consistency():
    # k != 1 mod p search path: every claimed attainer really attains
    rep = minimize_sk(11, 4, 3)
    sig_checked = 0
    for cls in rep.extremal_orbits:
        assert s_k_count(cls, 3) == rep.min_value
        sig_checked += 1
    assert sig_checked == len(rep.extremal_orbits) > 0
    # and no interval translate beats it
    best_interval = min(
        s_k_count(Subset.interval(11, 4, start=t), 3) for t in range(11)
    )
    assert rep.min_value <= best_interval


def test_sigma_based_attainment_cross_check():
    rep = minimize_sk(13, 5, 4)
    iv = Subset.interval(13, 5)
    sig = sigma_vector([iv] * 4)
    interval_value = sum(sig[x] for x in iv.members())
    assert s_k_count(iv, 4) == interval_value
    assert rep.min_value <= interval_value
    assert rep.checked > 0


H, F = True, False


@pytest.mark.parametrize("holds, limits, threshold, statuses", [
    # a failure before the final run of holds is below threshold
    ([H, F, H, H], {}, 3, ["holds", "below-threshold", "holds", "holds"]),
    # the last point fails: no threshold, so every failure is a plain fail
    ([H, H, F], {}, None, ["holds", "holds", "fails"]),
    # the only failure lies beyond k + window, so k = 1 is the threshold
    ([H, H, H, F], {"k_limit": 2, "window": 2}, 1, ["holds", "holds", "holds", "fails"]),
    # no k <= k_limit qualifies, though k = 2 would with a larger limit
    ([F, H, H, H], {"k_limit": 1}, None, ["fails", "holds", "holds", "holds"]),
], ids=["below-threshold", "last-fails", "window", "k-limit"])
def test_verdict_labels(holds, limits, threshold, statuses):
    xs = list(range(1, len(holds) + 1))
    v = _verdict("t", {"q": 1}, xs, [(h, {"x": x}) for x, h in zip(xs, holds)], **limits)
    assert (v.theorem_id, v.params) == ("t", {"q": 1})
    assert v.threshold == threshold and v.passed == (threshold is not None)
    assert [pt.status for pt in v.points] == statuses
    assert [pt.details for pt in v.points] == [{"x": x} for x in xs]


@pytest.mark.parametrize("call, expected", [
    (lambda: minimize_sk(7, 3, 2, method="fast"), "ValueError: unknown method 'fast'"),
    (lambda: minimize_s_general(7, (3,)),
     "ValueError: need a head size and at least one summand size"),
    (lambda: minimize_s_general(7, (3, 2), mode="fast"), "ValueError: unknown mode 'fast'"),
    (lambda: optimal_t(7, 0, 3), "ValueError: need 1 <= a <= p-1, got a=0"),
    (lambda: optimal_t(7, 3, 1), "ValueError: need k >= 2, got 1"),
    (lambda: verify_thm_k1(7, 3, [0, 1]), "ValueError: s values must be >= 1"),
    # sizes used to pass through int(), so 2.5 ran as 2; k = 2.5 failed deep
    # in the counting layer
    (lambda: minimize_sk(7, 3, 2.5), "TypeError: k must be an integer, got 2.5"),
    (lambda: minimize_sk(7, 3.0, 2), "TypeError: a must be an integer, got 3.0"),
    (lambda: minimize_s_general(5, (2, 2.5, 2)), "TypeError: size must be an integer, got 2.5"),
    (lambda: verify_thm_interval_extremal(5, (2, 2.5, 2)),
     "TypeError: size must be an integer, got 2.5"),
    # uniform sizes at k = 4 = 1 mod 3: no common-set reduction
    (lambda: verify_thm_interval_extremal(3, (1,) * 5).points[0].details,
     {"brute_min": "0", "interval_min": "0", "interval_head": [1], "common_set": None,
      "common_set_note": "common-set reduction needs k != 1 mod p"}),
], ids=["minimize-method", "general-one-size", "general-mode", "optimal-t-a", "optimal-t-k",
        "thm5-s", "minimize-float-k", "minimize-float-a", "general-float-size",
        "thm1-float-size", "thm1-uniform-k-1-mod-p"])
def test_guards_and_rare_branches(call, expected):
    assert outcome(call) == expected
