import pytest

from zpcount import (
    Subset, check_extremality_conditions, classify_equality_k2, critical_r0,
    interval_profile, minimize_s_general, optimal_interval_translate,
    pollard_lhs_rhs, sigma_vector, threshold_profile, threshold_set,
)
from zpcount import pollard
from zpcount.pollard import EqualityCase, EqualityTag, profile_from_sigma

from conftest import brute_sigma, outcome


def random_subset(rng, p, lo=1, hi=None):
    a = rng.randint(lo, hi if hi is not None else p - 1)
    return Subset.from_residues(p, rng.sample(range(p), a))


def test_threshold_profile_by_hand():
    # p=11, A1=A2={0..5,7}: the worked 7x7 case
    a = Subset.from_residues(11, [0, 1, 2, 3, 4, 5, 7])
    prof = threshold_profile([a, a])
    assert prof.n_r(0) == 11
    assert [prof.n_r(r) for r in range(1, 8)] == [11, 11, 11, 8, 6, 2, 0]
    assert prof.n_r(8) == 0
    # N_4 is the 8-element set (x=2 drops out: sigma(2) = 3)
    assert threshold_set([a, a], 4).members() == (1, 3, 4, 5, 6, 7, 8, 9)
    assert sigma_vector([a, a])[2] == 3


def test_partial_sum_rejects_a_negative_index():
    # a negative r once indexed the partial sums from the end: r = -1 read
    # the full sum, 12 for intervals of sizes 3 and 4 at p = 7
    prof = threshold_profile([Subset.interval(7, 3), Subset.interval(7, 4)])
    assert prof.partial_sum(0) == 0 and prof.partial_sum(prof.r_max + 5) == 12
    for r in (-1, -prof.r_max - 1):
        with pytest.raises(ValueError, match=r"^r must be nonnegative$"):
            prof.partial_sum(r)


def test_profile_sorted_and_consistent(rng):
    for _ in range(30):
        p = rng.choice((5, 7, 11, 13))
        sets = [random_subset(rng, p) for _ in range(rng.randint(1, 3))]
        prof = threshold_profile(sets)
        sig = brute_sigma(sets)
        r_max = max(sig)
        assert prof.n_r(0) == p
        for r in range(1, r_max + 2):
            assert prof.n_r(r) == sum(1 for v in sig if v >= r)
        assert prof.partial_sum(r_max + 1) == sum(sig)
        # nested: N_{r+1} inside N_r
        for r in range(1, r_max + 1):
            inner = threshold_set(sets, r + 1)
            assert inner.mask & ~threshold_set(sets, r).mask == 0


def test_interval_profile_matches_direct(rng):
    for _ in range(20):
        p = rng.choice((7, 11, 13))
        sizes = tuple(rng.randint(1, p) for _ in range(rng.randint(1, 3)))
        prof = interval_profile(p, sizes)
        direct = threshold_profile([Subset.interval(p, a) for a in sizes])
        assert [prof.n_r(r) for r in range(0, p + 2)] == \
            [direct.n_r(r) for r in range(0, p + 2)]


def test_empty_profile_inputs_name_what_is_missing():
    # interval_profile takes sizes and threshold_profile takes sets
    with pytest.raises(ValueError, match=r"^need at least one factor size$"):
        interval_profile(7, ())
    with pytest.raises(ValueError, match=r"^need at least one factor set, all with the same"):
        threshold_profile([])


def test_critical_r0_definition(rng):
    for _ in range(40):
        p = rng.choice((5, 7, 11, 13, 17))
        k = rng.randint(1, 3)
        sizes = (rng.randint(1, p - 1),) + tuple(rng.randint(1, p) for _ in range(k))
        r0 = critical_r0(sizes, p)
        prof = interval_profile(p, sizes[1:])
        bound = p - sizes[0]
        assert all(prof.n_r(r) > bound for r in range(1, r0 + 1))
        assert prof.n_r(r0 + 1) <= bound
    # the worked case: sizes (3,7,7) at p=11 has r0 = 3
    assert critical_r0((3, 7, 7), 11) == 3


def test_critical_r0_guards():
    with pytest.raises(ValueError):
        critical_r0((7,), 7)
    with pytest.raises(ValueError):
        critical_r0((0, 3), 7)
    with pytest.raises(ValueError):
        critical_r0((7, 3), 7)


@pytest.mark.parametrize("fn", [critical_r0, optimal_interval_translate])
@pytest.mark.parametrize("sizes, message", [
    ((), "need a_0 plus at least one factor size"),
    ((3,), "need a_0 plus at least one factor size"),
    ((0, 3), "needs 0 < a_0 < p, got a_0=0"),
    ((7, 3), "needs 0 < a_0 < p, got a_0=7"),
    ((3, 8), "factor sizes must lie in"),
], ids=["empty", "head-only", "head-0", "head-p", "factor-past-p"])
def test_size_vector_checks_are_shared(fn, sizes, message):
    # both readers of (a_0; a_1..a_k) refuse the same vectors with the same
    # one-line reason, an empty vector included
    with pytest.raises(ValueError, match=message):
        fn(sizes, 7)


def test_pollard_inequality_random(rng):
    for _ in range(300):
        p = rng.choice((5, 7, 11, 13))
        k = rng.randint(2, 4)
        sets = [random_subset(rng, p) for _ in range(k)]
        r = rng.randint(1, min(s.size for s in sets))
        lhs, rhs = pollard_lhs_rhs(sets, r)
        assert lhs >= rhs


def test_pollard_equality_for_intervals(rng):
    for _ in range(20):
        p = rng.choice((7, 11))
        sizes = [rng.randint(1, p - 1) for _ in range(rng.randint(2, 3))]
        sets = [Subset.interval(p, a, start=rng.randint(0, p - 1)) for a in sizes]
        lhs, rhs = pollard_lhs_rhs(sets, min(sizes))
        assert lhs == rhs


def test_classifier_interval_pair():
    a1 = Subset.interval(11, 3)
    a2 = Subset.interval(11, 5, start=4)
    case = classify_equality_k2(a1, a2, 2)
    assert case.tag is EqualityTag.COMMON_DIFFERENCE_APS
    assert case.common_difference == 1


def test_classifier_common_difference_is_the_least_shared_step():
    # every pair in the classifier's domain at p = 7 (the difference does not
    # depend on r0): the least d making both sets progressions, if any
    sets = [Subset(7, m) for m in range(1, (1 << 7) - 1)]
    steps = {s: set(s.arith_prog_differences()) for s in sets}
    for a1 in sets:
        for a2 in sets:
            if a1.size <= a2.size:
                expect = min(steps[a1] & steps[a2], default=None)
                assert classify_equality_k2(a1, a2, 1).common_difference == expect, (a1, a2)


def test_classifier_r0_equals_a1():
    a1 = Subset.from_residues(11, [0, 2, 7])
    a2 = Subset.from_residues(11, [1, 3, 4, 8, 9])
    case = classify_equality_k2(a1, a2, 3)
    assert EqualityTag.R0_EQUALS_A1 in case.matches
    lhs, rhs = pollard_lhs_rhs([a1, a2], 3)
    assert lhs == rhs


def test_classifier_large_sum():
    a = Subset.from_residues(11, [0, 1, 2, 3, 4, 5, 7])
    case = classify_equality_k2(a, a, 3)
    assert case.tag is EqualityTag.LARGE_SUM  # 7 + 7 = 14 >= 11 + 3


def test_classifier_reflection_pair():
    a1 = Subset.from_residues(13, [0, 2, 7])
    a2 = Subset.from_residues(13, [(5 - x) % 13 for x in (0, 2, 7)])
    case = classify_equality_k2(a1, a2, 2)
    assert EqualityTag.REFLECTION_PAIR in case.matches
    assert case.reflection_point == 5
    lhs, rhs = pollard_lhs_rhs([a1, a2], 2)
    assert lhs == rhs


def test_classifier_complement_reflection():
    # A2 = g - (Z_p \ A1) always ties the first threshold at p-1
    a1 = Subset.from_residues(7, [0, 1, 3])
    a2 = Subset.from_residues(7, [0, 1, 2, 4])
    case = classify_equality_k2(a1, a2, 1)
    assert case.tag is EqualityTag.COMPLEMENT_REFLECTION_PAIR
    assert a1.complement().reflect().translate(case.complement_point).mask == a2.mask
    lhs, rhs = pollard_lhs_rhs([a1, a2], 1)
    assert lhs == rhs == 6


def test_classifier_none_is_strict(rng):
    seen_none = 0
    for _ in range(400):
        p = rng.choice((7, 11, 13))
        a1 = random_subset(rng, p)
        a2 = random_subset(rng, p)
        if a1.size > a2.size:
            a1, a2 = a2, a1
        r0 = rng.randint(1, a1.size)
        case = classify_equality_k2(a1, a2, r0)
        lhs, rhs = pollard_lhs_rhs([a1, a2], r0)
        assert (case.tag is EqualityTag.NONE) == (lhs > rhs)
        seen_none += case.tag is EqualityTag.NONE
    assert seen_none > 50  # the regime is not degenerate


def test_classifier_guards():
    a1 = Subset.interval(7, 3)
    a2 = Subset.interval(7, 2)
    with pytest.raises(ValueError):
        classify_equality_k2(a1, a2, 1)  # |A1| > |A2|
    with pytest.raises(ValueError):
        classify_equality_k2(a2, a1, 3)  # r0 > |A1|
    with pytest.raises(ValueError):
        classify_equality_k2(a1, Subset.interval(11, 3), 1)


def test_extremality_conditions_on_worked_case():
    # p=13: A0 = complement of N_3(A1,A2) = {3,6,10}
    a1 = Subset.from_residues(13, [0, 1, 3])
    a2 = Subset.from_residues(13, [0, 2, 3, 5, 6, 7, 9, 10])
    n3 = threshold_set([a1, a2], 3)
    assert n3.members() == (3, 6, 10)
    a0 = n3.complement()
    assert check_extremality_conditions(a0, [a1, a2]) == (True, True, True)


def test_extremality_conditions_track_the_global_minimum(rng):
    for _ in range(60):
        p = rng.choice((5, 7))
        a1 = random_subset(rng, p, hi=p - 1)
        a2 = random_subset(rng, p, hi=p - 1)
        a0 = random_subset(rng, p, hi=p - 1)
        target = minimize_s_general(p, (a0.size, a1.size, a2.size),
                                    mode="interval").min_value
        sig = sigma_vector([a1, a2])
        attains = sum(sig[x] for x in a0.members()) == target
        assert all(check_extremality_conditions(a0, [a1, a2])) == attains


def test_extremality_guards():
    with pytest.raises(ValueError):
        check_extremality_conditions(Subset(7, (1 << 7) - 1), [Subset.interval(7, 3)] * 2)


def _pollard_caches() -> list:
    """Every memo of the pollard layer, found by attribute scan."""
    return [f for f in vars(pollard).values()
            if callable(getattr(f, "cache_clear", None)) and f.__module__ == pollard.__name__]


def test_pollard_caches_are_bounded():
    caches = _pollard_caches()
    assert {c.__name__ for c in caches} >= {"_extremality_record", "_tail_profile",
                                             "interval_profile", "_pair_facts"}
    assert all(c.cache_info().maxsize is not None for c in caches)


def test_extremality_rejects_mixed_moduli():
    a7, b7 = Subset(7, 0b111), Subset(7, 0b11111)
    a11, b11 = Subset(11, 0b1111), Subset(11, 0b11111)
    same = r"^need at least one factor set, all with the same modulus$"
    calls = [
        (lambda: check_extremality_conditions(a7, [a11, b11]), r"^mismatched moduli$"),
        (lambda: check_extremality_conditions(Subset(11, 0b111), [a11, b7]),
         r"^mismatched moduli$"),
        (lambda: classify_equality_k2(a7, b11, 1), r"^mismatched moduli$"),
        (lambda: classify_equality_k2(Subset(11, 0b111), b7, 1), r"^mismatched moduli$"),
    ]
    for tail in ([a11, b7], [a7, b11], [a7, a7, a11]):
        calls += [(lambda tail=tail: threshold_profile(tail), same),
                  (lambda tail=tail: threshold_set(tail, 1), same),
                  (lambda tail=tail: pollard_lhs_rhs(tail, 1), same)]
    caches = _pollard_caches()
    before = [c.cache_info() for c in caches]
    for call, message in calls:
        with pytest.raises(ValueError, match=message):
            call()
    assert [c.cache_info() for c in caches] == before  # raised before any lookup


def _extremality_from_scratch(a0, sets):
    """The three conditions from brute-force sigmas: r0 by a linear scan over
    the interval profile, the tie read off both partial sums at r0."""
    p = a0.p
    prof = profile_from_sigma(p, brute_sigma(sets))
    iprof = profile_from_sigma(p, brute_sigma([Subset.interval(p, s.size) for s in sets]))
    r0 = 0
    while iprof.n_r(r0 + 1) > p - a0.size:
        r0 += 1
    return (a0.mask & prof.mask(r0 + 1) == 0,
            a0.mask | prof.mask(r0) == (1 << p) - 1,
            prof.partial_sum(r0) == iprof.partial_sum(r0))


@pytest.mark.parametrize("p,k", [(11, 2), (11, 3), (13, 2), (13, 3)])
def test_extremality_record_is_keyed_on_head_size_and_tail(rng, p, k):
    # heads of several sizes interleaved against one tail: a record keyed
    # without |A_0| hands one size's r0 to the next
    for _ in range(4):
        for cache in (pollard._extremality_record, pollard._tail_profile,
                      pollard.interval_profile):
            cache.cache_clear()
        tail = [random_subset(rng, p) for _ in range(k)]
        sizes = rng.sample(range(1, p), 5)
        heads = [random_subset(rng, p, lo=a, hi=a) for _ in range(3) for a in sizes]
        for head in heads:
            assert check_extremality_conditions(head, tail) == \
                _extremality_from_scratch(head, tail), (head, tail)
        assert pollard._extremality_record.cache_info().misses == len(sizes)


def _levels_from_scratch(p, sig):
    """N_0, ..., N_{max sigma + 1} as masks, one residue at a time."""
    return tuple(sum(1 << x for x in range(p) if sig[x] >= r) for r in range(max(sig) + 2))


def _partial(sig, r):
    """sum_{i=1}^{r} #{x : sigma(x) >= i}."""
    return sum(sum(v >= i for v in sig) for i in range(1, r + 1))


def _classification_from_scratch(a1, a2, r0):
    """The classifier's cases by their definitions, on member sets."""
    p, s1, s2 = a1.p, a1.size, a2.size
    m1, m2 = set(a1.members()), set(a2.members())

    def point(src):  # g with A_2 = g - src
        return next((g for g in range(p) if {(g - x) % p for x in src} == m2), None)

    def progression(members, d):
        return any({(x + i * d) % p for i in range(len(members))} == members for x in members)

    g = point(m1) if s1 == s2 == r0 + 1 else None
    gc = point(set(range(p)) - m1) if r0 == 1 and s1 + s2 == p else None
    d = next((d for d in range(1, p) if progression(m1, d) and progression(m2, d)), None)
    hits = ((r0 == s1, EqualityTag.R0_EQUALS_A1), (s1 + s2 >= p + r0, EqualityTag.LARGE_SUM),
            (g is not None, EqualityTag.REFLECTION_PAIR),
            (gc is not None, EqualityTag.COMPLEMENT_REFLECTION_PAIR),
            (d is not None, EqualityTag.COMMON_DIFFERENCE_APS))
    matches = tuple(tag for hit, tag in hits if hit)
    return EqualityCase(matches[0] if matches else EqualityTag.NONE, matches, g, gc, d)


def _property_tails(rng):
    """Tails of 1-3 sets at p = 5, 7, 11: random ones, the same low masks at
    every p, and pairs built to be reflections and complement-reflections;
    every pair also reversed, so equal-size pairs reach the classifier in
    both orders."""
    tails = []
    for _ in range(40):
        p = rng.choice((5, 7, 11))
        tails.append([random_subset(rng, p) for _ in range(rng.randint(1, 3))])
    for _ in range(8):
        masks = [rng.randrange(1, 31) for _ in range(rng.randint(1, 3))]
        tails += [[Subset(p, m) for m in masks] for p in (5, 7, 11)]
    for p in (5, 7, 11):
        for _ in range(3):
            a = random_subset(rng, p, hi=p - 2)
            g = rng.randrange(p)
            tails.append([a, a.reflect().translate(g)])
            tails.append([a, a.complement().reflect().translate(g)])
    tails += [tail[::-1] for tail in tails if len(tail) == 2]
    return tails


def test_entry_points_match_brute_force_through_the_caches(rng):
    # every cache starts empty, then fills and is read again: each answer,
    # the first and the cached one, is the from-scratch one
    for cache in _pollard_caches():
        cache.cache_clear()
    tails = _property_tails(rng)
    seen = set()
    for tail in tails + rng.sample(tails, len(tails)):
        p = tail[0].p
        sig = brute_sigma(tail)
        ivl = brute_sigma([Subset.interval(p, s.size) for s in tail])
        levels = _levels_from_scratch(p, sig)
        prof = threshold_profile(tail)
        assert prof.masks == levels, tail
        assert prof.n == tuple(m.bit_count() for m in levels)
        for r in range(len(levels) + 1):
            assert threshold_set(tail, r).mask == (levels[r] if r < len(levels) else 0)
        for r in range(1, p + 2):
            assert pollard_lhs_rhs(tail, r) == (_partial(sig, r), _partial(ivl, r)), (tail, r)
        for size in rng.sample(range(1, p), min(3, p - 1)):
            head = random_subset(rng, p, lo=size, hi=size)
            assert check_extremality_conditions(head, tail) == \
                _extremality_from_scratch(head, tail), (head, tail)
        if len(tail) == 2 and tail[0].size <= tail[1].size:
            a1, a2 = tail
            for r0 in range(1, a1.size + 1):
                case = classify_equality_k2(a1, a2, r0)
                assert case == _classification_from_scratch(a1, a2, r0), (a1, a2, r0)
                assert (case.tag is EqualityTag.NONE) == (_partial(sig, r0) > _partial(ivl, r0))
                seen.update(case.matches)
    assert seen == set(EqualityTag) - {EqualityTag.NONE}  # every case was reached


def test_optimal_interval_translate_identity(rng):
    for _ in range(50):
        p = rng.choice((5, 7, 11, 13, 17))
        k = rng.randint(1, 3)
        sizes = (rng.randint(1, p - 1),) + tuple(rng.randint(1, p) for _ in range(k))
        t = optimal_interval_translate(sizes, p)
        head = Subset.interval(p, sizes[0], start=t)
        prof = interval_profile(p, sizes[1:])
        sets = [Subset.interval(p, a) for a in sizes[1:]]
        r = 1
        while prof.n_r(r) > 0:
            want = max(0, prof.n_r(r) + sizes[0] - p)
            assert head.intersection(threshold_set(sets, r)).size == want
            r += 1


def test_profile_json():
    prof = interval_profile(7, (3, 3))
    j = prof.to_json()
    assert j["p"] == 7
    assert j["n"][0] == 7


@pytest.mark.parametrize("call, expected", [
    (lambda: interval_profile(7, (3,)).n_r(-1), "ValueError: r must be nonnegative"),
    (lambda: interval_profile(7, (8,)), "ValueError: interval length 8 out of range for p=7"),
    (lambda: pollard_lhs_rhs([Subset(7, 3)], 0), "ValueError: partial sums need r >= 1"),
    # a_0 = 2.5 used to run, as the head size of a critical index of 1
    (lambda: critical_r0((2.5, 3, 3), 7), "TypeError: a_0 must be an integer, got 2.5"),
    (lambda: critical_r0((2, 3, 3.0), 7), "TypeError: size must be an integer, got 3.0"),
], ids=["n-r-negative", "interval-length", "partial-sum-r-0", "float-a0", "float-size"])
def test_guards(call, expected):
    assert outcome(call) == expected
