import hashlib
import json
import random
from math import isqrt
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zpcount import (
    F_value, InvariantError, Subset, angle_check_punctured, dft_indicator,
    exact_arg_lattice_index, is_odd_prime, optimal_t,
    orbit_catalog, primary_image, projection_scores, s_k_count, spectral_levels,
    t_good_scan, translate_phase_index,
)
from zpcount import fourier
from zpcount.fourier import PrecisionError, _clusters, _coordinates

from conftest import brute_dft, outcome, unpruned_F_value

PRIMES = tuple(q for q in range(3, 62) if is_odd_prime(q))
# Fixed example streams and no example database, so every run tries the
# same cases.
CASES = settings(deadline=None, derandomize=True, database=None)


@st.composite
def sets_of_all_sizes(draw, max_p=61):
    """A subset of Z_p, p <= max_p, whose size is drawn first, so the empty
    set, singletons and the full set are as likely as any other size."""
    p = draw(st.sampled_from([q for q in PRIMES if q <= max_p]))
    size = draw(st.sampled_from(sorted({0, 1, 2, p // 2, p - 1, p})))
    members = draw(st.lists(st.integers(0, p - 1), min_size=size,
                            max_size=size, unique=True))
    return Subset.from_residues(p, members)


def test_dft_matches_exponential_sum():
    rng = random.Random(5)
    for _ in range(12):
        p = rng.choice((5, 7, 11, 13))
        s = Subset.from_residues(p, rng.sample(range(p), rng.randint(1, p - 1)))
        prof = dft_indicator(s, 128)
        direct = brute_dft(s, 80)
        with mp.workprec(320):
            for g in range(p):
                r, th = prof.magnitude(g), prof.argument(g)
                assert abs(mp.mpc(r * mp.cos(th), r * mp.sin(th)) - direct[g]) < mp.mpf(2) ** -100


@CASES
@given(sets_of_all_sizes(), st.integers(1, 48))
def test_dft_within_err_of_oracle(s, precision):
    # every stored r*e^(i*theta) lies within the certified err of the plain
    # exponential sum, at precisions low enough that err is the binding term
    prof = dft_indicator(s, precision)
    exact = brute_dft(s, prof.work_prec)
    with mp.workprec(4 * prof.work_prec):
        for g in range(s.p):
            assert abs(prof.magnitude(g) * mp.expj(prof.argument(g)) - exact[g]) <= prof.err


def test_interval_magnitude_closed_form():
    for p, a in ((5, 2), (7, 3), (11, 4), (13, 3), (17, 14), (31, 12)):
        prof = dft_indicator(Subset.interval(p, a), 192)
        with mp.workprec(240):
            for g in range(1, p):
                expect = abs(mp.sin(mp.pi * a * g / p) / mp.sin(mp.pi * g / p))
                assert abs(prof.magnitude(g) - expect) < mp.mpf(2) ** -150


def test_conjugate_symmetry_and_parseval():
    # frequency p-g is the exact conjugate of frequency g: equal magnitudes,
    # and arguments in [0, 2*pi) that sum to 2*pi (the mirror is 2*pi - theta
    # rounded to the working precision) or are both 0
    rng = random.Random(6)
    for _ in range(10):
        p = rng.choice((7, 11, 13))
        s = Subset.from_residues(p, rng.sample(range(p), rng.randint(1, p - 1)))
        prof = dft_indicator(s, 128)
        with mp.workprec(prof.work_prec):
            assert all(0 <= prof.argument(g) < 2 * mp.pi for g in range(p))
            for g in range(1, p // 2 + 1):
                th, th_mirror = prof.argument(g), prof.argument(p - g)
                assert prof.magnitude(g) == prof.magnitude(p - g)
                assert th_mirror == 2 * mp.pi - th or th == th_mirror == 0
            total = mp.fsum(prof.magnitude(g) ** 2 for g in range(p))
            assert abs(total - p * s.size) <= p * prof.err * (2 * s.size + prof.err)


def test_zero_frequency_is_size():
    prof = dft_indicator(Subset.punctured_interval(11, 4), 96)
    with mp.workprec(prof.work_prec):
        assert abs(prof.magnitude(0) - 4) <= prof.err
        assert prof.argument(0) == 0


def _per_call_unit_table(p: int, w: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The unit table with a separate mp.cos and mp.sin per entry, every j
    evaluated (no mirror), each rounded at w + 16 bits."""
    with mp.workprec(w + 16):
        step = 2 * mp.pi / p
        return (tuple(int(mp.nint(mp.ldexp(mp.cos(step * j), w))) for j in range(p)),
                tuple(int(mp.nint(mp.ldexp(mp.sin(step * j), w))) for j in range(p)))


@pytest.mark.parametrize("w", [40, 53, 96, 256, 700])
def test_unit_table_equals_per_call_cos_and_sin(w):
    # one mp.cos_sin per j gives the ints of separate mp.cos and mp.sin calls,
    # and the mirrored half agrees with evaluating j > p/2 directly
    for p in PRIMES:
        assert fourier._unit_table(p, w) == _per_call_unit_table(p, w), p


def _eager_sums(s: Subset, precision: int) -> list[tuple[int, int]]:
    """The integer sums (re, im) of g = 1..(p-1)/2, one _unit_table entry
    per member and frequency."""
    p = s.p
    cos, sin = fourier._unit_table(p, precision + fourier.GUARD_BITS)
    return [(sum(cos[-x * g % p] for x in s.members()), sum(sin[-x * g % p] for x in s.members()))
            for g in range(1, p // 2 + 1)]


def _eager_coeffs(s: Subset, precision: int) -> list:
    """Every (magnitude, argument) of s computed at once from the kernel's
    integer tables: an atan2 for each g = 1..(p-1)/2, shifted into
    [0, 2*pi), and the conjugate mirror (r, 2*pi - theta), or (r, 0), at p-g."""
    w = precision + fourier.GUARD_BITS
    with mp.workprec(w):
        tau = 2 * mp.pi
        upper = []
        for re, im in _eager_sums(s, precision):
            th = mp.atan2(im, re)
            upper.append((mp.ldexp(isqrt(re * re + im * im), -w), th + tau if th < 0 else th))
        lower = [(r, tau - th if th else mp.mpf(0)) for r, th in reversed(upper)]
        return [(mp.mpf(s.size), mp.mpf(0)), *upper, *lower]


@pytest.mark.parametrize("p", [3, 7, 61])
def test_dft_of_empty_singleton_and_full_sets(p):
    # the kernel's row sums at no member, at one member and at all of them
    w = 64 + fourier.GUARD_BITS
    sets = [Subset(p, 0), Subset(p, (1 << p) - 1)] + [Subset(p, 1 << x) for x in range(p)]
    for s in sets:
        prof = dft_indicator(s, 64)
        sums = _eager_sums(s, 64)
        upper = [isqrt(re * re + im * im) for re, im in sums]
        assert list(prof.sums) == sums, s
        assert prof.keys == (s.size << w, *upper, *reversed(upper)), s
    assert dft_indicator(sets[0], 64).keys == (0,) * p
    assert dft_indicator(sets[2], 64).sums == ((1 << w, 0),) * (p // 2)


@CASES
@given(sets_of_all_sizes(), st.sampled_from([8, 64, 256, 1000]))
def test_dft_sums_are_the_per_member_table_sums(s, precision):
    assert list(dft_indicator(s, precision).sums) == _eager_sums(s, precision)


@pytest.mark.parametrize("p", PRIMES)
def test_lazy_profile_equals_the_eager_reference(p):
    # Arguments are computed on first read, in any order (a mirror before its
    # frequency or after it), and must equal the eager values exactly.
    # Symmetric sets have real coefficients, so theta is 0 or pi and the
    # (r, 0) mirror is taken.
    rng = random.Random(p)
    plain = [rng.sample(range(p), rng.randint(1, p - 1)) for _ in range(3)]
    half = [rng.sample(range(1, p // 2 + 1), rng.randint(1, p // 2)) for _ in range(3)]
    symmetric = [[x * e for x in h for e in (1, -1)] + [0] * (i % 2) for i, h in enumerate(half)]
    real_args = set()
    for members in plain + symmetric:
        s = Subset.from_residues(p, members)
        for precision in (8, 96):
            want = _eager_coeffs(s, precision)
            prof = dft_indicator(s, precision)
            order = list(range(p))
            rng.shuffle(order)
            for g in order:
                assert (prof.magnitude(g), prof.argument(g)) == want[g], (members, g)
            # cached reads, and a fresh profile read mirror first, agree too
            for q in (prof, dft_indicator(s, precision)):
                assert [(q.magnitude(g), q.argument(g)) for g in reversed(range(p))] == want[::-1]
            if members in symmetric and precision == 96:
                real_args.update(th for _, th in want[1:])
    with mp.workprec(96 + fourier.GUARD_BITS):
        assert real_args == {0, +mp.pi}


def test_arguments_are_computed_only_where_read(monkeypatch):
    atan2_calls = []
    real_atan2 = mp.atan2

    def atan2(y, x):
        atan2_calls.append((y, x))
        return real_atan2(y, x)

    monkeypatch.setattr(mp, "atan2", atan2)
    # the spectral levels and a bare DFT read magnitudes only
    spectral_levels(13, 5)
    prof = dft_indicator(Subset.punctured_interval(13, 5), 64)
    prof.magnitude(3)
    prof.argument_error(3)
    assert atan2_calls == []
    # one atan2 serves a frequency and its mirror, however often read
    for g in (10, 3, 10):
        prof.argument(g)
    assert len(atan2_calls) == 1
    # primary_image reads one argument of each profile it makes
    profiles = []
    real_dft = fourier.dft_indicator

    def dft(a, precision=fourier.DEFAULT_PRECISION):
        profiles.append(real_dft(a, precision))
        return profiles[-1]

    monkeypatch.setattr(fourier, "dft_indicator", dft)
    for p, a in ((11, 3), (13, 5)):
        for rep in orbit_catalog(p, a).reps:
            atan2_calls.clear()
            profiles.clear()
            primary_image(rep)
            assert len(atan2_calls) <= len(profiles) == 2, rep


def test_rankings_use_the_reported_error_bound(monkeypatch):
    # The integer error that spectral_levels and primary_image rank keys by
    # is the profile's err, in units 2^-w.
    errs = []
    real = fourier._clusters

    def spy(pairs, err, equal, depth=None):
        errs.append(err)
        return real(pairs, err, equal, depth)

    monkeypatch.setattr(fourier, "_clusters", spy)
    w = 64 + fourier.GUARD_BITS
    lv = spectral_levels(13, 5, precision=64)
    assert errs and all(isinstance(e, int) and mp.ldexp(e, -w) == lv.err for e in errs)
    errs.clear()
    d = Subset.punctured_interval(13, 4)
    primary_image(d, 64)
    err = dft_indicator(d, 64).err
    assert errs and all(isinstance(e, int) and mp.ldexp(e, -w) == err for e in errs)


def test_exact_lattice_index_intervals():
    for p, a in ((7, 3), (13, 4), (11, 5)):
        iv = Subset.interval(p, a)
        with mp.workprec(160):
            for g in (1, 2, p - 1):
                n = exact_arg_lattice_index(iv, g)
                want = (-(a - 1) * g) % (2 * p)
                if mp.sin(mp.pi * a * g / p) / mp.sin(mp.pi * g / p) < 0:
                    want = (want + p) % (2 * p)
                assert n == want


def test_exact_lattice_index_membership():
    assert exact_arg_lattice_index(Subset.punctured_interval(13, 3), 1) is None
    assert exact_arg_lattice_index(Subset.from_residues(13, [0, 2, 4]), 1) is not None


def test_spectral_levels_13_3():
    lv = spectral_levels(13, 3)
    assert len(lv.levels) == 3
    m1, m2, m3 = lv.levels
    with mp.workprec(lv.precision):
        assert abs(m1 - mp.sin(3 * mp.pi / 13) / mp.sin(mp.pi / 13)) < 1e-15
        assert m1 > m2 > m3
    assert lv.min_gap_over_err > 10
    rep1, gs1 = lv.attainers[0][0]
    assert len(lv.attainers[0]) == 1
    assert gs1 == (1, 12)
    assert rep1.canonical() == Subset.interval(13, 3).canonical()
    rep2, _ = lv.attainers[1][0]
    assert rep2.canonical() == Subset.punctured_interval(13, 3).canonical()


def test_spectral_levels_flat_cases():
    # p=7, a=3: the punctured interval is a perfect difference set, so the
    # spectrum has only two distinct magnitudes across both orbits
    assert len(spectral_levels(7, 3).levels) == 2
    assert len(spectral_levels(11, 3).levels) == 2


@pytest.mark.parametrize("depth", [0, -1])
def test_spectral_levels_rejects_depth_below_one(depth):
    with pytest.raises(ValueError, match=f"depth must be >= 1, got {depth}$"):
        spectral_levels(7, 3, depth=depth)


def test_spectral_levels_json():
    j = spectral_levels(13, 3).to_json()
    assert j["p"] == 13 and j["a"] == 3
    assert len(j["levels"]) == 3


def test_primary_image_normalizes_every_orbit():
    for p, a in ((11, 3), (13, 3), (13, 5)):
        for rep in orbit_catalog(p, a).reps:
            img, mob = primary_image(rep)
            assert rep.apply(mob) == img
            prof = dft_indicator(img, 128)
            with mp.workprec(prof.work_prec):
                r1 = prof.magnitude(1)
                assert all(prof.magnitude(g) <= r1 + 4 * prof.err
                           for g in range(1, p))
                th = prof.argument(1)
                if th > mp.pi:
                    th -= 2 * mp.pi
                assert -mp.pi / p - 1e-30 < th <= mp.pi / p + 1e-30


def test_projection_scores_strict_case():
    img, _ = primary_image(Subset.punctured_interval(13, 3))
    rank = projection_scores(img)
    assert rank.lattice_index is None
    assert all(len(g) == 1 for g in rank.groups)
    assert len(rank.top_sets) == 1 and rank.top_sets[0].is_interval()
    for cand in rank.punctured_candidates:
        assert cand.canonical() == Subset.punctured_interval(13, 3).canonical()


def test_projection_scores_lattice_ties():
    img, _ = primary_image(Subset.interval(13, 4))
    rank = projection_scores(img)
    assert rank.lattice_index in (0, 1, 25)
    assert len(rank.top_sets) == 1 and rank.top_sets[0].is_interval()
    img5, _ = primary_image(Subset.interval(13, 5))
    rank5 = projection_scores(img5)
    assert rank5.lattice_index == 0
    assert len(rank5.top_sets) == 1 and rank5.top_sets[0].is_interval()


_SINGLES_NEG = tuple((j,) for j in (0, 1, 12, 2, 11, 3, 10, 4, 9, 5, 8, 6, 7))
_SINGLES_POS = tuple((j,) for j in (0, 12, 1, 11, 2, 10, 3, 9, 4, 8, 5, 7, 6))
_PAIRS_ZERO = ((0,), (1, 12), (2, 11), (3, 10), (4, 9), (5, 8), (6, 7))


# One set per place theta can sit at p = 13: (members, lattice index, sign of
# theta, groups, top_sets masks, punctured_candidates masks), each frozen from
# the five-branch ordering the integer key replaced.
@pytest.mark.parametrize("members, index, sign, groups, tops, cands", [
    ((0, 1, 2, 11, 12), 0, 0, _PAIRS_ZERO, [6151], [5127, 6155]),
    ((1, 2, 11, 12), 0, 0, _PAIRS_ZERO, [4103, 6147], [4107, 2055]),
    ((0, 1, 11, 12), 1, 1,
     ((0, 12), (1, 11), (2, 10), (3, 9), (4, 8), (5, 7), (6,)), [6147], [5123, 6149]),
    ((0, 1, 2, 12), 25, -1,
     ((0, 1), (12, 2), (11, 3), (10, 4), (9, 5), (8, 6), (7,)), [4103], [4107, 2055]),
    ((0, 1, 11), None, 1, _SINGLES_POS, [4099], [4101, 2051]),
    ((0, 2, 12), None, -1, _SINGLES_NEG, [4099], [2051, 4101]),
], ids=["theta-0", "theta-0-split-group", "theta-pi/p", "theta--pi/p",
        "theta-inside-(0,pi/p)", "theta-inside-(-pi/p,0)"])
def test_projection_scores_pinned_orderings(members, index, sign, groups, tops, cands):
    rank = projection_scores(Subset.from_residues(13, members))
    assert rank.lattice_index == index and mp.sign(rank.theta) == sign
    assert rank.groups == groups
    assert [s.mask for s in rank.top_sets] == tops
    assert [s.mask for s in rank.punctured_candidates] == cands


def test_clusters_ties_separates_and_stops_at_depth():
    # with err = 1: gaps > 10 separate; a closer pair ties when equal proves
    # it and is unresolved otherwise, however close; depth stops the ranking
    # before the unresolved 50 / 44 gap
    pairs = [(80, 3), (100, 1), (44, 5), (97, 2), (50, 4)]

    def equal(i, j):
        return {i, j} == {1, 2}

    assert _clusters(pairs, 1, equal, depth=1) == [[(100, 1), (97, 2)]]
    assert _clusters(pairs, 1, equal, depth=2) == [[(100, 1), (97, 2)], [(80, 3)]]
    assert _clusters(pairs, 1, equal, depth=3) is None
    assert _clusters(pairs, 1, equal) is None
    assert _clusters(pairs[:4], 1, equal) == [[(100, 1), (97, 2)], [(80, 3)], [(44, 5)]]
    # an equal pair 7 errors apart ties (the margins once left it unresolved),
    # and a pair 1 error apart that equal does not prove stays unresolved
    assert _clusters([(100, 1), (93, 2)], 1, equal) == [[(100, 1), (93, 2)]]
    assert _clusters([(100, 1), (99, 3)], 1, equal, depth=1) is None
    # equal is asked only about pairs within the margin
    asked = []
    _clusters(pairs[:4], 1, lambda i, j: asked.append((i, j)) or True)
    assert asked == [(1, 2)]


def _forge_near_tie(monkeypatch, target, freqs, to_key):
    """dft_indicator with target's keys at freqs (and their mirrors) set to
    to_key(profile, precision) less 3 errors, within 4 errors of it."""
    real = fourier.dft_indicator

    def dft(a, precision=fourier.DEFAULT_PRECISION):
        prof = real(a, precision)
        if a != target:
            return prof
        keys = list(prof.keys)
        near = to_key(prof, precision) - 3 * fourier._coeff_error(a.size)
        for g in freqs:
            keys[g] = keys[a.p - g] = near
        return fourier.FourierProfile(a, prof.precision, prof.work_prec, prof.err,
                                      prof.sums, tuple(keys))

    monkeypatch.setattr(fourier, "dft_indicator", dft)


_P13_3 = Subset.punctured_interval(13, 3)  # {0, 1, 3}: level 2 of (13, 3)
_Q13_3 = Subset.from_residues(13, (0, 1, 4))  # level 3, peak at 1, 3, 4, 9, 10, 12


@pytest.mark.parametrize("case", ["primary-peak", "levels-peak", "levels-rho"])
def test_near_tie_of_unequal_magnitudes_never_ties(monkeypatch, case):
    # Keys within 4 errors of each other whose true magnitudes differ (their
    # coordinates do): the ranking must escalate, and with the forgery at
    # every rung, end in PrecisionError; the margins once tied them.
    if case == "levels-rho":
        assert _coordinates(_P13_3, 1) != _coordinates(_Q13_3, 1)
        _forge_near_tie(monkeypatch, _Q13_3, (1, 3, 4),
                        lambda prof, prec: fourier.dft_indicator(_P13_3, prec).keys[1])
    else:
        assert _coordinates(_P13_3, 1) != _coordinates(_P13_3, 4)
        _forge_near_tie(monkeypatch, _P13_3, (4,), lambda prof, prec: prof.keys[1])
    with pytest.raises(PrecisionError, match="at 4096 bits"):
        if case == "primary-peak":
            primary_image(_P13_3, 64)
        else:
            spectral_levels(13, 3, precision=64)


@CASES
@given(st.data())
def test_coordinates_decide_equal_magnitudes(data):
    # Equal coordinates exactly when the oracle's magnitudes agree: distinct
    # magnitudes of sets this small differ far more than 2^-900.  Half the
    # cases compare a set with an affine image at the frequency that maps to
    # g, which has its magnitude.
    p = data.draw(st.sampled_from([q for q in PRIMES if q <= 23]))
    size = data.draw(st.integers(1, p - 1))
    residues = st.lists(st.integers(0, p - 1), min_size=size, max_size=size, unique=True)
    a = Subset.from_residues(p, data.draw(residues))
    g = data.draw(st.integers(1, p - 1))
    if data.draw(st.booleans()):
        xi, eta = data.draw(st.integers(1, p - 1)), data.draw(st.integers(0, p - 1))
        b, h = a.dilate(xi).translate(eta), g * pow(xi, -1, p) % p
    else:
        b, h = Subset.from_residues(p, data.draw(residues)), data.draw(st.integers(1, p - 1))
    with mp.workprec(1024):
        close = abs(abs(brute_dft(a, 256)[g]) - abs(brute_dft(b, 256)[h])) < mp.mpf(2) ** -900
    assert (_coordinates(a, g) == _coordinates(b, h)) == close


@pytest.mark.parametrize("p, a", [(7, 1), (7, 6), (11, 10)])
def test_projection_scores_rejects_sizes_without_runner_ups(p, a):
    img, _ = primary_image(Subset.interval(p, a))
    with pytest.raises(ValueError, match="2 <= [|]D[|] <= p-2"):
        projection_scores(img)


# Each precision-ladder exit, forced by a private helper: (site, helper to
# patch, which of its calls to force, the patched helper's result in place of
# the real one, the call).  The three _clusters exits are told apart by depth:
# the peak frequencies rank one group, the rho ladder ranks them all.
_PUNCT = Subset.punctured_interval(13, 3)
_PRIMARY = primary_image(Subset.interval(13, 4))[0]


def _any_call(*args, **kwargs):
    return True


def _peak(*args, depth=None):
    return depth == 1


def _rho_ladder(*args, depth=None):
    return depth is None


def _unresolved(real, *args, **kwargs):
    return None


_LADDER = {
    "levels-clusters": ("spectral_levels", "_clusters", _rho_ladder, _unresolved,
                        lambda prec: spectral_levels(11, 4, precision=prec)),
    "levels-top": ("spectral_levels", "_clusters", _peak, _unresolved,
                   lambda prec: spectral_levels(11, 4, precision=prec)),
    "lattice-index": ("exact_arg_lattice_index", "_lattice_reading", _any_call, _unresolved,
                      lambda prec: exact_arg_lattice_index(Subset.interval(13, 4), 1, prec)),
    "primary-top": ("primary_image", "_clusters", _peak, _unresolved,
                    lambda prec: primary_image(_PUNCT, prec)),
    "primary-distance": ("primary_image", "_lattice_reading", _any_call,
                         lambda real, *a: real(*a)._replace(exact=False, distance=mp.mpf(0)),
                         lambda prec: primary_image(_PUNCT, prec)),
    "projection-reading": ("projection_scores", "_lattice_reading", _any_call, _unresolved,
                           lambda prec: projection_scores(_PRIMARY, prec)),
}


def _force(monkeypatch, helper, when, replacement, times):
    """Replace fourier.<helper> by replacement for its first `times` calls
    that `when` selects; return the precisions that dft_indicator is asked
    for."""
    real = getattr(fourier, helper)
    calls = []

    def patched(*args, **kwargs):
        if when(*args, **kwargs):
            calls.append(args)
            if len(calls) <= times:
                return replacement(real, *args, **kwargs)
        return real(*args, **kwargs)

    precisions = []
    real_dft = fourier.dft_indicator

    def dft(a, precision=fourier.DEFAULT_PRECISION):
        precisions.append(precision)
        return real_dft(a, precision)

    monkeypatch.setattr(fourier, helper, patched)
    monkeypatch.setattr(fourier, "dft_indicator", dft)
    return precisions


@pytest.mark.parametrize("case", sorted(_LADDER))
def test_ladder_resolves_at_the_next_rung(monkeypatch, case):
    site, helper, when, replacement, call = _LADDER[case]
    unforced = call(128)
    precisions = _force(monkeypatch, helper, when, replacement, times=1)
    assert call(64) == unforced
    assert min(precisions) == 64 and max(precisions) == 128


@pytest.mark.parametrize("case", sorted(_LADDER))
def test_ladder_raises_past_the_cap(monkeypatch, case):
    site, helper, when, replacement, call = _LADDER[case]
    precisions = _force(monkeypatch, helper, when, replacement, times=10**9)
    with pytest.raises(PrecisionError, match=f"^{site}.*at 4096 bits"):
        call(64)
    assert sorted(set(precisions)) == [64, 128, 256, 512, 1024, 2048, 4096]


def test_precision_out_of_range_is_refused():
    for bits in (-40, 0):
        with pytest.raises(ValueError, match="positive number of bits"):
            spectral_levels(7, 3, precision=bits)
        with pytest.raises(ValueError, match="positive number of bits"):
            dft_indicator(Subset.interval(7, 3), bits)
    with pytest.raises(PrecisionError, match=r"^spectral_levels\(p=7, a=3\): 5000 bits"):
        spectral_levels(7, 3, precision=5000)
    # F_value's working precision legitimately passes the ladder's cap
    assert dft_indicator(Subset.interval(7, 3), 5000).precision == 5000


def test_projection_ladder_on_the_ordering_margin(monkeypatch):
    unforced = projection_scores(_PRIMARY, 128)
    calls = []
    real = fourier.FourierProfile.argument_error

    def unresolved_once(self, gamma):
        calls.append(gamma)
        return mp.inf if len(calls) == 1 else real(self, gamma)

    monkeypatch.setattr(fourier.FourierProfile, "argument_error", unresolved_once)
    ranking = projection_scores(_PRIMARY, 64)
    assert ranking == unforced and ranking.precision == 128


def test_F_identity_random():
    rng = random.Random(7)
    for _ in range(40):
        p = rng.choice((5, 7, 11, 13))
        a = rng.randint(1, p - 1)
        s = Subset.from_residues(p, rng.sample(range(p), a))
        k = rng.randint(2, 12)
        fv = F_value(s, k, 192)
        exact = p * s_k_count(s, k) - a ** (k + 1)
        with mp.workprec(fv.work_prec + 64):
            assert abs(mp.mpf(exact) - fv.value) <= fv.err


def test_F_huge_exponent_no_overflow():
    fv = F_value(Subset.punctured_interval(13, 3), 10**6, 64)
    assert mp.isfinite(fv.value)
    assert mp.mag(fv.value) > 100000  # ~ (k+1) log2 m2, far beyond float range


def test_F_guards():
    with pytest.raises(ValueError):
        F_value(Subset.interval(7, 3), 1)


def test_F_refuses_precision_below_one_bit():
    for bits in (-20, 0):
        with pytest.raises(ValueError, match="positive number of bits"):
            F_value(Subset.interval(7, 3), 4, precision=bits)


@CASES
@given(sets_of_all_sizes(max_p=31), st.integers(2, 2000), st.integers(8, 96))
def test_F_value_within_err_of_full_sum(s, k, precision):
    # F_value sums half the frequencies and doubles; the reference sums all
    # p-1 terms hat1(g)^k * conj(hat1(g)) from plain exponential sums, at 4x
    # the working precision, and must land within the certified err.
    fv = F_value(s, k, precision)
    coeffs = brute_dft(s, fv.work_prec)
    with mp.workprec(4 * fv.work_prec):
        full = mp.fsum(z**k * mp.conj(z) for z in coeffs[1:])
        assert abs(full.imag) <= mp.ldexp(abs(full.real) + 1, -fv.work_prec)
        assert abs(full.real - fv.value) <= fv.err


# F_value reports frozen before it stopped reading the profile's mirror half:
# SHA-256 of the sorted-key JSON, on seeded sets with p in 31..61 and
# k in [10^3, 10^3.4], at 8, 24, 64 and 256 bits.
_F_DIGESTS = json.loads(
    (Path(__file__).parent / "fixtures" / "angle_fvalue_digests.json").read_text())["F_value"]


@pytest.mark.parametrize("case", _F_DIGESTS,
                         ids=lambda c: f"p={c['p']} k={c['k']} prec={c['precision']}")
def test_F_value_matches_frozen_digests(case):
    s = Subset.from_residues(case["p"], case["members"])
    text = json.dumps(F_value(s, case["k"], case["precision"]).to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == case["sha256"]


_P61 = {
    "empty": Subset(61, 0),
    "singleton": Subset.from_residues(61, [17]),
    "full": Subset.interval(61, 61),
    "interval": Subset.interval(61, 30),
    "punctured": Subset.punctured_interval(61, 30),
    # the interval's peak moved to the last frequency, g = 30
    "worst order": Subset.interval(61, 30).dilate(pow(30, -1, 61)),
}


def _same_bits(fv, ref) -> bool:
    return (fv.value, fv.err, fv.work_prec) == (ref.value, ref.err, ref.work_prec)


@settings(CASES, max_examples=300)
@given(sets_of_all_sizes(), st.one_of(st.integers(2, 64), st.integers(2, 10**4)),
       st.integers(8, 1024))
def test_F_value_has_the_unpruned_bits(s, k, precision):
    assert _same_bits(F_value(s, k, precision), unpruned_F_value(s, k, precision))


@pytest.mark.parametrize("k, precision", [(10**5, 256), (10**6, 256), (1000, 4096)])
@pytest.mark.parametrize("name", _P61)
def test_F_value_has_the_unpruned_bits_on_fixed_sets(name, k, precision):
    s = _P61[name]
    assert _same_bits(F_value(s, k, precision), unpruned_F_value(s, k, precision))


def _arguments_read(s, k, precision=256) -> list[int]:
    reads = []
    real = fourier.FourierProfile.argument

    def spy(self, gamma):
        reads.append(gamma)
        return real(self, gamma)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fourier.FourierProfile, "argument", spy)
        F_value(s, k, precision)
    return reads


def test_F_value_reads_only_the_arguments_it_sums():
    # the interval's peak r_1 ~ 19.4 comes first, and (r_3/r_1)^1001 is far
    # below 2^-340, so every later term is rounded away unread
    assert _arguments_read(_P61["interval"], 1000) == [1]
    # magnitudes rise with g, so no term is ever below the partial sum
    assert _arguments_read(_P61["worst order"], 1000) == list(range(1, 31))


@CASES
@given(sets_of_all_sizes(), st.integers(1, 1024))
def test_F_value_at_k_2_reads_every_argument(s, precision):
    # a term is skipped only when (r_g + err)^3 lies below 2^-(w+4) of the
    # partial sum: a coefficient under 2^-16 beside one near |A|
    assert _arguments_read(s, 2, precision) == list(range(1, s.p // 2 + 1))


def test_term_log2_bounds_are_upper_bounds():
    # The skip rule's estimates against the exact expressions they bound,
    # log2 of (h*u)^(k+1) and u^(k+1)*h^k*B in units u^(k+1), at 256 bits:
    # over, by the float margin at least, and by less than 0.1 bit.
    rng = random.Random(29)
    for k in (2, 3, 1000, 10**6):
        for precision in (8, 256, 4096):
            w = precision + 2 * k.bit_length() + 2 * fourier.GUARD_BITS
            for a in (0, 1, 30, 61):
                c = fourier._coeff_error(a)
                top = (a * 101 << w) // 100
                keys = {0, c, 2 * c, 2 * c + 1, 3 * c, top}
                keys.update(rng.randint(0, top) for _ in range(6))
                for key in keys:
                    value_log2, bound_log2 = fourier._term_log2_bounds(key, c, k, w)
                    h = key + c
                    with mp.workprec(256):
                        if key > 2 * c:
                            b = ((k + 1) * c + mp.mpf((k - 1) * c * h) / (key - c)
                                 + mp.ldexp(64 * h, -w))
                        else:
                            b = mp.mpf(2 * h + (k + 1) * c)
                        exact = ((k + 1) * mp.log(h, 2), k * mp.log(h, 2) + mp.log(b, 2))
                        for estimate, exact_log2 in zip((value_log2, bound_log2), exact):
                            assert exact_log2 < estimate < exact_log2 + 0.1, (k, w, key, c)


def test_optimal_t_matches_brute_scan():
    for p, a, k in ((7, 3, 2), (7, 4, 2), (11, 3, 4), (13, 4, 3), (17, 14, 3)):
        ts = optimal_t(p, a, k)
        with mp.workprec(128):
            vals = {t: mp.cos(mp.pi * translate_phase_index(p, a, k, t) / p)
                    for t in range(p)}
            mn = min(vals.values())
            brute = {t for t in range(p) if vals[t] - mn < mp.mpf(2) ** -100}
        assert ts == brute


def test_optimal_t_phase_is_the_dft_argument():
    p, a, k = 13, 4, 3
    t0 = min(optimal_t(p, a, k))
    prof = dft_indicator(Subset.interval(p, a).translate(t0), 128)
    with mp.workprec(prof.work_prec):
        want = mp.pi * translate_phase_index(p, a, k, t0) / p
        got = ((k - 1) * prof.argument(1)) % (2 * mp.pi)
        assert min(abs(got - want), abs(abs(got - want) - 2 * mp.pi)) < 1e-20


def test_optimal_t_rejects_k_1_mod_p():
    with pytest.raises(ValueError):
        optimal_t(7, 3, 8)


def test_angle_check_known_pass():
    chk = angle_check_punctured(13, 3)
    assert chk.passed and chk.exact_nonlattice and chk.branch_ok
    assert chk.branch_parity == "odd"
    j = chk.to_json()
    assert j["passed"] is True


def test_angle_check_complement_side():
    # a > (p-1)/2 verifies the claim on the size p-a shifted set
    chk = angle_check_punctured(13, 9)
    assert chk.branch_size == 4
    assert chk.branch_parity == "even"
    assert chk.passed and chk.branch_ok


def test_t_good_scan_13_3():
    scan = t_good_scan(13, 3, range(-8, 9))
    assert scan.c < 0 and scan.ell % 2 == 0
    assert scan.points
    for pt in scan.points:
        assert pt.k == pt.s * 13 + 1
        assert pt.cos_sign in (-1, 1)
        if pt.dominant and pt.k < 3000:
            fv = F_value(Subset.punctured_interval(13, 3), pt.k, 128)
            assert (fv.value > 0) == (pt.cos_sign > 0)


@pytest.mark.parametrize("p", [7, 11, 13, 17])
def test_t_good_scan_has_one_point_per_eligible_t(p):
    # the window is pi - 2*eps > |c| wide, so every t with sign(t) = sign(c)
    # gets its least s >= 1; none is dropped
    for a in range(3, p - 2):
        scan = t_good_scan(p, a, range(-40, 41))
        eligible = [t for t in range(-40, 41) if t != 0 and (t > 0) == (scan.c > 0)]
        assert [pt.t for pt in scan.points] == eligible, a
        assert all(pt.s >= 1 and pt.k == pt.s * p + 1 for pt in scan.points), a


def test_t_good_scan_dominance_is_certified(monkeypatch):
    # At (13, 5), k = 40 the lead beats its competitors by 7.8 % at midpoint
    # values; of all points with p <= 19 and |t| <= 40 only (11, 4) at k = 34
    # is closer.  An error bound of 2^-10 on each coefficient takes that
    # margin away, so the point must no longer be flagged, though its
    # midpoints are the same.
    before = t_good_scan(13, 5, [-1], precision=128).points
    assert [(pt.k, pt.dominant) for pt in before] == [(40, True)]
    monkeypatch.setattr(fourier, "_coeff_error", lambda a: 1 << (128 + fourier.GUARD_BITS - 10))
    scan = t_good_scan(13, 5, [-1], precision=128)
    assert [(pt.k, pt.cos_sign, pt.dominant) for pt in scan.points] == [(40, -1, False)]


@pytest.mark.parametrize("level", [0, 1])
def test_t_good_scan_refuses_another_top_attainer(monkeypatch, level):
    # dominance bounds every orbit but the interval and the punctured
    # interval by m3, so a forged second attainer of level 1 or 2 must raise
    real = fourier.spectral_levels

    def forged(p, a, depth=3, precision=fourier.DEFAULT_PRECISION):
        lv = real(p, a, depth, precision)
        at = list(lv.attainers)
        at[level] += at[2]
        return fourier.SpectralLevels(lv.p, lv.a, lv.levels, tuple(at), lv.err,
                                      lv.precision, lv.min_gap_over_err)

    assert t_good_scan(13, 3, [-1]).points
    monkeypatch.setattr(fourier, "spectral_levels", forged)
    with pytest.raises(InvariantError, match="top two spectral levels for p=13, a=3"):
        t_good_scan(13, 3, [-1])


def test_t_good_scan_makes_one_punctured_dft(monkeypatch):
    # Beyond the spectral levels it reads, the scan transforms the punctured
    # interval once: the lattice-avoidance guard and the profile share it.
    real = fourier.dft_indicator
    calls = []

    def dft(a, precision=fourier.DEFAULT_PRECISION):
        calls.append((a.mask, precision))
        return real(a, precision)

    monkeypatch.setattr(fourier, "dft_indicator", dft)
    spectral_levels(13, 3, depth=3, precision=128)
    level_calls = list(calls)
    calls.clear()
    t_good_scan(13, 3, range(-8, 9), precision=128)
    punct = (Subset.punctured_interval(13, 3).mask, 128)
    assert sorted(calls) == sorted(level_calls + [punct])


@pytest.mark.parametrize("call, expected", [
    (lambda: spectral_levels(7, 0),
     "ValueError: need 1 <= a <= p-1 for nontrivial spectra, got a=0"),
    (lambda: exact_arg_lattice_index(Subset(7, 0), 1),
     "ValueError: coefficients of the empty/full set carry no direction"),
    (lambda: primary_image(Subset(7, 0)),
     "ValueError: primary image needs a nonempty proper subset"),
    (lambda: projection_scores(Subset.from_residues(7, [0, 1, 3])),
     "ValueError: set is not primary: argument outside (-pi/p, pi/p]"),
    # the interval {0, 1, 2} sits on the lattice, at -2*pi/7
    (lambda: projection_scores(Subset.from_residues(7, [0, 1, 2])),
     "ValueError: set is not primary: lattice argument beyond +-pi/p"),
    # without the cut, t = -1..-8 have s = 13, 12, 10, 8, 7, 5, 3, 2
    (lambda: [pt.t for pt in t_good_scan(13, 3, range(-8, 9), s_max=2).points], [-1]),
], ids=["levels-a", "lattice-empty", "primary-empty", "scores-off-lattice",
        "scores-on-lattice", "t-good-s-max"])
def test_guards_and_rare_branches(call, expected):
    assert outcome(call) == expected
