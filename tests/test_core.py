import hashlib
import json
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_affine_orbit, brute_orbit_catalog, outcome
from zpcount import (
    AffineMap, InvariantError, SizeGuardError, Subset, build_orbit_catalog, core,
    is_odd_prime, orbit_catalog, subset_masks_of_size,
)
from zpcount.core import (
    _dilate_mask, _dilation_orbit, _gosper_masks, _necklaces, _primitive_root, _rotate,
    _translate_min, prime_context,
)
from zpcount.pollard import _reflection_point


def test_is_odd_prime():
    assert [n for n in range(2, 32) if is_odd_prime(n)] == \
        [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
    assert not is_odd_prime(2)
    assert not is_odd_prime(1)
    assert not is_odd_prime(-7)


def test_prime_context_guards():
    ctx = prime_context(7)
    assert ctx.full_mask == 0b1111111
    with pytest.raises(ValueError):
        prime_context(9)
    with pytest.raises(ValueError):
        prime_context(67)


def test_subset_construction():
    s = Subset.from_residues(7, [3, 1, 10])
    assert s.members() == (1, 3)
    assert s.size == 2
    assert 3 in s and 2 not in s
    assert list(s) == [1, 3]
    # residues reduce mod p and collapse; literal validation is the CLI's job
    assert Subset.from_residues(7, [1, 8]).members() == (1,)


def test_interval_and_punctured():
    assert Subset.interval(11, 4).members() == (0, 1, 2, 3)
    assert Subset.interval(11, 4, start=9).members() == (0, 1, 9, 10)
    assert Subset.interval(11, 11).size == 11
    # [a-1] with the top endpoint pushed out by one
    assert Subset.punctured_interval(11, 4).members() == (0, 1, 2, 4)
    with pytest.raises(ValueError):
        Subset.interval(11, 12)
    with pytest.raises(ValueError):
        Subset.punctured_interval(11, 1)


def test_translate_dilate_reflect():
    s = Subset.from_residues(13, [0, 1, 5])
    assert s.translate(3).members() == (3, 4, 8)
    assert s.translate(13).mask == s.mask
    assert s.dilate(2).members() == (0, 2, 10)
    assert s.reflect().members() == (0, 8, 12)
    assert s.complement().size == 10
    with pytest.raises(ValueError):
        s.dilate(13)  # not a unit


def test_intersection():
    a = Subset.from_residues(7, [0, 1, 2])
    b = Subset.from_residues(7, [2, 3])
    assert a.intersection(b).members() == (2,)
    with pytest.raises(ValueError):
        a.intersection(Subset.from_residues(11, [0]))


def test_affine_map_algebra():
    m = AffineMap(13, 2, 5)  # x -> 2x + 5
    assert m(4) == 0
    assert AffineMap(13, 15, -8) == m  # coefficients reduce mod p
    with pytest.raises(ValueError):
        AffineMap(13, 0, 1)
    with pytest.raises(ValueError):
        AffineMap(13, 26, 1)


def test_subset_apply_matches_pointwise():
    s = Subset.from_residues(11, [0, 2, 3, 7])
    for xi in range(1, 11):
        for eta in range(11):
            m = AffineMap(11, xi, eta)
            assert s.apply(m).members() == tuple(sorted(m(x) for x in s))
    with pytest.raises(ValueError):
        s.apply(AffineMap(13, 2, 1))


def test_is_interval_and_ap_differences():
    assert Subset.interval(11, 4, start=9).is_interval()
    assert not Subset.from_residues(11, [0, 1, 3]).is_interval()
    # {0,2,4} is an AP with difference 2 (and 9, its negation)
    diffs = Subset.from_residues(11, [0, 2, 4]).arith_prog_differences()
    assert diffs == (2, 9)
    # a pair {x, x+d} is an AP only for d and -d
    assert Subset.from_residues(11, [3, 8]).arith_prog_differences() == (5, 6)


def test_run_count_kernel_matches_the_dilated_interval_definition():
    # d is a progression step exactly when the dilation by 1/d is an interval,
    # i.e. its smallest translate is [0, a-1]; the empty and full sets take every d
    for p in (3, 5, 7, 11, 13):
        ctx = prime_context(p)
        for mask in range(1 << p):
            s = Subset(p, mask)
            a = s.size
            if a in (0, p):
                expected = tuple(range(1, p))
            else:
                expected = tuple(
                    d for d in range(1, p)
                    if _translate_min(_dilate_mask(mask, ctx.inv[d], p), p, ctx.full_mask)
                    == (1 << a) - 1)
            assert s.arith_prog_differences() == expected, (p, mask)
            assert s.is_interval() == (1 in expected), (p, mask)
        # the edge sizes, spelled out
        assert Subset(p, 0).arith_prog_differences() == tuple(range(1, p))
        assert Subset(p, ctx.full_mask).arith_prog_differences() == tuple(range(1, p))
        assert Subset(p, 0).is_interval() and Subset(p, ctx.full_mask).is_interval()
        assert Subset(p, 1 << 2).arith_prog_differences() == tuple(range(1, p))
        assert Subset(p, ctx.full_mask ^ 1 << 2).arith_prog_differences() == tuple(range(1, p))


def test_reflection_point_matches_a_scan_over_g():
    p = 7
    for m1 in range(1 << p):
        a1 = Subset(p, m1)
        for m2 in range(1 << p):
            a2 = Subset(p, m2)
            hits = [g for g in range(p)
                    if Subset.from_residues(p, ((g - x) % p for x in a1.members())) == a2]
            assert _reflection_point(p, m1, m2) == (hits[0] if hits else None), (m1, m2)


PRIMES_BELOW_64 = tuple(n for n in range(64) if is_odd_prime(n))


def _tied_gap_mask(rng, p: int) -> int:
    """A random mask (p >= 5) whose longest gap, of length L >= 1, occurs at
    least twice: gaps of at most L between members, placed round the cycle."""
    longest = rng.randint(1, p // 2 - 1)
    ties = rng.randint(2, p // (longest + 1))
    gaps = [longest] * ties
    used = ties * (longest + 1)
    while used < p:
        g = rng.randint(0, min(longest, p - used - 1))
        gaps.append(g)
        used += g + 1
    rng.shuffle(gaps)
    mask, x = 0, rng.randrange(p)
    for g in gaps:
        x = (x + g + 1) % p  # g non-members, then a member
        mask |= 1 << x
    return mask


def test_translate_min_is_the_least_rotation(rng):
    for p in PRIMES_BELOW_64:
        full = (1 << p) - 1
        masks = [0, full] + [rng.getrandbits(p) for _ in range(200)]
        if p >= 5:
            masks += [_tied_gap_mask(rng, p) for _ in range(100)]
        for mask in masks:
            expected = min(_rotate(mask, t, p, full) for t in range(p))
            assert _translate_min(mask, p, full) == expected, (p, mask)


def test_dilation_orbit_is_every_dilation(rng):
    for p in PRIMES_BELOW_64:
        g = _primitive_root(p)
        for mask in (0, (1 << p) - 1, 0b10, rng.getrandbits(p), rng.getrandbits(p)):
            words = _dilation_orbit(mask, p)
            assert words == [_dilate_mask(mask, pow(g, j, p), p) for j in range(p - 1)], p
            assert set(words) == {_dilate_mask(mask, xi, p) for xi in range(1, p)}, p


def test_dilation_tables_refuse_a_multiplier_of_smaller_order(monkeypatch):
    # the table builder checks the multiplier's order itself, before any
    # catalog is built
    real = _primitive_root
    monkeypatch.setattr(core, "_primitive_root", lambda p: real(p) ** 2 % p)
    core._dilation_tables.cache_clear()
    try:
        for p in PRIMES_BELOW_64:
            with pytest.raises(InvariantError, match=f"has order {(p - 1) // 2} mod {p},"):
                core._dilation_tables(p)
        with pytest.raises(InvariantError):
            build_orbit_catalog(13, 5)
    finally:
        core._dilation_tables.cache_clear()


def test_orbit_count_refuses_a_multiplier_of_smaller_order(monkeypatch):
    # Past the table's order check, a chain of (p-1)/2 dilations by g^2 gives
    # the orbits of the subgroup of squares.  They partition the subsets too,
    # so the coverage sum holds, and only the orbit count notices.
    real = _dilation_orbit
    monkeypatch.setattr(core, "_dilation_orbit", lambda mask, p: real(mask, p)[::2])
    with pytest.raises(InvariantError, match="found 19 orbits of 5-subsets of Z_13, not 10"):
        build_orbit_catalog(13, 5)


def _zero_sum(mask: int, p: int) -> int:
    """Z(mask), the catalog's key: mask translated to member sum 0 mod p,
    from the same tables the catalog reads."""
    s = sum(table[mask >> 8 * j & 255] for j, table in enumerate(core._member_sum_tables(p)))
    return _rotate(mask, core._zero_sum_shifts(p, mask.bit_count())[s], p, (1 << p) - 1)


def test_orbit_count_refuses_a_swallowed_orbit(monkeypatch):
    # The interval's orbit also claims the last orbit's classes: its chain,
    # the dilations of the interval's zero-sum word, also yields the last
    # orbit's zero-sum chain.  Its size grows by the last orbit's, the
    # coverage sum still reaches C(13, 5), and the last representative is
    # skipped as seen, so 9 of the 10 orbits are found.
    last = _zero_sum(build_orbit_catalog(13, 5).reps[-1].mask, 13)
    interval = _zero_sum(Subset.interval(13, 5).mask, 13)
    real = _dilation_orbit
    monkeypatch.setattr(core, "_dilation_orbit", lambda mask, p: real(mask, p) + (
        real(last, p) if mask == interval else []))
    with pytest.raises(InvariantError, match="found 9 orbits of 5-subsets of Z_13, not 10"):
        build_orbit_catalog(13, 5)


_WRONG_SHIFTS = {
    # +s * a^-1: the translate sums to 2s, not 0, so the key moves with t
    "sign-flip": lambda p, a: tuple(s * prime_context(p).inv[a] % p
                                    for s in range(p * (p - 1) // 2 + 1)),
    # -s * a: the inverse left out
    "no-inverse": lambda p, a: tuple(-s * a % p for s in range(p * (p - 1) // 2 + 1)),
}


@pytest.mark.parametrize("mutant", sorted(_WRONG_SHIFTS))
@pytest.mark.parametrize("p, a", [(7, 3), (11, 4), (13, 5), (17, 6)])
def test_catalog_refuses_a_key_that_is_not_translation_invariant(monkeypatch, mutant, p, a):
    # a key that differs across one translation class lets later necklaces
    # of a found orbit through as new orbits: the coverage sum or the
    # orbit count fails
    monkeypatch.setattr(core, "_zero_sum_shifts", _WRONG_SHIFTS[mutant])
    with pytest.raises(InvariantError):
        build_orbit_catalog(p, a)


@settings(deadline=None, derandomize=True, database=None, max_examples=100)
@given(st.sampled_from(PRIMES_BELOW_64), st.data())
def test_zero_sum_key_is_translation_invariant_and_commutes_with_dilation(p, data):
    full = (1 << p) - 1
    mask = data.draw(st.integers(1, full - 1))
    key = _zero_sum(mask, p)
    assert sum(Subset(p, key).members()) % p == 0
    assert all(_zero_sum(_rotate(mask, u, p, full), p) == key for u in range(p))
    assert all(_zero_sum(_dilate_mask(mask, xi, p), p) == _dilate_mask(key, xi, p)
               for xi in range(1, p))


def _catalog_digest(cat) -> str:
    body = json.dumps([[r.mask for r in cat.reps], list(cat.orbit_sizes)], separators=(",", ":"))
    return hashlib.sha256(body.encode()).hexdigest()


def test_catalogs_match_their_frozen_digests():
    # SHA-256 of (reps, orbit_sizes) for every p <= 19 and 0 < a < p, and
    # for (23, a) with a <= 8 and a = 11, frozen from the builder that took
    # each dilation's smallest translate
    frozen = json.loads((Path(__file__).parent / "fixtures" / "catalog_digests.json").read_text())
    assert len(frozen) == 77
    for entry in frozen:
        cat = build_orbit_catalog(entry["p"], entry["a"])
        assert (len(cat.reps), _catalog_digest(cat)) == \
            (entry["orbit_count"], entry["sha256"]), (entry["p"], entry["a"])


def test_catalog_refuses_a_bool_size():
    # orbit_catalog keys its cache by (p, a), and True == 1: a catalog built
    # for a = True would be served, with "a": true, for a = 1
    orbit_catalog.cache_clear()
    with pytest.raises(TypeError, match="a must be an integer, got True"):
        orbit_catalog(7, True)
    assert type(orbit_catalog(7, 1).a) is int


def test_catalog_does_not_search_smallest_translates(monkeypatch):
    def refuse(*args):
        raise AssertionError("_translate_min called")

    monkeypatch.setattr(core, "_translate_min", refuse)
    assert len(build_orbit_catalog(13, 5).reps) == 10


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_orbit_count_matches_brute_force(p):
    for a in range(1, p):
        assert core._orbit_count(p, a) == len(brute_orbit_catalog(p, a)[0]), (p, a)


@pytest.mark.parametrize("p, a, drawn", [(23, 11, 20_873), (19, 8, 1_224)])
def test_catalog_stops_at_its_last_orbit(monkeypatch, p, a, drawn):
    # the walk leaves _necklaces at the necklace that completes the coverage
    # sum, the last representative, not after all C(p, a)/p necklaces
    real = _necklaces
    count = [0]

    def counting(p, a):
        for mask in real(p, a):
            count[0] += 1
            yield mask

    monkeypatch.setattr(core, "_necklaces", counting)
    cat = build_orbit_catalog(p, a)
    assert count[0] == drawn < comb(p, a) // p
    assert list(real(p, a))[drawn - 1] == cat.reps[-1].mask


def test_canonical_is_orbit_invariant():
    s = Subset.from_residues(13, [0, 1, 3, 9])
    canon = s.canonical()
    for u in range(1, 13):
        for v in range(13):
            moved = s.dilate(u).translate(v)
            assert moved.canonical().mask == canon.mask
    assert canon.canonical().mask == canon.mask


def test_canonical_and_is_interval_match_pointwise(rng):
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61):
        sizes = [0, 1, p - 1, p] + [rng.randrange(p + 1) for _ in range(4)]
        for a in sizes:
            start = rng.randrange(p)
            interval = [(start + i) % p for i in range(a)]
            near = interval[:-1] + [(start + a) % p] if 2 <= a <= p - 2 else interval
            for residues in (rng.sample(range(p), a), interval, near):
                s = Subset.from_residues(p, residues)
                assert s.canonical().mask == min(brute_affine_orbit(p, residues))
                assert s.dilation_class_canonical().mask == min(
                    sum(1 << (xi * x % p) for x in set(residues)) for xi in range(1, p))
                assert s.is_interval() == any(
                    s == Subset.from_residues(p, ((t + i) % p for i in range(a)))
                    for t in range(p)
                ), (p, residues)


def test_dilation_class_canonical():
    s = Subset.from_residues(13, [0, 1, 3, 9])
    c = s.dilation_class_canonical()
    for u in range(1, 13):
        assert s.dilate(u).dilation_class_canonical().mask == c.mask
    # translation generally leaves the dilation class
    assert s.translate(1).dilation_class_canonical().mask != c.mask


def test_subset_masks_of_size_counts():
    for p, a in ((5, 2), (7, 3), (11, 4)):
        masks = list(subset_masks_of_size(p, a))
        assert len(masks) == comb(p, a)
        assert len(set(masks)) == len(masks)
        assert all(bin(m).count("1") == a for m in masks)
    assert list(subset_masks_of_size(5, 0)) == [0]


def test_size_guard():
    with pytest.raises(SizeGuardError):
        list(subset_masks_of_size(61, 30))


def test_necklaces_are_the_smallest_translates():
    for p in (3, 5, 7, 11, 13, 17, 19):
        full = (1 << p) - 1
        for a in range(1, p):
            odd = (v << 1 | 1 for v in _gosper_masks(p - 1, a - 1))
            expected = [m for m in odd if _translate_min(m, p, full) == m]
            assert list(_necklaces(p, a)) == expected, (p, a)
    for p in (3, 5, 7, 11, 13, 17, 19, 23):
        for a in range(1, p):
            if comb(p - 1, a - 1) <= 2 * 10**5:
                assert sum(1 for _ in _necklaces(p, a)) == comb(p, a) // p, (p, a)


def test_orbit_catalog_small():
    cat = orbit_catalog(7, 3)
    assert len(cat.reps) == 2
    assert sorted(cat.orbit_sizes) == [14, 21]
    assert cat.reps[0].members() == (0, 1, 2)
    # orbit-stabilizer over the affine group of order p(p-1)
    for size, stab in zip(cat.orbit_sizes, cat.stabilizer_orders):
        assert size * stab == 7 * 6


def test_orbit_catalog_partitions_everything():
    for p, a in ((7, 3), (11, 4), (13, 5)):
        cat = build_orbit_catalog(p, a)
        assert sum(cat.orbit_sizes) == comb(p, a)
        for rep in cat.reps:
            assert rep.translate(5).dilate(2).canonical() == rep


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17])
def test_orbit_catalog_matches_brute_force(p):
    for a in range(p + 1):
        cat = build_orbit_catalog(p, a)
        reps, sizes = brute_orbit_catalog(p, a)
        assert cat.reps == tuple(reps), (p, a)
        assert cat.orbit_sizes == tuple(sizes), (p, a)


def test_orbit_catalog_json():
    j = orbit_catalog(7, 3).to_json()
    assert j["orbit_count"] == 2
    assert j["reps"] == [[0, 1, 2], [0, 1, 3]]


@pytest.mark.parametrize("call, expected", [
    (lambda: Subset(7, 1 << 7), "ValueError: mask 0x80 out of range for p=7"),
    (lambda: Subset(7, -1), "ValueError: mask -0x1 out of range for p=7"),
    (lambda: build_orbit_catalog(7, 8), "ValueError: subset size 8 out of range for p=7"),
    (lambda: build_orbit_catalog(7, -1), "ValueError: subset size -1 out of range for p=7"),
    (lambda: Subset(7, 3) < 3, "TypeError: '<' not supported between instances of 'Subset' and 'int'"),
    (lambda: Subset(7, 3) >= 3, "TypeError: '>=' not supported between instances of 'Subset' and 'int'"),
], ids=["mask-above", "mask-negative", "catalog-size-above", "catalog-size-negative",
        "lt-foreign", "ge-foreign"])
def test_guards(call, expected):
    assert outcome(call) == expected


def test_subset_order_is_p_then_mask():
    # __le__, __gt__ and __ge__ are derived from __lt__ and __eq__
    sets = [Subset(5, 3), Subset(5, 4), Subset(7, 1), Subset(7, 3)]
    for x in sets:
        for y in sets:
            key_x, key_y = (x.p, x.mask), (y.p, y.mask)
            assert ((x < y), (x <= y), (x > y), (x >= y)) == (
                key_x < key_y, key_x <= key_y, key_x > key_y, key_x >= key_y)
