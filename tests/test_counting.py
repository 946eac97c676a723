from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zpcount import Subset, indicator, power_sigma, s_count, s_k_count, sigma_vector
from zpcount import InvariantError, counting
from zpcount.counting import (
    RECENTRE_BYTES, SWEEP_RESTART_GAP, _fold, _pack, _power_packed, _reslot, _rotate_sum,
    _split, _square, _translate_rows, _unpack, count_vector_to_json, decimal_str,
)

from conftest import (
    brute_power, brute_s_count, brute_s_k, brute_sigma, outcome, schoolbook_convolve,
)

PRIMES = (3, 5, 7, 11, 13, 31, 61)
# Fixed example streams and no example database, so every run tries the
# same cases.
CASES = settings(deadline=None, derandomize=True, database=None)


def schoolbook_power(v, k):
    """k-th convolution power by right-to-left binary powering over the
    schoolbook oracle (a different schedule from power_sigma's)."""
    acc = None
    while k:
        if k & 1:
            acc = v if acc is None else schoolbook_convolve(acc, v)
        k >>= 1
        if k:
            v = schoolbook_convolve(v, v)
    return acc


@st.composite
def sets_of_all_sizes(draw, primes=PRIMES):
    """A subset of Z_p whose size is drawn first, so |A| in {0, 1, p-1, p}
    is as likely as any other size (Z_p itself has a spread of 0 at every
    power)."""
    p = draw(st.sampled_from(primes))
    size = draw(st.sampled_from(sorted({0, 1, 2, p // 2, p - 1, p})))
    members = draw(st.lists(st.integers(0, p - 1), min_size=size,
                            max_size=size, unique=True))
    return Subset.from_residues(p, members)


@st.composite
def packed_vectors(draw):
    """(p, a vector whose entries fit nb-byte slots, nb)."""
    p = draw(st.sampled_from(PRIMES))
    nb = draw(st.integers(1, 40))
    top = 256**nb - 1
    entry = st.one_of(st.just(0), st.just(top), st.integers(0, top))
    return p, draw(st.lists(entry, min_size=p, max_size=p).map(tuple)), nb


def random_subset(rng, p, lo=1):
    a = rng.randint(lo, p - 1)
    return Subset.from_residues(p, rng.sample(range(p), a))


def test_oracle_by_hand():
    # all 9 ordered pairs from {0,1,2}^2 in Z_5; sums landing back in the set:
    # 0+0, 0+1, 1+0, 0+2, 2+0, 1+1 -> 6 ordered pairs
    a = Subset.interval(5, 3)
    assert brute_s_k(a, 2) == 6
    assert brute_sigma([a, a]) == [1, 2, 3, 2, 1]


def test_s_k_matches_oracle():
    a = Subset.interval(5, 3)
    assert s_k_count(a, 2) == 6
    rng = __import__("random").Random(11)
    for p in (3, 5, 7, 11):
        for _ in range(20):
            s = random_subset(rng, p)
            k = rng.randint(2, 4)
            assert s_k_count(s, k) == brute_s_k(s, k)


def test_s_count_matches_oracle(rng):
    for p in (3, 5, 7, 11):
        for _ in range(20):
            k = rng.randint(1, 3)
            a0 = random_subset(rng, p)
            sets = [random_subset(rng, p) for _ in range(k)]
            assert s_count(a0, sets) == brute_s_count(a0, sets)


def test_sigma_matches_oracle(rng):
    for p in (5, 7, 13):
        for _ in range(15):
            sets = [random_subset(rng, p) for _ in range(rng.randint(1, 3))]
            assert list(sigma_vector(sets)) == brute_sigma(sets)


def test_sigma_total_mass(rng):
    for _ in range(25):
        p = rng.choice((5, 7, 11))
        sets = [random_subset(rng, p) for _ in range(rng.randint(1, 4))]
        expect = 1
        for s in sets:
            expect *= s.size
        assert sum(sigma_vector(sets)) == expect


def test_power_sigma_equals_repeated_convolution(rng):
    for p in (7, 13):
        s = random_subset(rng, p, lo=2)
        vec = indicator(s)
        acc = vec
        for k in range(2, 6):
            acc = schoolbook_convolve(acc, vec)
            assert list(power_sigma(s, k)) == list(acc)


def test_power_sigma_large_exponent_is_exact():
    # entries are huge integers; spot-check the total mass a^k
    a = Subset.interval(11, 4)
    k = 60
    vec = power_sigma(a, k)
    assert sum(vec) == 4**60
    assert s_k_count(a, k) == sum(vec[x] for x in a.members())


def test_counting_input_guards():
    a = Subset.interval(7, 3)
    with pytest.raises(ValueError):
        s_k_count(a, 0)
    with pytest.raises(ValueError):
        s_count(a, [])
    with pytest.raises(ValueError):
        s_count(a, [Subset.interval(11, 2)])


def test_count_vector_json_roundtrip():
    vec = power_sigma(Subset.interval(13, 5), 40)
    assert tuple(map(int, count_vector_to_json(vec))) == vec
    assert all(isinstance(t, str) for t in count_vector_to_json(vec))


def test_decimal_str_past_the_str_limit_matches_decimal():
    # str(int) stops at 4300 digits; the split conversion gives Decimal's
    # digits at every length, across the leaf size and at powers of ten
    rng = __import__("random").Random(11)
    for n in (2**4096 - 1, 2**14000, 10**5000 - 1, 10**5000, 3**20000, rng.getrandbits(100_000)):
        assert decimal_str(n) == str(Decimal(n))
        assert decimal_str(-n) == str(Decimal(-n))


def test_count_vector_json_shares_the_powers_past_the_str_limit():
    # one vector's entries of several widths past str's limit, between small
    # ones: the conversions share one memo of the powers 2^h and still give
    # Decimal's digits
    rng = __import__("random").Random(12)
    vec = (0, 7, 2**60, *(rng.getrandbits(w) | 1 << (w - 1) for w in
                          (30_000, 30_001, 45_000, 60_000, 60_000, 90_000)), 3**20000)
    assert count_vector_to_json(vec) == [str(Decimal(x)) for x in vec]
    powers: dict = {}
    decimal_str(vec[3], powers)
    filled = dict(powers)
    assert filled and decimal_str(vec[4], powers) == str(Decimal(vec[4]))
    assert powers == filled  # an entry one bit wider found every power it needs


def test_decimal_str_trapped_signal_is_an_invariant_error(monkeypatch):
    # a context too short to hold the digits rounds the join, and the trap
    # turns that into an InvariantError rather than wrong digits
    import decimal

    monkeypatch.setattr(decimal, "MAX_PREC", 50)
    with pytest.raises(InvariantError, match="decimal conversion"):
        decimal_str(3**20000)


def test_empty_set_counts():
    empty = Subset(7, 0)
    assert s_k_count(Subset.interval(7, 3).intersection(empty), 2) == 0
    assert list(sigma_vector([empty, Subset.interval(7, 3)])) == [0] * 7
    # an empty factor after the slots have widened leaves them wide: all zeros
    wide = Subset.interval(61, 30)
    assert sigma_vector([wide] * 3 + [Subset(61, 0), wide]) == (0,) * 61


def test_full_factor_gives_the_constant_vector(rng):
    # convolving by all of Z_p spreads the mass evenly: each entry is the
    # product of the other sizes
    for p in (3, 13, 61):
        full = Subset.interval(p, p)
        others = [random_subset(rng, p) for _ in range(3)]
        expect = others[0].size * others[1].size * others[2].size
        assert sigma_vector(others[:2] + [full, others[2]]) == (expect,) * p
        assert sigma_vector([full] + others) == (expect,) * p


@CASES
@given(sets_of_all_sizes(), st.integers(1, 40))
def test_power_sigma_matches_schoolbook(a, k):
    assert power_sigma(a, k) == schoolbook_power(indicator(a), k)


@CASES
@given(sets_of_all_sizes(), st.integers(2, 300))
def test_s_k_count_matches_schoolbook(a, k):
    sigma = schoolbook_power(indicator(a), k)
    assert s_k_count(a, k) == sum(sigma[x] for x in a.members())


@CASES
@given(sets_of_all_sizes().filter(lambda a: a.p <= 7), st.integers(2, 5))
def test_s_k_count_matches_brute_force(a, k):
    assert s_k_count(a, k) == brute_s_k(a, k)


def test_s_k_count_edge_sizes_both_parities():
    for p in (3, 13, 61):
        for k in (2, 3, 298, 299):
            assert s_k_count(Subset(p, 0), k) == 0
            # one point x: the single tuple x = k*x needs (k-1)x = 0
            one = Subset.from_residues(p, [1])
            assert s_k_count(one, k) == (1 if (k - 1) % p == 0 else 0)
            # all but one point: compare with the schoolbook power
            a = Subset.from_residues(p, range(1, p))
            sigma = schoolbook_power(indicator(a), k)
            assert s_k_count(a, k) == sum(sigma[x] for x in a.members())


# --- the packed square-and-shift-add chain ------------------------------------


@CASES
@given(sets_of_all_sizes(), st.integers(1, 7).map(lambda j: 2**j - 1))
def test_power_sigma_all_ones_exponents_match_schoolbook(a, k):
    # every bit of 2^j - 1 is a squaring followed by a step by A; the sets
    # include |A| in {0, 1, p - 1}, whose slots stay one byte or grow fastest
    assert power_sigma(a, k) == schoolbook_power(indicator(a), k)


@CASES
@given(packed_vectors(), st.integers(0, 40))
def test_reslot_matches_pack_of_unpack(case, extra):
    p, v, nb = case
    n = _pack(v, nb)
    assert _reslot(n, p, nb, nb + extra) == _pack(_unpack(n, p, nb), nb + extra)
    assert _unpack(_reslot(n, p, nb, nb + extra), p, nb + extra) == v


@CASES
@given(packed_vectors(), st.data())
def test_weighted_rotate_sum_matches_schoolbook(case, data):
    p, v, nb = case
    shifts = data.draw(st.lists(st.integers(0, p - 1), max_size=p, unique=True))
    mask = sum(1 << s for s in shifts)
    # one more byte holds a sum of up to p < 256 entries: sizing the slots
    # is left to the kernel's caller
    plain = tuple(sum(v[(z - s) % p] for s in shifts) for z in range(p))
    wide = nb + 1
    assert _unpack(_rotate_sum(_pack(v, wide), mask, p, wide), p, wide) == plain


@settings(CASES, max_examples=40)
@given(st.sampled_from((5, 7, 11, 13)).flatmap(lambda p: st.tuples(
    st.lists(st.integers(0, p - 1), min_size=1, max_size=p - 1, unique=True),
    st.lists(st.integers(2, 3 * SWEEP_RESTART_GAP), min_size=1, max_size=4, unique=True),
    st.just(p))))
def test_translate_rows_match_s_k_count(case):
    # the sweep's second s_k route against the half power, on any set (the
    # raw search recounts dilation-class representatives by row[0]) and
    # across steps and restarts alike
    members, ks, p = case
    a = Subset.from_residues(p, members)
    ks = sorted(ks)
    for k, (row,) in zip(ks, _translate_rows([a], ks), strict=True):
        assert list(row) == [s_k_count(a.translate(t), k) for t in range(p)], k


@pytest.mark.parametrize("k", [1023, 2047])
def test_power_sigma_at_p61_all_ones_exponents(k):
    rng = __import__("random").Random(k)
    for a in (Subset.interval(61, 30), Subset.from_residues(61, rng.sample(range(61), 17))):
        sigma = power_sigma(a, k)
        assert sum(sigma) == a.size**k
        assert s_k_count(a, k) == sum(sigma[x] for x in a.members())


# --- the squaring: n*n mod 2^bits - 1 by halving the modulus --------------------

PRIMES_TO_61 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)


@st.composite
def square_operands(draw, max_nb):
    """(n, bits) at a chain's width bits = 8*nb*p: n is 0, 1, 2^bits - 2,
    2^bits - 1 (zero mod 2^bits - 1) or any value below 2^bits."""
    bits = 8 * draw(st.integers(1, max_nb)) * draw(st.sampled_from(PRIMES_TO_61))
    top = (1 << bits) - 1
    return draw(st.sampled_from((0, 1, top - 1, top)) | st.integers(0, top)), bits


@pytest.mark.parametrize("threshold, max_nb", [(0, 64), (RECENTRE_BYTES, 200)])
@settings(CASES, max_examples=150)
@given(st.data())
def test_square_matches_the_fold(threshold, max_nb, data):
    # threshold 0 halves every even width down to an odd one; at the chain's
    # own threshold only operands past 8*RECENTRE_BYTES bits are halved
    n, bits = data.draw(square_operands(max_nb))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(counting, "RECENTRE_BYTES", threshold)
        got = _square(n, bits)
    assert 0 <= got < 1 << bits
    assert (got - _fold(n * n, bits)) % ((1 << bits) - 1) == 0


def test_narrow_slot_is_an_invariant_error(monkeypatch):
    # a slot one byte short carries into its neighbour: the entries then
    # fall short of |A|^k (or of the product of the sizes), and power_sigma
    # and sigma_vector raise rather than return them
    real = counting._slot_bytes
    monkeypatch.setattr(counting, "_slot_bytes", lambda bound: max(1, real(bound) - 1))
    a = Subset.interval(61, 30)
    # the sweep starts from the packed power, never split by power_sigma, so
    # it checks its starting correlation itself
    for call in (lambda: power_sigma(a, 1023), lambda: s_k_count(a, 2047),
                 lambda: next(_translate_rows([a], [1023]))):
        with pytest.raises(InvariantError, match=r"does not sum to \|A\|\^"):
            call()
    with pytest.raises(InvariantError, match="does not sum to the product of their sizes"):
        sigma_vector([a] * 8)


@pytest.mark.parametrize("ks", [[2], [5, 6]])
def test_sweep_checks_the_correlation_it_starts_from(monkeypatch, ks):
    # a chain whose offset m is one too large passes its own re-centring
    # checks; the sweep's start, which adds |R|*m to every slot, must refuse
    # it at its first k, before any step
    real = counting._power_packed

    def off_by_one(a, k):
        m, packed, nb = real(a, k)
        return m + 1, packed, nb

    monkeypatch.setattr(counting, "_power_packed", off_by_one)
    rep = Subset.interval(7, 3)
    with pytest.raises(InvariantError, match=rf"C\^\({ks[0]}\) of \[0, 1, 2\].*does not sum"):
        next(_translate_rows([rep], ks))


# --- the centred chain: sigma^(n) = m + e -------------------------------------

# every squared operand is re-centred first, or none is
EVERY, NEVER = 0, 10**12


@pytest.mark.parametrize("threshold", [EVERY, NEVER])
@settings(CASES, max_examples=150)
@given(sets_of_all_sizes((3, 5, 7, 11, 13, 17, 19, 23)), st.integers(1, 64))
def test_centred_chain_matches_brute_powers(threshold, a, k):
    sigma = brute_power(a, k)
    s_k = sum(sigma[x] for x in a.members())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(counting, "RECENTRE_BYTES", threshold)
        assert power_sigma(a, k) == sigma
        if k >= 2:
            assert s_k_count(a, k) == s_k
        # the sweep's start adds the offset back: row[t] is entry -(k-1)t of
        # the correlation, sum_{y in A} sigma^(k)(y - (k-1)t) (the empty set's
        # all-zero row included)
        (row,), = _translate_rows([a], [k])
        assert list(row) == [sum(sigma[(y - (k - 1) * t) % a.p] for y in a.members())
                             for t in range(a.p)]
    if k >= 2 and a.size ** k <= 3**8:
        assert s_k == brute_s_k(a, k)


def test_centred_chain_moves_the_minimum_into_the_offset(monkeypatch):
    # above the threshold the chain's offset is positive and the packed
    # entries e = sigma - m are spread only: below |A|^n / p on average
    monkeypatch.setattr(counting, "RECENTRE_BYTES", EVERY)
    a = Subset.interval(61, 30)
    m, packed, nb = _power_packed(a, 1023)
    e = _split(a, 1023, m, packed, nb)
    assert m > 0 and min(e) >= 0
    assert tuple(m + x for x in e) == power_sigma(a, 1023)
    assert max(e).bit_length() < (30**1023 // 61).bit_length()


@pytest.mark.parametrize("threshold", [EVERY, NEVER])
def test_offset_one_too_large_is_an_invariant_error(threshold, monkeypatch):
    # a wrong offset breaks p*m + sum(e) = |A|^n at the split, also where the
    # packed entries are right
    monkeypatch.setattr(counting, "RECENTRE_BYTES", threshold)
    for a, k in ((Subset.interval(61, 30), 2047), (Subset.interval(13, 13), 40),
                 (Subset.from_residues(23, [0, 5, 6, 11]), 300)):
        m, packed, nb = _power_packed(a, k)
        _split(a, k, m, packed, nb)
        for wrong in (m + 1, m - 1):
            with pytest.raises(InvariantError, match=r"does not sum to \|A\|\^"):
                _split(a, k, wrong, packed, nb)


def test_repack_into_a_narrow_slot_is_an_invariant_error():
    # the chain re-packs split entries at the bytes of their maximum: an
    # entry the slot cannot hold (or a negative one) raises, it never wraps
    for v, nb in (((256, 0, 1), 1), ((0, 1 << 16, 3), 2), ((-1, 0, 0), 1), ((5, -2, 0), 3)):
        with pytest.raises(InvariantError, match="does not fit"):
            _pack(v, nb)


@pytest.mark.parametrize("call, expected", [
    (lambda: sigma_vector([Subset(7, 1), Subset(11, 1)]), "ValueError: mismatched moduli"),
    (lambda: power_sigma(Subset(7, 3), 0), "ValueError: power_sigma needs k >= 1, got 0"),
], ids=["sigma-mixed-moduli", "power-k-0"])
def test_guards(call, expected):
    assert outcome(call) == expected
