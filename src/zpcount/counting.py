"""Exact tuple counting in Z_p by shift-adding packed indicator vectors.

Everything here is integer arithmetic on Python bigints: sigma_vector gives,
for each x, the number of ordered tuples (x_1, ..., x_k) from A_1 x ... x A_k
with x_1 + ... + x_k = x; s_count sums those multiplicities over a target set
A_0, i.e. the number of ordered (k+1)-tuples with x_0 = x_1 + ... + x_k.

A length-p vector is one integer with one fixed-width slot per entry, and
convolving by a set A is one kernel, _rotate_sum: the shift-add of the
packed vector by the members of A's mask, folded mod 2^(p*slot) - 1.
Before each step the slots are widened byte by byte to the exact entry
bound (the product of the set sizes so far); the entries are split out
once, at the end.  sigma_vector steps the indicator of A_1 by A_2, ..., A_k;
power_sigma runs a square-and-shift-add chain over the bits of k.  A
squaring, _square, needs only the square mod 2^bits - 1, and past
8*RECENTRE_BYTES bits it halves the modulus: 2^bits - 1 = (2^h - 1)(2^h + 1)
with h = bits/2, the Mersenne half recursing and the Fermat half one plain
square of half the width, joined by the CRT.  That is two half-size
squarings in place of one full product whose top half a fold throws away
(CPython's Karatsuba squares 800 kbit in 29.6 ms, _square in 15.2 ms).

The chain is centred.  sigma^(n) = a^n/p + F with |F| < rho^n, so most of
every entry's bits are a constant that a^n already tells.  The chain keeps
sigma^(n) as m + e: one exact integer offset m, and entries e >= 0 packed as
above, whose sum S = a^n - p*m is known without unpacking.  The square is
(p*m^2 + 2*m*S) + e*e, and a step by A is |A|*m + e*1_A; no entry exceeds
the sum, so S^2 and S*|A| size their slots.  An operand of RECENTRE_BYTES
or more is split out, checked (p*m + sum(e) = a^n) and re-centred before it
is squared: its minimum moves into m and the rest is re-packed at the bytes
of its maximum.  At p = 61, k = 10^5, the top squaring then multiplies
41 % fewer bits for a seeded random 30-set, and 13 % fewer for the
interval, whose rho is the largest.  Entries grow like a^k; for p = 61 and
|A| = 30 an exact s_k takes 0.036-0.061 s at k = 10^4 and 1.2-2.3 s at
k = 10^5 (the random set is the fast end, the interval the slow one),
against 0.056-0.095 s and 2.0-3.6 s with full products and folds, and
0.12 s and 4.6-4.7 s for the whole-entry chain (2-vCPU x86 host, CPython
3.11.7).

s_k has two routes, and each search recounts its attainers by the one it
did not search with.  s_k_count needs only the power k // 2 and a shift-add
rho sum.  _translate_rows, the sweep behind every extremal search, gives
for an ascending k-range the translate rows s_k(R + t), t = 0..p-1, of each
representative R off its correlation, kept packed in one bigint and
stepped k -> k+1 by a shift-add instead of recomputing sigma^(k) at every
k.  The routes share the chain and the shift-add, not their schedules (the
chain runs to k // 2 for s_k_count, to the first k for the sweep), so a
recount catches a search that misreads, misranks or mis-steps its values.
Every packed vector split out of a chain is checked against its exact
total (p*m + sum(e) = |A|^n at each re-centring and for power_sigma and
s_k_count, |A|^(k+1) for the sweep's start, which adds |R|*m back to every
slot), which catches a slot too narrow, a wrong offset, and a shared kernel
whose lie changes that total on both routes at once; an entry re-packed
into a slot it does not fit raises too.
"""

from __future__ import annotations

from operator import itemgetter, mul
from typing import Iterator, Sequence

from .core import InvariantError, Subset, _integer

CountVector = tuple[int, ...]

# a sweep restarts from the chain rather than step across a gap of more k
# values than this: a restart measured as 17-235 steps for p <= 23, k <= 3000
SWEEP_RESTART_GAP = 16

# a power chain re-centres the operand of a squaring only when its p slots
# take at least this many bytes: below, unpacking and re-packing p entries
# costs more than the narrower squaring saves.  Summed over power_sigma at
# p = 17..61, |A| = p // 2, k = 24..256, thresholds of 384 / 512 / 640 /
# 768 / 1024 bytes took 8.71 / 8.65 / 8.58 / 8.59 / 8.83 ms and no
# re-centring 11.22 ms; at k = 256 no re-centring took 12-86 % longer than
# 640 (2-vCPU x86 host, CPython 3.11.7).  It is also the one "large operand"
# width for _square, which halves its modulus only past 8*RECENTRE_BYTES =
# 5,120 bits: a full product and fold against the halving took 8.8 / 8.3 us
# at 5.2 kbit, 20.7 / 17.9 us at 8 kbit and 190 / 120 us at 32 kbit
RECENTRE_BYTES = 640


def indicator(a: Subset) -> CountVector:
    return tuple((a.mask >> x) & 1 for x in range(a.p))


def _reflect(v: CountVector) -> CountVector:
    """x -> v(-x)."""
    return v[:1] + v[:0:-1]


def _pack(v: CountVector, nb: int) -> int:
    """Entry i (0 <= v[i] < 256^nb) in bytes [i*nb, (i+1)*nb) of one
    little-endian integer; one-byte slots (every chain's starting indicator)
    go through bytes() in C.  An entry outside the slot raises
    InvariantError."""
    try:
        if nb == 1:
            return int.from_bytes(bytes(v), "little")
        return int.from_bytes(b"".join([x.to_bytes(nb, "little") for x in v]), "little")
    except (OverflowError, ValueError):  # an entry < 0 or >= 256^nb
        raise InvariantError(f"an entry does not fit a {nb}-byte slot") from None


def _fold(n: int, bits: int) -> int:
    """n mod 2^bits - 1 as a value below 2^bits: the cyclic wrap-around of a
    product or shift-sum.  One fold suffices when no slot carries; a carry
    out of the top slot (a slot too narrow) is folded again, so even a wrong
    vector still reads as p slots."""
    mask = (1 << bits) - 1
    n = (n & mask) + (n >> bits)
    while n.bit_length() > bits:
        n = (n & mask) + (n >> bits)
    return n


def _square(n: int, bits: int) -> int:
    """n*n mod 2^bits - 1 for 0 <= n < 2^bits, as a value below 2^bits,
    without forming the part of the product a fold throws away.

    With h = bits/2, 2^bits - 1 = (2^h - 1)(2^h + 1) and n = hi*2^h + lo:
    the residue mod 2^h - 1 is the square of lo + hi there (recursively),
    the one mod 2^h + 1 that of lo - hi (one plain square, reduced by its
    two h-bit halves), and as (2^h - 1)^-1 = 2^(h-1) mod 2^h + 1 they
    combine to u + (2^h - 1)*t <= 2^bits - 1.  An odd width, or one of at
    most 8*RECENTRE_BYTES bits, is squared in full and folded."""
    if bits % 2 or bits <= 8 * RECENTRE_BYTES:
        return _fold(n * n, bits)
    h = bits // 2
    mask = (1 << h) - 1
    hi, lo = n >> h, n & mask
    u = _square(_fold(lo + hi, h), h)
    v = _fermat((lo - hi) ** 2, h)
    r = v - u
    if r < 0:
        r += mask + 2
    t = _fermat(r << (h - 1), h)
    return u + (t << h) - t


def _fermat(n: int, h: int) -> int:
    """n mod 2^h + 1 for 0 <= n < 2^(2h): the low h bits less the high ones."""
    r = (n & ((1 << h) - 1)) - (n >> h)
    return r + (1 << h) + 1 if r < 0 else r


def _unpack(n: int, p: int, nb: int) -> CountVector:
    """The folded packed vector n split into its p slots of nb bytes."""
    raw = n.to_bytes(p * nb, "little")
    if nb == 1:
        return tuple(raw)
    return tuple([int.from_bytes(raw[i:i + nb], "little") for i in range(0, p * nb, nb)])


def _reslot(n: int, p: int, nb: int, wide: int) -> int:
    """The folded packed vector n (p slots of nb bytes) in slots of wide >= nb
    bytes: each slot's bytes are copied and zero-padded, with no per-entry
    integer conversion."""
    if wide == nb:
        return n
    raw = n.to_bytes(p * nb, "little")
    return int.from_bytes(bytes(wide - nb).join([raw[i:i + nb] for i in range(0, p * nb, nb)]),
                          "little")


def _slot_bytes(bound: int) -> int:
    """Bytes per slot for entries up to bound, at least one (so the empty
    set's all-zero vectors still have slots)."""
    return max(1, (bound.bit_length() + 7) // 8)


def _rotate_sum(packed: int, shifts_mask: int, p: int, nb: int) -> int:
    """A packed vector (p slots of nb bytes) convolved by a set: the sum of
    its rotations up by each member s of shifts_mask, so entry z is the sum
    of entries z - s.  The caller sizes the slots so that no sum carries; the
    shifts go into one running sum, folded once."""
    width, total, rest = 8 * nb, 0, shifts_mask
    while rest:
        low = rest & -rest
        total += packed << ((low.bit_length() - 1) * width)
        rest ^= low
    return _fold(total, width * p)


def _step(packed: int, nb: int, bound: int, p: int, mask: int) -> tuple[int, int]:
    """A chain's step by the set mask: the packed vector re-slotted to hold
    entries up to bound (never narrowed: an empty factor makes bound 0) and
    shift-added by the set's members, and its slot bytes."""
    wide = max(nb, _slot_bytes(bound))
    return _rotate_sum(_reslot(packed, p, nb, wide), mask, p, wide), wide


def sigma_vector(sets: Sequence[Subset]) -> CountVector:
    """Tuple-sum multiplicities for one set per factor (k = len(sets) >= 1),
    by _sigma_masks once the moduli are checked."""
    if not sets:
        raise ValueError("need at least one factor set")
    p = sets[0].p
    if any(s.p != p for s in sets):
        raise ValueError("mismatched moduli")
    return _sigma_masks(p, [s.mask for s in sets])


def _sigma_masks(p: int, masks: Sequence[int]) -> CountVector:
    """sigma of the sets with these masks: at least one, each of p bits,
    which the caller has checked.

    The packed indicator of masks[0] is stepped by each later set.  Raises
    InvariantError unless the entries sum to the product of the sizes: a
    slot too narrow carries into its neighbour and lowers that total."""
    packed, nb, bound = _pack([(masks[0] >> x) & 1 for x in range(p)], 1), 1, masks[0].bit_count()
    for mask in masks[1:]:
        bound *= mask.bit_count()
        packed, nb = _step(packed, nb, bound, p, mask)
    sigma = _unpack(packed, p, nb)
    if sum(sigma) != bound:
        raise InvariantError(
            f"sigma of {len(masks)} sets (p={p}) does not sum to the product of their sizes"
        )
    return sigma


def _power_packed(a: Subset, k: int) -> tuple[int, int, int]:
    """sigma^(k) of a as m + e: the exact offset m, the entries e >= 0 packed
    and folded, and their slot bytes.

    A square-and-shift-add chain over the bits of k.  With S = sum(e) =
    |A|^n - p*m at power n, a squaring is (p*m^2 + 2*m*S) + e*e, one bigint
    product of e and a fold, and a step by A is |A|*m + e*1_A, by _step.
    No entry of e exceeds S, so slots re-sized at the byte level for S^2
    (the product) and S*|A| (the step) never carry; until the first
    re-centring S = |A|^n, the whole entries' bound.  An operand of
    RECENTRE_BYTES or more is split and re-centred before it is squared:
    its minimum moves into m, and the rest is re-packed at the bytes of its
    maximum."""
    if k < 1:
        raise ValueError(f"power_sigma needs k >= 1, got {k}")
    p, size = a.p, a.size
    m, packed, nb, spread, n = 0, _pack(indicator(a), 1), 1, size, 1
    for bit in bin(k)[3:]:
        if p * nb >= RECENTRE_BYTES:
            e = _split(a, n, m, packed, nb)
            low = min(e)
            e = [x - low for x in e]
            m, spread = m + low, spread - p * low
            nb = _slot_bytes(max(e))
            packed = _pack(e, nb)
        # slots for S^2, and for this bit's step too, so that it need not
        # re-slot; never narrower than nb, which is sized for at most S
        wide = _slot_bytes(spread * spread * (size if bit == "1" else 1))
        packed = _reslot(packed, p, nb, wide)
        packed = _square(packed, 8 * wide * p)
        if m:
            m = (p * m + 2 * spread) * m
        spread, nb, n = spread * spread, wide, 2 * n
        if bit == "1":
            packed, nb = _step(packed, nb, spread * size, p, a.mask)
            m, spread, n = m * size, spread * size, n + 1
    return m, packed, nb


def _split(a: Subset, n: int, m: int, packed: int, nb: int) -> CountVector:
    """The entries e of sigma^(n) = m + e, split out of their nb-byte slots.

    Raises InvariantError unless p*m + sum(e) = |A|^n: a slot too narrow
    carries into its neighbour and lowers sum(e), and a wrong offset moves
    p*m."""
    e = _unpack(packed, a.p, nb)
    if a.p * m + sum(e) != a.size ** n:
        raise InvariantError(
            f"sigma^({n}) of {list(a.members())} (p={a.p}) does not sum to |A|^{n}"
        )
    return e


def power_sigma(a: Subset, k: int) -> CountVector:
    """k-fold convolution power of the indicator of a single set (k >= 1):
    the chain's offset added back to its entries, which _split checks sum to
    |A|^k with it (InvariantError otherwise)."""
    k = _integer("k", k)
    m, packed, nb = _power_packed(a, k)
    e = _split(a, k, m, packed, nb)
    return tuple([m + x for x in e]) if m else e


def s_count(a0: Subset, sets: Sequence[Subset]) -> int:
    """Ordered tuples (x_0, ..., x_k) in A_0 x A_1 x ... x A_k with x_0 = sum of the rest."""
    sigma = sigma_vector(sets)
    if a0.p != len(sigma):
        raise ValueError("mismatched moduli")
    return sum(sigma[x] for x in range(a0.p) if (a0.mask >> x) & 1)


def s_k_count(a: Subset, k: int) -> int:
    """s_k(A): ordered (k+1)-tuples from A^{k+1} with x_0 = x_1 + ... + x_k.

    With h = k // 2 and sigma = sigma^(h), s_k = sum_y sigma(y) rho(y) where
    rho(y) = sum_{z in A} sigma^(k-h)(z - y).  The chain gives sigma = m + e;
    for j = 1 + k mod 2, rho = |A|^j*m + rho_e, where rho_e is the
    packed reflection of e shifted and added by A (even k) or by A and then
    by -A (odd k, by sigma^(h+1)(w) = sum_{x in A} sigma(w - x)).  So
    s_k = p*m^2*|A|^j + 2*m*S*|A|^j + sum_y e(y) rho_e(y) with S = sum(e):
    the top squaring is never formed, the offset never packed, and rho_e's
    entries are at most max(e)*|A|^j, which sizes its slots."""
    if k < 2:
        raise ValueError(f"s_k_count needs k >= 2, got {k}")
    p, h = a.p, k // 2
    m, packed, nb = _power_packed(a, h)
    e = _split(a, h, m, packed, nb)
    aj = a.size ** (1 + k % 2)
    nb = _slot_bytes(max(e) * aj)
    rho = _rotate_sum(_pack(_reflect(e), nb), a.mask, p, nb)
    if k % 2:
        rho = _rotate_sum(rho, a.reflect().mask, p, nb)
    return (p * m + 2 * sum(e)) * m * aj + sum(map(mul, e, _unpack(rho, p, nb)))


def _translate_rows(reps: Sequence[Subset], ks: Sequence[int]) -> Iterator[list[tuple]]:
    """The sweep: for each k of ks (ascending), the rows (s_k(R + t) for
    t = 0, ..., p-1) of every representative R in reps (all of one size), in
    order.

    By s_k(R + t) = sum_{y in R} sigma^(k)(y - (k-1)t), row[t] is entry
    -(k-1)t of the correlation C^(k) = sum_{y in R} rot(sigma^(k), -y); for
    k = 1 mod p that entry is 0 at every t, so the row is constant, and at
    every k row[0] is s_k(R).  Rotations commute, so C^(k+1) = sum_{x in R}
    rot(C^(k), x): the state per representative is C itself, packed in one
    bigint with one slot per residue, started from the packed power
    sigma^(ks[0]) = m + e of the chain, e re-slotted and shift-added by -R
    and |R|*m added to every slot (and started again past a gap wider than
    SWEEP_RESTART_GAP), and stepped k -> k+1 by the shift-add by R.  C's
    entries sum to a^(k+1), so a slot needs _slot_bytes(a^(k+1)): slots
    start at the bytes the first k needs and double (up to the bytes of the
    last k) whenever the next step would overflow them.  The entries read
    right after a start are checked against that sum (the start bypasses
    power_sigma); steps are left to the recount."""
    p, size = reps[0].p, reps[0].size

    def slot_bytes(k: int) -> int:
        return _slot_bytes(size ** (k + 1))

    def start(k: int) -> tuple[int, list[int]]:
        nb = slot_bytes(k)
        states = []
        for rep in reps:
            m, power, power_nb = _power_packed(rep, k)
            c = _rotate_sum(_reslot(power, p, power_nb, nb), rep.reflect().mask, p, nb)
            if m:
                c = _fold(c + _pack((rep.size * m,) * p, nb), 8 * nb * p)
            states.append(c)
        return nb, states

    k = begun = ks[0]
    nb, states = start(k)
    for target in ks:
        if target - k > SWEEP_RESTART_GAP:
            k = begun = target
            nb, states = start(k)
        while k < target:
            if slot_bytes(k + 1) > nb:
                grown = min(max(slot_bytes(k + 1), 2 * nb), slot_bytes(ks[-1]))
                states = [_reslot(c, p, nb, grown) for c in states]
                nb = grown
            states = [_rotate_sum(c, rep.mask, p, nb) for c, rep in zip(states, reps)]
            k += 1
        read = itemgetter(*[-(k - 1) * t % p for t in range(p)])
        entries = [_unpack(c, p, nb) for c in states]
        if k == begun:
            for rep, c in zip(reps, entries):
                if sum(c) != rep.size ** (k + 1):
                    raise InvariantError(f"correlation C^({k}) of {list(rep.members())} "
                                         f"(p={p}) does not sum to |A|^{k + 1}")
        yield [read(c) for c in entries]


# decimal_str converts an integer of at most this many bits with one
# Decimal(n): leaves of 128 / 1024 / 4096 / 16384 bits converted a 490 kbit
# integer in 34.4 / 28.2 / 28.3 / 30.6 ms (2-vCPU x86 host, CPython 3.11.7)
DECIMAL_LEAF_BITS = 4096


def decimal_str(n: int, powers: dict | None = None) -> str:
    """A count in decimal, at any size.  str(int) refuses more than
    sys.get_int_max_str_digits() digits (4300 by default), and Decimal(n) has
    no such limit but takes quadratic time (0.27 s at 490 kbit, 4.5 s at
    2 Mbit).  So past str's limit n = hi*2^h + lo is split by bits, both
    halves are converted recursively and joined by decimal's exact multiply
    and add, subquadratic for large operands (28 ms and 140 ms).  decimal is
    imported only then; a rounded or inexact result raises InvariantError.
    The powers 2^h are kept in powers, a memo h -> Decimal that the
    conversions of several counts of one width may share."""
    try:
        return str(n)
    except ValueError:
        pass
    import decimal

    ctx = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
                          traps=[decimal.Inexact, decimal.Rounded])
    if powers is None:
        powers = {}

    def convert(x: int, w: int) -> decimal.Decimal:
        """0 <= x < 2^w."""
        if w <= DECIMAL_LEAF_BITS:
            return decimal.Decimal(x)
        h = w // 2
        if h not in powers:
            powers[h] = convert(1 << h, h + 1)
        hi = x >> h
        return ctx.add(ctx.multiply(convert(hi, w - h), powers[h]), convert(x - (hi << h), h))

    try:
        digits = str(convert(abs(n), n.bit_length()))
    except decimal.DecimalException as exc:
        raise InvariantError(f"decimal conversion of a {n.bit_length()}-bit count "
                             f"signalled {type(exc).__name__}") from None
    return "-" + digits if n < 0 else digits


def count_vector_to_json(v: CountVector) -> list[str]:
    """Entries as decimal strings: they routinely exceed 2^53.  The entries
    of one vector are of nearly one width, so they share the powers 2^h."""
    powers: dict = {}
    return [decimal_str(x, powers) for x in v]
