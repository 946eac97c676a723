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
power_sigma runs a square-and-shift-add chain over the bits of k, where a
squaring is one bigint product (CPython's Karatsuba) and a fold.  Entries
grow like a^k; for p = 61 and |A| = 30 an exact s_k takes 0.23-0.29 s at
k = 10^4 and 9.5-10.7 s at k = 10^5 (2-vCPU x86 host, CPython 3.11.7).

s_k has two routes, and each search recounts its attainers by the one it
did not search with.  s_k_count needs only the power k // 2 and a shift-add
rho sum.  _translate_rows, the sweep behind every extremal search, gives
for an ascending k-range the translate rows s_k(R + t), t = 0..p-1, of each
representative R off its correlation, kept packed in one bigint and
stepped k -> k+1 by a shift-add instead of recomputing sigma^(k) at every
k.  The routes share the chain and the shift-add, not their schedules (the
chain runs to k // 2 for s_k_count, to the first k for the sweep), so a
recount catches a search that misreads, misranks or mis-steps its values.
Every packed vector split out after a chain is checked against its exact
total (|A|^k for power_sigma, |A|^(k+1) for the sweep's start), which
catches a slot too narrow, and a shared kernel whose lie changes that total
on both routes at once.
"""

from __future__ import annotations

from operator import itemgetter, mul
from typing import Iterator, Sequence

from .core import InvariantError, Subset

CountVector = tuple[int, ...]

# a sweep restarts from the chain rather than step across a gap of more k
# values than this: a restart measured as 17-235 steps for p <= 23, k <= 3000
SWEEP_RESTART_GAP = 16


def indicator(a: Subset) -> CountVector:
    return tuple((a.mask >> x) & 1 for x in range(a.p))


def _reflect(v: CountVector) -> CountVector:
    """x -> v(-x)."""
    return v[:1] + v[:0:-1]


def _pack(v: CountVector, nb: int) -> int:
    """Entry i (0 <= v[i] < 256^nb) in bytes [i*nb, (i+1)*nb) of one
    little-endian integer; one-byte slots (every chain's starting indicator)
    go through bytes() in C."""
    if nb == 1:
        return int.from_bytes(bytes(v), "little")
    return int.from_bytes(b"".join([x.to_bytes(nb, "little") for x in v]), "little")


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


def _step(packed: int, nb: int, bound: int, a: Subset) -> tuple[int, int]:
    """A chain's step by the set a: the packed vector re-slotted to hold
    entries up to bound (never narrowed: an empty factor makes bound 0) and
    shift-added by a's members, and its slot bytes."""
    wide = max(nb, _slot_bytes(bound))
    return _rotate_sum(_reslot(packed, a.p, nb, wide), a.mask, a.p, wide), wide


def sigma_vector(sets: Sequence[Subset]) -> CountVector:
    """Tuple-sum multiplicities for one set per factor (k = len(sets) >= 1).

    The packed indicator of sets[0] is stepped by each later set.  Raises
    InvariantError unless the entries sum to the product of the sizes: a
    slot too narrow carries into its neighbour and lowers that total."""
    if not sets:
        raise ValueError("need at least one factor set")
    p = sets[0].p
    if any(s.p != p for s in sets):
        raise ValueError("mismatched moduli")
    packed, nb, bound = _pack(indicator(sets[0]), 1), 1, sets[0].size
    for s in sets[1:]:
        bound *= s.size
        packed, nb = _step(packed, nb, bound, s)
    sigma = _unpack(packed, p, nb)
    if sum(sigma) != bound:
        raise InvariantError(
            f"sigma of {len(sets)} sets (p={p}) does not sum to the product of their sizes"
        )
    return sigma


def _power_packed(a: Subset, k: int) -> tuple[int, int]:
    """sigma^(k) of a, packed and folded, and its slot bytes.

    A square-and-shift-add chain over the bits of k: a squaring is one bigint
    product and a fold, a step by A is _step.  The entries of sigma^(e) are
    >= 0 and sum to |A|^e, so before each squaring or step the slots are
    re-sized at the byte level to hold that step's |A|^e."""
    if k < 1:
        raise ValueError(f"power_sigma needs k >= 1, got {k}")
    p, size = a.p, a.size
    nb, packed, bound = 1, _pack(indicator(a), 1), size
    for bit in bin(k)[3:]:
        bound *= bound
        wide = _slot_bytes(bound)
        packed, nb = _reslot(packed, p, nb, wide), wide
        packed = _fold(packed * packed, 8 * nb * p)
        if bit == "1":
            bound *= size
            packed, nb = _step(packed, nb, bound, a)
    return packed, nb


def power_sigma(a: Subset, k: int) -> CountVector:
    """k-fold convolution power of the indicator of a single set (k >= 1).

    Raises InvariantError unless the entries sum to |A|^k: a slot too narrow
    for its entry carries into its neighbour and lowers that total."""
    packed, nb = _power_packed(a, k)
    sigma = _unpack(packed, a.p, nb)
    if sum(sigma) != a.size ** k:
        raise InvariantError(
            f"sigma^({k}) of {list(a.members())} (p={a.p}) does not sum to |A|^{k}"
        )
    return sigma


def s_count(a0: Subset, sets: Sequence[Subset]) -> int:
    """Ordered tuples (x_0, ..., x_k) in A_0 x A_1 x ... x A_k with x_0 = sum of the rest."""
    sigma = sigma_vector(sets)
    if a0.p != len(sigma):
        raise ValueError("mismatched moduli")
    return sum(sigma[x] for x in range(a0.p) if (a0.mask >> x) & 1)


def s_k_count(a: Subset, k: int) -> int:
    """s_k(A): ordered (k+1)-tuples from A^{k+1} with x_0 = x_1 + ... + x_k.

    With h = k // 2 and sigma = power_sigma(A, h), s_k = sum_y sigma(y) rho(y)
    where rho(y) = sum_{z in A} sigma^(k-h)(z - y).  For even k that is the
    packed reflection of sigma shifted and added by A; for odd k, by
    sigma^(h+1)(w) = sum_{x in A} sigma(w - x), it is shifted and added by A
    and then by -A.  So the top squaring is never formed; rho's entries sum
    to |A|^(k-h+1), which sizes its slots."""
    if k < 2:
        raise ValueError(f"s_k_count needs k >= 2, got {k}")
    p, h = a.p, k // 2
    half = power_sigma(a, h)
    nb = _slot_bytes(a.size ** (k - h + 1))
    rho = _rotate_sum(_pack(_reflect(half), nb), a.mask, p, nb)
    if k % 2:
        rho = _rotate_sum(rho, a.reflect().mask, p, nb)
    return sum(map(mul, half, _unpack(rho, p, nb)))


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
    sigma^(ks[0]) of the chain, re-slotted and shift-added by -R (and
    started again past a gap wider than SWEEP_RESTART_GAP), and stepped
    k -> k+1 by the shift-add by R.  C's entries sum to a^(k+1), so a slot
    needs (k+1) * bitlen(a) bits: slots start at the bytes the first k needs
    and double (up to the bytes of the last k) whenever the next step would
    overflow them.  The entries read right after a start are checked against
    that sum (the start bypasses power_sigma); steps are left to the recount."""
    p = reps[0].p
    a_bits = reps[0].size.bit_length()

    def slot_bytes(k: int) -> int:
        return ((k + 1) * a_bits + 7) // 8

    def start(k: int) -> tuple[int, list[int]]:
        nb = slot_bytes(k)
        states = []
        for rep in reps:
            power, power_nb = _power_packed(rep, k)
            states.append(_rotate_sum(_reslot(power, p, power_nb, nb), rep.reflect().mask, p, nb))
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


def decimal_str(n: int) -> str:
    """A count in decimal, at any size: str(int) refuses more than
    sys.get_int_max_str_digits() digits (4300 by default), and Decimal's
    exact conversion has no such limit (decimal is imported only then)."""
    try:
        return str(n)
    except ValueError:
        from decimal import Decimal

        return str(Decimal(n))


def count_vector_to_json(v: CountVector) -> list[str]:
    """Entries as decimal strings: they routinely exceed 2^53."""
    return [decimal_str(x) for x in v]
