"""Exact tuple counting in Z_p via cyclic convolution of indicator vectors.

Everything here is integer arithmetic on Python bigints: sigma_vector gives,
for each x, the number of ordered tuples (x_1, ..., x_k) from A_1 x ... x A_k
with x_1 + ... + x_k = x; s_count sums those multiplicities over a target set
A_0, i.e. the number of ordered (k+1)-tuples with x_0 = x_1 + ... + x_k.

Convolutions use Kronecker substitution: a length-p vector becomes one
integer with one fixed-width slot per entry, a cyclic product becomes one
bigint product folded mod 2^(p*slot) - 1, and CPython's Karatsuba does the
work.  power_sigma stays packed from the indicator to the end of one
square-and-shift-add chain over the bits of k: a squaring is one bigint
product and a fold, a step by A is an |A|-term shift-add of the packed
vector (_rotate_sum, also the kernel of s_k_count's rho sum and of the
extremal sweep), and between steps the slots are widened byte by byte to
the exact entry bound |A|^e; the entries are split out once, at the end.
s_k_count needs only the power k // 2.  Entries grow like a^k; for p = 61
and |A| = 30 an exact s_k takes 0.23-0.29 s at k = 10^4 and 9.5-10.7 s at
k = 10^5 (2-vCPU x86 host, CPython 3.11.7).
"""

from __future__ import annotations

from operator import mul
from typing import Iterable, Sequence

from .core import InvariantError, Subset

CountVector = tuple[int, ...]


def indicator(a: Subset) -> CountVector:
    return tuple((a.mask >> x) & 1 for x in range(a.p))


def _reflect(v: CountVector) -> CountVector:
    """x -> v(-x)."""
    return v[:1] + v[:0:-1]


def _pack(v: CountVector, nb: int) -> int:
    """Entry i in bytes [i*nb, (i+1)*nb) of one little-endian integer.

    One-byte slots (small p, small entries: the many tiny sigma_vector calls
    of the threshold-set sweeps) go through bytes() in C, in and out, which
    keeps them as fast as the O(p^2) loop was."""
    try:
        if nb == 1:
            return int.from_bytes(bytes(v), "little")
        return int.from_bytes(b"".join([x.to_bytes(nb, "little") for x in v]), "little")
    except (OverflowError, ValueError):
        raise ValueError("convolution needs non-negative entries") from None


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
    """Fold n mod 2^(p*nb*8) - 1 (cyclic wrap-around) and split it into slots."""
    raw = _fold(n, p * nb * 8).to_bytes(p * nb, "little")
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


def _rotate_sum(packed: int, shifts: Iterable[int], width: int, bits: int,
                weights: Iterable[int] | None = None) -> int:
    """Sum of the cyclic rotations of a packed vector (slots of width bits,
    bits = p * width in all) up by each shift s in [0, p), each times its
    weight if weights (one per shift) are given: entry z of the result is
    the (weighted) sum over the shifts of entry z - s.  The caller sizes the
    slots so that no such sum carries; the non-cyclic shifts are added into
    one running sum as they are made and folded once."""
    if weights is None:
        total = sum(packed << (s * width) for s in shifts)
    else:
        total = sum(w * (packed << (s * width)) for s, w in zip(shifts, weights))
    return _fold(total, bits)


def cyclic_convolve(u: CountVector, v: CountVector) -> CountVector:
    """(u * v)(x) = sum_y u(y) v(x - y), indices mod p; entries must be >= 0."""
    p = len(u)
    if len(v) != p:
        raise ValueError("convolution needs equal-length vectors")
    # slots hold the inputs and every coefficient of u * v: each is at most
    # p * max(u) * max(v), so slots never carry into each other
    nb = (max(u).bit_length() + max(v).bit_length() + p.bit_length() + 7) // 8
    packed = _pack(u, nb)
    other = packed if v is u else _pack(v, nb)
    return _unpack(packed * other, p, nb)


def sigma_vector(sets: Sequence[Subset]) -> CountVector:
    """Tuple-sum multiplicities for one set per factor (k = len(sets) >= 1)."""
    if not sets:
        raise ValueError("need at least one factor set")
    p = sets[0].p
    if any(s.p != p for s in sets):
        raise ValueError("mismatched moduli")
    acc = indicator(sets[0])
    for s in sets[1:]:
        acc = cyclic_convolve(acc, indicator(s))
    return acc


def _power_packed(a: Subset, k: int) -> tuple[int, int]:
    """sigma^(k) of a, packed and folded, and its slot bytes.

    A square-and-shift-add chain over the bits of k: a squaring is one bigint
    product and a fold, a step by A an |A|-term shift-add.  The entries of
    sigma^(e) are >= 0 and sum to |A|^e, so before each step the slots are
    re-sized at the byte level to hold that step's |A|^e."""
    if k < 1:
        raise ValueError(f"power_sigma needs k >= 1, got {k}")
    p, size, shifts = a.p, a.size, a.members()
    nb, packed, bound = 1, _pack(indicator(a), 1), size
    for bit in bin(k)[3:]:
        bound *= bound
        wide = _slot_bytes(bound)
        packed, nb = _reslot(packed, p, nb, wide), wide
        packed = _fold(packed * packed, 8 * nb * p)
        if bit == "1":
            bound *= size
            wide = _slot_bytes(bound)
            packed, nb = _reslot(packed, p, nb, wide), wide
            packed = _rotate_sum(packed, shifts, 8 * nb, 8 * nb * p)
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
    where rho(y) = sum_d w(d) sigma(d - y): w = 1_A for even k, and for odd k
    w(d) = #{(x, z) in A^2 : x - z = d}.  rho is a weighted sum of rotations
    of the packed reflection of sigma, so the top squaring is never formed;
    its entries sum to |A|^(k-h+1), which sizes its slots."""
    if k < 2:
        raise ValueError(f"s_k_count needs k >= 2, got {k}")
    p, h = a.p, k // 2
    half = power_sigma(a, h)
    shifts, weights = a.members(), None
    if k % 2:
        ind = indicator(a)
        diffs = cyclic_convolve(ind, _reflect(ind))
        shifts = [d for d, w in enumerate(diffs) if w]
        weights = [diffs[d] for d in shifts]
    nb = _slot_bytes(a.size ** (k - h + 1))
    rho = _rotate_sum(_pack(_reflect(half), nb), shifts, 8 * nb, 8 * nb * p, weights)
    return sum(map(mul, half, _unpack(rho, p, nb)))


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
