"""Threshold-set machinery: nested level sets of sigma, partial-sum bounds,
the critical index r0, the k=2 equality classifier, and extremality tests.

For sets A_1, ..., A_k the level set N_r = {x : sigma(x) >= r} is nested in r;
n_r = |N_r| starts at n_0 = p and hits 0 at r_max.  Partial sums of n_r over
interval configurations of the same sizes are the exact lower bound against
which arbitrary configurations are compared.

Each repeated question is answered once: one cached profile per tail (and per
tuple of interval sizes), r0 once per size vector, the classifier's facts that
no r0 changes once per ordered pair, and one cached extremality record per
(head size, tail), holding N_{r0+1}, the complement of N_{r0} and the tie at
r0, so a head is checked by two word operations.  Every entry point checks
its tail's moduli in the one loop that builds the cache key.
"""

from __future__ import annotations

import enum
from functools import lru_cache
from itertools import accumulate
from typing import Sequence

from .core import (
    InvariantError, Subset, _dilate_mask, _integer, _Record, _rotate, _run_count, prime_context,
)
from .counting import CountVector, _sigma_masks


class ThresholdProfile(_Record):
    """The level sets N_r = {x : sigma(x) >= r} of one tail, r = 0..r_max,
    as p-bit masks: masks[0] = Z_p, masks[r_max] = empty.  n[r] = |N_r| and
    the partial sums of n are derived from the masks."""

    __slots__ = ("p", "masks", "n", "_sums")
    _fields = ("p", "masks")

    def __init__(self, p: int, masks: tuple[int, ...]) -> None:
        if not masks or masks[0] != prime_context(p).full_mask or masks[-1] != 0:
            raise InvariantError("level sets must run from Z_p down to the empty set")
        for outer, inner in zip(masks, masks[1:]):
            if inner & ~outer:
                raise InvariantError("level sets must be nested")
        n = tuple([x.bit_count() for x in masks])
        setfield = object.__setattr__
        setfield(self, "p", p)
        setfield(self, "masks", masks)
        setfield(self, "n", n)
        setfield(self, "_sums", tuple(accumulate(n[1:], initial=0)))

    @property
    def r_max(self) -> int:
        return len(self.masks) - 1

    def mask(self, r: int) -> int:
        """N_r as a mask: Z_p for r <= 0, empty beyond r_max."""
        return self.masks[max(r, 0)] if r < len(self.masks) else 0

    def n_r(self, r: int) -> int:
        if r < 0:
            raise ValueError("r must be nonnegative")
        return self.n[r] if r < len(self.n) else 0

    def partial_sum(self, r: int) -> int:
        """sum_{i=1}^{r} n_i (terms beyond r_max are zero)."""
        if r < 0:
            raise ValueError("r must be nonnegative")
        sums = self._sums
        return sums[r] if r < len(sums) else sums[-1]

    def to_json(self) -> dict:
        return {"p": self.p, "n": list(self.n), "r_max": self.r_max}


def profile_from_sigma(p: int, sigma: CountVector) -> ThresholdProfile:
    """The one place sigma is thresholded: residues are bucketed by sigma(x)
    and the buckets OR-ed downwards, N_r = N_{r+1} | {x : sigma(x) = r}."""
    buckets = [0] * (max(sigma) + 1)
    for x, v in enumerate(sigma):
        buckets[v] |= 1 << x
    masks = [0]
    for bucket in reversed(buckets):
        masks.append(masks[-1] | bucket)
    return ThresholdProfile(p, tuple(reversed(masks)))


@lru_cache(maxsize=256)  # a sweep reuses one tail across every head and r
def _tail_profile(p: int, masks: tuple[int, ...]) -> ThresholdProfile:
    return profile_from_sigma(p, _sigma_masks(p, masks))


def _tail_key(sets: Sequence[Subset], p: int) -> tuple[int, ...] | None:
    """The tail's masks, its cache key, or None if a set is not modulo p: one
    plain loop, run by every entry point before any cache lookup."""
    masks = []
    for s in sets:
        if s.p != p:
            return None
        masks.append(s.mask)
    return tuple(masks)


def threshold_profile(sets: Sequence[Subset]) -> ThresholdProfile:
    """Level sets of the tail A_1, ..., A_k, cached per (p, tail masks)."""
    p = sets[0].p if sets else 0
    masks = _tail_key(sets, p)
    if not masks:
        raise ValueError("need at least one factor set, all with the same modulus")
    return _tail_profile(p, masks)


def threshold_set(sets: Sequence[Subset], r: int) -> Subset:
    """N_r = {x : sigma(x) >= r}; N_0 = Z_p."""
    prof = threshold_profile(sets)
    return Subset(prof.p, prof.mask(r))


@lru_cache(maxsize=256)
def interval_profile(p: int, sizes: tuple[int, ...]) -> ThresholdProfile:
    """Threshold profile of the initial intervals [0, a_i - 1], cached per (p, sizes)."""
    if not sizes:
        raise ValueError("need at least one factor size")
    for a in sizes:
        if not 0 <= a <= p:
            raise ValueError(f"interval length {a} out of range for p={p}")
    return _tail_profile(p, tuple((1 << a) - 1 for a in sizes))


def critical_r0(a_sizes: Sequence[int], p: int) -> int:
    """The unique r0 with n_r([a_1],..,[a_k]) > p - a_0 exactly for r <= r0.

    a_sizes = (a_0, a_1, ..., a_k); needs 0 < a_0 < p so that both strict
    sides are nonempty (n_0 = p > p - a_0 and eventually n_r = 0 <= p - a_0).
    """
    return _interval_r0(p, *_head_and_rest(a_sizes, p))


def _head_and_rest(a_sizes: Sequence[int], p: int) -> tuple[int, tuple[int, ...]]:
    """(a_0, (a_1, ..., a_k)), checked: p prime, k >= 1, 0 < a_0 < p, a_i in [0, p]."""
    prime_context(p)
    if len(a_sizes) < 2:
        raise ValueError("need a_0 plus at least one factor size")
    a0, rest = _integer("a_0", a_sizes[0]), tuple(_integer("size", a) for a in a_sizes[1:])
    if not 0 < a0 < p:
        raise ValueError(f"critical index needs 0 < a_0 < p, got a_0={a0}")
    if any(not 0 <= a <= p for a in rest):
        raise ValueError("factor sizes must lie in [0, p]")
    return a0, rest


@lru_cache(maxsize=256)
def _interval_r0(p: int, a0: int, rest: tuple[int, ...]) -> int:
    """critical_r0 of the checked sizes a_0, rest."""
    prof, r = interval_profile(p, rest), 0
    while prof.n_r(r + 1) > p - a0:
        r += 1
    return r


def pollard_lhs_rhs(sets: Sequence[Subset], r: int) -> tuple[int, int]:
    """(sum_{i<=r} n_i(A_1..A_k), same for the intervals of equal sizes)."""
    if r < 1:
        raise ValueError("partial sums need r >= 1")
    prof = threshold_profile(sets)
    iprof = interval_profile(prof.p, tuple([s.mask.bit_count() for s in sets]))
    return prof.partial_sum(r), iprof.partial_sum(r)


class EqualityTag(enum.Enum):
    R0_EQUALS_A1 = "R0_EQUALS_A1"
    LARGE_SUM = "LARGE_SUM"
    REFLECTION_PAIR = "REFLECTION_PAIR"
    COMPLEMENT_REFLECTION_PAIR = "COMPLEMENT_REFLECTION_PAIR"
    COMMON_DIFFERENCE_APS = "COMMON_DIFFERENCE_APS"
    NONE = "NONE"


class EqualityCase(_Record):
    """First matching equality case plus every case that matched."""

    __slots__ = _fields = ("tag", "matches", "reflection_point", "complement_point",
                           "common_difference")

    def __init__(
        self,
        tag: EqualityTag,
        matches: tuple[EqualityTag, ...],
        reflection_point: int | None = None,  # g with A_2 = g - A_1
        complement_point: int | None = None,  # g with A_2 = g - (Z_p \ A_1)
        common_difference: int | None = None,  # smallest shared progression step
    ) -> None:
        setfield = object.__setattr__
        setfield(self, "tag", tag)
        setfield(self, "matches", matches)
        setfield(self, "reflection_point", reflection_point)
        setfield(self, "complement_point", complement_point)
        setfield(self, "common_difference", common_difference)

    def to_json(self) -> dict:
        return {
            "tag": self.tag.value,
            "matches": [t.value for t in self.matches],
            "reflection_point": self.reflection_point,
            "complement_point": self.complement_point,
            "common_difference": self.common_difference,
        }


def _reflection_point(p: int, m1: int, m2: int) -> int | None:
    """g such that A_2 = g - A_1, unique if it exists (p prime)."""
    neg, full = _dilate_mask(m1, p - 1, p), prime_context(p).full_mask
    return next((g for g in range(p) if _rotate(neg, g, p, full) == m2), None)


@lru_cache(maxsize=256)  # a sweep classifies one pair at every r0 before the next
def _pair_facts(p: int, m1: int, m2: int) -> tuple[int | None, int | None, int | None]:
    """The pair's facts that no r0 changes: reflection point (if |A_1| = |A_2|),
    complement-reflection point (if |A_1| + |A_2| = p), least common difference."""
    s1, s2 = m1.bit_count(), m2.bit_count()
    full = prime_context(p).full_mask
    g = _reflection_point(p, m1, m2) if s1 == s2 else None
    gc = _reflection_point(p, m1 ^ full, m2) if s1 + s2 == p else None
    # both sets are proper and nonempty here, so each is an arithmetic
    # progression of difference d iff it is one run along d
    d = next((x for x in range(1, p)
              if _run_count(m1, x, p, full) == 1 == _run_count(m2, x, p, full)), None)
    return g, gc, d


def classify_equality_k2(a1: Subset, a2: Subset, r0: int) -> EqualityCase:
    """Equality cases for the two-factor partial-sum bound at index r0.

    Requires 1 <= r0 <= |A_1| <= |A_2| < p.  A NONE tag corresponds to strict
    inequality of the partial sums at r0; the correspondence is exhaustively
    testable and is not assumed here.

    The complement-reflection case (r0 = 1, a_1 + a_2 = p, A_2 = g - (Z_p \\ A_1))
    always gives equality: sigma(x) = a_1 - |A_1 meet (A_1 + x - g)| vanishes
    only at x = g because a proper nonempty subset has trivial stabilizer, so
    n_1 = p - 1 matches the interval value.  No list without it survives an
    exhaustive sweep at p = 7.
    """
    p, m1, m2 = a1.p, a1.mask, a2.mask
    if a2.p != p:
        raise ValueError("mismatched moduli")
    s1, s2 = m1.bit_count(), m2.bit_count()
    if not 1 <= r0 <= s1 <= s2 < p:
        raise ValueError(f"need 1 <= r0 <= |A_1| <= |A_2| < p, got r0={r0}, sizes=({s1},{s2})")
    g, gc, d = _pair_facts(p, m1, m2)
    g = g if s1 == r0 + 1 else None  # found only when s1 == s2
    gc = gc if r0 == 1 else None  # found only when s1 + s2 == p
    matches: list[EqualityTag] = []
    if r0 == s1:
        matches.append(EqualityTag.R0_EQUALS_A1)
    if s1 + s2 >= p + r0:
        matches.append(EqualityTag.LARGE_SUM)
    if g is not None:
        matches.append(EqualityTag.REFLECTION_PAIR)
    if gc is not None:
        matches.append(EqualityTag.COMPLEMENT_REFLECTION_PAIR)
    if d is not None:
        matches.append(EqualityTag.COMMON_DIFFERENCE_APS)
    tag = matches[0] if matches else EqualityTag.NONE
    return EqualityCase(tag, tuple(matches), g, gc, d)


@lru_cache(maxsize=256)  # a sweep checks every head size against one tail before the next
def _extremality_record(p: int, a0: int, masks: tuple[int, ...]) -> tuple[int, int, bool]:
    """(N_{r0+1}, Z_p minus N_{r0}, partial sums tie at r0) for heads of size
    a0 against the tail masks; the tie holds trivially at r0 = 0."""
    sizes = (a0,) + tuple([m.bit_count() for m in masks])
    if any(not 1 <= a <= p - 1 for a in sizes):
        raise ValueError("extremality conditions need all sizes in [1, p-1]")
    r0 = _interval_r0(p, a0, sizes[1:])  # sizes are checked ints: skip critical_r0's reading
    prof = _tail_profile(p, masks)
    tie = r0 == 0 or prof.partial_sum(r0) == interval_profile(p, sizes[1:]).partial_sum(r0)
    return prof.mask(r0 + 1), prof.masks[0] ^ prof.mask(r0), tie


def check_extremality_conditions(a0: Subset, sets: Sequence[Subset]) -> tuple[bool, bool, bool]:
    """(A_0 misses N_{r0+1}, A_0 covers the complement of N_{r0}, partial sums tie at r0).

    All three hold together exactly when the configuration minimizes the
    tuple count among configurations of its sizes.  Sizes must lie in [1, p-1].
    """
    p, head = a0.p, a0.mask
    masks = _tail_key(sets, p)
    if masks is None:
        raise ValueError("mismatched moduli")
    above, outside, tie = _extremality_record(p, head.bit_count(), masks)
    return head & above == 0, head & outside == outside, tie


def optimal_interval_translate(a_sizes: Sequence[int], p: int) -> int:
    """Translate t making [a_0]+t meet every level set of the intervals minimally.

    The level sets of ([a_1], ..., [a_k]) are intervals sharing the centre
    c = sum(a_i - 1)/2, so in doubled coordinates (2c mod 2p) the complement
    of [a_0]+t can be centred on c (same parity) or half a step off (parity
    mismatch); both adjacent candidates are tried and the returned t is
    verified against |I ∩ N_r| = max(0, n_r + a_0 - p) for every r >= 1.
    """
    a0, rest = _head_and_rest(a_sizes, p)
    prof = interval_profile(p, rest)
    doubled_centre = sum(a - 1 for a in rest) % (2 * p)
    # complement of [a_0]+t spans t+a_0 .. t+p-1: doubled centre 2t + a_0 + p - 1
    rhs = (doubled_centre - a0 - p + 1) % (2 * p)
    if rhs % 2 == 0:
        candidates = [(rhs // 2) % p]
    else:
        candidates = [((rhs + 1) // 2) % p, ((rhs - 1) // 2) % p]
    for t in candidates:
        head = Subset.interval(p, a0, t).mask
        if all((head & prof.masks[r]).bit_count() == max(0, prof.n[r] + a0 - p)
               for r in range(1, prof.r_max + 1)):
            return t
    raise InvariantError("no translate satisfies the clipped-intersection identity")
