"""Residue arithmetic, affine maps, and subset orbits in Z_p for odd primes p < 64.

Subsets are p-bit membership words packed into a Python int (bit x set iff
residue x is a member), so translation is a bit rotation and set algebra is
word arithmetic.  The affine group {x -> xi*x + eta : xi != 0} acts on
subsets.  One dilation kernel, _dilation_orbit, steps a word through its
p-1 dilations by a primitive root g of p, one lookup per byte in per-p
tables built on first use; it serves Subset.canonical,
Subset.dilation_class_canonical and build_orbit_catalog (_dilate_mask, the
member loop for one multiplier, serves Subset.dilate).  One translation
kernel, _translate_min, finds a set's smallest translate among the members
that follow a longest run of non-members; it serves Subset.canonical and
build_orbit_catalog.  The catalog visits the necklaces (sets that are their
own smallest translate), which _necklaces generates from their gap words,
largest gap first, in ascending order, and stops at the one that completes
its coverage sum; _orbit_count, Burnside's count of the orbits, checks what
it found.  One run-count kernel, _run_count, decides
progressions: a set with 0 < |A| < p is an arithmetic progression of
difference d exactly when it is a single run along x -> x + d, one word
operation, so Subset.is_interval is its d = 1 case and
Subset.arith_prog_differences tries every d.

Every record of the package (here, in extremal, pollard and fourier) is a
_Record: a slotted, immutable value whose fields are set once by __init__
and compared, hashed, printed and pickled as one tuple, by the rules of a
frozen dataclass, without importing dataclasses (which pulls in inspect and
generates methods at import, most of the package's import time).  Records
built in bulk (Subset, EqualityCase, ThresholdProfile, FourierProfile)
write their own __init__, and Subset its own comparisons.
"""

from __future__ import annotations

import math
from functools import lru_cache, total_ordering
from operator import index
from typing import Iterable, Iterator

VERSION = "0.1.0"  # reported by `zpcount --version` and as zpcount.__version__

# p < 64 is assumed by two bounds in fourier, F_value's summation slop and
# t_good_scan's p*theta < 400; masks are Python ints of any width
MAX_P = 64
ORBIT_ENUM_GUARD = 10**8  # refuse catalogs with more than this many subsets


class SizeGuardError(ValueError):
    """Raised when a request exceeds the supported problem size."""


class InvariantError(RuntimeError):
    """An internal consistency check failed: two exact routes to the same
    count disagree, or a structural invariant (nested level sets, an orbit
    partition, a sign window) does not hold.  Raised (never asserted) so it
    also fires under -O."""


class PrecisionError(RuntimeError):
    """Raised when a spectral margin stays unresolved at the precision cap.
    Defined here, with the exact layers, so a caller can catch it without
    importing the spectral layer (zpcount.fourier re-exports it)."""


def is_odd_prime(n: int) -> bool:
    if n < 3 or n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _integer(name: str, value: object) -> int:
    try:
        return index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


class _Record:
    """An immutable record.  A subclass names its fields in _fields, a prefix
    of its __slots__ (later slots are private state outside comparisons),
    and may give defaults for trailing fields in _defaults.  A record built
    in bulk sets its slots in its own __init__, with object.__setattr__.
    Equality, hash, repr and pickling follow a frozen dataclass: two records
    are equal only when they are of one class and their field tuples are
    equal."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init__(self, *args: object, **kwargs: object) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):
            given = dict(zip(fields, args))
            values = {**self._defaults, **given, **kwargs}
            if (len(args) > len(fields) or given.keys() & kwargs.keys()
                    or values.keys() != set(fields)):
                raise TypeError(f"{type(self).__name__} takes the fields {', '.join(fields)}")
            args = [values[name] for name in fields]
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to {name!r} of an immutable {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r} of an immutable {type(self).__name__}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __reduce__(self) -> tuple:
        return self.__class__, self._values()


class PrimeContext(_Record):
    """Validated odd prime p with its inverse table (inv[x] = x^{-1} mod p
    for x in 1..p-1, inv[0] = 0) and its full membership word."""

    __slots__ = _fields = ("p", "inv", "full_mask")


@lru_cache(maxsize=None)
def prime_context(p: int) -> PrimeContext:
    if not isinstance(p, int) or not is_odd_prime(p) or p >= MAX_P:
        raise SizeGuardError(f"p must be an odd prime in [3, {MAX_P}), got {p!r}")
    inv = tuple(pow(x, p - 2, p) if x else 0 for x in range(p))
    return PrimeContext(p, inv, (1 << p) - 1)


class AffineMap(_Record):
    """x -> xi*x + eta mod p, with xi != 0."""

    __slots__ = _fields = ("p", "xi", "eta")

    def __init__(self, p: int, xi: int, eta: int) -> None:
        prime_context(p)
        xi, eta = _integer("xi", xi) % p, _integer("eta", eta) % p
        if xi == 0:
            raise ValueError("affine map needs an invertible multiplier")
        super().__init__(p, xi, eta)

    def __call__(self, x: int) -> int:
        return (self.xi * x + self.eta) % self.p


def _rotate(mask: int, t: int, p: int, full: int) -> int:
    # translate members by +t: bit x moves to x+t mod p
    t %= p
    if t == 0:
        return mask
    return ((mask << t) | (mask >> (p - t))) & full


def _run_count(mask: int, d: int, p: int, full: int) -> int:
    """Maximal runs of mask along x -> x + d: its members x with x + d outside."""
    return (_rotate(mask, d, p, full) & ~mask).bit_count()


def _translate_min(mask: int, p: int, full: int) -> int:
    """Smallest membership word among the p translates of mask.

    Read from bit p-1 down, the translate that moves member x to 0 opens
    with the run of non-members below x, so a smallest translate of a set
    with 0 < |A| < p moves to 0 a member that follows a longest gap.  The
    members x with x-1, ..., x-k all outside are mask AND k rotations of the
    complement; k grows until none is left, and only the members that
    survived the last step are rotated to 0 and compared."""
    gap = full ^ mask
    if not mask or not gap:
        return mask
    ring = gap | gap << p  # bit x of ring >> (p - k): x - k is outside
    cand = mask
    shift = p - 1
    while True:
        longer = cand & ring >> shift
        if not longer:
            break
        cand = longer
        shift -= 1
    best = full
    while cand:
        low = cand & -cand
        x = low.bit_length() - 1
        r = (mask >> x) | ((mask << (p - x)) & full)
        if r < best:
            best = r
        cand ^= low
    return best


def _necklaces(p: int, a: int) -> Iterator[int]:
    """The a-member masks (0 < a < p) that are their own smallest translate,
    in ascending order.

    Read from bit p-1 down to bit 0 such a mask is 0^g1 1 0^g2 1 ... 0^ga 1,
    and it is its own smallest translate exactly when its gap word
    (g1, ..., ga), which sums to p - a, is a necklace under the order that
    ranks larger gaps first (a block with more leading zeros is the smaller
    word).  So this is the Fredricksen-Kessler-Maiorana recursion over gap
    words of length a, in the fixed-content form of Ruskey and Sawada
    (SIAM J. Comput. 29, 1999): it visits necklaces and their prefixes,
    not the C(p-1, a-1) odd masks.  Each gap is tried from the largest
    allowed down, so masks come out ascending, and a branch stops once the
    gaps still to place cannot fit under g1, the largest gap.
    """
    if a == 1:
        yield 1
        return
    gaps = [0] * a

    def extend(t: int, period: int, rest: int, mask: int) -> Iterator[int]:
        # gaps[:t] are placed and the gaps t..a-1 must sum to rest
        top = gaps[t - period]
        if t == a - 1:  # the last gap is rest; a necklace needs a full period
            if rest < top or (rest == top and a % period == 0):
                yield mask << (rest + 1) | 1
            return
        room = (a - 1 - t) * gaps[0]
        g = min(top, rest)
        while g >= 0 and rest - g <= room:
            gaps[t] = g
            yield from extend(t + 1, period if g == top else t + 1, rest - g, mask << (g + 1) | 1)
            g -= 1

    total = p - a
    for g1 in range(total, (total - 1) // a, -1):  # g1 >= total / a
        gaps[0] = g1
        yield from extend(1, 1, total - g1, 1)


def _dilate_mask(mask: int, xi: int, p: int) -> int:
    out = 0
    m = mask
    while m:
        low = m & -m
        x = low.bit_length() - 1
        out |= 1 << (xi * x % p)
        m ^= low
    return out


def _primitive_root(p: int) -> int:
    """The smallest g with g^((p-1)/q) != 1 mod p for every prime q | p-1."""
    qs = [q for q in range(2, p) if (p - 1) % q == 0 and all(q % d for d in range(2, q))]
    return next(g for g in range(2, p) if all(pow(g, (p - 1) // q, p) != 1 for q in qs))


@lru_cache(maxsize=None)
def _dilation_tables(p: int) -> tuple[tuple[int, ...], ...]:
    """Byte tables for the dilation by g = _primitive_root(p): table j maps
    byte j of a membership word (residues 8j..8j+7) to the word of the
    images g*x of its members.  Built on first use, once per p.

    g must have order p-1, and this is checked here, before any catalog is
    built.  Orbits under a smaller subgroup still partition the subsets, so
    a catalog's coverage sum would hold; only its orbit count would notice
    the extra orbits."""
    g = _primitive_root(p)
    order = next(j for j in range(1, p) if pow(g, j, p) == 1)
    if order != p - 1:
        raise InvariantError(f"dilation multiplier {g} has order {order} mod {p}, not {p - 1}")
    tables = []
    for lo in range(0, p, 8):
        table = [0] * (1 << min(8, p - lo))
        for b in range(1, len(table)):
            low = b & -b
            table[b] = table[b ^ low] | 1 << (g * (lo + low.bit_length() - 1) % p)
        tables.append(tuple(table))
    return tuple(tables)


def _dilation_orbit(mask: int, p: int) -> list[int]:
    """The p-1 dilations of mask, g^j * mask for j = 0..p-2 with g the
    multiplier of _dilation_tables, each read off the last by table lookups."""
    tables = _dilation_tables(p)
    words = [mask]
    for _ in range(p - 2):
        word = 0
        for table in tables:
            word |= table[mask & 255]
            mask >>= 8
        mask = word
        words.append(mask)
    return words


@total_ordering
class Subset(_Record):
    """Subset of Z_p as a p-bit membership word, ordered by (p, mask)."""

    __slots__ = _fields = ("p", "mask")

    def __init__(self, p: int, mask: int) -> None:
        full = prime_context(p).full_mask
        mask = _integer("mask", mask)
        if not 0 <= mask <= full:
            raise ValueError(f"mask {mask:#x} out of range for p={p}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "mask", mask)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.p == other.p and self.mask == other.mask

    def __hash__(self) -> int:
        return hash((self.p, self.mask))

    def __lt__(self, other: "Subset") -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.p, self.mask) < (other.p, other.mask)

    # --- constructors -----------------------------------------------------

    @classmethod
    def from_residues(cls, p: int, residues: Iterable[int]) -> "Subset":
        mask = 0
        for x in residues:
            mask |= 1 << (x % p)
        return cls(p, mask)

    @classmethod
    def interval(cls, p: int, length: int, start: int = 0) -> "Subset":
        """{start, start+1, ..., start+length-1} mod p."""
        if not 0 <= length <= p:
            raise ValueError(f"interval length {length} out of range for p={p}")
        base = (1 << length) - 1
        return cls(p, _rotate(base, start, p, (1 << p) - 1))

    @classmethod
    def punctured_interval(cls, p: int, a: int) -> "Subset":
        """{0, ..., a-2} + {a}: an (a+1)-interval missing its penultimate point."""
        if not 2 <= a <= p - 1:
            raise ValueError(f"punctured interval needs 2 <= a <= p-1, got a={a}")
        return cls(p, ((1 << (a - 1)) - 1) | (1 << a))

    # --- basic queries ----------------------------------------------------

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    def members(self) -> tuple[int, ...]:
        return tuple(x for x in range(self.p) if self.mask >> x & 1)

    def __contains__(self, x: int) -> bool:
        return bool(self.mask >> (x % self.p) & 1)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members())

    # --- set algebra --------------------------------------------------------

    def complement(self) -> "Subset":
        return Subset(self.p, self.mask ^ prime_context(self.p).full_mask)

    def intersection(self, other: "Subset") -> "Subset":
        if self.p != other.p:
            raise ValueError("mismatched moduli")
        return Subset(self.p, self.mask & other.mask)

    # --- group actions ------------------------------------------------------

    def translate(self, t: int) -> "Subset":
        full = prime_context(self.p).full_mask
        return Subset(self.p, _rotate(self.mask, t, self.p, full))

    def dilate(self, xi: int) -> "Subset":
        xi %= self.p
        if xi == 0:
            raise ValueError("dilation by 0 is not invertible")
        return Subset(self.p, _dilate_mask(self.mask, xi, self.p))

    def reflect(self) -> "Subset":
        return self.dilate(self.p - 1)

    def apply(self, m: AffineMap) -> "Subset":
        if m.p != self.p:
            raise ValueError("mismatched moduli")
        return self.dilate(m.xi).translate(m.eta)

    def is_interval(self) -> bool:
        """Cyclically contiguous (empty, full, and singletons count)."""
        p, mask = self.p, self.mask
        full = prime_context(p).full_mask
        return mask in (0, full) or _run_count(mask, 1, p, full) == 1

    def arith_prog_differences(self) -> tuple[int, ...]:
        """All d != 0 such that the set is {x, x+d, ..., x+(size-1)d}
        (every d for the empty and full sets)."""
        p, mask = self.p, self.mask
        full = prime_context(p).full_mask
        if mask in (0, full):
            return tuple(range(1, p))
        return tuple(d for d in range(1, p) if _run_count(mask, d, p, full) == 1)

    # --- canonical forms ------------------------------------------------------

    def canonical(self) -> "Subset":
        """Smallest membership word over the p(p-1) affine images."""
        p, full = self.p, prime_context(self.p).full_mask
        return Subset(p, min(_translate_min(m, p, full) for m in _dilation_orbit(self.mask, p)))

    def dilation_class_canonical(self) -> "Subset":
        """Smallest membership word among the p-1 dilations (no translation)."""
        return Subset(self.p, min(_dilation_orbit(self.mask, self.p)))

    # --- serialization ------------------------------------------------------

    def to_json(self) -> list[int]:
        return list(self.members())

    def __repr__(self) -> str:
        return f"Subset(p={self.p}, {{{', '.join(map(str, self.members()))}}})"


def _check_claim_range(p: int, a: int) -> None:
    """The range of the structural claims (the k != 1 and k = 1 mod p
    minimizer theorems and the punctured-interval angle check), outside which
    they say nothing: p >= 7 and 3 <= a <= p-3."""
    if p < 7 or not 3 <= a <= p - 3:
        raise ValueError(f"need p >= 7 and 3 <= a <= p-3, got p={p}, a={a}")


def enumeration_guard(p: int, a: int) -> int:
    """C(p, a), or SizeGuardError if that many a-subsets are not enumerable
    (more than ORBIT_ENUM_GUARD)."""
    total = math.comb(p, a)
    if total > ORBIT_ENUM_GUARD:
        raise SizeGuardError(f"C({p},{a}) = {total} exceeds the enumeration guard")
    return total


def subset_masks_of_size(p: int, a: int) -> Iterator[int]:
    """All a-subsets of Z_p as masks, in increasing word order (Gosper).

    Guarded eagerly: C(p, a) must stay enumerable (<= 10^8)."""
    enumeration_guard(p, a)
    return _gosper_masks(p, a)


def _gosper_masks(p: int, a: int) -> Iterator[int]:
    if a == 0:
        yield 0
        return
    limit = 1 << p
    v = (1 << a) - 1
    while v < limit:
        yield v
        low = v & -v
        ripple = v + low
        v = ripple | (((v ^ ripple) >> 2) // low)


class OrbitCatalog(_Record):
    """All affine orbits of a-subsets of Z_p: reps holds the canonical
    representative of each orbit, by ascending mask, and orbit_sizes their
    sizes."""

    __slots__ = _fields = ("p", "a", "reps", "orbit_sizes")

    @property
    def stabilizer_orders(self) -> tuple[int, ...]:
        g = self.p * (self.p - 1)
        return tuple(g // s for s in self.orbit_sizes)

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "a": self.a,
            "orbit_count": len(self.reps),
            "reps": [r.to_json() for r in self.reps],
            "orbit_sizes": list(self.orbit_sizes),
            "stabilizer_orders": list(self.stabilizer_orders),
        }


def build_orbit_catalog(p: int, a: int) -> OrbitCatalog:
    """Partition all a-subsets of Z_p into affine orbits (single-threaded sweep).

    An orbit's representative, its smallest member, is a necklace (its own
    smallest translate).  _necklaces yields the necklaces in increasing
    order from their gap words, at most C(p, a)/p of them, without testing
    the other masks; a necklace is kept unless seen, which holds the
    smallest translates of each kept orbit's dilations: one entry per
    translation class.  A kept necklace's dilations are the p-1 words of
    the primitive-root chain _dilation_orbit, and each one's smallest
    translate is taken by _translate_min's longest-gap rule.  For
    0 < a < p translation acts freely, so an orbit holds p sets per
    translation class.

    The walk stops once the orbit sizes sum to C(p, a): each orbit's
    smallest word comes before its other necklaces, so once every subset
    is covered no later necklace starts an orbit.  At (23, 11) the last
    representative is necklace 20,873 of 58,786.  An orbit counted too
    large would end the walk early with the sum intact, so the number of
    orbits found must also equal _orbit_count(p, a); either failure raises
    InvariantError.
    """
    ctx = prime_context(p)
    if not 0 <= a <= p:
        raise ValueError(f"subset size {a} out of range for p={p}")
    total = enumeration_guard(p, a)
    full = ctx.full_mask
    if a in (0, p):
        return OrbitCatalog(p, a, (Subset(p, a and full),), (1,))
    reps: list[Subset] = []
    sizes: list[int] = []
    seen: set[int] = set()
    covered = 0
    for mask in _necklaces(p, a):
        if mask in seen:
            continue
        forms = {_translate_min(m, p, full) for m in _dilation_orbit(mask, p)}
        reps.append(Subset(p, mask))
        sizes.append(size := p * len(forms))
        seen |= forms
        covered += size
        if covered >= total:  # every subset is covered: no later necklace starts an orbit
            break
    if covered != total:
        raise InvariantError(f"orbits of {a}-subsets of Z_{p} cover {covered} of {total}")
    if len(reps) != (count := _orbit_count(p, a)):
        raise InvariantError(f"found {len(reps)} orbits of {a}-subsets of Z_{p}, not {count}")
    return OrbitCatalog(p, a, tuple(reps), tuple(sizes))


def _orbit_count(p: int, a: int) -> int:
    """The number of affine orbits of a-subsets of Z_p, 0 < a < p, by
    Burnside's lemma over the p(p-1) maps x -> xi*x + eta.  The identity
    fixes all C(p, a) sets, and a translation (xi = 1, eta != 0) none.  A map
    with xi of order d > 1 fixes one point and cycles the other p-1 in
    blocks of d, so it fixes C((p-1)/d, a/d) sets if d | a (the point
    outside) plus C((p-1)/d, (a-1)/d) if d | a-1 (the point inside); phi(d)
    multipliers have order d, each with p translations."""
    fixed = math.comb(p, a)
    for d in range(2, p):
        if (p - 1) % d:
            continue
        phi = sum(1 for j in range(1, d + 1) if math.gcd(j, d) == 1)
        blocks = (p - 1) // d
        f = (math.comb(blocks, a // d) if a % d == 0 else 0) + \
            (math.comb(blocks, (a - 1) // d) if (a - 1) % d == 0 else 0)
        fixed += p * phi * f
    return fixed // (p * (p - 1))


@lru_cache(maxsize=24)
def orbit_catalog(p: int, a: int) -> OrbitCatalog:
    """Cached catalogs for the desk-scale (p, a) pairs used by searches."""
    return build_orbit_catalog(p, a)
