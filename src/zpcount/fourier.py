"""High-precision Fourier analysis of subset indicators on Z_p.

Coefficients hat1_A(g) = sum_{x in A} exp(-2*pi*i*x*g/p) are computed at an
explicit working precision and carried in polar form (mpmath values) together
with a uniform absolute error bound, so every downstream comparison can state
its margin.  Magnitude level sets across orbits, primary images (dilate and
translate a set so its peak coefficient sits at frequency 1 with argument in
(-pi/p, pi/p]), projection score rankings, the spectral form of the tuple
count, and the lattice-avoidance check for punctured intervals all live
here.

dft_indicator is the one DFT kernel, and it is integer-first: _unit_table
holds round(2^w*cos(2*pi*j/p)) and round(2^w*sin(2*pi*j/p)) as Python ints
(w = precision + GUARD_BITS), and _frequency_rows lays it out once per
(p, w) as one row pair per frequency g = 1..(p-1)/2, entry x holding the
term of residue x (table index -x*g mod p).  Each coefficient is one
itemgetter pick of its rows at the set's members, summed and kept as its
exact integer sums (re, im) with the integer magnitude key
isqrt(re^2 + im^2), both in units u = 2^-w.  Its loop makes no mpmath call:
a profile's magnitude is its key times u (ldexp of an int does not round),
and an argument is computed the first time a caller reads it, one mp.atan2
at w bits, and kept.  An indicator is real, so
hat1_A(p-g) = conj(hat1_A(g)): frequency p-g gets the key of g and the exact
conjugate argument 2*pi - theta, or 0 when theta = 0.  _coeff_error derives
why the bound it returns covers the table, isqrt, rounding and atan2 steps.
Callers read a profile one frequency at a time, through magnitude and
argument: F_value, the spectral form of the tuple count, sums
g = 1..(p-1)/2 in order and doubles, reading an argument only for a term
its running sum would not round away, and t_good_scan flags a dominant term
only when bounds built from those reads and err, not the bare readings,
decide it.

_clusters is the one certified ranking kernel: it sorts integer magnitude
keys, a gap over SEPARATION_MARGIN errors starts a new group, and a closer
pair shares one only when _coordinates proves the two magnitudes equal, so
no tie is a numeric judgement; it can stop after the top groups.  The peak
frequencies of spectral_levels and primary_image (g = 1..(p-1)/2, as p-g
carries the key of g) and the rho ladder of spectral_levels all go through
it, against the integer error bound, and no argument is read; mpf values
are built only for what is reported.  projection_scores groups residues by
one exact integer key and checks the groups against SEPARATION_MARGIN,
which also bounds every lattice clearance (primary_image, the angle check);
its scores cos(2*pi*j/p + theta) come from the unit table's frequency-1 row
and one mp.cos_sin of theta by angle addition, one mpf rounding each and no
cosine per residue.

Angles that the algebra forces onto the lattice (pi/p)*Z are certified with
exact integer arithmetic in Z[zeta_2p] (see exact_arg_lattice_index), never
by floating-point proximity alone; _lattice_reading is the one place that
decides whether an argument lies on that lattice.  Two callers also place
an argument on (2*pi/p)*Z themselves, numerically: primary_image takes its
translate l = nint(theta*p/(2*pi)) once theta clears (pi/p)*Z by
SEPARATION_MARGIN errors, and t_good_scan splits p*theta into c plus an
even multiple ell of pi, which the sign window of each point then checks.

Every margin that a working precision may fail to resolve goes up one
ladder, _escalate: an attempt at the requested precision, then at 2x, 4x,
... that precision, and PrecisionError (naming the call site) once the next
rung would exceed MAX_PRECISION.  angle_check_punctured climbs none, but
_check_start holds its precision to the ladder's bounds all the same.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, groupby
from math import inf, isqrt, log2
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple, Sequence, TypeVar

import mpmath as mp

from .core import (  # PrecisionError is re-exported from here
    AffineMap, InvariantError, PrecisionError, Subset, _check_claim_range, _integer, _Record,
    _rotate, orbit_catalog, prime_context,
)

DEFAULT_PRECISION = 256
MAX_PRECISION = 4096
GUARD_BITS = 32
# Certified comparisons, in units of the error bound at hand: a gap must
# exceed SEPARATION_MARGIN to count as a strict order or a clearance.
SEPARATION_MARGIN = 10


_T = TypeVar("_T")


def _escalate(site: str, precision: int, attempt: Callable[[int], _T | None]) -> _T:
    """First non-None attempt(prec) for prec = precision, 2*precision, ...;
    PrecisionError once the next rung would exceed MAX_PRECISION."""
    _check_start(site, precision)
    prec = precision
    while (result := attempt(prec)) is None:
        prec *= 2
        if prec > MAX_PRECISION:
            raise PrecisionError(
                f"{site}: unresolved at {prec // 2} bits (cap {MAX_PRECISION})"
            )
    return result


def _check_precision(precision: int) -> None:
    if precision < 1:
        raise ValueError(f"precision must be a positive number of bits, got {precision}")


def _check_start(site: str, precision: int) -> None:
    """The start of a precision ladder, or of a check that climbs none: below
    1 bit is a ValueError, above MAX_PRECISION a PrecisionError."""
    _check_precision(precision)
    if precision > MAX_PRECISION:
        raise PrecisionError(f"{site}: {precision} bits requested (cap {MAX_PRECISION})")


def _fold(x: mp.mpf) -> mp.mpf:
    """x minus its nearest multiple of 2*pi: an argument in [0, 2*pi) folds
    to (-pi, pi]."""
    return x - 2 * mp.pi * mp.nint(x / (2 * mp.pi))


def _unit_table(p: int, w: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(round(2^w*cos(2*pi*j/p)), round(2^w*sin(2*pi*j/p))) for j = 0..p-1 as
    ints: evaluated at w+16 bits for j <= p//2 and mirrored, so the cosine
    row is exactly even and the sine row exactly odd.  One mp.cos_sin per j:
    mp.cos and mp.sin would each evaluate both."""
    half = p // 2
    cos, sin = [], []
    with mp.workprec(w + 16):
        step = 2 * mp.pi / p
        for j in range(half + 1):
            c, s = mp.cos_sin(step * j)
            cos.append(int(mp.nint(mp.ldexp(c, w))))
            sin.append(int(mp.nint(mp.ldexp(s, w))))
    return (tuple(cos + [cos[p - j] for j in range(half + 1, p)]),
            tuple(sin + [-sin[p - j] for j in range(half + 1, p)]))


@lru_cache(maxsize=64)
def _frequency_rows(p: int, w: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """For g = 1..(p-1)/2, the rows (cos_g, sin_g) with
    cos_g[x] = cos[-x*g mod p] and sin_g[x] = sin[-x*g mod p] of
    _unit_table(p, w): the terms of frequency g, indexed by member x."""
    cos, sin = _unit_table(p, w)
    rows = []
    for g in range(1, p // 2 + 1):
        idx = [-x * g % p for x in range(p)]
        rows.append((tuple([cos[j] for j in idx]), tuple([sin[j] for j in idx])))
    return tuple(rows)


@lru_cache(maxsize=64)
def _two_pi(w: int) -> mp.mpf:
    """2*pi at w bits: the shift into [0, 2*pi) and the conjugate mirror."""
    with mp.workprec(w):
        return 2 * mp.pi


def _coeff_error(a: int) -> int:
    # Distance bound, in units u = 2^-w, between a stored r*e^(i*theta) and
    # the true coefficient z of an a-point set; dft_indicator's err is this
    # int times u, and the rankings compare integer keys against it directly.
    # - Table: 2*pi*j/p and its cos and sin are good to 2^-(w+12) at w+16
    #   bits, and one rounding to an int adds 1/2, so each entry is within
    #   1/2 + 2^-12 < 0.51 u of 2^w*cos and of 2^w*sin.  A term is then off by
    #   < 0.73 u, and the exact integer sum z' = (re + i*im)*u lies within
    #   0.73*a u of z; |z'| <= 1.01*a.
    # - Magnitude: r is read from the integer key isqrt(re^2 + im^2), which
    #   truncates |z'| by < 1 u, and ldexp keeps that int exactly, so
    #   |r - |z'|| < 1 u.
    # - Argument: atan2 of the exact ints is within 1 ulp of arg z' in
    #   [-pi, pi] (<= 4 u).  Adding 2*pi, or taking 2*pi - theta for the
    #   mirror, adds <= 4 u for 2*pi at w bits and <= 4 u for rounding a value
    #   below 8.  So theta is within 12 u of arg z' (mod 2*pi), an arc of
    #   <= 12.2*a u.
    # - Total: 0.73*a + 1 + 12.2*a < 13*a + 1 <= 3*a^2 + 16*a + 16.  The slack
    #   (3*a^2 + 3*a + 15 u) also covers an atan2 a few ulps worse.  The zero
    #   frequency (a, 0) is exact.
    return 3 * a * a + 16 * a + 16


class FourierProfile(_Record):
    """All p indicator coefficients of one subset.

    sums[g-1] = (re, im) are the exact integer sums of frequency
    g = 1..(p-1)/2, and keys[g] the integer magnitude key of every frequency
    (keys[0] = |A|*2^w, keys[p-g] = keys[g] = isqrt(re^2 + im^2)), both in
    units u = 2^-w, w = work_prec.  magnitude(g) is keys[g]*u; argument(g),
    normalized to [0, 2*pi), is computed on its first read and kept.  err
    bounds the complex-plane distance of every (magnitude, argument) from
    the true coefficient.
    precision is the requested target; work_prec is the actual mpmath
    precision used.
    """

    __slots__ = ("subset", "precision", "work_prec", "err", "sums", "keys", "_arguments")
    _fields = __slots__[:-1]

    def __init__(
        self,
        subset: Subset,
        precision: int,
        work_prec: int,
        err: mp.mpf,
        sums: tuple[tuple[int, int], ...],
        keys: tuple[int, ...],
    ) -> None:
        setfield = object.__setattr__
        setfield(self, "subset", subset)
        setfield(self, "precision", precision)
        setfield(self, "work_prec", work_prec)
        setfield(self, "err", err)
        setfield(self, "sums", sums)
        setfield(self, "keys", keys)
        setfield(self, "_arguments", {})

    @property
    def p(self) -> int:
        return self.subset.p

    def magnitude(self, gamma: int) -> mp.mpf:
        return mp.ldexp(self.keys[gamma % self.p], -self.work_prec)

    def argument(self, gamma: int) -> mp.mpf:
        """The argument of frequency gamma in [0, 2*pi), at work_prec: one
        atan2 of frequency g or p-g, whichever is at most (p-1)/2, on its
        first read, and the exact mirror 2*pi - theta, or 0, for the other."""
        p, g = self.p, gamma % self.p
        th = self._arguments.get(g)
        if th is None:
            with mp.workprec(self.work_prec):
                if g == 0:
                    th = mp.mpf(0)
                elif 2 * g < p:
                    re, im = self.sums[g - 1]
                    th = mp.atan2(im, re)
                    if th < 0:
                        th += _two_pi(self.work_prec)
                else:  # the exact conjugate of frequency p-g
                    th = self.argument(p - g)
                    th = _two_pi(self.work_prec) - th if th else mp.mpf(0)
            self._arguments[g] = th
        return th

    def argument_error(self, gamma: int) -> mp.mpf:
        """Bound on the argument error; infinite if the coefficient is too small."""
        r = self.magnitude(gamma)
        with mp.workprec(self.work_prec):
            if r <= 2 * self.err:
                return mp.inf
            return self.err / (r - self.err)


def dft_indicator(a: Subset, precision: int = DEFAULT_PRECISION) -> FourierProfile:
    """Indicator coefficients of a at >= precision bits with an error bound.

    No upper cap: F_value asks for bits that grow with bitlen(k)."""
    _check_precision(precision)
    p = a.p
    w = precision + GUARD_BITS
    members = a.members()
    # itemgetter of one index returns the entry itself, and of none raises
    pick = itemgetter(*members) if len(members) > 1 else lambda row: [row[x] for x in members]
    # frequencies 1..(p-1)/2
    sums = [(sum(pick(cos)), sum(pick(sin))) for cos, sin in _frequency_rows(p, w)]
    upper = [isqrt(re * re + im * im) for re, im in sums]
    # frequency p-g carries the key of its conjugate, frequency g
    keys = (len(members) << w, *upper, *reversed(upper))
    err = mp.ldexp(_coeff_error(len(members)), -w)
    return FourierProfile(a, precision, w, err, tuple(sums), keys)


def _coordinates(a: Subset, g: int) -> tuple[int, ...]:
    """r_A(g^-1*e) for e = 1..(p-1)/2, r_A(d) = |A & (A + d)| = r_A(-d): the
    integer coordinates of |hat1_A(g)|^2, g != 0.  With zeta = exp(2*pi*i/p)
    and eta_e = zeta^e + zeta^-e (summing to -1 over e = 1..(p-1)/2),
        |hat1_A(g)|^2 = |A| + sum_{d != 0} r_A(d)*zeta^(gd)
                      = sum_e (r_A(g^-1*e) - |A|)*eta_e,
    and the eta_e, sums of disjoint pairs of the basis zeta..zeta^(p-1), are
    a basis of the real subfield: sets of one size have equal magnitudes at
    g and g' exactly when these vectors are equal."""
    p, mask = a.p, a.mask
    full, inv = prime_context(p).full_mask, pow(g, -1, p)
    return tuple([(mask & _rotate(mask, inv * e, p, full)).bit_count()
                  for e in range(1, p // 2 + 1)])


def _clusters(pairs: Sequence[tuple[int, int]], err: int, equal: Callable[[int, int], bool],
              depth: int | None = None) -> list[list[tuple[int, int]]] | None:
    """The one certified ranking: (value, key) pairs sorted by value,
    largest first, and cut into groups.  A gap over SEPARATION_MARGIN*err
    starts the next group; closer adjacent values share a group when
    equal(key, key') proves them equal, and return None otherwise.  Ranking
    stops once depth groups are closed, so values below them are never
    resolved.  Values and err are integers in one unit, magnitude keys and
    _coeff_error's bound in units 2^-w, so every comparison is exact."""
    ranked = sorted(pairs, key=lambda kv: kv[0], reverse=True)
    groups = [[ranked[0]]]
    for prev, cur in zip(ranked, ranked[1:]):
        if prev[0] - cur[0] <= SEPARATION_MARGIN * err:
            if not equal(prev[1], cur[1]):
                return None
            groups[-1].append(cur)
        elif len(groups) == depth:
            break
        else:
            groups.append([cur])
    return groups


def _peak(a: Subset, prof: FourierProfile, err: int) -> list[tuple[int, int]] | None:
    """The top (key, g) group of a's profile prof over g = 1..(p-1)/2 (p-g
    has g's key), ties proven by _coordinates; None if unresolved."""
    peak = _clusters([(prof.keys[g], g) for g in range(1, a.p // 2 + 1)], err,
                     lambda g, h: _coordinates(a, g) == _coordinates(a, h), depth=1)
    return None if peak is None else peak[0]


class SpectralLevels(_Record):
    """Top distinct coefficient-magnitude levels across the (p, a) orbits:
    levels m_1 > m_2 > ... (depth entries or fewer), each level's attainers
    as (representative, frequencies) pairs, and min_gap_over_err, the least
    gap below a kept level over err (inf for one level)."""

    __slots__ = _fields = ("p", "a", "levels", "attainers", "err", "precision",
                           "min_gap_over_err")

    def to_json(self) -> dict:
        digits = int(self.precision * 0.302) + 4
        return {
            "p": self.p,
            "a": self.a,
            "levels": [mp.nstr(v, digits) for v in self.levels],
            "attainers": [
                [{"rep": rep.to_json(), "frequencies": list(gs)} for rep, gs in level]
                for level in self.attainers
            ],
            "err": mp.nstr(self.err, 8),
            "precision": self.precision,
            # a single level has no gap: null, since JSON has no Infinity
            "min_gap_over_err": None if self.min_gap_over_err == inf else self.min_gap_over_err,
        }


def spectral_levels(
    p: int, a: int, depth: int = 3, precision: int = DEFAULT_PRECISION
) -> SpectralLevels:
    """Distinct values of rho(A) = max_{g != 0} |hat1_A(g)| across orbit
    representatives, largest first.

    Escalates precision until every kept level is separated from its
    neighbours by more than 10x the coefficient error bound.
    """
    if not 1 <= a <= p - 1:
        raise ValueError(f"need 1 <= a <= p-1 for nontrivial spectra, got a={a}")
    if _integer("depth", depth) < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    catalog = orbit_catalog(p, a)
    e = _coeff_error(a)

    def attempt(prec: int) -> SpectralLevels | None:
        rho_pairs = []
        attain = []
        for idx, rep in enumerate(catalog.reps):  # one profile held at a time
            prof = dft_indicator(rep, prec)
            peak = _peak(rep, prof, e)
            if peak is None:
                return None
            attain.append(tuple(sorted(x for _, g in peak for x in (g, p - g))))
            rho_pairs.append((peak[0][0], idx))  # rho: the top group's head
        clusters = _clusters(rho_pairs, e, lambda i, j: _coordinates(catalog.reps[i], attain[i][0])
                             == _coordinates(catalog.reps[j], attain[j][0]))
        if clusters is None:
            return None
        keep = clusters[:depth]
        gaps = [clusters[i][-1][0] - clusters[i + 1][0][0]
                for i in range(min(len(keep), len(clusters) - 1))]
        w, err = prof.work_prec, prof.err  # the same for every a-point set
        with mp.workprec(w):  # the least gap, rounded to w bits, over err
            ratio = float(mp.ldexp(mp.mpf(min(gaps)), -w) / err) if gaps else inf
        levels = tuple(mp.ldexp(cl[0][0], -w) for cl in keep)
        attainers = tuple(
            tuple((catalog.reps[idx], attain[idx]) for _, idx in cl) for cl in keep
        )
        return SpectralLevels(p, a, levels, attainers, err, prec, ratio)

    return _escalate(f"spectral_levels(p={p}, a={a})", precision, attempt)


# --- exact lattice-angle certification --------------------------------------


def _reflection_difference_vanishes(a: Subset, gamma: int, n: int) -> bool:
    """Exact test of arg(hat1_A(gamma)) = n*pi/p, i.e. hat1 * zeta^{-n} real,
    done in Z[zeta_2p] (zeta = exp(i*pi/p)): the difference with its
    conjugate must reduce to zero modulo the 2p-th cyclotomic polynomial."""
    p = a.p
    two_p = 2 * p
    c = [0] * two_p
    for x in a.members():
        c[(-2 * x * gamma - n) % two_p] += 1
        c[(2 * x * gamma + n) % two_p] -= 1
    for e in range(p, two_p):  # zeta^e = -zeta^(e-p)
        c[e - p] -= c[e]
    g = c[:p]
    lead = g[p - 1]
    if lead == 0:
        return all(v == 0 for v in g)
    # subtract lead * Phi_2p, whose X^i coefficient is (-1)^i
    return all(g[i] == lead * (-1) ** i for i in range(p))


class _LatticeReading(NamedTuple):
    index: int  # nearest n in [0, 2p) to the argument in units of pi/p
    distance: mp.mpf  # |argument - index*pi/p|
    exact: bool  # argument is exactly index*pi/p (Z[zeta_2p] test)


def _lattice_reading(prof: FourierProfile, gamma: int) -> _LatticeReading | None:
    """Where arg(hat1_A(gamma)) sits against (pi/p)*Z, read from prof; None
    while |hat1_A(gamma)| <= 32*err leaves the nearest index in doubt."""
    p = prof.p
    with mp.workprec(prof.work_prec):
        if not prof.magnitude(gamma) > 32 * prof.err:
            return None
        q = prof.argument(gamma) * p / mp.pi
        n = mp.nint(q)
        distance = abs(q - n) * mp.pi / p
    index = int(n) % (2 * p)
    return _LatticeReading(index, distance,
                           _reflection_difference_vanishes(prof.subset, gamma, index))


def exact_arg_lattice_index(
    a: Subset, gamma: int, precision: int = 192
) -> int | None:
    """n in [0, 2p) with arg(hat1_A(gamma)) exactly n*pi/p, else None.

    The candidate n comes from a numeric argument; membership is then decided
    by exact integer arithmetic, so the answer does not depend on margins.
    """
    if a.size in (0, a.p):
        raise ValueError("coefficients of the empty/full set carry no direction")
    reading = _escalate("exact_arg_lattice_index", precision,
                        lambda prec: _lattice_reading(dft_indicator(a, prec), gamma))
    return reading.index if reading.exact else None


# --- primary image and projection scores ------------------------------------


def primary_image(
    d: Subset, precision: int = DEFAULT_PRECISION
) -> tuple[Subset, AffineMap]:
    """Affine image g*D + l whose frequency-1 coefficient realizes rho(D)
    with argument in (-pi/p, pi/p].

    Among the frequencies attaining the peak magnitude the smallest is used;
    the translate l is chosen from the argument, with the lattice boundary
    (odd multiples of pi/p) decided by the exact integer test.
    """
    p = d.p
    if not 1 <= d.size <= p - 1:
        raise ValueError("primary image needs a nonempty proper subset")

    e = _coeff_error(d.size)

    def attempt(prec: int) -> tuple[Subset, AffineMap] | None:
        prof = dft_indicator(d, prec)
        peak = _peak(d, prof, e)
        if peak is None:
            return None
        gamma = min(g for _, g in peak)
        with mp.workprec(prof.work_prec):
            reading = _lattice_reading(prof, gamma)
            if reading is None:
                return None
            if reading.exact:
                ell = reading.index // 2
            elif reading.distance > SEPARATION_MARGIN * prof.argument_error(gamma):
                ell = int(mp.nint(prof.argument(gamma) * p / (2 * mp.pi))) % p
            else:
                return None
        image = d.dilate(gamma).translate(ell)
        check = dft_indicator(image, prec)
        with mp.workprec(check.work_prec):
            th1 = _fold(check.argument(1))
            margin = SEPARATION_MARGIN * prof.err
            if not (_coordinates(image, 1) == _coordinates(d, gamma)
                    and -(mp.pi / p) - margin < th1 <= mp.pi / p + margin):
                raise InvariantError(
                    f"primary image {list(image.members())} of {list(d.members())} "
                    "misses rho(D) or the arc (-pi/p, pi/p] at frequency 1"
                )
        return image, AffineMap(p, gamma, ell)

    return _escalate("primary_image", precision, attempt)


class ProjectionRanking(_Record):
    """Residues ranked by h(j) = cos(2*pi*j/p + theta), ties grouped.

    theta is the frequency-1 argument of a primary set, folded to
    (-pi, pi]; lattice_index is 0, 1 or 2p-1 when theta is exactly 0, pi/p
    or -pi/p (certified), else None.  top_sets lists every size-a maximizer
    of the summed scores; punctured_candidates are the two runner-up shapes
    (swap the a-th ranked residue for the (a+2)-th, or drop the (a-1)-th
    for the (a+1)-th).
    """

    __slots__ = _fields = ("subset", "theta", "lattice_index", "groups", "scores", "top_sets",
                           "punctured_candidates", "err", "precision")


def projection_scores(
    d_pri: Subset, precision: int = DEFAULT_PRECISION
) -> ProjectionRanking:
    """Ranking of cos(2*pi*j/p + theta) for a primary set of size 2..p-2.

    For theta strictly inside (0, pi/p) the order is 0 > -1 > 1 > -2 > 2 ...;
    for theta in (-pi/p, 0) it is 0 > 1 > -1 > 2 > -2 ...; theta = 0 ties
    {m, -m}; theta = pi/p ties {j, -j-1}; theta = -pi/p ties {j, 1-j}.
    Groups share |pos|, an exact integer key: exact ties at a certified
    lattice angle, single residues off it.  Their order is re-verified with
    SEPARATION_MARGIN at the working precision, on scores built by angle
    addition from the frequency-1 row of the unit table, which the DFT of
    d_pri has cached, and one mp.cos_sin of theta.
    Sizes 1 and p-1 are rejected: one of the two runner-up shapes needs a
    residue on either side of the top set.
    """
    p = d_pri.p
    a = d_pri.size
    if not 2 <= a <= p - 2:
        raise ValueError("projection scores need 2 <= |D| <= p-2")

    def attempt(prec: int):
        prof = dft_indicator(d_pri, prec)
        reading = _lattice_reading(prof, 1)
        if reading is None:
            return None
        n = reading.index if reading.exact else None
        with mp.workprec(prof.work_prec):
            th = _fold(prof.argument(1))
            if n is None and not abs(th) < mp.pi / p:
                raise ValueError("set is not primary: argument outside (-pi/p, pi/p]")
            if n is not None and n not in (0, 1, 2 * p - 1):
                raise ValueError("set is not primary: lattice argument beyond +-pi/p")
            # theta in units of pi/(2p): 0, +-2 on the lattice, +-1 strictly
            # inside (0, pi/p) or (-pi/p, 0); pos[j] is 2*pi*j/p + theta in the
            # same units, folded to (-2p, 2p], so cos falls as |pos| grows
            c = {0: 0, 1: 2, 2 * p - 1: -2}[n] if n is not None else (1 if th > 0 else -1)
            pos = {j: (4 * j + c + 2 * p - 1) % (4 * p) - 2 * p + 1 for j in range(p)}
            order = sorted(range(p), key=lambda j: (abs(pos[j]), -pos[j] if c >= 0 else pos[j]))
            groups = [tuple(g) for _, g in groupby(order, key=lambda j: abs(pos[j]))]
            # cos(2*pi*j/p + theta) = cos_j*cos(theta) - sin_j*sin(theta): the
            # frequency-1 rows hold cos[-j] = cos[j] and sin[-j] = -sin[j] of
            # the unit table in units u = 2^-w, and one cos_sin gives theta's
            # pair, rounded to ints in the same units, so each score is one
            # rounding of an exact integer in units u^2
            w = prof.work_prec
            cos1, sin1 = _frequency_rows(p, w)[0]
            ct, st = (int(mp.nint(mp.ldexp(x, w))) for x in mp.cos_sin(th))
            scores = {j: mp.ldexp(cos1[j] * ct + sin1[j] * st, -2 * w) for j in range(p)}
            # verify the claimed pattern at this precision.  A score is within
            # 4 u of cos(2*pi*j/p + th): the table pair is off by <= 0.73 u,
            # (ct, st) by <= 1.5 u per factor, 1 u from cos_sin and 1/2 u from
            # the int (<= 2.13 u for the pair), and the score's one rounding
            # by <= 1 u, as the integer is below 2^(2w+1); the 8 u term covers it.
            h_err = prof.argument_error(1) + mp.ldexp(mp.mpf(8), -w)
            apart = all(scores[g[-1]] - scores[h[0]] > SEPARATION_MARGIN * h_err
                        for g, h in zip(groups, groups[1:]))
        if not apart:
            return None
        return th, n, groups, scores, prof.err, prec

    th, n, groups, scores, err, prec = _escalate("projection_scores", precision, attempt)

    # maximizing a-sets: fill whole groups, enumerate choices in a split group
    top_sets: list[Subset] = []
    chosen: list[int] = []
    remaining = a
    gi = 0
    while remaining and len(groups[gi]) <= remaining:
        chosen.extend(groups[gi])
        remaining -= len(groups[gi])
        gi += 1
    if remaining == 0:
        top_sets.append(Subset.from_residues(p, chosen))
    else:
        for pick in combinations(groups[gi], remaining):
            top_sets.append(Subset.from_residues(p, chosen + list(pick)))
    flat = [j for g in groups for j in g]
    cand1 = Subset.from_residues(p, flat[: a - 1] + [flat[a + 1]])
    cand2 = Subset.from_residues(p, flat[: a - 2] + flat[a - 1 : a + 1])
    return ProjectionRanking(
        d_pri, th, n, tuple(groups), scores,
        tuple(top_sets), (cand1, cand2), err, prec,
    )


# --- spectral form of the tuple count ----------------------------------------


class FValue(_Record):
    """p*s_k(A) - a^(k+1), evaluated spectrally with a rigorous error bound."""

    __slots__ = _fields = ("subset", "k", "value", "err", "work_prec")

    def to_json(self) -> dict:
        return {
            "set": self.subset.to_json(),
            "k": self.k,
            "value": mp.nstr(self.value, 24),
            "err": mp.nstr(self.err, 8),
            "work_prec": self.work_prec,
        }


def _term_log2_bounds(key: int, c: int, k: int, w: int) -> tuple[float, float]:
    """Upper bounds on log2 of F_value's value term and bound term for a
    frequency of magnitude key*u, err = c*u (u = 2^-w), in units u^(k+1),
    float error margin included; F_value's error-budget comment derives them."""
    h = key + c
    lg = log2(h)
    margin = (k + 1) * h.bit_length() * 2**-40
    if key > 2 * c:  # r > 2*err; -(-x // y) is ceil(x/y)
        b = (k + 1) * c - (-(k - 1) * c * h // (key - c)) + (h >> (w - 6)) + 1
    else:
        b = 2 * h + (k + 1) * c
    return (k + 1) * lg + margin, k * lg + log2(b) + margin


def F_value(a: Subset, k: int, precision: int = DEFAULT_PRECISION) -> FValue:
    """sum_{g != 0} hat1_A(g)^k * conj(hat1_A(g)) as a real number.

    hat1_A(p-g) = conj(hat1_A(g)), so the terms at g and p-g are conjugates
    and the sum is 2 * sum_{g=1}^{(p-1)/2} r_g^(k+1) * cos((k-1)*theta_g),
    added in order of g.  Magnitudes are raised to the k+1 power as mpf
    values (arbitrary exponent, so k up to 10^6 cannot overflow); the working
    precision grows with bit_length(k) so the angle (k-1)*theta keeps
    absolute accuracy.  A term, or its share of the error bound, that its
    running sum would round away is skipped before it is evaluated, on a
    bound read from the integer magnitude key: the sums keep every bit of
    the loop that evaluates all terms, and an argument is read only for a
    term that is evaluated.  For large k, where the top levels carry F,
    that leaves a few of the (p-1)/2 frequencies.  The returned err bounds
    |value - F(A)|.
    """
    _check_precision(precision)
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    p = a.p
    w = precision + 2 * k.bit_length() + 2 * GUARD_BITS
    prof = dft_indicator(a, w - GUARD_BITS)
    err = prof.err
    # Error budget in ulps u = 2^-w for one g in 1..(p-1)/2: the computed
    # t_g = r^(k+1)*cos((k-1)*theta) against the true term
    # Re(z^k*conj(z)) = |z|^(k+1)*cos((k-1)*arg z).
    # - Magnitude: |r - |z|| <= err, so |r^(k+1) - |z|^(k+1)| <= (k+1)*r_hi^k*err
    #   (mean value theorem, r_hi = r + err; r_hi^k is computed once).
    # - Angle: for r > 2*err, theta is within th_err = err/(r - err) of arg z
    #   (mod 2*pi), so the cosine moves by <= (k-1)*th_err, times
    #   mag_hi = r_hi^(k+1).  That also covers rounding (k-1)*theta, at most
    #   2*pi*(k-1) u, because err/r > 2*pi u (r <= 1.01*a, see _coeff_error).
    #   For r <= 2*err the angle is unknown and the term is bounded by its
    #   size, 2*mag_hi.
    # - Rounding: the power, the cosine and the product add a few u of mag_hi,
    #   and each of the (p-1)/2 additions at most 1 u of a partial sum
    #   <= sum(mag_hi); mag_hi*slop (slop = 64 u, and p < 64) covers both.
    # The true terms at g and p-g are conjugates, so F(A) is twice the real
    # sum over g = 1..(p-1)/2.  Doubling is exact in binary, so the per-g
    # bounds double.
    # The final (p-1)*slop*max(1, |value|) is headroom on the summation.
    #
    # Skipped terms.  Both sums start at 0 and add one rounded term per g, so
    # skipping a term whose addition would return the partial sum unchanged
    # leaves every later partial sum, and value and err, bit for bit.
    # - Absorption: a nonzero w-bit S with 2^(E-1) <= |S| < 2^E (E read
    #   exactly from man_exp) has neighbours 2^(E-w) apart, 2^(E-w-1) below
    #   |S| = 2^(E-1), so round-to-nearest returns S for S + t whenever
    #   |t| < 2^(E-w-2).  A term is skipped only below 2^(E-w-4), 1/16 ulp;
    #   a zero sum skips nothing.
    # - Term bounds: err = c*u for the int c, and h = key + c is an int, so
    #   r = key*u and r + err = h*u exactly.  Every computed term is the exact
    #   expression times at most k + 10 rounding factors <= 1 + u (mpmath
    #   rounds to nearest; its integer power truncates, then rounds once, and
    #   |cos| <= 1 + 2u), and k < 2^(w/2 - 32), so they add < 2^-60 to a
    #   log2.  The value term is at most (h*u)^(k+1).  The bound term is at
    #   most u^(k+1)*h^k*B with the int B = (k+1)*c + ceil((k-1)*c*h/(key - c))
    #   + ceil(64*h*u) for r > 2*err (th_err = c/(key - c), mag_hi = (h*u)^(k+1),
    #   slop*mag_hi = 64*h*u*(h*u)^k), and B = 2*h + (k+1)*c otherwise.
    # - Float error: log2 of an int is within 2^-50*(log2(h) + 1) (one
    #   correctly rounded conversion, or frexp past 2^1024, then log2), and
    #   scaling by k+1 and adding log2(B) < log2(h) + log2(k+1) + 3 keep the
    #   estimate within (k+1)*bit_length(h)*2^-46; the margin is
    #   (k+1)*bit_length(h)*2^-40.  The threshold E - w - 4 is shifted by
    #   (k+1)*w, so the comparison is float against int, exact in Python.
    # An estimate plus its margin below the threshold thus puts the term
    # below 2^(E-w-4+2^-60) < 2^(E-w-2).  h, B and E are ints of any size and
    # the log2 of an int cannot overflow, so nothing here depends on p or w.
    c = int(mp.ldexp(err, w))  # exact: dft_indicator's err is _coeff_error(|A|)*u
    keys = prof.keys

    def floor(s: mp.mpf) -> int | None:
        # log2 of 1/16 ulp of the partial sum s, in units u^(k+1); None for 0
        if not s:
            return None
        man, exp = s.man_exp
        return exp + man.bit_length() - w - 4 + (k + 1) * w

    with mp.workprec(w):
        total = mp.mpf(0)
        bound = mp.mpf(0)
        total_floor = bound_floor = None
        slop = mp.ldexp(mp.mpf(1), -w + 6)
        for g in range(1, p // 2 + 1):
            value_log2, bound_log2 = _term_log2_bounds(keys[g], c, k, w)
            if total_floor is None or value_log2 >= total_floor:
                total += prof.magnitude(g) ** (k + 1) * mp.cos((k - 1) * prof.argument(g))
                total_floor = floor(total)
            if bound_floor is None or bound_log2 >= bound_floor:
                r = prof.magnitude(g)
                r_hi = r + err
                pow_hi = r_hi**k
                mag_hi = pow_hi * r_hi
                if r > 2 * err:
                    th_err = err / (r - err)
                    bound += (k + 1) * pow_hi * err + mag_hi * ((k - 1) * th_err + slop)
                else:
                    bound += 2 * mag_hi + (k + 1) * pow_hi * err
                bound_floor = floor(bound)
        value = 2 * total
        bound = 2 * bound + (p - 1) * slop * max(mp.mpf(1), abs(value))
    return FValue(a, k, value, bound, w)


# --- punctured-interval angle check ------------------------------------------


class AngleCheck(_Record):
    """Lattice-avoidance data for the frequency-1 argument of [a-1] u {a}:
    distance is the argument's distance to (pi/p)*Z, and branch_size is
    min(a, p-a), the side whose window claim is checked."""

    __slots__ = _fields = ("p", "a", "distance", "angle_err", "nearest_index",
                           "exact_nonlattice", "passed", "branch_size", "branch_parity",
                           "branch_argument", "branch_ok", "precision")

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "a": self.a,
            "distance": mp.nstr(self.distance, 12),
            "angle_err": mp.nstr(self.angle_err, 8),
            "nearest_index": self.nearest_index,
            "exact_nonlattice": self.exact_nonlattice,
            "passed": self.passed,
            "branch_size": self.branch_size,
            "branch_parity": self.branch_parity,
            "branch_argument": mp.nstr(self.branch_argument, 12),
            "branch_ok": self.branch_ok,
            "precision": self.precision,
        }


def _punctured_avoidance(
    p: int, a: int, precision: int
) -> tuple[FourierProfile, _LatticeReading, mp.mpf, bool]:
    """One DFT of [a-1] u {a} and its frequency-1 lattice reading: (profile,
    reading, angle error bound, passed), where passed means the argument is
    certified off (pi/p)*Z and its distance clears 10x the error bound."""
    prime_context(p)
    _check_claim_range(p, a)
    _check_start(f"angle_check_punctured(p={p}, a={a})", precision)
    prof = dft_indicator(Subset.punctured_interval(p, a), precision)
    reading = _lattice_reading(prof, 1)
    if reading is None:
        raise PrecisionError(f"angle_check_punctured(p={p}, a={a}): frequency-1 "
                             f"coefficient too small to place at {precision} bits")
    with mp.workprec(prof.work_prec):
        angle_err = prof.argument_error(1)
        passed = not reading.exact and reading.distance > SEPARATION_MARGIN * angle_err
    return prof, reading, angle_err, bool(passed)


def angle_check_punctured(p: int, a: int, precision: int = DEFAULT_PRECISION) -> AngleCheck:
    """Certify that arg(hat1 of [a-1] u {a} at frequency 1) avoids (pi/p)*Z.

    Non-membership is certified exactly in Z[zeta_2p]; the reported distance
    must additionally clear 10x the angle error bound.  The sign-and-interval
    claim is checked on the shifted set of size b = min(a, p-a) (for
    a > (p-1)/2 the complement of the punctured interval is an equivalent
    punctured interval of size p-a, which is the side the argument places in
    an open interval):  b odd expects (0, pi/p), b even expects (-pi/p, 0).
    """
    prof, reading, angle_err, passed = _punctured_avoidance(p, a, precision)
    b = min(a, p - a)
    m = (b - 1) // 2
    branch_set = Subset.from_residues(p, [-m - 1] + list(range(-m + 1, b - m)))
    if branch_set.size != b:
        raise InvariantError(f"branch set for p={p}, a={a} has {branch_set.size} points, not {b}")
    parity = "odd" if b % 2 else "even"
    branch_prof = dft_indicator(branch_set, precision)
    with mp.workprec(prof.work_prec):
        th_b = _fold(branch_prof.argument(1))
        margin = SEPARATION_MARGIN * branch_prof.argument_error(1)
        lo = 0 if b % 2 else -mp.pi / p
        branch_ok = bool(lo + margin < th_b < lo + mp.pi / p - margin)
    return AngleCheck(
        p, a, reading.distance, angle_err, reading.index, not reading.exact,
        passed, b, parity, th_b, branch_ok, precision,
    )


# --- sign windows for k = s*p + 1 ---------------------------------------------


class TGoodPoint(_Record):
    """One sign window: cos_sign is the sign of cos(s*p*theta) = (-1)^t, and
    dominant says the dominant term provably outweighs every competing tail."""

    __slots__ = _fields = ("t", "s", "k", "cos_sign", "dominant")

    def to_json(self) -> dict:
        return {"t": self.t, "s": self.s, "k": self.k,
                "cos_sign": self.cos_sign, "dominant": self.dominant}


class TGoodScan(_Record):
    """Exponents k = s*p + 1 with a sign-pinned dominant spectral term.

    c = p*theta - ell*pi folded into (-pi, pi) with ell even; s is t-good when
    s*c lies in ((t - 1/2)*pi + eps, (t + 1/2)*pi - eps), which pins the sign
    of cos(s*p*theta) to (-1)^t.
    """

    __slots__ = _fields = ("p", "a", "theta", "ell", "c", "eps", "points", "precision")

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "a": self.a,
            "theta": mp.nstr(self.theta, 20),
            "ell": self.ell,
            "c": mp.nstr(self.c, 20),
            "eps": mp.nstr(self.eps, 20),
            "points": [pt.to_json() for pt in self.points],
            "precision": self.precision,
        }


def t_good_scan(
    p: int,
    a: int,
    t_range: Iterable[int],
    s_max: int | None = None,
    precision: int = DEFAULT_PRECISION,
) -> TGoodScan:
    """Smallest t-good s for each t in t_range with sign(t) = sign(c).

    Each point carries the predicted sign of the dominant term of the
    spectral sum for the punctured interval at k = s*p + 1 and a dominance
    flag, certified from the error bounds: True when a lower bound on the
    lead 2*m2^(k+1)*|cos(s*p*theta)| exceeds upper bounds on the punctured
    interval's own tail, the sum over its frequencies 2..p-2, plus
    (p-1)*m3^(k+1) for the third-orbit competitors (none when only two
    orbits exist).  The lead is bounded below through m2 - err and
    sin(eps) less s*p*argument_error(1), each competing magnitude above by
    itself plus its err, and both sides are widened for rounding.  Raises
    InvariantError unless the interval alone attains spectral level 1 and
    the punctured interval alone level 2, as that bound assumes.
    """
    prof, _, _, passed = _punctured_avoidance(p, a, precision)
    if not passed:
        raise PrecisionError(f"lattice avoidance unresolved for p={p}, a={a}")
    levels = spectral_levels(p, a, depth=3, precision=precision)
    top = [[rep for rep, _ in level] for level in levels.attainers[:2]]
    if top != [[Subset.interval(p, a).canonical()], [Subset.punctured_interval(p, a).canonical()]]:
        raise InvariantError(f"the top two spectral levels for p={p}, a={a} are not "
                             "attained by the interval and the punctured interval alone")
    points: list[TGoodPoint] = []
    with mp.workprec(prof.work_prec):
        err, th_err = prof.err, prof.argument_error(1)
        m3 = levels.levels[2:3]  # the third orbit level, if there is one
        m3_hi = mp.fadd(m3[0], levels.err, exact=True) if m3 else None
        # Rounding at work_prec, u = 2^-work_prec: p*theta < 400 (p < 64),
        # and c, its fold, lands within 800 u of the exact value, so s*c is
        # off by < s*slop (slop = 1024 u); each product and sum below is off
        # by a few u relative, well inside a relative slop.  m2 - err and
        # magnitude + err are exact, so no rounding is raised to k+1.
        slop = mp.ldexp(mp.mpf(1), -prof.work_prec + 10)
        th = prof.argument(1)
        c = _fold(p * th)  # = p*theta - ell*pi with ell even
        ell = int(mp.nint((p * th - c) / mp.pi))
        if not (abs(c) < mp.pi and c != 0):
            raise InvariantError(f"phase offset for p={p}, a={a} lies outside (-pi, pi) minus 0")
        eps = min(abs(c), mp.pi - abs(c)) / 3
        m2 = prof.magnitude(1)
        for t in t_range:
            if t == 0 or (t > 0) != (c > 0):
                continue
            lo = (t - mp.mpf(1) / 2) * mp.pi + eps
            hi = (t + mp.mpf(1) / 2) * mp.pi - eps
            # the least s >= 1 with s*c past the window's near edge; the window
            # is pi - 2*eps > |c| wide, so s*c lands inside it
            s = int(mp.floor((lo if c > 0 else hi) / c)) + 1
            if s_max is not None and s > s_max:
                continue
            k = s * p + 1
            sign = 1 if t % 2 == 0 else -1
            cos_val = mp.cos(s * p * th)
            if not (lo < s * c < hi
                    and (cos_val > 0) == (sign > 0) and abs(cos_val) >= mp.sin(eps) / 2):
                raise InvariantError(f"k={k} misses its sign window for p={p}, a={a}")
            # |hat1(+-1)| >= m2 - err.  The window check put s*c more than
            # eps from a zero of cos, and the true angle is within
            # s*(p*th_err + slop) of it, so its |cos| is at least sin(eps)
            # less that.  The own tail is frequencies 2..(p-1)/2 and their
            # mirrors, each at most magnitude + err.
            lead = (2 * mp.fsub(m2, err, exact=True) ** (k + 1)
                    * (mp.sin(eps) - s * (p * th_err + slop)))
            competing = (p - 1) * m3_hi ** (k + 1) if m3_hi else 0
            own_tail = 2 * mp.fsum(mp.fadd(prof.magnitude(g), err, exact=True) ** (k + 1)
                                   for g in range(2, p // 2 + 1))
            dominant = bool(lead * (1 - slop) > (competing + own_tail) * (1 + slop))
            points.append(TGoodPoint(t, s, k, sign, dominant))
    return TGoodScan(p, a, th, ell, c, eps, tuple(points), precision)
