"""Shared oracles, the acceptance-line reporter, and the environment for
test subprocesses.

The brute-force counters here are deliberately naive (nested loops over
itertools.product); they are the reference the fast implementations are
judged against, so they must stay obviously correct.
"""

from itertools import combinations, product
from pathlib import Path

import mpmath as mp
import pytest

import zpcount
from zpcount import Subset, fourier

_ACCEPTANCE_LINES: list[str] = []


def record_acceptance(number: int, passed: bool, text: str) -> None:
    line = f"[criterion {number:2d}] {'PASS' if passed else 'FAIL'} - {text}"
    _ACCEPTANCE_LINES.append(line)
    print(line, flush=True)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(_ACCEPTANCE_LINES):
        terminalreporter.write_line(line)


def subprocess_env() -> dict[str, str]:
    """Environment for a test's fresh interpreter: zpcount from this
    checkout's src/, and no bytecode written there, so the tests leave no
    compiled modules behind for a later run in the same checkout to load."""
    return {"PYTHONPATH": str(Path(zpcount.__file__).resolve().parents[1]),
            "PYTHONDONTWRITEBYTECODE": "1"}


def brute_s_count(a0: Subset, sets) -> int:
    """#{(x_0,...,x_k): x_0 = x_1 + ... + x_k}, one loop per coordinate."""
    p = a0.p
    hits = 0
    for tail in product(*(s.members() for s in sets)):
        if sum(tail) % p in a0:
            hits += 1
    return hits


def brute_s_k(a: Subset, k: int) -> int:
    return brute_s_count(a, [a] * k)


def schoolbook_convolve(u, v) -> tuple[int, ...]:
    """(u * v)(x) = sum_y u(y) v(x - y), indices mod p: the O(p^2) loop,
    kept as the reference for zpcount.counting's packed shift-adds and
    squarings."""
    p = len(u)
    if len(v) != p:
        raise ValueError("convolution needs equal-length vectors")
    out = [0] * p
    for i, ui in enumerate(u):
        if not ui:
            continue
        for j, vj in enumerate(v):
            if vj:
                idx = i + j
                if idx >= p:
                    idx -= p
                out[idx] += ui * vj
    return tuple(out)


def brute_power(a: Subset, k: int) -> tuple[int, ...]:
    """sigma^(k) of a (k >= 1): the indicator convolved by it k - 1 times,
    one schoolbook factor at a time."""
    one = tuple((a.mask >> x) & 1 for x in range(a.p))
    sigma = one
    for _ in range(k - 1):
        sigma = schoolbook_convolve(sigma, one)
    return sigma


def brute_sigma(sets) -> list[int]:
    p = sets[0].p
    vec = [0] * p
    for tail in product(*(s.members() for s in sets)):
        vec[sum(tail) % p] += 1
    return vec


def brute_dft(a: Subset, work_prec: int) -> list:
    """hat1_A(g) = sum_{x in A} exp(-2*pi*i*x*g/p) for g = 0..p-1: one
    mp.expjpi per term, summed at 4*work_prec bits.  The reference for the
    integer-table kernel in zpcount.fourier, with which it shares no code."""
    p = a.p
    with mp.workprec(4 * work_prec):
        return [mp.fsum(mp.expjpi(mp.mpf(-2 * x * g) / p) for x in a.members())
                for g in range(p)]


def unpruned_F_value(a: Subset, k: int, precision: int = fourier.DEFAULT_PRECISION):
    """F_value with every term evaluated: one atan2, two powers and one
    cosine for each g = 1..(p-1)/2, all arguments read before the sum.  The
    reference whose value and err bits zpcount.fourier.F_value, which skips
    the terms its sums would round away, must reproduce."""
    p = a.p
    w = precision + 2 * k.bit_length() + 2 * fourier.GUARD_BITS
    prof = fourier.dft_indicator(a, w - fourier.GUARD_BITS)
    err = prof.err
    with mp.workprec(w):
        total = mp.mpf(0)
        bound = mp.mpf(0)
        slop = mp.ldexp(mp.mpf(1), -w + 6)
        half = [(prof.magnitude(g), prof.argument(g)) for g in range(1, p // 2 + 1)]
        for r, th in half:
            r_hi = r + err
            pow_hi = r_hi**k
            mag_hi = pow_hi * r_hi
            total += r ** (k + 1) * mp.cos((k - 1) * th)
            if r > 2 * err:
                th_err = err / (r - err)
                bound += (k + 1) * pow_hi * err + mag_hi * ((k - 1) * th_err + slop)
            else:
                bound += 2 * mag_hi + (k + 1) * pow_hi * err
        value = 2 * total
        bound = 2 * bound + (p - 1) * slop * max(mp.mpf(1), abs(value))
    return fourier.FValue(a, k, value, bound, w)


def brute_affine_orbit(p: int, residues) -> set[int]:
    """Membership words of every image {xi*x + eta : x in residues}, mapped
    point by point for each xi != 0 and each eta."""
    members = set(residues)
    return {
        sum(1 << ((xi * x + eta) % p) for x in members)
        for xi in range(1, p)
        for eta in range(p)
    }


def brute_orbit_catalog(p: int, a: int) -> tuple[list[Subset], list[int]]:
    """(reps, orbit_sizes) of the affine orbits of a-subsets of Z_p: each
    orbit represented by its smallest membership word, in ascending order."""
    seen: set[int] = set()
    orbits = []
    for members in combinations(range(p), a):
        if sum(1 << x for x in members) in seen:
            continue
        orbit = brute_affine_orbit(p, members)
        seen |= orbit
        orbits.append((min(orbit), len(orbit)))
    orbits.sort()
    return [Subset(p, m) for m, _ in orbits], [n for _, n in orbits]


@pytest.fixture
def rng():
    import random

    return random.Random(0xC0FFEE)
