"""Exact oracles for the benchmark's outputs.

None of these call zpcount's counting, pollard or fourier code.  Sets are
taken as (p, mask) pairs; the pollard oracles use the brute-force tuple
counters of tests/conftest.py, imported rather than copied, because those
are the repository's own judges of every fast path.
"""

from __future__ import annotations

import sys
from pathlib import Path

import mpmath as mp

ROOT = Path(__file__).resolve().parent.parent
ORACLE_PREC = 320  # bits for the independent spectral sums
TOL = mp.mpf(2) ** -200


def members(p: int, mask: int) -> list[int]:
    return [x for x in range(p) if mask >> x & 1]


def mask_of(p: int, residues) -> int:
    out = 0
    for x in residues:
        out |= 1 << (x % p)
    return out


# --- exact_large_k: Kronecker substitution ---------------------------------------


def _cyclic_mul(u: list[int], v: list[int], p: int) -> list[int]:
    """u * v mod x^p - 1: pack each vector into one integer, multiply, fold."""
    slot = (max(u).bit_length() + max(v).bit_length() + p.bit_length() + 7) // 8
    pu = int.from_bytes(b"".join(x.to_bytes(slot, "little") for x in u), "little")
    pv = pu if v is u else int.from_bytes(
        b"".join(x.to_bytes(slot, "little") for x in v), "little")
    raw = (pu * pv).to_bytes(slot * 2 * p, "little")
    coeff = [int.from_bytes(raw[i * slot:(i + 1) * slot], "little") for i in range(2 * p)]
    return [coeff[i] + coeff[i + p] for i in range(p)]


def power_vector(p: int, mask: int, k: int) -> list[int]:
    """k-fold cyclic convolution power of the indicator of mask."""
    base = [mask >> x & 1 for x in range(p)]
    acc = None
    while k:
        if k & 1:
            acc = base if acc is None else _cyclic_mul(acc, base, p)
        k >>= 1
        if k:
            base = _cyclic_mul(base, base, p)
    return acc


def s_k(p: int, mask: int, k: int) -> int:
    vec = power_vector(p, mask, k)
    return sum(vec[x] for x in members(p, mask))


def spectral_identity_holds(p: int, a: int, k: int, count: int, fval) -> bool:
    """p * s_k(A) = a^(k+1) + F(A), within F_value's certified err."""
    exact = p * count - a ** (k + 1)
    with mp.workprec(fval.work_prec + 64):
        return bool(abs(mp.mpf(exact) - fval.value) <= fval.err)


# --- pollard_exhaustive ------------------------------------------------------------


def _conftest():
    tests = str(ROOT / "tests")
    if tests not in sys.path:
        sys.path.insert(0, tests)
    import conftest

    return conftest


def brute_sigma(sets) -> list[int]:
    return _conftest().brute_sigma(sets)


def brute_s_count(a0, sets) -> int:
    return _conftest().brute_s_count(a0, sets)


def level_counts(p: int, sigma: list[int]) -> list[int]:
    """n[r] = #{x : sigma(x) >= r} for r = 0..r_max, ending at 0."""
    n = [p]
    r = 1
    while True:
        c = sum(1 for v in sigma if v >= r)
        n.append(c)
        if c == 0:
            return n
        r += 1


def partial_sum(n: list[int], r: int) -> int:
    return sum(n[1:r + 1])


# --- spectral_certify ----------------------------------------------------------------


def coefficient(p: int, mask: int, g: int) -> mp.mpc:
    """hat1_A(g) = sum_{x in A} exp(-2*pi*i*x*g/p), summed at ORACLE_PREC."""
    with mp.workprec(ORACLE_PREC):
        return mp.fsum(mp.expjpi(mp.mpf(-2 * x * g) / p) for x in members(p, mask))


def peak_magnitude(p: int, mask: int) -> mp.mpf:
    with mp.workprec(ORACLE_PREC):
        return max(abs(coefficient(p, mask, g)) for g in range(1, p))


def argument(p: int, mask: int, g: int) -> mp.mpf:
    """Argument of hat1_A(g) folded into (-pi, pi]."""
    with mp.workprec(ORACLE_PREC):
        return mp.arg(coefficient(p, mask, g))


def lattice_offset(p: int, theta: mp.mpf) -> tuple[int, mp.mpf]:
    """(n, |theta*p/pi - n|) for the nearest lattice index n in [0, 2p)."""
    with mp.workprec(ORACLE_PREC):
        q = theta * p / mp.pi
        n = int(mp.nint(q))
        return n % (2 * p), abs(q - n)


def affine_image(p: int, mask: int, xi: int, eta: int) -> int:
    return mask_of(p, (xi * x + eta for x in members(p, mask)))


def canonical_mask(p: int, mask: int) -> int:
    """Smallest membership word over all p(p-1) affine images."""
    return min(affine_image(p, mask, xi, eta) for xi in range(1, p) for eta in range(p))


def interval_mask(p: int, a: int) -> int:
    return (1 << a) - 1


def punctured_mask(p: int, a: int) -> int:
    return ((1 << (a - 1)) - 1) | (1 << a)


def interval_peak(p: int, a: int) -> mp.mpf:
    """|hat1_[a](1)| = sin(pi*a/p) / sin(pi/p), the largest level."""
    with mp.workprec(ORACLE_PREC):
        return mp.sin(mp.pi * a / p) / mp.sin(mp.pi / p)
