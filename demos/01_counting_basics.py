#!/usr/bin/env python3
# ===========================================================
# Counting warm-up: s_k(A) = #{(x0,...,xk) in A^(k+1) : x0 = x1+...+xk}
# - exact integer counts via packed shift-add convolution
# - cross-check against a literal brute force on tiny cases
# - growth table: interval vs punctured interval at p = 7, a = 3
# ===========================================================
import itertools

from zpcount import Subset, s_count, s_k_count, sigma_vector

P = 7
A = 3
K_TABLE = (2, 3, 5, 8, 13, 21, 34)


def brute_s_k(s, k):
    members = s.members()
    return sum(
        1 for tail in itertools.product(members, repeat=k)
        if sum(tail) % s.p in members
    )


# ----- sanity: library vs brute force -----
print("brute-force agreement on every 3-subset of Z_7, k = 2:")
worst = None
for residues in itertools.combinations(range(P), A):
    s = Subset.from_residues(P, residues)
    lib, ref = s_k_count(s, 2), brute_s_k(s, 2)
    assert lib == ref, (residues, lib, ref)
    if worst is None or lib > worst[1]:
        worst = (residues, lib)
print(f"  all {sum(1 for _ in itertools.combinations(range(P), A))} agree;"
      f" largest count {worst[1]} at {worst[0]}")

# ----- mixed sizes: x0 from one set, summands from others -----
a0 = Subset.from_residues(11, [0, 1, 2])
tail = [Subset.interval(11, 7), Subset.interval(11, 7)]
print(f"\nmixed sizes at p=11: head {a0.members()}, two 7-intervals")
print(f"  s = {s_count(a0, tail)}")
print(f"  sigma vector = {sigma_vector(tail)}")

# ----- interval vs punctured interval as k grows -----
ivl = Subset.interval(P, A)
punct = Subset.punctured_interval(P, A)
print(f"\np = {P}, a = {A}: interval {ivl.members()} vs punctured {punct.members()}")
print(f"{'k':>4}  {'s_k(interval)':>16}  {'s_k(punctured)':>16}  winner")
for k in K_TABLE:
    si, sp = s_k_count(ivl, k), s_k_count(punct, k)
    tag = "interval" if si < sp else ("punctured" if sp < si else "tie")
    print(f"{k:>4}  {si:>16}  {sp:>16}  {tag}")
print("\nnote: a^(k+1)/p is the uniform heuristic; the Fourier tail decides"
      " which set dips below it.")
