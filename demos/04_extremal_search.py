#!/usr/bin/env python3
# ===========================================================
# Extremal searches, small to medium:
# - the (p, a, k) = (17, 14, 3) minimum and its two attainer classes
# - threshold scan: from which k on do the predicted translates win?
# - the k = s*p + 1 exception lane and its 2b/2c alternation
# Usage: 04_extremal_search.py [S_MAX]   (default 40)
# ===========================================================
import sys
import time

from zpcount import (
    Subset, minimize_sk, scan_k0, verify_thm_k1,
)

S_MAX = int(sys.argv[1]) if len(sys.argv) > 1 else 40

# ----- flagship instance -----
start = time.perf_counter()  # reports carry no clock: time the call here
rep = minimize_sk(17, 14, 3)
elapsed = time.perf_counter() - start
print(f"min s_3 over 14-subsets of Z_17 = {rep.min_value}"
      f"  ({rep.checked} candidates, {elapsed:.2f}s, {rep.method})")
named = [
    Subset.from_residues(17, range(-1, 13)),
    Subset.from_residues(17, list(range(6, 19)) + [3]),
]
classes = set(rep.extremal_orbits)
for s in named:
    inside = s.dilation_class_canonical() in classes
    print(f"  {str(s.members()):<55} attains: {inside}")
print(f"  total extremal dilation classes: {len(classes)}")

# ----- threshold for the generic lane -----
verdict = scan_k0(7, 3, "knot1", k_limit=100)
print(f"\np=7, a=3, k != 1 mod 7: predicted translate classes are the unique"
      f"\nminimizers for every tested k >= {verdict.threshold}"
      f" (window {verdict.params['window']})")
early = [pt.x for pt in verdict.points if pt.status == "below-threshold"]
print(f"  exceptions below threshold: {early if early else 'none'}")

# ----- the k = 1 mod p lane alternates -----
print(f"\np=13, a=3, k = 13s + 1 for s <= {S_MAX}:")
print("  s  bucket  minimum / interval count")
verdict = verify_thm_k1(13, 3, range(1, S_MAX + 1))
for pt in verdict.points:
    det = pt.details
    bucket = det.get("bucket", "-")
    print(f"{pt.x:>3}  {bucket:>6}  {det['min_value']} /"
          f" {det['values']['(0, 1, 2)']}")
print("\n2b: punctured-interval orbit is the unique minimizer;"
      "\n2c: a third orbit wins; the interval itself is always the maximum.")
