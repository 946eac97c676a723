"""Show that the benchmark's checkers count wrong outputs as failed operations.

    python3 perfbench/selftest.py

Runs a few tasks of three workloads through the same pass runner the
benchmark uses, once as they are and once with a fault injected into the
output: an off-by-one s_k count (exact_large_k), a non-minimal configuration
reported as satisfying all three extremality conditions (pollard_exhaustive),
and a forged attainer in a `minimize` report (extremal_cli).  Exits 0 only
if every clean run has no failures and every injected fault is counted.
"""

from __future__ import annotations

import json
import sys

import run

SEED = 1


def _faulty(base):
    class OffByOne(base):
        def run(self, task, traced):
            count, fval = super().run(task, traced)
            return count + 1, fval

    class ForgedMinimal(base):
        def run(self, task, traced):
            out = super().run(task, traced)
            conds, _ = out[0]
            j = next(j for j, flags in enumerate(conds) if not all(flags))
            conds[j] = (True, True, True)
            return out

    class ForgedAttainer(base):
        def run(self, task, traced):
            result = super().run(task, traced)
            doc = json.loads(result["stdout"])
            orbits = doc["result"]["extremal_orbits"]
            orbits[0] = orbits[0][:-1] + [orbits[0][-1] + 1]
            result["stdout"] = json.dumps(doc, sort_keys=True, indent=2).encode()
            return result

    return {"exact_large_k": OffByOne, "pollard_exhaustive": ForgedMinimal,
            "extremal_cli": ForgedAttainer}[base.name]


def _pick(name: str, tasks: list) -> list:
    if name == "exact_large_k":
        return tasks[:2]
    if name == "pollard_exhaustive":
        return [t for t in tasks if t.label.startswith("p=11")][:2]
    return [t for t in tasks if t.data[0] == "minimize" and t.data[2] != "23"][:2]


def main() -> int:
    ok = True
    for name in ("exact_large_k", "pollard_exhaustive", "extremal_cli"):
        workload, tasks, _ = run.set_up(name, SEED)
        tasks = _pick(name, tasks)
        caches = run.tracing.zpcount_caches()
        clean = run.run_pass(workload, tasks, False, None, caches, []).failed
        faulty = _faulty(type(workload))()
        bad = run.run_pass(faulty, tasks, False, None, caches, []).failed
        good = clean == 0 and bad == len(tasks)
        ok = ok and good
        print(f"{name:20s} clean failed={clean}/{len(tasks)}  "
              f"{type(faulty).__name__} failed={bad}/{len(tasks)}  {'ok' if good else 'NOT CAUGHT'}")
    print("checker self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
