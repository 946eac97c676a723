"""The extremal_cli command menu and its frozen reference digests.

Every menu command is run as its own `python -m zpcount.cli ...` process.
Its reference is the exit code plus the SHA-256 of its JSON output with
sorted keys and every `elapsed` field removed, frozen in cli_reference.json
from the commit that introduced the benchmark.  Stdout must stay
byte-identical apart from `elapsed`, so any other change to a report, a
wrong minimum or a forged attainer included, fails the digest.

    python3 perfbench/cli_menu.py --freeze   # rewrite cli_reference.json

Re-freezing is only right for a change that is meant to alter outputs.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "cli_reference.json"
TIMEOUT_S = 150

# p = 23 with a = 11 or 12 builds the largest catalog (C(23, 11) subsets,
# about 200 MB); every task list carries exactly one so peak memory is
# comparable across seeds.
HEAVY = [["minimize", "--p", "23", "--a", a, "--k", k]
         for a in ("11", "12") for k in ("3", "4")]


def menu() -> list[list[str]]:
    cmds: list[list[str]] = []
    for p, a, ks in [(7, 3, (2, 5, 8)), (11, 4, (3, 6, 12)), (13, 5, (2, 4, 14)),
                     (17, 6, (3, 5, 18)), (17, 8, (2, 7)), (19, 5, (3, 20)),
                     (19, 9, (3, 5)), (23, 5, (3, 24)), (23, 6, (2, 4)),
                     (23, 7, (3, 5)), (23, 8, (2, 3)), (23, 15, (3, 4)),
                     (23, 16, (2, 5))]:
        cmds += [["minimize", "--p", str(p), "--a", str(a), "--k", str(k)] for k in ks]
    for p, a, kmax in [(7, 3, 60), (7, 4, 100), (11, 3, 60), (11, 4, 120),
                       (13, 4, 60), (13, 5, 80), (17, 4, 40), (17, 6, 30),
                       (19, 5, 30), (23, 4, 30), (23, 5, 24)]:
        cmds.append(["verify", "thm3", "--p", str(p), "--a", str(a), "--k-max", str(kmax)])
    for p, a, smax in [(7, 3, 20), (7, 4, 30), (11, 3, 10), (11, 4, 20),
                       (13, 3, 12), (13, 6, 8), (17, 4, 6), (17, 7, 4),
                       (19, 5, 4), (23, 4, 3), (23, 6, 2)]:
        cmds.append(["verify", "thm5", "--p", str(p), "--a", str(a), "--s-max", str(smax)])
    for p, a, mode, limit in [(7, 3, "knot1", 60), (7, 4, "k1-even", 200),
                              (11, 3, "knot1", 40), (11, 4, "k1-even", 120),
                              (11, 5, "k1-part2", 80), (13, 4, "knot1", 30),
                              (13, 5, "k1-part2", 60), (17, 5, "knot1", 20),
                              (19, 4, "k1-even", 60), (23, 5, "k1-part2", 30)]:
        cmds.append(["scan-k0", "--p", str(p), "--a", str(a), "--mode", mode,
                     "--k-limit", str(limit)])
    return cmds


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("ZPCOUNT_CACHE_DIR", None)  # warm-cache replays are out of scope
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _strip_elapsed(obj):
    if isinstance(obj, dict):
        return {k: _strip_elapsed(v) for k, v in obj.items() if k != "elapsed"}
    if isinstance(obj, list):
        return [_strip_elapsed(v) for v in obj]
    return obj


def digest(stdout: bytes) -> str:
    doc = json.loads(stdout)
    text = json.dumps(_strip_elapsed(doc), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


_ELAPSED = re.compile(rb'"elapsed": [-+0-9.eE]+')


def mask_elapsed(stdout: bytes) -> bytes:
    """Stdout with each elapsed value blanked, every other byte kept."""
    return _ELAPSED.sub(b'"elapsed": 0', stdout)


def key(args: list[str]) -> str:
    return " ".join(args)


def load_reference() -> dict:
    with REFERENCE.open() as fh:
        return json.load(fh)


def freeze() -> int:
    env = child_env()
    ref = {}
    for args in HEAVY + menu():
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "zpcount.cli", *args], cwd=ROOT,
                              env=env, capture_output=True, timeout=TIMEOUT_S)
        dt = time.perf_counter() - t0
        if proc.returncode not in (0, 2):
            print(f"error: {key(args)} exited {proc.returncode}: {proc.stderr.decode()}",
                  file=sys.stderr)
            return 1
        ref[key(args)] = {"args": args, "exit": proc.returncode, "heavy": args in HEAVY,
                          "sha256": digest(proc.stdout), "ref_s": round(dt, 3)}
        print(f"{dt:7.3f}s exit={proc.returncode} {key(args)}", flush=True)
    with REFERENCE.open("w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    if sys.argv[1:] != ["--freeze"]:
        print(__doc__, file=sys.stderr)
        sys.exit(1)
    sys.exit(freeze())
