"""Layered, oracle-checked benchmark for zpcount.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

NAME is exact_large_k, pollard_exhaustive, spectral_certify or extremal_cli
(see README.md in this directory).  Set-up imports zpcount from the
checkout's src/ and builds the seeded task list.  The task list then runs in
passes, one task at a time, until the next pass would overrun S seconds of
measured time; every pass starts with zpcount's caches cleared.  A
calibration probe runs before each task, and every reported time is scaled
to a fixed reference speed of the machine (calibration.py).  Each task's
first output is checked against an exact oracle and later passes must
reproduce it.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced and
traced passes and reports the per-layer metrics, the tracing overhead and a
layer self-time share table.  The last stdout line is one JSON object with
the keys correct, attempted, failed and metrics; the line before it is the
run record (environment, seed, median and IQR of every metric).  With
--workload all each workload runs in its own process and, under --trace 1,
each layer's largest share must fall on its designated workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402  (stdlib only)
import tracing  # noqa: E402  (stdlib only; zpcount is imported inside set-up)

NAMES = ("exact_large_k", "pollard_exhaustive", "spectral_certify", "extremal_cli")
SETUP_SAMPLES = 7
NPROC = len(os.sched_getaffinity(0))  # before run_one pins the benchmark to one CPU

UNITS = {"wall_s": "s", "task_p50_ms": "ms", "task_tail_ms": "ms", "setup_s": "s",
         "peak_rss_mb": "MB", "ok_ratio": "ratio"}
LAYER_UNITS = {"_calls": "count", "_builds": "count", "_subsets": "count",
               "_ratio": "ratio", "_bits": "bits", "_s": "s", ".checked": "count",
               ".commands": "count", "_bytes": "bytes"}

# Which workload each layer is meant to dominate (see README.md).
DESIGNATED = {"core": "extremal_cli", "counting": "exact_large_k",
              "pollard": "pollard_exhaustive", "fourier": "spectral_certify",
              "extremal": "extremal_cli", "cli": "extremal_cli"}


def layer_unit(name: str) -> str:
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    raise KeyError(name)


# --- set-up -----------------------------------------------------------------------


def set_up(name: str, seed: int):
    """Import zpcount from the checkout and build the task list (timed)."""
    t0 = time.perf_counter()
    if not (SRC / "zpcount" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'zpcount'} not found; run from a zpcount checkout")
    sys.path.insert(0, str(SRC))
    import zpcount

    if Path(zpcount.__file__).resolve().parent != (SRC / "zpcount").resolve():
        raise SystemExit(f"error: imported zpcount from {zpcount.__file__}, not {SRC}")
    import workloads

    workload = workloads.WORKLOADS[name]
    tasks = workload.tasks(seed)
    return workload, tasks, time.perf_counter() - t0


class SetupSamples:
    """This process's set-up time plus fresh-process repeats of it, spread
    over the run so that one slow spell of the machine does not hold them all."""

    def __init__(self, name: str, seed: int, seconds: float, first: float):
        self.name, self.seed, self.seconds = name, seed, seconds
        self.values = [first]

    def sample(self) -> None:
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--setup-sample",
                               "--workload", self.name, "--seed", str(self.seed)],
                              cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up sample failed: {proc.stderr.strip()}")
        self.values.append(float(proc.stdout.split()[-1]))

    def due(self, measured: float) -> None:
        """Take the samples whose share of the run's measured time has passed."""
        while (len(self.values) < SETUP_SAMPLES
               and measured >= len(self.values) * self.seconds / SETUP_SAMPLES):
            self.sample()

    def finish(self) -> list[float]:
        while len(self.values) < SETUP_SAMPLES:
            self.sample()
        return self.values


# --- passes -----------------------------------------------------------------------


class Pass:
    def __init__(self, traced: bool, size: int):
        self.traced = traced
        self.times = [0.0] * size  # raw seconds
        self.probes: list[float] = []  # one calibration probe before each task
        self.failed = 0
        self.snaps: list[dict] = []
        self.output_bytes = 0

    @property
    def total(self) -> float:
        return sum(self.times)


def run_factor(passes: list[Pass]) -> float:
    """One speed factor for a run, from the median of all its probes."""
    return calibration.speed_factor([q for p in passes for q in p.probes])


def pass_factors(workload, passes: list[Pass]) -> list[float]:
    """The speed factor for each pass.  In-process tasks follow the probe
    pass by pass.  A child process does not: probes flicker to full speed for
    a second or so, and a child that spans the flicker hardly changes, so a
    child-process workload takes the run's factor for every pass."""
    if workload.in_process:
        return [calibration.speed_factor(p.probes) for p in passes]
    return [run_factor(passes)] * len(passes)


def run_pass(workload, tasks, traced: bool, tracer, caches, reference: list) -> Pass:
    """One pass over the task list; reference holds the first pass's digests."""
    first = not reference
    for cache in caches:
        cache.cache_clear()
    out = Pass(traced, len(tasks))
    if traced and workload.in_process:
        tracer.reset()
        tracer.install()
    try:
        for i, task in enumerate(tasks):
            out.probes.append(calibration.probe())
            t0 = time.perf_counter()
            try:
                result = workload.run(task, traced)
            except Exception as exc:  # a raising task is a failed operation
                out.times[i] = time.perf_counter() - t0
                out.failed += 1
                print(f"task failed: {task.label}: {exc!r}", file=sys.stderr)
                if first:
                    reference.append(None)
                continue
            out.times[i] = time.perf_counter() - t0
            ok = True
            if not workload.in_process:
                out.times[i] = result["wall"]
                out.output_bytes += len(result["stdout"])
                if traced:
                    snap = _child_snapshot(result)
                    ok = snap is not None
                    out.snaps += [snap] if ok else []
            ok = _judge(workload, task, result, reference, i, first) and ok
            if not ok:
                out.failed += 1
                print(f"task wrong: {task.label}", file=sys.stderr)
    finally:
        if traced and workload.in_process:
            tracer.uninstall()
            out.snaps.append(tracer.snapshot())
    return out


def _judge(workload, task, result, reference: list, i: int, first: bool) -> bool:
    try:
        digest = workload.digest(result)
        if first:
            reference.append(digest if workload.check(task, result) else None)
            return reference[i] is not None
        return reference[i] is not None and digest == reference[i]
    except Exception as exc:  # an output the checker cannot read is wrong
        print(f"check raised on {task.label}: {exc!r}", file=sys.stderr)
        if first:
            reference.append(None)
        return False


def _child_snapshot(result: dict) -> dict:
    lines = result["stderr"].decode(errors="replace").splitlines()
    for line in reversed(lines):
        if line.startswith("PERFBENCH_TRACE "):
            snap = json.loads(line[len("PERFBENCH_TRACE "):])
            snap["wall"] = result["wall"]
            return snap
    return None


def measure(workload, tasks, seconds: float, trace: bool, setup: SetupSamples) -> list[Pass]:
    tracer = tracing.Tracer()
    caches = tracing.zpcount_caches()
    reference: list = []
    passes: list[Pass] = []
    measured = 0.0
    while True:
        traced = trace and len(passes) % 2 == 1
        passes.append(run_pass(workload, tasks, traced, tracer, caches, reference))
        measured += passes[-1].total + sum(passes[-1].probes)
        setup.due(measured)
        nxt = trace and len(passes) % 2 == 1
        same = [p.total + sum(p.probes) for p in passes if p.traced == nxt] or [measured]
        if trace and len(passes) < 2:
            continue
        if measured + same[-1] > seconds:
            return passes


# --- metrics ----------------------------------------------------------------------


def summary(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "iqr": q[2] - q[0], "n": len(values)}


def _tail(values: list[float]) -> tuple[float, int]:
    """The 75th percentile (a quarter of the tasks beyond it), and its position."""
    pos = math.ceil(0.75 * len(values)) - 1
    return sorted(values)[pos], pos


def end_to_end(workload, tasks, passes, setup: list[float], extra_attempted: int,
               extra_failed: int) -> tuple:
    plain = [p for p in passes if not p.traced]
    # A task's time is the median of its scaled times over the untraced passes.
    scaled = [[t * f for t in p.times] for p, f in zip(plain, pass_factors(workload, plain))]
    per_task = [statistics.median(t[i] for t in scaled) for i in range(len(tasks))]
    factor = run_factor(plain)  # for the set-ups, which are spread over the run
    tail, tail_pos = _tail(per_task)
    attempted = len(tasks) * len(passes) + extra_attempted
    failed = sum(p.failed for p in passes) + extra_failed
    if workload.in_process:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    # Median and IQR describe the passes.
    metrics = {
        "wall_s": sum(per_task),
        "task_p50_ms": statistics.median(per_task) * 1e3,
        "task_tail_ms": tail * 1e3,
        "setup_s": statistics.median(setup) * factor,
        "peak_rss_mb": rss,
        "ok_ratio": 1 - failed / attempted,
    }
    spread = {
        "wall_s": [sum(t) for t in scaled],
        "task_p50_ms": [statistics.median(t) * 1e3 for t in scaled],
        "task_tail_ms": [_tail(t)[0] * 1e3 for t in scaled],
        "setup_s": [t * factor for t in setup],
        "peak_rss_mb": [rss],
        "ok_ratio": [metrics["ok_ratio"]],
    }
    detail = {name: dict(summary(spread[name]), value=v, unit=UNITS[name])
              for name, v in metrics.items()}
    detail["task_tail_ms"].update(
        percentile=round(100 * (tail_pos + 1) / len(tasks), 2), tasks=len(tasks),
        beyond=len(tasks) - tail_pos - 1)
    detail["wall_s"]["unscaled"] = sum(
        statistics.median(p.times[i] for p in plain) for i in range(len(tasks)))
    return metrics, detail, attempted, failed


def per_layer(workload, passes) -> tuple[dict, dict, dict]:
    factors = pass_factors(workload, passes)
    plain = [(p, f) for p, f in zip(passes, factors) if not p.traced]
    traced = [(p, f) for p, f in zip(passes, factors) if p.traced]
    rows: dict[str, list[float]] = {}
    shares: dict[str, list[float]] = {}
    for p, factor in traced:
        snap = tracing.merge_snapshots(p.snaps)
        row = tracing.layer_metrics(snap)
        main_s = snap["stats"].get("cli.main", (0, 0.0, 0.0))[1]
        row["cli.commands"] = snap["stats"].get("cli.main", (0, 0.0, 0.0))[0]
        row["cli.startup_s"] = (sum(s["wall"] for s in p.snaps) - main_s
                                if not workload.in_process else 0.0)
        row["cli.output_bytes"] = p.output_bytes
        for name, value in row.items():
            rows.setdefault(name, []).append(value * factor if name.endswith("_s") else value)
        own = tracing.layer_self_seconds(snap)
        for layer, s in own.items():
            shares.setdefault(layer, []).append(s / p.total)
        shares.setdefault("other", []).append(1 - sum(own.values()) / p.total)
    overhead = (statistics.median(p.total * f for p, f in traced)
                / statistics.median(p.total * f for p, f in plain) - 1)
    rows["trace.overhead_ratio"] = [overhead]
    metrics = {name: statistics.median(v) for name, v in rows.items()}
    detail = {name: dict(summary(v), value=metrics[name], unit=layer_unit(name))
              for name, v in rows.items()}
    share = {layer: statistics.median(v) for layer, v in shares.items()}
    return metrics, detail, share


# --- environment ------------------------------------------------------------------


def environment() -> dict:
    import mpmath.libmp

    commit = "unknown"  # the checkout need not be a git repository
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10).stdout.split()
        if len(out) == 2 and Path(out[0]).resolve() == ROOT:
            commit = out[1]
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "zpcount").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"commit": commit, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "nproc": NPROC,
            "cpu": cpu, "mpmath_backend": mpmath.libmp.BACKEND}


# --- entry points -----------------------------------------------------------------


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    # One CPU for the benchmark and its children: the calibration probe then
    # runs on the core that runs the timed work, child processes included.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    workload, tasks, first = set_up(name, seed)
    samples = SetupSamples(name, seed, seconds, first)
    passes = measure(workload, tasks, seconds, trace, samples)
    setup = samples.finish()
    extra_attempted = extra_failed = 0
    if not workload.in_process:
        probe = random.Random(f"determinism:{seed}").choice(
            [t for t in tasks if not t.extra["heavy"]])
        extra_attempted = 1
        if not workload.determinism_check(probe):
            extra_failed = 1
            print(f"stdout differs between two runs of: {probe.label}", file=sys.stderr)
    metrics, detail, attempted, failed = end_to_end(
        workload, tasks, passes, setup, extra_attempted, extra_failed)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "passes": [{"traced": p.traced, "task_s": round(p.total, 6),
                          "probe_ms": round(statistics.median(p.probes) * 1e3, 4)}
                         for p in passes],
              "tasks": len(tasks), "failed_ratio": failed / attempted,
              "environment": environment()}
    print(f"{name}  seed={seed}  tasks={len(tasks)}  passes={len(passes)}  "
          f"failed={failed}/{attempted}")
    if trace:
        metrics, detail, share = per_layer(workload, passes)
        record["layer_shares"] = share
        print("layer self-time share of traced task time:")
        for layer, s in sorted(share.items(), key=lambda kv: -kv[1]):
            print(f"  {layer:10s} {100 * s:6.2f}%")
    else:
        tail = detail["task_tail_ms"]
        print(f"  task_tail_ms is p{tail['percentile']} of {tail['tasks']} per-task times "
              f"({tail['beyond']} beyond it)")
    for metric, d in detail.items():
        print(f"  {metric:32s} {d['value']:14.6g} {d['unit']:6s} "
              f"median={d['median']:.6g} iqr={d['iqr']:.4g} n={d['n']}")
    record["metrics"] = detail
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": detail[k]["unit"]} for k, v in metrics.items()},
    }))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    results = {}
    for name in NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"error: {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = (json.loads(lines[-2])["record"], json.loads(lines[-1]))
    ok = all(res["correct"] for _, res in results.values())
    print(f"seed={seed} seconds={seconds} trace={int(trace)}")
    metric_names = list(results[NAMES[0]][1]["metrics"])
    print(f"{'metric':32s}" + "".join(f"{n:>20s}" for n in NAMES))
    for metric in metric_names:
        cells = []
        for name in NAMES:
            m = results[name][1]["metrics"][metric]
            cells.append(f"{m['value']:>14.6g} {m['unit']:<5s}")
        print(f"{metric:32s}" + "".join(cells))
    if trace:
        layers = list(DESIGNATED) + ["other"]
        print("layer self-time share of traced task time:")
        print(f"{'layer':32s}" + "".join(f"{n:>20s}" for n in NAMES))
        for layer in layers:
            print(f"{layer:32s}" + "".join(
                f"{100 * results[n][0]['layer_shares'][layer]:>19.2f}%" for n in NAMES))
        for layer, want in DESIGNATED.items():
            got = max(NAMES, key=lambda n: results[n][0]["layer_shares"][layer])
            if got != want:
                ok = False
                print(f"layer {layer}: largest share on {got}, designated {want}")
    print(json.dumps({
        "correct": ok,
        "attempted": sum(res["attempted"] for _, res in results.values()),
        "failed": sum(res["failed"] for _, res in results.values()),
        "metrics": {f"{n}.{k}": v for n in NAMES for k, v in results[n][1]["metrics"].items()},
    }))
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-sample", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.setup_sample:
        print(set_up(args.workload, args.seed)[2])
        return 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
