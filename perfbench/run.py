#!/usr/bin/env python3
"""fockrep benchmark: time to an exact verdict, end to end and per layer.

    python3 perfbench/run.py --workload grid_full --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from its src/.
One process, one caller, no threads: a closed loop that sends the next op
only after the previous verdict is back.  Every verdict is checked against
a known answer (see workloads.py).

--trace 0 measures the end-to-end metrics: whole passes over the workload
run while the next one still fits in --seconds (at least one pass), each on
freshly built inputs.  Timings are in reference seconds (see speed.py);
the raw wall-clock figures are in the info line.  setup_s is the median of
several fresh processes that start, import fockrep and build every input.

--trace 1 runs one untraced pass, then one traced pass, and reports the
per-layer metrics of the traced pass with the tracing overhead; its spans
are written to perfbench/traces/.

The last line of standard output is the result
{"correct", "attempted", "failed", "metrics"}; the line before it is an
{"info": ...} object with the environment, the failures and, for
grid_full, the sha256 of the `report-all --grid full --format json` bytes.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9  # split before and after the passes, so they see two moments
WORKLOADS = ("grid_full", "irreducible_large", "cross_realize", "negative_controls")


def load_library():
    if not (SRC / "fockrep" / "__init__.py").is_file():
        sys.exit("error: no fockrep sources under %s; run from a checkout "
                 "of the repository" % SRC)
    sys.path.insert(0, str(SRC))


@dataclasses.dataclass
class Pass:
    size: int
    wall: float
    starts: list
    latencies: list
    mismatches: list  # (op, reason)
    digest: str = None


def verdict(op, result) -> str:
    """Empty when the op's result is its known answer, else the reason."""
    if isinstance(result, Exception):
        return "raised %s: %s" % (type(result).__name__, result)
    try:
        return op.check(result)
    except Exception as exc:  # a result the checker cannot read is wrong
        return "unreadable result %r: %s" % (result, exc)


def run_pass(ops, tracer=None, digest=None) -> Pass:
    """Run the ops one after another, timing each call, then check it.
    An op that raises counts as failed; the others still run.  The results
    are dropped after `digest(ops, results)`, so that earlier passes do not
    add to the peak memory of later ones."""
    starts, latencies, results, mismatches = [], [], [], []
    start = perf_counter()
    for op in ops:
        root = tracer.open("op") if tracer else None
        t = perf_counter()
        starts.append(t)
        try:
            result = op.call()
        except Exception as exc:
            traceback.print_exc()
            result = exc
        latencies.append(perf_counter() - t)
        if tracer:
            tracer.close(root)
        reason = verdict(op, result)
        if reason:
            mismatches.append((op, reason))
        results.append(result)
    wall = perf_counter() - start
    whole = digest and not any(isinstance(r, Exception) for r in results)
    return Pass(len(ops), wall, starts, latencies, mismatches,
                digest(ops, results) if whole else None)


def setup_times(args, repeats) -> list:
    """(reference, raw) set-up seconds of fresh processes that start, import
    fockrep and build every input.  The child samples the machine's speed
    while it imports and builds, and reports when it is done on the
    system-wide monotonic clock, so its exit is not timed."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    times = []
    for _ in range(repeats):
        spawned = time.monotonic()
        child = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                               check=True, timeout=120)
        done, probe_busy, speed = json.loads(child.stdout.strip().splitlines()[-1])
        times.append(((done - spawned - probe_busy) * speed, done - spawned))
    return times


def setup_probe(args):
    """The child's side of setup_times.  Set-up is short, so besides the
    timer's samples it samples the speed ten times before and after."""
    from speed import SpeedProbe

    with SpeedProbe() as probe:
        probe.sample(10)
        import workloads

        workloads.build_ops(args.workload, args.seed, args.tiny)
        done, done_pc = time.monotonic(), perf_counter()
        probe.sample(10)
    busy = sum(d for t, d in zip(probe.times, probe.durations) if t < done_pc)
    print(json.dumps([done, busy, probe.mean_speed]))


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def environment(seed) -> dict:
    from fockrep import scalars

    return {"python": platform.python_version(),
            "rational_backend": scalars.Rational.__module__.split(".")[0],
            "nproc": len(os.sched_getaffinity(0)),
            "seed": seed,
            "commit": git_commit()}


def p50_p90(values):
    return (statistics.median(values),
            statistics.quantiles(values, n=10, method="inclusive")[8])


def end_to_end(passes, probe, setups):
    """The bounded metrics (in reference seconds, see speed.py) and the
    raw wall-clock figures they come from."""
    walls = [p.wall for p in passes]
    lat = [x for p in passes for x in p.latencies]
    ref_by_pass = [[probe.reference_time(t, t + x) for t, x in zip(p.starts, p.latencies)]
                   for p in passes]
    ref_lat = [x for ref in ref_by_pass for x in ref]
    ref_p50, ref_p90 = p50_p90(ref_lat)
    raw_p50, raw_p90 = p50_p90(lat)
    metrics = {
        "wall_ref_s": (statistics.median(sum(ref) for ref in ref_by_pass), "s"),
        "op_ref_ms_p50": (ref_p50 * 1000, "ms"),
        "op_ref_ms_p90": (ref_p90 * 1000, "ms"),
        "setup_s": (statistics.median(ref for ref, _ in setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    raw = {"wall_s": statistics.median(walls), "op_ms_p50": raw_p50 * 1000,
           "op_ms_p90": raw_p90 * 1000, "mean_speed": probe.mean_speed,
           "speed_samples": len(probe.times),
           "setup_s": statistics.median(raw for _, raw in setups)}
    return metrics, raw


def traced_run(args, workloads, digest):
    from spans import Tracer

    untraced = run_pass(workloads.build_ops(args.workload, args.seed, args.tiny),
                        digest=digest)
    tracer = Tracer()
    tracer.install()
    try:
        root = tracer.open("setup")
        ops = workloads.build_ops(args.workload, args.seed, args.tiny)
        tracer.close(root)
        traced = run_pass(ops, tracer, digest)
    finally:
        tracer.restore()
    tracer.write(ROOT / "perfbench" / "traces" / ("%s-seed%d.json.gz" % (args.workload, args.seed)))
    metrics = tracer.metrics()
    metrics["trace.untraced_wall_s"] = (untraced.wall, "s")
    metrics["trace.traced_wall_s"] = (traced.wall, "s")
    metrics["trace.overhead_s"] = (traced.wall - untraced.wall, "s")
    return [untraced, traced], metrics, {}


def timed_run(args, workloads, digest):
    from speed import SpeedProbe

    setups = setup_times(args, SETUP_REPEATS // 2)
    passes = []
    start = perf_counter()
    with SpeedProbe() as probe:
        while True:
            ops = workloads.build_ops(args.workload, args.seed, args.tiny)
            passes.append(run_pass(ops, digest=digest))
            if perf_counter() - start + passes[-1].wall > args.seconds:
                break
    setups += setup_times(args, SETUP_REPEATS - len(setups))
    return passes, *end_to_end(passes, probe, setups)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="a few small instances per workload (self-test)")
    parser.add_argument("--setup-probe", action="store_true",
                        help="only import and build the inputs (timed by the parent)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    load_library()
    if args.setup_probe:
        setup_probe(args)
        return 0
    import workloads

    # the byte-identity digest of `report-all --grid full --format json`
    digest = workloads.grid_digest if args.workload == "grid_full" else None
    passes, metrics, raw = (traced_run if args.trace else timed_run)(args, workloads, digest)

    mismatches = [m for p in passes for m in p.mismatches]
    unexpected = [(op, why) for op, why in mismatches if not op.known_defect]
    info = {
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
        "loop": "closed, one caller, no threads",
        "env": environment(args.seed),
        "passes": len(passes), "ops_per_pass": passes[-1].size,
        "op_samples": sum(len(p.latencies) for p in passes),
        "known_defect_failures": len(mismatches) - len(unexpected),
        "raw": raw,
        "failures": list(dict.fromkeys("%s: %s" % (op.label, why) for op, why in mismatches)),
    }
    if digest:
        info["digest"] = {"seed": args.seed,
                          "sha256": sorted({p.digest for p in passes if p.digest})}
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({
        "correct": not unexpected,
        "attempted": sum(len(p.latencies) for p in passes),
        "failed": len(mismatches),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
