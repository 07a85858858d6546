#!/usr/bin/env python3
"""Benchmark of the curvemvg workbench, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is motion_sweep, curve_recovery or cli_reports (see README.md), or
``all`` to run the three one after another.  Each run times whole rounds of
operations, closed loop, one at a time, until S seconds have passed and at
least 40 operations have run; every output is checked after its timer
stops.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
``--trace 0``, the per-layer metrics of the traced run with ``--trace 1``.
The program is imported from ``src/`` of the checkout; without it the
benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace

# one BLAS thread, set before numpy loads, so timings do not depend on the core count
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("motion_sweep", "curve_recovery", "cli_reports")
MIN_OPS = 40            # enough operations for a tail percentile with ten beyond it
SETUP_PROBES = 9        # fresh interpreters timed for setup_s, spread over the run


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def peak_rss_kb() -> int:
    """Peak resident memory of this process since exec (VmHWM)."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def cpu_seconds() -> float:
    """CPU time of this process plus that of its children that have ended.

    Every time the benchmark reports is CPU time, not wall time: on a shared
    host the hypervisor takes the CPU away in bursts (steal), which made the
    wall time of a fixed loop range from 57 to 143 ms within a minute while
    its CPU time ranged from 44 to 71 ms.  The program is single threaded
    (one BLAS thread) and does no waiting, so on an idle machine the two agree.
    """
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def load_program():
    """Import curvemvg from this checkout's src/; returns the import CPU time in s."""
    start = time.process_time()
    sys.path.insert(0, str(SRC))
    import curvemvg
    elapsed = time.process_time() - start
    if Path(curvemvg.__file__).resolve().parent != (SRC / "curvemvg").resolve():
        raise ImportError(f"curvemvg was imported from {curvemvg.__file__}, not {SRC}")
    return elapsed


def setup_probe(args) -> int:
    """Set up exactly as a measuring run does, report when ready, and exit."""
    load_program()
    import workloads
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workloads.WORKLOADS[args.workload](
            args.seed, SimpleNamespace(root=ROOT, tmp=Path(tmp), rec=None))
        print(f"READY {time.process_time()!r}", flush=True)
    return 0


def setup_cpu_s(args) -> float:
    """CPU time of a fresh interpreter up to the moment it could start its first operation."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", args.workload, "--seed", str(args.seed)],
        capture_output=True, text=True, timeout=120)
    lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("READY ")]
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
    return float(lines[-1].split()[1])


def round_p90_ms(lat: list[tuple[str, float]], prep_ms: list[float]) -> float:
    """CPU time of one round, each operation kind and the round's set-up at its p90.

    The host the benchmark was written on switches between two speeds about
    1.5x apart, for spells of a second to a minute; a mean or a median of
    one run blends the two in a share that differs from run to run (the
    median operation time of curve_recovery spread by 27% over six runs).
    The 90th percentile of each operation kind reads the slower speed
    whenever a tenth of the run was spent at it, and spread by 5%.
    """
    by_kind = defaultdict(list)
    for name, ms in lat:
        by_kind[name].append(ms)
    by_kind["round set-up"] = prep_ms
    return sum(statistics.quantiles(v, n=10, method="inclusive")[-1] if len(v) > 1 else v[0]
               for v in by_kind.values())


def tail(latencies_ms: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with ten samples beyond it."""
    xs = sorted(latencies_ms)
    n = len(xs)
    if n < MIN_OPS:
        raise ValueError(f"{n} operations are too few for a tail percentile")
    return 100.0 * (n - 10) / n, xs[n - 11]


def run_loop(workload, args, rec):
    """Closed loop over whole rounds; returns latencies, set-up times and counts.

    Spans are recorded only while ``rec.enabled``: inside operations and a
    traced round's set-up, never in checks.  The recorder is installed for
    traced passes only, so untraced passes run the program unwrapped.

    An untraced run also times SETUP_PROBES fresh set-ups, one due every
    1/SETUP_PROBES of the run length and taken between rounds, so that their
    median spans the host's changes of speed over the run rather than the
    few seconds before it.  The wall time they take does not count in the
    run length.
    """
    lat = {False: [], True: []}        # (operation name, CPU ms) per pass
    prep_ms = {False: [], True: []}    # CPU ms of each round's set-up
    attempted = failed = 0
    correct = True
    setup_s = []
    start = time.perf_counter()
    paused = 0.0

    def elapsed() -> float:
        return time.perf_counter() - start - paused

    def take_due_setups():
        nonlocal paused
        while (not args.trace and len(setup_s) < SETUP_PROBES
               and elapsed() >= len(setup_s) * args.seconds / SETUP_PROBES):
            t0 = time.perf_counter()
            setup_s.append(setup_cpu_s(args))
            paused += time.perf_counter() - t0

    take_due_setups()
    r = 0
    while True:
        passes = ((False, True) if r % 2 == 0 else (True, False)) if args.trace else (False,)
        for traced in passes:
            if traced:
                rec.install()
            try:
                t0 = cpu_seconds()
                set_tracing(rec, traced)
                ops = workload.round(r, traced)
                set_tracing(rec, False)
                prep_ms[traced].append(1e3 * (cpu_seconds() - t0))
                for op in ops:
                    attempted += 1
                    set_tracing(rec, traced)
                    t0 = cpu_seconds()
                    try:
                        out = op.run()
                    except Exception:
                        set_tracing(rec, False)
                        failed += 1
                        print(f"perfbench: {op.name} raised (round {r}):\n"
                              f"{traceback.format_exc()}", file=sys.stderr)
                        continue
                    dt = cpu_seconds() - t0
                    set_tracing(rec, False)
                    lat[traced].append((op.name, 1e3 * dt))
                    try:
                        op.check(out)
                    except Exception as err:  # a malformed output fails its check too
                        failed += 1
                        correct = False
                        print(f"perfbench: {op.name} failed its check (round {r}): {err}",
                              file=sys.stderr)
            finally:
                if traced:
                    rec.uninstall()
        r += 1
        done = len(lat[args.trace == 1])
        need = 2 * len(ops) if args.trace else MIN_OPS
        take_due_setups()
        if elapsed() >= args.seconds and done >= need:
            return lat, prep_ms, setup_s, attempted, failed, correct, r


def set_tracing(rec, on: bool):
    if rec is not None:
        rec.enabled = on


def measure(args) -> dict:
    import_s = load_program()
    import workloads
    from tracer import PER_LAYER, SpanRecorder
    rec = SpanRecorder() if args.trace else None
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workload = workloads.WORKLOADS[args.workload](
            args.seed, SimpleNamespace(root=ROOT, tmp=Path(tmp), rec=rec))
        lat, prep_ms, setup_s, attempted, failed, correct, rounds = run_loop(workload, args, rec)
    in_process = args.workload != "cli_reports"
    peak_kb = peak_rss_kb() if in_process else workload.peak_rss_kb
    print(f"perfbench: {args.workload} seed {args.seed}: {rounds} rounds, "
          f"{attempted} operations, {failed} failed", file=sys.stderr)
    if not args.trace:
        ms = [t for _, t in lat[False]]
        p, tail_ms = tail(ms)
        rate = 1e3 * len(ms) / (sum(ms) + sum(prep_ms[False]))
        print(f"perfbench: op_tail_ms is p{p:.2f} of {len(ms)} operations; median operation "
              f"{statistics.median(ms):.4g} ms, {rate:.4g} operations per CPU second "
              "(not metrics: both blend the host's two speeds, see README.md)", file=sys.stderr)
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "round_p90_ms": (round_p90_ms(lat[False], prep_ms[False]), "ms"),
            "op_tail_ms": (tail_ms, "ms"),
            "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    else:
        traced, plain = [t for _, t in lat[True]], [t for _, t in lat[False]]
        metrics = rec.layer_metrics(len(traced))
        if in_process:
            rec.counts["curvemvg.import_s"] += import_s
            rec.counts["curvemvg.imports"] += 1
        imports = rec.counts["curvemvg.imports"]
        metrics["curvemvg.import_ms"] = {
            "value": 1e3 * rec.counts["curvemvg.import_s"] / imports, "unit": "ms"}
        t_ms, u_ms = sum(traced) / len(traced), sum(plain) / len(plain)
        metrics["trace.untraced_op_ms"] = {"value": u_ms, "unit": "ms"}
        metrics["trace.traced_op_ms"] = {"value": t_ms, "unit": "ms"}
        metrics["trace.overhead_pct"] = {"value": 100.0 * (t_ms - u_ms) / u_ms, "unit": "%"}
        assert [name for name, _ in PER_LAYER] == list(metrics), "per-layer list drifted"
        rec.dump_spans(str(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"))
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(args) -> dict:
    """Every workload in its own process; metrics are prefixed by workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900)
        if proc.returncode != 0:
            raise RuntimeError(f"workload {name} exited with {proc.returncode}")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{name}: attempted {res['attempted']}, failed {res['failed']}, "
              f"correct {res['correct']}", file=sys.stderr)
        for metric, val in res["metrics"].items():
            print(f"  {metric} = {val['value']:.6g} {val['unit']}", file=sys.stderr)
            total["metrics"][f"{name}.{metric}"] = val
        total["correct"] = total["correct"] and res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
    return total


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "curvemvg" / "__init__.py").is_file():
        return fail(f"no program to measure: {SRC / 'curvemvg'} is missing")
    if not (ROOT / "configs").is_dir():
        return fail(f"no bundled configs under {ROOT / 'configs'}")
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    if args.setup_probe:
        return setup_probe(args)
    result = run_all(args) if args.workload == "all" else measure(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
