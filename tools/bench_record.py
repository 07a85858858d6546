#!/usr/bin/env python3
"""Record benchmark runs of a parent and a changed checkout as BENCH_*.json.

Usage:

    python3 tools/bench_record.py --parent DIR --change DIR \\
        --workload curve_recovery --seeds 12001-12010 [--trace 0|1] [--out-dir .]

Each seed is one pair: ``python3 perfbench/run.py`` runs on both checkouts,
one after the other, at its default run length, with the parent first on
even pairs and the change first on odd ones.  Every run's last line of
standard output is stored as printed, with its workload, seed, trace
setting, side and place in the pair.  Each side's runs go to
``BENCH_<commit>.json`` in the output directory; a file that exists is
appended to, so several workloads collect in one record.  The record names
the commit, the git tree of ``src/`` and of ``perfbench/`` as measured, the
checkout directory (``setup_s`` depends on it), the processor count and the
Python and numpy versions.

When it creates a record, the script also runs the Tier-1 suite once in that
checkout (``python -m pytest -q --continue-on-collection-errors`` with
``src`` on ``PYTHONPATH``) and stores its passed and failed counts (errors
count as failed), its wall time and its summary line under ``tier1``, and
``src_lines``, the ``wc -l`` total of ``src/curvemvg/*.py`` in that
checkout.  A record that is appended to keeps the figures of its first run.

Next to every run, the script times two fixed calibration kernels, each in
a fresh interpreter at one BLAS thread, as CPU milliseconds stored with the
run: ``calibration_ms``, 200 SVDs of one seeded 64 x 64 matrix (BLAS-bound),
and ``calibration_small_ms``, a seeded loop of small-array numpy calls
(interpreter-bound, the regime of the workloads).  The host's speed moves
every figure of a record, so dividing a metric by the calibration of its
runs lets records of different sessions be scaled to one another; the
summary prints both sides' medians of each kernel and their ratio.

A checkout whose tracked files differ from its commit is recorded as
``BENCH_<commit>-worktree.json``: such a record is keyed by its base commit
plus ``src_tree``, which equals ``git rev-parse <c>:src`` of the commit
``c`` that later holds the measured code.  Untracked files under ``src/`` or
``perfbench/`` would not be in that tree, so the script refuses to record
while there are any.

After the pairs, the script reads the two records as written and prints one
line per end-to-end metric of ``BENCHMARK.json`` (in the change checkout) over
every pair of the workload and trace setting that both records hold: a
verdict, both medians, the number of pairs the change won (ties count for
neither side), how much worse the change's median is, the wider of the two
sides' quartile distances and the metric's bound, the last three as
percentages of the parent's median, as the bound is a fraction of it.  The
verdict is ``worse`` when the change's median is worse by more than the
bound, else ``unresolved`` when the quartile distance exceeds the bound (the
runs spread too widely to tell), else ``within bound``.  Each line ends
with ``gain met`` when the change won at least nine tenths of the pairs and
its median is better than the parent's by more than the parent's own
quartile distance, and ``gain not met`` otherwise.  A traced run
reports the per-layer metrics instead, so with ``--trace 1`` the lines give
both medians of each per-layer metric of ``BENCHMARK.json``, with no
verdict.  A last line gives each side's failed and attempted operations.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np


def git(checkout: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(checkout), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def describe(checkout: Path) -> dict:
    """Commit, measured source trees and directory of one checkout."""
    commit = git(checkout, "rev-parse", "HEAD")
    untracked = git(checkout, "status", "--porcelain", "--untracked-files=all", "--",
                    "src", "perfbench")
    if any(line.startswith("??") for line in untracked.splitlines()):
        raise SystemExit(f"{checkout}: untracked files under src/ or perfbench/; add them first")
    modified = bool(git(checkout, "status", "--porcelain", "--untracked-files=no"))
    # a stash commit holds the tracked files as they are, without touching them
    measured = (git(checkout, "stash", "create") if modified else "") or commit
    return {"commit": commit, "worktree_modified": modified,
            "src_tree": git(checkout, "rev-parse", f"{measured}:src"),
            "perfbench_tree": git(checkout, "rev-parse", f"{measured}:perfbench"),
            "checkout": str(checkout)}


def record_path(out_dir: Path, side: dict) -> Path:
    suffix = "-worktree" if side["worktree_modified"] else ""
    return out_dir / f"BENCH_{side['commit'][:12]}{suffix}.json"


def run_tier1(checkout: Path) -> dict:
    """Passed and failed counts and wall time of one Tier-1 run in the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"],
        cwd=checkout, env=env, capture_output=True, text=True, timeout=1800)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    summary = lines[-1] if lines else ""
    counts = {kind: 0 for kind in ("passed", "failed", "error")}
    for n, kind in re.findall(r"(\d+) (passed|failed|error)", summary):
        counts[kind] += int(n)
    if not counts["passed"] + counts["failed"] + counts["error"]:
        raise SystemExit(f"{checkout}: no Tier-1 summary line\n{proc.stdout}{proc.stderr}")
    return {"passed": counts["passed"], "failed": counts["failed"] + counts["error"],
            "wall_s": round(wall, 2), "summary": summary}


def src_lines(checkout: Path) -> int:
    """Line count of the library sources, as ``wc -l src/curvemvg/*.py`` totals it."""
    sources = (checkout / "src" / "curvemvg").glob("*.py")
    return sum(path.read_bytes().count(b"\n") for path in sources)


def load_record(path: Path, name: str, side: dict) -> dict:
    if path.exists():
        rec = json.loads(path.read_text())
        if rec["side"] != side:
            raise SystemExit(f"{path} was recorded from another checkout or tree")
        return rec
    return {"side": side, "name": name,
            "machine": {"nproc": len(os.sched_getaffinity(0)),
                        "python": platform.python_version(), "numpy": np.__version__},
            "tier1": run_tier1(Path(side["checkout"])),
            "src_lines": src_lines(Path(side["checkout"])),
            "runs": []}


def run_once(checkout: Path, workload: str, seed: int, trace: int) -> str:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, timeout=1800)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise SystemExit(f"{checkout}: run.py exited {proc.returncode}\n{proc.stderr}")
    return proc.stdout.strip().splitlines()[-1]


# the calibration kernels by the key each run stores, each timed in a fresh
# interpreter so its BLAS thread count holds: one BLAS-bound, and one bound by
# the interpreter's cost per numpy call on arrays of a few rows
CALIBRATIONS = {
    "calibration_ms": """
import time
import numpy as np
a = np.random.default_rng(0).standard_normal((64, 64))
start = time.process_time()
for _ in range(200):
    np.linalg.svd(a)
print(1e3 * (time.process_time() - start))
""",
    "calibration_small_ms": """
import time
import numpy as np
rng = np.random.default_rng(0)
a, b = rng.standard_normal((6, 4)), rng.standard_normal((4, 3))
start = time.process_time()
for _ in range(4000):
    p = a @ b
    p = p / np.linalg.norm(p, axis=1, keepdims=True)
    np.linalg.svd(p, compute_uv=False)
    np.abs(np.concatenate([p, p])).max()
print(1e3 * (time.process_time() - start))
""",
}


def calibrate(kernel: str) -> float:
    """CPU milliseconds of one calibration kernel at one BLAS thread."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", kernel], env=env, capture_output=True,
                          text=True, check=True, timeout=600)
    return round(float(proc.stdout), 3)


def calibration_lines(records: dict) -> list[str]:
    """Per kernel, both sides' median over the runs that carry it, and their ratio."""
    lines = []
    for key in CALIBRATIONS:
        med = {name: np.median([run[key] for run in rec["runs"] if key in run] or [np.nan])
               for name, rec in records.items()}
        lines.append(f"{key}: parent {med['parent']:.1f} ms, change {med['change']:.1f} ms, "
                     f"change/parent {med['change'] / med['parent']:.3f}")
    return lines


def summarize(records: dict, workload: str, trace: int, bench: dict) -> list[str]:
    """Per-metric verdict lines over the pairs (same seed) both records hold."""
    results = {name: {run["seed"]: json.loads(run["line"]) for run in rec["runs"]
                      if run["workload"] == workload and run["trace"] == trace}
               for name, rec in records.items()}
    seeds = sorted(results["parent"].keys() & results["change"].keys())
    lines = []
    if trace:
        # a traced run reports the per-layer metrics, not the end-to-end ones
        for metric in bench["per_layer"]:
            parent, change = (np.median([results[side][s]["metrics"][metric["name"]]["value"]
                                         for s in seeds]) for side in ("parent", "change"))
            lines.append(f"{workload} {metric['name']}: median {parent:.4g} -> {change:.4g} "
                         f"{metric['unit']}")
    for metric in [] if trace else bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        parent, change = (np.array([results[side][s]["metrics"][name]["value"] for s in seeds])
                          for side in ("parent", "change"))
        sign = 1.0 if metric["better"] == "lower" else -1.0
        won = int(np.sum(sign * (change - parent) < 0.0))
        med_p, med_c = np.median(parent), np.median(change)
        # every share below is a fraction of the parent's median, as the bound is
        worse = sign * (med_c - med_p) / med_p
        spread_p, spread_c = (np.subtract(*np.percentile(runs, [75, 25])) / med_p
                              for runs in (parent, change))
        spread = max(spread_p, spread_c)
        verdict = ("worse" if worse > bound else "unresolved" if spread > bound
                   else "within bound")
        way = "worse" if worse > 0 else "better"
        gain = won >= 0.9 * len(seeds) and -worse > spread_p
        lines.append(f"{workload} {name} ({metric['better']} is better): {verdict}; "
                     f"median {med_p:.4g} -> {med_c:.4g} {metric['unit']} "
                     f"({100.0 * abs(worse):.1f}% {way}), change won {won}/{len(seeds)} pairs, "
                     f"quartile distance {100.0 * spread:.1f}%, bound {100.0 * bound:.0f}%; "
                     f"gain {'met' if gain else 'not met'}")
    ops = {side: [sum(results[side][s][key] for s in seeds) for key in ("failed", "attempted")]
           for side in ("parent", "change")}
    lines.append(f"{workload} failed operations: parent {ops['parent'][0]}/{ops['parent'][1]}, "
                 f"change {ops['change'][0]}/{ops['change'][1]}")
    return lines


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", type=Path, required=True)
    p.add_argument("--change", type=Path, required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=parse_seeds, required=True, help="N or A-B")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out-dir", type=Path, default=Path("."))
    args = p.parse_args(argv)
    sides = {}
    for name in ("parent", "change"):
        checkout = getattr(args, name).resolve()
        side = describe(checkout)
        path = record_path(args.out_dir, side)
        sides[name] = (checkout, path, load_record(path, name, side))
    for pair, seed in enumerate(args.seeds):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for place, name in enumerate(order):
            checkout, _, rec = sides[name]
            line = run_once(checkout, args.workload, seed, args.trace)
            rec["runs"].append({"workload": args.workload, "seed": seed, "trace": args.trace,
                                "side": name, "first_in_pair": place == 0, "line": line,
                                **{key: calibrate(kernel) for key, kernel in CALIBRATIONS.items()}})
            print(f"{args.workload} seed {seed} {name}: {line}", file=sys.stderr)
        for _, path, rec in sides.values():
            path.write_text(json.dumps(rec, indent=1) + "\n")
    bench = json.loads((args.change.resolve() / "BENCHMARK.json").read_text())
    records = {name: rec for name, (_, _, rec) in sides.items()}
    for line in summarize(records, args.workload, args.trace, bench) + calibration_lines(records):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
