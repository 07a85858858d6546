"""One CLI command in a fresh interpreter, as ``python -m curvemvg.scene_cli`` runs it.

Usage: python3 perfbench/cli_child.py SIDE_FILE TRACE -- <scene_cli arguments>

Runs ``curvemvg.scene_cli.main`` on the arguments and exits with its code.
It also writes SIDE_FILE (JSON): the exit code, the import CPU time of
``curvemvg``, this process's peak resident memory and, with TRACE=1, the
span totals of the run.  Peak memory is read from VmHWM in
/proc/self/status, which starts afresh at exec; the rusage a parent gets
for a child also counts the memory the parent held when it spawned it.
"""

import json
import sys
import time


def peak_rss_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> int:
    side, trace, sep = sys.argv[1:4]
    if sep != "--" or trace not in ("0", "1"):
        print(__doc__, file=sys.stderr)
        return 2
    rec = None
    if trace == "1":
        from tracer import SpanRecorder
        rec = SpanRecorder(keep_spans=0)   # only totals go back to the benchmark
    start = time.process_time()
    from curvemvg import scene_cli
    import_s = time.process_time() - start
    if rec is not None:
        rec.install()
        rec.enabled = True
    code = scene_cli.main(sys.argv[4:])
    out = {"exit": code, "import_s": import_s}
    if rec is not None:
        rec.enabled = False
        out["trace"] = rec.totals()
    out["peak_rss_kb"] = peak_rss_kb()
    with open(side, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
