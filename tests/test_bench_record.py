"""The gain rule that tools/bench_record.py prints for each end-to-end metric."""
import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_record", Path(__file__).resolve().parents[1] / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)

BENCH = {"end_to_end": [{"name": "op_tail_ms", "unit": "ms", "better": "lower", "bound": 0.25}]}


def _record(values):
    # one run per seed, each holding one metric as perfbench/run.py prints it
    return {"runs": [{"workload": "w", "seed": seed, "trace": 0,
                      "line": json.dumps({"metrics": {"op_tail_ms": {"value": value}},
                                          "failed": 0, "attempted": 100})}
                     for seed, value in enumerate(values)]}


PARENT = [6.0, 6.1, 6.2, 6.3, 6.4, 6.5, 6.6, 6.7, 6.8, 6.9]


@pytest.mark.parametrize("change, verdict", [
    # 10/10 wins, median 5.95 against 6.45, wider than the parent's 0.45 quartile distance
    ([v - 0.5 for v in PARENT], "gain met"),
    # 10/10 wins, but the medians differ by less than the parent's quartile distance
    ([v - 0.2 for v in PARENT], "gain not met"),
    # a median far better, but the change won only 8 of the 10 pairs
    ([v - 0.5 for v in PARENT[:8]] + [7.0, 7.0], "gain not met"),
], ids=["met", "narrow", "eight-of-ten"])
def test_summary_prints_whether_the_gain_rule_is_met(change, verdict):
    records = {"parent": _record(PARENT), "change": _record(change)}
    line = bench_record.summarize(records, "w", 0, BENCH)[0]
    assert line.endswith("; " + verdict)
