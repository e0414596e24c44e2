"""Tests of the benchmark itself (not collected by the tier-1 suite).

Run from the repo root::

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import attribution  # noqa: E402
import rep  # noqa: E402
import run  # noqa: E402


def _b(span_id, name, t, parent=None, **attrs):
    rec = {"kind": "span", "phase": "B", "id": span_id, "name": name, "t": t}
    if parent is not None:
        rec["parent"] = parent
    if attrs:
        rec["attrs"] = attrs
    return rec


def _e(span_id, name, t, dur):
    return {
        "kind": "span", "phase": "E", "id": span_id, "name": name,
        "t": t, "dur": dur,
    }


def _x(span_id, name, t, dur, parent=None, **attrs):
    rec = {
        "kind": "span", "phase": "X", "id": span_id, "name": name,
        "t": t, "dur": dur, "attrs": attrs,
    }
    if parent is not None:
        rec["parent"] = parent
    return rec


def synthetic_trace():
    """bench.run [0, 10] holding: bench.prebuild [0.5, 1.5]; bench.shard
    [2, 9] > shard.run [2, 8.5] (lead-in 0.5) > sweep.cell X [2.5, 6.5]
    > exec.kernel X [2.5, 4.5] > plan.build X [2.5, 3] (whose ``parent``
    field names shard.run, as real X records do), a fallback event, and
    exec.run X fastpath [4.75, 6.25]; a second sweep.cell X [6.5, 8]
    with an exec.run X reference [7, 7.5] no layer claims; bench.merge
    [9, 9.75].  Times are binary fractions, so sums are exact."""
    return [
        {"kind": "meta", "schema": 1, "t": 0.0},
        _b(1, "bench.run", 0.0),
        _b(2, "bench.prebuild", 0.5, parent=1),
        _e(2, "bench.prebuild", 1.5, 1.0),
        _b(3, "bench.shard", 2.0, parent=1),
        _b(4, "shard.run", 2.0, parent=3),
        _x(7, "plan.build", 2.5, 0.5, parent=4, n=10),
        _x(6, "exec.kernel", 2.5, 2.0, parent=4, rounds=3),
        {"kind": "event", "name": "exec.fallback", "t": 4.6,
         "parent": 4, "attrs": {"cause": "no-kernel"}},
        _x(8, "exec.run", 4.75, 1.5, parent=4, backend="fastpath",
           rounds=12),
        _x(5, "sweep.cell", 2.5, 4.0, parent=4),
        _x(10, "exec.run", 7.0, 0.5, parent=4, backend="reference",
           rounds=1),
        _x(9, "sweep.cell", 6.5, 1.5, parent=4),
        _e(4, "shard.run", 8.5, 6.5),
        _e(3, "bench.shard", 9.0, 7.0),
        _b(11, "bench.merge", 9.0, parent=1),
        _e(11, "bench.merge", 9.75, 0.75),
        _e(1, "bench.run", 10.0, 10.0),
    ]


def test_self_times_sum_to_traced_wall():
    out = attribution.attribute(synthetic_trace())
    layered = sum(out[name] for name in attribution.LAYER_METRICS)
    assert out["obs.traced_s"] == 10.0
    assert layered + out["unattributed_s"] == out["obs.traced_s"]


def test_self_times_per_layer():
    out = attribution.attribute(synthetic_trace())
    assert out["congest.plan_s"] == 0.5
    assert out["vectorized.kernel_s"] == 1.5  # 2.0 minus plan.build
    assert out["fastpath.run_s"] == 1.5
    # two cells: 4.0 - 2.0 - 1.5 and 1.5 - 0.5 (reference run)
    assert out["sweep.glue_s"] == 1.5
    # shard.run lead-in [2, 2.5] is prebuild; bench.shard's tail [8.5, 9]
    # and shard.run's tail [8, 8.5] are checkpoint IO
    assert out["workloads.prebuild_s"] == 1.5
    assert out["shards.checkpoint_s"] == 1.0
    assert out["shards.merge_s"] == 0.75
    # bench.run self (0.5 + 0.5 + 0.25) + unclaimed reference run (0.5)
    assert out["unattributed_s"] == 1.75
    assert out["vectorized.kernel_calls"] == 1
    assert out["vectorized.fallbacks"] == 1
    assert out["vectorized.kernel_share"] == 0.5
    assert out["fastpath.rounds_per_s"] == 8.0
    assert out["sweep.cells"] == 2
    assert out["sweep.cell_s.p50"] == 2.75
    assert out["sweep.cell_s.p99"] == 4.0


def test_unclosed_span_is_dropped():
    records = synthetic_trace()[:-1]  # bench.run never ends
    out = attribution.attribute(records)
    layered = sum(out[name] for name in attribution.LAYER_METRICS)
    assert math.isclose(layered + out["unattributed_s"], out["obs.traced_s"])
    assert out["obs.traced_s"] == 1.0 + 7.0 + 0.75


def _bench(*args):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_smoke_run_is_correct_and_prints_every_metric():
    proc = _bench("--workload", "smoke", "--seed", "3", "--seconds", "1",
                  "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.PER_LAYER)
    records = [
        json.loads(line.split(" ", 1)[1])
        for line in proc.stdout.splitlines()
        if line.startswith("record ")
    ]
    assert {r["traced"] for r in records} == {False, True}
    assert len({r["fingerprint_sha256"] for r in records}) == 1
    assert set(records[0]["host"]) == {
        "cpu", "nproc", "python", "numpy", "commit", "src_sha256",
    }


def test_corrupted_coloring_fails_the_run():
    proc = _bench("--workload", "smoke", "--seconds", "1", "--corrupt")
    assert proc.returncode != 0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] / result["attempted"] > 0


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert {
        m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]
    } == run.END_TO_END
    assert {
        m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]
    } == run.PER_LAYER


def test_missing_program_exits_nonzero_without_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kernel-huge",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="program defect: basic-d2color runs to its 500000-round cap on "
    "bipartite-double-petersen seed 22 and leaves a node uncolored",
)
def test_basic_d2color_colors_bipartite_double_petersen(tmp_path):
    """corpus-grid leaves basic-d2color out because of this defect (see
    README.md).  Once this test passes, the spec belongs back in
    ``rep.CORPUS_SPECS``."""
    cell = rep.Workload(
        ("bipartite-double-petersen",), ("basic-d2color",), 1, "fastpath", 1
    )
    record = rep.run(cell, 22, str(tmp_path))
    assert record["failed"] == 0
