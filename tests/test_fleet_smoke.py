"""Fleet smoke: a 2-worker fleet survives a SIGKILLed third worker.

A throttled ``python -m repro.exec.fleet work`` subprocess is
SIGKILLed mid-shard with its lease still held.  Two in-process
survivors must finish the grid through staleness reclaim (or a racing
claim), resume the victim's checkpointed cells, and merge
byte-identical to the unsharded sweep.  Every checkpoint record the
victim left behind must decode, through the array-native codec, to
the very coloring the unsharded run computed for that cell.

Marked ``slow``: it spawns a subprocess and waits on lease staleness.
Run it with ``python -m pytest -q -s tests/test_fleet_smoke.py``.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import registry
from repro.exec import (
    ReclaimPolicy,
    SweepBackend,
    compile_manifest,
    grid_cells,
    merge_shards,
    run_fleet_worker,
)
from repro.exec.shards import result_from_json
from repro.workloads import get_workload

pytestmark = pytest.mark.slow


def _victim_records(checkpoint_dir):
    """``{manifest index: record}`` of every complete checkpoint line
    (a line torn by the kill has no trailing newline and is skipped)."""
    records = {}
    for name in os.listdir(checkpoint_dir):
        if not name.endswith(".jsonl"):
            continue
        with open(os.path.join(checkpoint_dir, name), encoding="utf-8") as f:
            for line in f:
                if line.endswith("\n") and line.strip():
                    record = json.loads(line)
                    records[record["index"]] = record
    return records


def test_two_worker_fleet_survives_sigkilled_worker(tmp_path):
    specs = [
        registry.get_algorithm(n)
        for n in ("trial", "deterministic-d2", "greedy-oracle")
    ]
    corpus = [
        get_workload(n)
        for n in ("gnp24", "relay3x4", "powerlaw24", "sampling-slack24")
    ]
    cells = grid_cells(specs=specs, scenarios=corpus, seeds=(0, 1))
    unsharded = SweepBackend(executor="serial").run_grid(cells)

    tmp = str(tmp_path)
    manifest = compile_manifest(cells, 3)
    manifest.save(tmp)
    src = os.path.dirname(os.path.dirname(registry.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    # Victim subprocess: throttled so SIGKILL lands mid-shard with the
    # lease still held.
    victim = subprocess.Popen(
        [sys.executable, "-m", "repro.exec.fleet", "work", tmp,
         "--worker-id", "victim", "--throttle", "0.2",
         "--stale-after", "0.4", "--poll-interval", "0.02"],
        env=env,
    )
    lease_dir = os.path.join(tmp, "leases")
    try:
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if (
                os.path.isdir(lease_dir)
                and os.listdir(lease_dir)
                and any(
                    os.path.getsize(os.path.join(tmp, f))
                    for f in os.listdir(tmp)
                    if f.endswith(".jsonl")
                )
            ):
                break
            time.sleep(0.05)
        else:
            pytest.fail("victim never checkpointed a cell")
        victim.send_signal(signal.SIGKILL)
        victim.wait(timeout=30)
    finally:
        if victim.poll() is None:  # pragma: no cover - cleanup
            victim.kill()
            victim.wait(timeout=30)
    # The victim must die holding its lease: the survivors can only
    # finish that shard through staleness reclaim.
    held = []
    for f in os.listdir(lease_dir):
        with open(os.path.join(lease_dir, f), encoding="utf-8") as handle:
            held.append(json.loads(handle.read()))
    assert any(lease.get("owner") == "victim" for lease in held), held

    # The records the victim wrote before the kill are array-native
    # and decode to the unsharded run's cells.
    written = _victim_records(tmp)
    assert written
    for index, record in written.items():
        coloring = record["result"]["coloring"]
        assert set(coloring) <= {"dtype", "colors", "nodes"}
        result = result_from_json(record["result"])
        assert tuple(result.coloring) == tuple(
            unsharded.cells[index].coloring
        )

    policy = ReclaimPolicy(
        stale_after=0.4, poll_interval=0.02, max_poll_interval=0.2
    )
    with ThreadPoolExecutor(max_workers=2) as pool:
        reports = list(
            pool.map(
                lambda w: run_fleet_worker(
                    manifest, tmp, worker_id=w, policy=policy,
                    deadline=120.0,
                ),
                ("survivor-a", "survivor-b"),
            )
        )
    assert any(r.completed for r in reports), reports
    # Recovery evidence: the dead worker's shard was taken over
    # (reclaim recorded, or won by a racing claim after the
    # reclaimer's tombstone rename) and its checkpointed cells were
    # resumed, not recomputed from scratch.
    assert (
        sum(len(r.reclaimed) for r in reports)
        + sum(r.resumed for r in reports)
    ) >= 1, reports
    merged = merge_shards(manifest, tmp)
    assert merged.fingerprint() == unsharded.fingerprint()
    print(
        f"fleet merge of {len(cells)} cells byte-identical "
        f"after SIGKILL + reclaim; reports: "
        f"{[r.summary() for r in reports]}"
    )
