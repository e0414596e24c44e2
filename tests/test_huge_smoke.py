"""Kernel-scale smoke: one kernelized spec on the 2^18-node huge tier.

``trial`` runs on ``gnp-huge-262144`` through the plan-driven
vectorized engine (no Python node programs are materialized) under
hard wall-clock and peak-RSS budgets.  The RSS budget fails the test
if the CSR-first path ever rematerializes the networkx adjacency: the
nx dict at this size alone would blow it.

The run happens in a fresh interpreter so that ``ru_maxrss`` is the
run's own peak, not whatever the test session reached before.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import repro

pytestmark = pytest.mark.slow

BUDGET_S = 240.0  # build + CSR + run; a few s on a dev box
BUDGET_MB = 600.0  # CSR-first: arrays only

_BODY = """
import json
import resource
import time
from repro import registry
from repro.workloads import instance_cache

t0 = time.perf_counter()
instance = instance_cache().get("gnp-huge-262144", 0)
view = instance.graphlike()
csr_born = instance._csr_born
instance.square_csr()  # prewarm the G^2 arrays, no nx
result = registry.get_algorithm("trial").run_on(
    instance, seed=0, backend="vectorized")
wall = time.perf_counter() - t0
peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
print(json.dumps({
    "csr_born": csr_born,
    "complete": result.complete,
    "rounds": result.rounds,
    "colors": result.colors_used,
    "view_materialized": view.materialized,
    "graph_built": instance._graph is not None,
    "wall": wall,
    "peak_mb": peak_mb,
}))
"""


def test_kernelized_trial_on_gnp_huge_262144():
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", _BODY],
        env=env,
        capture_output=True,
        text=True,
        timeout=2 * BUDGET_S,
    )
    assert proc.returncode == 0, proc.stderr
    run = json.loads(proc.stdout.strip().splitlines()[-1])
    wall, peak_mb = run["wall"], run["peak_mb"]

    assert run["csr_born"], "huge-tier instance not CSR-born"
    assert run["complete"], "huge-tier run left nodes uncolored"
    assert run["rounds"] > 0
    assert not run["view_materialized"], (
        "kernel path rematerialized the nx adjacency dict")
    assert not run["graph_built"], "kernel path rebuilt a full nx.Graph"
    assert wall < BUDGET_S, f"huge-tier smoke took {wall:.1f}s"
    assert peak_mb < BUDGET_MB, (
        f"huge-tier smoke peaked at {peak_mb:.0f} MiB "
        f"(budget {BUDGET_MB:.0f} MiB): nx likely rematerialized")
    print(f"gnp-huge-262144 trial via vectorized: {wall:.1f}s, "
          f"peak RSS {peak_mb:.0f} MiB, "
          f"rounds={run['rounds']}, colors={run['colors']}")
