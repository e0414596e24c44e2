"""One repetition of a benchmark workload, in this (fresh) process.

Runs the sweep path a user runs, through the public API only::

    grid_cells -> prebuild_instances              (set-up, timed as setup_s)
    compile_manifest + save -> run_shard per shard, serially
      -> merge_shards -> check_d2_coloring per merged cell  (timed as wall_s)

and prints one JSON record as its last stdout line.  With ``--trace``
the final set-up and the whole wall run under a ``repro.obs`` trace
recorder; the benchmark opens its own ``bench.*`` spans around each
public call and charges the trace to layers (``attribution.py``).

Usage (from the root of a checkout, with ``src`` importable)::

    PYTHONPATH=src python3 perfbench/rep.py --workload corpus-grid \\
        --seed 1 --workdir .perfbench_work/x [--trace] [--corrupt]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from typing import Dict, List, NamedTuple, Optional, Tuple

#: Set-up is repeated (each time from an empty instance cache) at least
#: this many times per repetition, and until at least ``SETUP_MIN_S``
#: seconds went to it; ``setup_s`` is the median.  Short set-ups (tens
#: of ms on ``fallback-det``) thus get enough samples to be steady.
SETUP_MIN_REPEATS = 3
SETUP_MIN_S = 1.0


class Workload(NamedTuple):
    """A sweep grid: workloads x specs x a seed range from ``--seed``."""

    scenarios: Optional[Tuple[str, ...]]  # None: the "corpus" workloads
    specs: Optional[Tuple[str, ...]]  # None: every registry spec
    seeds: int  # instance seeds seed .. seed + seeds - 1
    inner: str
    shards: int


CORPUS_SPECS = (
    "improved-d2color",
    "deterministic-d2",
    "eps-d2-coloring",
    "trial",
    "trial-slack",
    "naive-g2",
    "greedy-oracle",
    "dsatur-oracle",
)

WORKLOADS: Dict[str, Workload] = {
    "kernel-huge": Workload(
        ("gnp-huge-262144",),
        ("trial", "trial-slack", "improved-d2color"),
        1,
        "vectorized",
        1,
    ),
    # basic-d2color is left out: at this size it runs wholly on
    # _randomized_d2_kernel, not on the fastpath fallback this workload
    # measures (kernel-huge covers that kernel through improved-d2color).
    # Three instances, because deterministic-d2's round count follows
    # the instance's Δ (614 rounds at Δ = 10, 884 at Δ = 12).
    "fallback-det": Workload(
        ("gnp-huge-16384",),
        ("deterministic-d2", "naive-g2"),
        3,
        "vectorized",
        1,
    ),
    # Not in BENCHMARK.json: too unsteady on a shared host (README.md).
    # Every registry spec but basic-d2color, which on some corpus
    # instances runs to its round cap and leaves a node uncolored (see
    # README.md and test_perfbench.py); no other cell fails.
    "corpus-grid": Workload(None, CORPUS_SPECS, 20, "fastpath", 2),
    # Seconds-long grid for the benchmark's own tests; not in
    # BENCHMARK.json.
    "smoke": Workload(
        ("path16", "petersen"), ("trial", "greedy-oracle"), 2, "fastpath", 2
    ),
}


def make_cells(workload: Workload, seed: int):
    from repro import registry
    from repro.exec.sweep import grid_cells
    from repro.workloads import build_corpus, get_workload

    if workload.scenarios is None:
        scenarios = build_corpus()
    else:
        scenarios = [get_workload(name) for name in workload.scenarios]
    specs = None
    if workload.specs is not None:
        specs = [registry.get_algorithm(name) for name in workload.specs]
    return grid_cells(
        specs=specs,
        scenarios=scenarios,
        seeds=range(seed, seed + workload.seeds),
    )


def set_up(workload: Workload, seed: int, traced: bool):
    """``grid_cells`` + ``prebuild_instances`` from an empty cache.

    Untraced this is exactly the set-up ``setup_s`` times.  Traced, the
    CSR and G² derivations are split out as explicit ``Instance.csr()``
    and ``Instance.square_csr()`` calls so each gets its own span.  The
    check needs both on every workload, so this moves work into set-up
    but adds none.
    """
    from repro.exec.sweep import prebuild_instances
    from repro.obs import trace as obs_trace
    from repro.workloads import instance_cache

    instance_cache().clear()
    vectorized = workload.inner == "vectorized"
    with obs_trace.span("bench.grid"):
        cells = make_cells(workload, seed)
    if not traced:
        prebuild_instances(cells, prewarm_csr=vectorized)
        return cells
    with obs_trace.span("bench.prebuild"):
        instances = prebuild_instances(cells)
    with obs_trace.span("bench.csr"):
        for instance in instances:
            instance.csr()
    with obs_trace.span("bench.square"):
        for instance in instances:
            instance.square_csr()
    return cells


def corrupt_one(merged, manifest) -> None:
    """Give the first cell's first non-isolated node its G-neighbor's
    color: a distance-1 conflict the checker must report."""
    csr = manifest.cells[0].instance().csr()
    degrees = csr.degrees.tolist()
    i = next(k for k, d in enumerate(degrees) if d > 0)
    u, v = csr.order[i], csr.order[int(csr.g_indices[csr.g_indptr[i]])]
    coloring = dict(merged.cells[0].coloring)
    coloring[u] = coloring[v]
    merged.cells[0].coloring = tuple(sorted(coloring.items()))


def check(merged, manifest) -> Tuple[int, int]:
    """``(failed cells, invalid colorings)`` of a merged sweep.

    A cell fails if it raised, left a node uncolored, has a distance-2
    conflict or uses more than ``spec.bound_for(Δ)`` colors.  Cells are
    grouped by instance and each instance is resolved once, so the check
    adds at most one build per instance.
    """
    from repro import registry
    from repro.obs import trace as obs_trace
    from repro.verify.checker import check_d2_coloring

    groups: Dict[Tuple, List[int]] = {}
    for index, cell in enumerate(manifest.cells):
        key = (cell.workload or cell.scenario, cell.seed)
        groups.setdefault(key, []).append(index)
    failed = invalid = 0
    for indices in groups.values():
        instance = manifest.cells[indices[0]].instance()
        with obs_trace.span("bench.square"):
            csr = instance.square_csr()
        adjacency = instance.d2_adjacency() if csr.has_selfloops else csr
        graph = instance.graphlike()
        for index in indices:
            result = merged.cells[index]
            if result.error is not None:
                failed += 1
                continue
            spec = registry.get_algorithm(result.algorithm)
            bound = spec.bound_for(graph, delta=instance.delta)
            coloring = dict(result.coloring)
            report = check_d2_coloring(
                graph, coloring, bound, adjacency=adjacency
            )
            if (
                not report.valid
                or len(coloring) != instance.n
                or result.colors_used > bound
            ):
                invalid += 1
                failed += 1
    return failed, invalid


def run(
    workload: Workload,
    seed: int,
    workdir: str,
    traced: bool = False,
    corrupt: bool = False,
) -> Dict:
    """One repetition: set-up (see ``SETUP_MIN_REPEATS``), then the timed
    sweep.  Returns the record ``run.py`` aggregates."""
    from repro.exec.shards import (
        checkpoint_path,
        compile_manifest,
        merge_shards,
        run_shard,
    )
    from repro.obs import trace as obs_trace
    from repro.workloads import instance_cache

    setups: List[float] = []

    def timed_set_up(traced_now: bool):
        t0 = time.perf_counter()
        cells = set_up(workload, seed, traced=traced_now)
        setups.append(time.perf_counter() - t0)
        return cells

    while len(setups) < SETUP_MIN_REPEATS - 1 or sum(setups) < SETUP_MIN_S:
        timed_set_up(False)
    trace_path = os.path.join(workdir, "trace.jsonl")
    with contextlib.ExitStack() as stack:
        if traced:
            obs_trace.enable(trace_path)
            stack.callback(obs_trace.disable)
            stack.enter_context(obs_trace.span("bench.run"))
        cells = timed_set_up(traced)

        t0 = time.perf_counter()
        with obs_trace.span("bench.manifest"):
            manifest = compile_manifest(
                cells, workload.shards, inner=workload.inner
            )
            manifest.save(workdir)
        for shard in range(workload.shards):
            with obs_trace.span("bench.shard", shard=shard):
                run_shard(manifest, shard, workdir)
        checkpoint_bytes = sum(
            os.path.getsize(checkpoint_path(workdir, shard))
            for shard in range(workload.shards)
        )
        with obs_trace.span("bench.merge"):
            merged = merge_shards(manifest, workdir)
        if corrupt:
            corrupt_one(merged, manifest)
        with obs_trace.span("bench.check"):
            failed, invalid = check(merged, manifest)
        wall = time.perf_counter() - t0

    layers = None
    if traced:
        from attribution import attribute
        from repro.obs.trace import read_trace

        layers = attribute(read_trace(trace_path))

    stats = instance_cache().stats.snapshot()
    totals = merged.aggregate_metrics()
    return {
        "workload_seed": seed,
        "traced": traced,
        "setup_s": statistics.median(setups),
        "setup_samples": setups,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "cells": len(merged.cells),
        "failed": failed,
        "invalid": invalid,
        "instances": len({(c.workload or c.scenario, c.seed) for c in cells}),
        "fingerprint_sha256": hashlib.sha256(
            merged.fingerprint()
        ).hexdigest(),
        "congest": {
            "rounds": totals.rounds,
            "messages": totals.total_messages,
            "bits": totals.total_bits,
        },
        "cache": stats,
        "checkpoint_bytes": checkpoint_bytes,
        "layers": layers,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--workdir", required=True, help="must not exist yet"
    )
    parser.add_argument("--trace", action="store_true")
    parser.add_argument(
        "--corrupt",
        action="store_true",
        help="corrupt one merged coloring before the check (self-test)",
    )
    args = parser.parse_args(argv)
    # A fresh directory: run_shard would resume from old checkpoints.
    os.makedirs(args.workdir)
    record = run(
        WORKLOADS[args.workload],
        args.seed,
        args.workdir,
        traced=args.trace,
        corrupt=args.corrupt,
    )
    print(json.dumps(record, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
