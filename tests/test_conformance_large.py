"""The large-instance conformance tier (``slow``-marked).

Scale-ups of the corpus families to n in the thousands
(:func:`repro.workloads.build_large_corpus`), executed through the
``sweep`` backend so the registry × scenario grid fans out across a
process pool with the contract checks running inside the workers —
and through a shard manifest, which is how the weekly CI job runs the
tier.  Excluded from tier-1 (``-m "not slow"``); CI runs it weekly
and on ``workflow_dispatch``.

``"heavy"``-tagged specs (the O(log³ n) strawman) are excluded: at
these sizes their round counts put them minutes beyond everything
else without testing anything the small corpus does not.
"""

import os

import pytest

from repro import registry
from repro.conformance import run_conformance
from repro.exec import (
    SweepBackend,
    grid_cells,
    run_sharded,
)
from repro.workloads.corpus import build_large_corpus

pytestmark = pytest.mark.slow

SEED = 42

_SPECS = [
    spec for spec in registry.ALGORITHMS if "heavy" not in spec.tags
]
_CORPUS = build_large_corpus()


def _workers() -> int:
    return max(2, min(8, (os.cpu_count() or 2)))


def test_large_tier_conformance_through_sweep():
    backend = SweepBackend(
        executor="process", max_workers=_workers()
    )
    report = run_conformance(
        specs=_SPECS,
        scenarios=_CORPUS,
        seed=SEED,
        backend=backend,
    )
    assert report.ok, report.explain()
    # Every non-heavy spec must actually have run on every large
    # scenario — a silently shrinking grid is a failure, not a skip.
    expected = len(_SPECS) * len(_CORPUS)
    assert len(report.records) + len(report.skipped) == expected
    names = {r.scenario for r in report.records}
    assert names == {s.name for s in _CORPUS}


def test_large_tier_instances_are_actually_large():
    sizes = [s.graph(SEED).number_of_nodes() for s in _CORPUS]
    assert min(sizes) >= 300
    assert max(sizes) >= 2000


def test_large_tier_through_shard_manifest(tmp_path):
    """The weekly-job path: the large grid compiled to a 2-shard
    manifest must merge byte-identically to the unsharded sweep."""
    specs = [
        registry.get_algorithm(name)
        for name in ("trial", "deterministic-d2", "greedy-oracle")
    ]
    corpus = [
        s for s in _CORPUS if s.name in ("cliques64x6", "relay40x8")
    ]
    cells = grid_cells(specs=specs, scenarios=corpus, seeds=(SEED,))
    unsharded = SweepBackend(executor="serial").run_grid(cells)
    merged = run_sharded(cells, 2, str(tmp_path))
    assert merged.ok, [c.error for c in merged.failures]
    assert merged.fingerprint() == unsharded.fingerprint()


def test_large_tier_seed_determinism_across_worker_counts():
    """The same large grid at 1 vs N workers: identical reports."""
    # One scenario is enough here — the full grid already ran above;
    # this guards the parallel path itself at scale.
    scenario = [s for s in _CORPUS if s.name == "grid40x50"]
    one = run_conformance(
        specs=_SPECS,
        scenarios=scenario,
        seed=SEED,
        backend=SweepBackend(executor="serial"),
    )
    many = run_conformance(
        specs=_SPECS,
        scenarios=scenario,
        seed=SEED,
        backend=SweepBackend(
            executor="process", max_workers=_workers()
        ),
    )
    assert one.ok, one.explain()
    assert many.ok, many.explain()
    assert [
        (r.scenario, r.algorithm, r.colors_used, r.rounds, r.messages)
        for r in one.records
    ] == [
        (r.scenario, r.algorithm, r.colors_used, r.rounds, r.messages)
        for r in many.records
    ]
