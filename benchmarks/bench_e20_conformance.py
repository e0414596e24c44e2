"""E20 — registry × scenario differential conformance sweep.

Regenerates the E20 table: every algorithm in the registry runs on
every scenario of the conformance corpus (adversarial generators
included) and must produce a checker-valid coloring within its
palette bound, with bandwidth metered and per-seed repeatability.

A per-spec timing bench rides along so a regression in any single
algorithm's wall-clock on the corpus is visible in the benchmark
history; the wall-clocks are persisted to
``results/BENCH_e20_conformance.json`` for cross-PR tracking.
"""

import pytest

from repro.conformance import run_conformance
from repro.harness.experiments import e20_conformance
from repro.workloads.corpus import build_corpus

from conftest import (
    registry_ids,
    registry_specs,
    report,
    write_bench_json,
)

_SPECS = registry_specs()

#: Collected across the tests below; the final test persists it.
_PAYLOAD = {}


def test_e20_conformance(benchmark):
    table = benchmark.pedantic(e20_conformance, iterations=1, rounds=1)
    report(table)
    _PAYLOAD["e20_table_wall_seconds"] = benchmark.stats.stats.min


@pytest.mark.parametrize("spec", _SPECS, ids=registry_ids(_SPECS))
def test_e20_per_algorithm_corpus(benchmark, spec):
    corpus = build_corpus()

    def sweep():
        return run_conformance(
            specs=[spec], scenarios=corpus, seed=20
        )

    result = benchmark.pedantic(sweep, iterations=1, rounds=1)
    assert result.ok, result.explain()
    _PAYLOAD.setdefault("per_algorithm_wall_seconds", {})[
        spec.name
    ] = benchmark.stats.stats.min


def test_write_bench_json():
    """Persist the machine-readable trajectory (must run last)."""
    assert _PAYLOAD, "timing tests did not run"
    out = write_bench_json("e20_conformance", _PAYLOAD)
    assert out.exists()
