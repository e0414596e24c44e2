"""Array-native cell colorings: ``CellColoring`` and its checkpoint codec.

A cell's coloring travels from ``run_cell`` through the JSONL
checkpoint and the merge as two int64 vectors.  These tests pin that
the trip is lossless (non-contiguous and negative node ids, uncolored
nodes, int64-wide colors, the empty coloring), that the sweep
fingerprint still renders the sorted ``(node, color)`` pairs it always
did, that a negative color fails its cell instead of reading as
uncolored, and that a checkpoint line in the old pair-list format is
repaired like any other damage.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import registry
from repro.exec import (
    ShardIncompleteError,
    SweepBackend,
    SweepCell,
    compile_manifest,
    grid_cells,
    merge_shards,
    run_shard,
    shard_status,
)
from repro.exec.shards import (
    checkpoint_path,
    result_from_json,
    result_to_json,
)
from repro.exec.sweep import CellColoring, CellResult, run_cell
from repro.results import ColoringResult
from repro.workloads import get_workload

colors = st.one_of(
    st.none(),
    st.integers(0, 2**31 - 1),
    st.integers(2**31, 2**63 - 1),
)


@st.composite
def colorings(draw):
    """``{node: color-or-None}``: either nodes 0..n-1 in order, or
    arbitrary (negative, sparse, unsorted) int64 node ids."""
    if draw(st.booleans()):
        values = draw(st.lists(colors, max_size=30))
        return dict(enumerate(values))
    nodes = st.integers(-(2**63), 2**63 - 1)
    return draw(st.dictionaries(nodes, colors, max_size=30))


def _round_trip(result: CellResult):
    data = json.loads(json.dumps(result_to_json(result)))
    return data, result_from_json(data)


class TestRoundTrip:
    @given(colorings())
    @example({})
    @example({0: None, 1: 2**31, 2: 0})
    @example({-5: 3, 7: None, -(2**40): 1})
    @settings(max_examples=200)
    def test_coloring_record_coloring(self, coloring):
        cell_coloring = CellColoring.from_dict(coloring)
        pairs = tuple(sorted(coloring.items()))
        assert tuple(cell_coloring) == pairs
        assert dict(cell_coloring) == coloring

        result = CellResult("a", "s", 0, coloring=cell_coloring)
        data, back = _round_trip(result)
        assert back.coloring == cell_coloring
        assert tuple(back.coloring) == pairs
        assert repr(back) == repr(result)

        record = data["coloring"]
        wide = any(c is not None and c >= 2**31 for c in coloring.values())
        assert record["dtype"] == ("<i8" if wide else "<i4")
        contiguous = sorted(coloring) == list(range(len(coloring)))
        assert ("nodes" not in record) == contiguous

    def test_vectors_are_read_only(self):
        coloring = CellColoring.from_dict({0: 1, 1: None})
        assert coloring.colors.tolist() == [1, -1]
        with pytest.raises(ValueError):
            coloring.colors[0] = 5


class TestNoSilentNone:
    @pytest.mark.parametrize("bad", [-1, -7])
    def test_negative_color_raises(self, bad):
        with pytest.raises(ValueError, match="negative color"):
            CellColoring.from_dict({0: 1, 1: bad, 2: None})

    def test_color_beyond_int64_raises(self):
        with pytest.raises(TypeError):
            CellColoring.from_dict({0: 2**63, 1: 0})

    def test_run_cell_fails_a_cell_with_a_negative_color(self, monkeypatch):
        import networkx as nx

        class NegativeSpec:
            def run(self, graph, seed, policy, backend):
                coloring = {v: v for v in graph.nodes}
                coloring[0] = -1
                return ColoringResult("negative", coloring, 4, 1)

        monkeypatch.setattr(
            registry, "get_algorithm", lambda name: NegativeSpec()
        )
        cell = SweepCell.from_graph("negative", "p4", 0, nx.path_graph(4))
        result = run_cell(cell)
        assert not result.ok
        assert "negative color" in result.error
        assert tuple(result.coloring) == ()


def _mixed_grid():
    specs = [
        registry.get_algorithm(name)
        for name in (
            "trial", "improved-d2color", "deterministic-d2", "greedy-oracle"
        )
    ]
    scenarios = [get_workload(n) for n in ("cycle5", "gnp24", "relay3x4")]
    return grid_cells(specs=specs, scenarios=scenarios, seeds=(0, 3))


class TestFingerprint:
    def test_matches_the_sorted_pair_formula(self):
        """The fingerprint renders each coloring as the sorted
        ``(node, color)`` tuple, computed here straight from the
        algorithms' result dicts."""
        cells = _mixed_grid()
        swept = SweepBackend(executor="serial").run_grid(cells)
        assert swept.ok, [c.error for c in swept.failures]
        rows = []
        for cell in cells:
            result = registry.get_algorithm(cell.algorithm).run(
                cell.graph(), seed=cell.seed, policy=cell.policy,
                backend="fastpath",
            )
            rows.append(
                (
                    cell.algorithm,
                    cell.scenario,
                    cell.seed,
                    result.colors_used,
                    result.palette_size,
                    result.rounds,
                    result.metrics,
                    tuple(sorted(result.coloring.items())),
                    None,
                )
            )
        assert swept.fingerprint() == repr(rows).encode("utf-8")


class TestPairListCheckpoints:
    def test_old_record_is_damage_repaired_and_recomputed(self, tmp_path):
        cells = _mixed_grid()[:6]
        unsharded = SweepBackend(executor="serial").run_grid(cells)
        manifest = compile_manifest(cells, 1)
        run_shard(manifest, 0, str(tmp_path))
        path = checkpoint_path(str(tmp_path), 0)
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        record = json.loads(lines[2])
        old = result_from_json(record["result"])
        record["result"]["coloring"] = [list(p) for p in old.coloring]
        lines[2] = json.dumps(record, separators=(",", ":"))
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")

        assert shard_status(manifest, str(tmp_path))[0].damaged
        with pytest.raises(ShardIncompleteError):
            merge_shards(manifest, str(tmp_path))
        rerun = run_shard(manifest, 0, str(tmp_path))
        assert (rerun.resumed, rerun.executed) == (len(cells) - 1, 1)
        assert not shard_status(manifest, str(tmp_path))[0].damaged
        merged = merge_shards(manifest, str(tmp_path))
        assert merged.fingerprint() == unsharded.fingerprint()
