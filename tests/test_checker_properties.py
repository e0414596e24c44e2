"""Property tests cross-validating ``verify.checker`` against
``graphs.square``.

The checker deliberately recomputes distance-2 adjacency with its own
BFS instead of reusing :mod:`repro.graphs.square`; these tests pit the
two implementations against each other on random graphs and random
(partial, possibly invalid) colorings — they must agree on validity
and on the exact conflict sets.  The checker's array core over CSR
rows is pitted against its BFS path the same way, on colorings that
mix Nones, out-of-palette values, bools and values beyond int64.
"""

from __future__ import annotations

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.greedy import greedy_d2_coloring
from repro.exec.arrays import build_csr
from repro.graphs.square import d2_neighbors, square
from repro.verify.checker import (
    check_d2_coloring,
    check_distance_k_coloring,
)


@st.composite
def random_graphs(draw, max_n: int = 10):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    mask = draw(
        st.lists(
            st.booleans(), min_size=len(pairs), max_size=len(pairs)
        )
    )
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from(
        pair for pair, keep in zip(pairs, mask) if keep
    )
    return graph


@st.composite
def graph_with_coloring(draw, max_n: int = 10, palette: int = 5):
    graph = draw(random_graphs(max_n=max_n))
    coloring = {
        v: draw(
            st.one_of(
                st.none(), st.integers(min_value=0, max_value=palette)
            )
        )
        for v in graph.nodes
    }
    return graph, coloring, palette


@st.composite
def graph_with_hostile_coloring(draw, max_n: int = 10, palette: int = 5):
    graph = draw(random_graphs(max_n=max_n))
    value = st.one_of(
        st.none(),
        st.integers(min_value=-2, max_value=palette + 2),
        st.booleans(),
        st.integers(min_value=2**63, max_value=2**70),
        st.integers(min_value=-(2**70), max_value=-(2**63) - 1),
    )
    coloring = {v: draw(value) for v in graph.nodes}
    return graph, coloring, palette


def square_conflicts(graph, coloring):
    """Conflicting d2-pairs computed from G² (the rival oracle)."""
    sq = square(graph)
    return {
        (min(u, v), max(u, v))
        for u, v in sq.edges
        if coloring.get(u) is not None
        and coloring.get(u) == coloring.get(v)
    }


class TestCheckerAgreesWithSquare:
    @given(graph_with_coloring())
    @settings(max_examples=150)
    def test_conflict_sets_identical(self, case):
        graph, coloring, _palette = case
        report = check_d2_coloring(graph, coloring)
        via_checker = {
            (min(u, v), max(u, v)) for u, v in report.conflicts
        }
        assert via_checker == square_conflicts(graph, coloring)

    @given(graph_with_coloring())
    @settings(max_examples=150)
    def test_validity_identical(self, case):
        graph, coloring, palette = case
        report = check_d2_coloring(graph, coloring, palette)
        uncolored = {
            v for v in graph.nodes if coloring.get(v) is None
        }
        out_of_palette = {
            v
            for v in graph.nodes
            if coloring.get(v) is not None
            and not 0 <= coloring[v] < palette
        }
        expected_valid = (
            not uncolored
            and not out_of_palette
            and not square_conflicts(graph, coloring)
        )
        assert report.valid == expected_valid
        assert set(report.uncolored) == uncolored
        assert set(report.out_of_palette) == out_of_palette

    @given(random_graphs())
    @settings(max_examples=100)
    def test_checker_neighborhoods_match_square(self, graph):
        # With every node the same color, the conflict pairs through
        # v are exactly the d2-neighborhood of v: the checker's BFS
        # must recover d2_neighbors node for node.
        coloring = {u: 0 for u in graph.nodes}
        report = check_d2_coloring(graph, coloring)
        for v in graph.nodes:
            hit = {
                (set(pair) - {v}).pop()
                for pair in report.conflicts
                if v in pair
            }
            assert hit == d2_neighbors(graph, v)


class TestArrayCoreAgreesWithBfs:
    @given(
        graph_with_hostile_coloring(),
        st.integers(1, 2),
        st.booleans(),
    )
    @settings(max_examples=300)
    def test_same_report(self, case, k, with_palette):
        graph, coloring, palette = case
        palette = palette if with_palette else None
        via_bfs = check_distance_k_coloring(graph, coloring, k, palette)
        via_core = check_distance_k_coloring(
            graph, coloring, k, palette, adjacency=build_csr(graph)
        )
        assert via_core.valid == via_bfs.valid
        assert sorted(via_core.conflicts) == sorted(via_bfs.conflicts)
        assert via_core.uncolored == via_bfs.uncolored
        assert via_core.out_of_palette == via_bfs.out_of_palette
        assert via_core.colors_used == via_bfs.colors_used


class TestOracleAlwaysValidByBothJudges:
    @given(random_graphs())
    @settings(max_examples=100)
    def test_greedy_oracle_valid_per_square(self, graph):
        result = greedy_d2_coloring(graph)
        assert not square_conflicts(graph, result.coloring)
        assert check_d2_coloring(
            graph, result.coloring, result.palette_size
        ).valid
