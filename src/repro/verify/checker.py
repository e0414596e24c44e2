"""Independent d2-coloring validity checker.

By default this deliberately does **not** reuse
:mod:`repro.graphs.square`: distance-2 adjacency is recomputed here
with a plain per-node BFS so that a bug in the shared square-graph
code cannot mask itself in the tests
(``tests/test_checker_properties.py`` pins the two against each
other).  Hot paths that check many colorings of the *same* instance —
the conformance sweep, the shard workers — may pass a precomputed
``adjacency`` (the cached G² adjacency from
:meth:`repro.workloads.Instance.d2_adjacency`) to skip the per-call
BFS; the independence guarantee then rests on the property test
rather than on every call.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

import networkx as nx
import numpy as np


@dataclass
class CheckReport:
    """Outcome of a coloring check."""

    valid: bool
    conflicts: List[Tuple[int, int]] = field(default_factory=list)
    uncolored: List[int] = field(default_factory=list)
    out_of_palette: List[int] = field(default_factory=list)
    colors_used: int = 0
    palette_size: Optional[int] = None

    def explain(self) -> str:
        if self.valid:
            return (
                f"valid: {self.colors_used} colors"
                + (
                    f" (palette {self.palette_size})"
                    if self.palette_size is not None
                    else ""
                )
            )
        parts = []
        if self.uncolored:
            parts.append(f"{len(self.uncolored)} uncolored node(s)")
        if self.conflicts:
            parts.append(
                f"{len(self.conflicts)} conflicting pair(s), e.g. "
                f"{self.conflicts[:3]}"
            )
        if self.out_of_palette:
            parts.append(
                f"{len(self.out_of_palette)} node(s) colored outside "
                "the palette"
            )
        return "invalid: " + "; ".join(parts)


def _nodes_within(graph: nx.Graph, source, k: int) -> List:
    """Nodes at distance 1..k from ``source`` via BFS."""
    seen = {source: 0}
    queue = deque([source])
    out = []
    while queue:
        node = queue.popleft()
        depth = seen[node]
        if depth == k:
            continue
        for nbr in graph.neighbors(node):
            if nbr not in seen:
                seen[nbr] = depth + 1
                out.append(nbr)
                queue.append(nbr)
    return out


def _csr_findings(csr, coloring, k, palette_size) -> Optional[Tuple]:
    """``(uncolored, out_of_palette, conflicts)`` from the array core
    over CSR rows; ``None`` declines the check (self-loops,
    unsupported ``k``, or colors that are not all ints int64 holds),
    in which case the caller falls back to BFS.

    The coloring is read into CSR order once; a dtype check on the
    colored values stands in for per-value type checks."""
    if csr.has_selfloops or k not in (1, 2):
        return None
    indptr, indices = (
        (csr.g_indptr, csr.g_indices) if k == 1
        else (csr.g2_indptr, csr.g2_indices)
    )
    order = csr.order
    vals = list(map(coloring.get, order))
    colored = np.ones(csr.n, dtype=bool)
    if None in vals:
        colored = np.array([c is not None for c in vals], dtype=bool)
        vals = [c for c in vals if c is not None]
    found = np.array(vals)
    if found.size and (found.dtype != np.int64 or found.ndim != 1):
        return None
    colors = np.zeros(csr.n, dtype=np.int64)
    colors[colored] = found
    uncolored = [order[i] for i in np.flatnonzero(~colored).tolist()]
    out_of_palette: List[int] = []
    if palette_size is not None:
        bad = colored & ((colors < 0) | (colors >= palette_size))
        out_of_palette = [order[i] for i in np.flatnonzero(bad).tolist()]
    # Entries of equal-colored pairs, then their rows (no n-by-degree
    # row index is built).
    degrees = np.diff(indptr)
    same = np.repeat(colors, degrees) == colors[indices]
    if uncolored:
        same &= np.repeat(colored, degrees) & colored[indices]
    hits = np.flatnonzero(same)
    rows = np.searchsorted(indptr, hits, side="right") - 1
    cols = indices[hits]
    upper = cols > rows
    conflicts = [
        (order[i], order[j])
        for i, j in zip(rows[upper].tolist(), cols[upper].tolist())
    ]
    return uncolored, out_of_palette, conflicts


def check_distance_k_coloring(
    graph: nx.Graph,
    coloring: Dict[int, Optional[int]],
    k: int,
    palette_size: Optional[int] = None,
    adjacency: Optional[Any] = None,
) -> CheckReport:
    """Check that nodes within distance ``k`` have distinct colors.

    ``adjacency``, when given, is either a precomputed ``{node:
    distance-<=k neighbors}`` map (e.g. the cached G² adjacency for
    ``k == 2``) used instead of the per-node BFS, or a
    :class:`~repro.exec.arrays.CSRAdjacency` of G — the array core
    then checks every pair with a handful of vectorized passes over
    the CSR rows (``k`` 1 and 2; anything it cannot replay exactly
    falls back to BFS).  Same verdicts either way; conflict pairs from
    the CSR path come out lexicographically sorted.
    """
    findings = None
    if adjacency is not None and hasattr(adjacency, "g_indptr"):
        findings = _csr_findings(adjacency, coloring, k, palette_size)
        adjacency = None
    if findings is None:
        findings = _bfs_findings(
            graph, coloring, k, palette_size, adjacency
        )
    uncolored, out_of_palette, conflicts = findings
    return CheckReport(
        valid=not (uncolored or conflicts or out_of_palette),
        conflicts=conflicts,
        uncolored=uncolored,
        out_of_palette=out_of_palette,
        colors_used=len(set(coloring.values()) - {None}),
        palette_size=palette_size,
    )


def _bfs_findings(graph, coloring, k, palette_size, adjacency) -> Tuple:
    """``(uncolored, out_of_palette, conflicts)`` by per-node BFS, or
    from a precomputed ``{node: distance-<=k neighbors}`` map."""
    uncolored = [v for v in graph.nodes if coloring.get(v) is None]
    out_of_palette = []
    if palette_size is not None:
        out_of_palette = [
            v
            for v in graph.nodes
            if coloring.get(v) is not None
            and not 0 <= coloring[v] < palette_size
        ]
    conflicts: List[Tuple[int, int]] = []
    for v in graph.nodes:
        cv = coloring.get(v)
        if cv is None:
            continue
        within = (
            adjacency[v] if adjacency is not None
            else _nodes_within(graph, v, k)
        )
        for u in within:
            if u <= v:
                continue
            if coloring.get(u) == cv:
                conflicts.append((v, u))
    return uncolored, out_of_palette, conflicts


def check_d2_coloring(
    graph: nx.Graph,
    coloring: Dict[int, Optional[int]],
    palette_size: Optional[int] = None,
    adjacency: Optional[Mapping[int, Iterable[int]]] = None,
) -> CheckReport:
    """Check a distance-2 coloring (the paper's main object)."""
    return check_distance_k_coloring(
        graph, coloring, 2, palette_size, adjacency=adjacency
    )


def check_coloring(
    graph: nx.Graph,
    coloring: Dict[int, Optional[int]],
    palette_size: Optional[int] = None,
) -> CheckReport:
    """Check an ordinary (distance-1) vertex coloring."""
    return check_distance_k_coloring(graph, coloring, 1, palette_size)
