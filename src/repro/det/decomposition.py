"""Network decomposition of G^k with congestion (Definition A.1).

The paper consumes an (O(log n), O(log³ n))-decomposition of G² from
Rozhoň–Ghaffari [28] as a black-box substrate.  Reimplementing [28]
is out of scope (it is its own paper); per DESIGN.md §3.2 we provide
two substitute constructions with the same *output interface* and
verified output properties:

- :func:`ball_carving_decomposition` — deterministic sequential ball
  carving: repeatedly grow a ball around the smallest unclustered ID
  until the boundary is a small fraction of the ball (radius
  O(log n) by the standard charging argument), carve it, and greedily
  color the cluster graph so same-color clusters are > k apart.
- :func:`mpx_decomposition` — randomized Miller–Peng–Xu exponential
  shifts, same coloring post-pass.

Both are computed centrally (the decomposition is substrate, not the
contribution under test; see DESIGN.md).  The derandomization of
Theorem 3.2 uses only the *properties* checked by
:meth:`NetworkDecomposition.validate`: same-color separation in G^k,
bounded weak diameter, and a bound on the number of colors.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

import networkx as nx


@dataclass
class NetworkDecomposition:
    """A partition into clusters with colors and diameters."""

    k: int
    cluster_of: Dict[int, int]
    color_of_cluster: Dict[int, int]
    members: Dict[int, List[int]] = field(default_factory=dict)
    radius: Dict[int, int] = field(default_factory=dict)

    @property
    def num_clusters(self) -> int:
        return len(self.members)

    @property
    def num_colors(self) -> int:
        return len(set(self.color_of_cluster.values()))

    def color_classes(self) -> Dict[int, List[int]]:
        """color -> list of cluster ids."""
        classes: Dict[int, List[int]] = {}
        for cluster, color in self.color_of_cluster.items():
            classes.setdefault(color, []).append(cluster)
        return classes

    def validate(self, graph: nx.Graph) -> bool:
        """Same-color clusters must be > k apart in G (property iii
        of Definition A.1); the partition must cover every node."""
        if set(self.cluster_of) != set(graph.nodes):
            return False
        for color, clusters in self.color_classes().items():
            nodes_by_cluster = [
                set(self.members[c]) for c in clusters
            ]
            # BFS from each cluster, bounded by k, must not meet
            # another same-color cluster.
            for index, nodes in enumerate(nodes_by_cluster):
                others = set().union(
                    *(
                        s
                        for j, s in enumerate(nodes_by_cluster)
                        if j != index
                    )
                ) if len(nodes_by_cluster) > 1 else set()
                if not others:
                    continue
                frontier = set(nodes)
                seen = set(nodes)
                for _ in range(self.k):
                    frontier = {
                        u
                        for v in frontier
                        for u in graph.neighbors(v)
                        if u not in seen
                    }
                    seen |= frontier
                    if frontier & others:
                        return False
        return True


def _carve_ball(
    graph: nx.Graph,
    remaining: Set[int],
    center: int,
    growth: float,
) -> Set[int]:
    """Grow a ball in the remaining graph until the next layer adds
    fewer than ``growth`` fraction of the current ball."""
    ball = {center}
    frontier = {center}
    while True:
        next_layer = {
            u
            for v in frontier
            for u in graph.neighbors(v)
            if u in remaining and u not in ball
        }
        if not next_layer:
            return ball
        if len(next_layer) < growth * len(ball):
            return ball | next_layer
        ball |= next_layer
        frontier = next_layer


def _color_clusters(
    graph: nx.Graph,
    k: int,
    cluster_of: Dict[int, int],
    members: Dict[int, List[int]],
) -> Dict[int, int]:
    """Greedy coloring of the cluster graph: clusters within distance
    k in G get distinct colors."""
    adjacency: Dict[int, Set[int]] = {c: set() for c in members}
    for cluster, nodes in members.items():
        seen = set(nodes)
        frontier = set(nodes)
        for _ in range(k):
            frontier = {
                u
                for v in frontier
                for u in graph.neighbors(v)
                if u not in seen
            }
            seen |= frontier
            for u in frontier:
                other = cluster_of[u]
                if other != cluster:
                    adjacency[cluster].add(other)
    color_of: Dict[int, int] = {}
    for cluster in sorted(members):
        used = {
            color_of[other]
            for other in adjacency[cluster]
            if other in color_of
        }
        color = 0
        while color in used:
            color += 1
        color_of[cluster] = color
    return color_of


def ball_carving_decomposition(
    graph: nx.Graph, k: int = 2
) -> NetworkDecomposition:
    """Deterministic ball-carving decomposition of G^k.

    Ball radii are O(log n) (each retained layer grows the ball by a
    (1 + 1/⌈log2 n⌉) factor, and balls cannot exceed n nodes).
    """
    n = graph.number_of_nodes()
    growth = 1.0 / max(1.0, math.log2(max(n, 2)))
    remaining = set(graph.nodes)
    cluster_of: Dict[int, int] = {}
    members: Dict[int, List[int]] = {}
    next_id = 0
    radius: Dict[int, int] = {}
    while remaining:
        center = min(remaining)
        ball = _carve_ball(graph, remaining, center, growth)
        members[next_id] = sorted(ball)
        for v in ball:
            cluster_of[v] = next_id
        lengths = nx.single_source_shortest_path_length(
            graph.subgraph(ball), center
        )
        radius[next_id] = max(lengths.values(), default=0)
        remaining -= ball
        next_id += 1
    color_of = _color_clusters(graph, k, cluster_of, members)
    return NetworkDecomposition(
        k=k,
        cluster_of=cluster_of,
        color_of_cluster=color_of,
        members=members,
        radius=radius,
    )


def mpx_decomposition(
    graph: nx.Graph,
    k: int = 2,
    beta: Optional[float] = None,
    seed: int = 0,
) -> NetworkDecomposition:
    """Miller–Peng–Xu exponential-shift decomposition of G^k.

    Each node draws δ_v ~ Exp(β) and joins the cluster of the node u
    maximizing δ_u - d(u, v); with β = Θ(1/log n) cluster radii are
    O(log n / β·...) = O(log n) w.h.p.
    """
    n = graph.number_of_nodes()
    if beta is None:
        beta = 1.0 / (2.0 * math.log2(max(n, 2)))
    rng = random.Random(seed)
    shifts = {v: rng.expovariate(beta) for v in graph.nodes}
    # Dijkstra-like relaxation of (d(u, v) - δ_u) from all sources.
    import heapq

    best: Dict[int, float] = {}
    owner: Dict[int, int] = {}
    heap = []
    for v in graph.nodes:
        key = -shifts[v]
        best[v] = key
        owner[v] = v
        heapq.heappush(heap, (key, v, v))
    while heap:
        key, source, v = heapq.heappop(heap)
        if key > best[v] or owner[v] != source:
            continue
        for u in graph.neighbors(v):
            candidate = key + 1.0
            if candidate < best.get(u, float("inf")):
                best[u] = candidate
                owner[u] = source
                heapq.heappush(heap, (candidate, source, u))
    centers = sorted(set(owner.values()))
    index = {c: i for i, c in enumerate(centers)}
    cluster_of = {v: index[owner[v]] for v in graph.nodes}
    members: Dict[int, List[int]] = {}
    for v, c in cluster_of.items():
        members.setdefault(c, []).append(v)
    members = {c: sorted(vs) for c, vs in members.items()}
    radius = {}
    for c, vs in members.items():
        center = centers[c]
        lengths = nx.single_source_shortest_path_length(
            graph, center
        )
        radius[c] = max((lengths.get(v, 0) for v in vs), default=0)
    color_of = _color_clusters(graph, k, cluster_of, members)
    return NetworkDecomposition(
        k=k,
        cluster_of=cluster_of,
        color_of_cluster=color_of,
        members=members,
        radius=radius,
    )
