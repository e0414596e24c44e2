"""Protocol probes used by the experiment harness and tests.

These drive individual sub-protocols (similarity construction, the
XOR lottery, LearnPalette, FinishColoring) in isolation, with preset
partial colorings, so their cost and correctness can be measured
without running the whole pipeline.
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Set, Tuple

import networkx as nx

from repro.baselines.greedy import greedy_d2_coloring
from repro.congest.network import Network
from repro.congest.node import NodeContext, NodeProgram
from repro.congest.policy import BandwidthPolicy
from repro.core.constants import Constants
from repro.core.finish import FinishMixin, forward_batch_size
from repro.core.learn_palette import (
    LearnPaletteConfig,
    LearnPaletteMixin,
)
from repro.core.sampling import LotteryMixin
from repro.core.similarity import SimilarityConfig, SimilarityMixin
from repro.core.trying import ColorTracker, TAG_ADOPT, all_colored
from repro.graphs.square import d2_neighborhoods
from repro.verify.checker import check_d2_coloring


class _SimilarityProbe(SimilarityMixin, NodeProgram):
    def run(self):
        state = yield from self.build_similarity(
            self.ctx.data["config"]
        )
        return state


def build_similarity_states(
    graph: nx.Graph,
    force_exact: Optional[bool] = None,
    constants: Optional[Constants] = None,
    seed: int = 0,
):
    """Run the similarity construction; returns (states, config)."""
    constants = constants or Constants.practical()
    n = graph.number_of_nodes()
    delta = max((d for _, d in graph.degree), default=1)
    policy = BandwidthPolicy()
    config = SimilarityConfig.derive(
        n,
        delta,
        policy.budget_bits(n),
        constants,
        force_exact=force_exact,
    )
    network = Network(
        graph,
        _SimilarityProbe,
        seed=seed,
        policy=policy,
        inputs={v: {"config": config} for v in graph.nodes},
    )
    run = network.run()
    return run.outputs, config


class _LotteryProbe(LotteryMixin, SimilarityMixin, NodeProgram):
    def run(self):
        similarity = yield from self.build_similarity(
            self.ctx.data["config"]
        )
        draws = []
        for _ in range(self.ctx.data["count"]):
            drawn = yield from self.lottery_round(
                similarity,
                filter_bits=self.ctx.data.get("filter_bits", 0),
            )
            draws.append(drawn)
        return {"similarity": similarity, "draws": draws}


def run_lottery_draws(
    graph: nx.Graph,
    count: int,
    filter_bits: int = 0,
    seed: int = 0,
):
    """Draw ``count`` lottery samples at every node (exact H)."""
    n = graph.number_of_nodes()
    delta = max((d for _, d in graph.degree), default=1)
    policy = BandwidthPolicy()
    config = SimilarityConfig.derive(
        n,
        delta,
        policy.budget_bits(n),
        Constants.practical(),
        force_exact=True,
    )
    network = Network(
        graph,
        _LotteryProbe,
        seed=seed,
        policy=policy,
        inputs={
            v: {
                "config": config,
                "count": count,
                "filter_bits": filter_bits,
            }
            for v in graph.nodes
        },
    )
    return network.run().outputs


def partial_greedy_coloring(
    graph: nx.Graph, live_target: int, seed: int = 0
) -> Dict[int, Optional[int]]:
    """Greedy d2-coloring with ``live_target`` nodes uncolored."""
    coloring: Dict[int, Optional[int]] = dict(
        greedy_d2_coloring(graph).coloring
    )
    rng = random.Random(seed)
    for v in rng.sample(sorted(graph.nodes), live_target):
        coloring[v] = None
    return coloring


def true_free_sets(
    graph: nx.Graph, coloring: Dict[int, Optional[int]], palette: int
) -> Dict[int, Set[int]]:
    """Ground-truth remaining palettes of the live nodes."""
    hoods = d2_neighborhoods(graph)
    free: Dict[int, Set[int]] = {}
    for v in graph.nodes:
        if coloring[v] is not None:
            continue
        used = {
            coloring[u]
            for u in hoods[v]
            if coloring[u] is not None
        }
        free[v] = {c for c in range(palette) if c not in used}
    return free


class _AnnouncePresetMixin:
    """One round in which every precolored node announces its color,
    populating neighbors' color tables (as adoptions would have)."""

    def announce_preset(self):
        if self.color is not None:
            inbox = yield self.broadcast(
                (TAG_ADOPT, self.color)
            )
        else:
            inbox = yield {}
        self.record_adopts(inbox)


class _FinishProbe(_AnnouncePresetMixin, FinishMixin, NodeProgram):
    def __init__(self, ctx: NodeContext):
        super().__init__(ctx)
        self.init_tracker(ctx.data.get("color"))

    def run(self):
        yield from self.announce_preset()
        yield from self.finish_coloring(
            self.ctx.data.get("free"),
            self.ctx.data["palette"],
            self.ctx.data["forward_per_round"],
        )


def run_finish_only(
    graph: nx.Graph, live_target: int, seed: int = 0
) -> Tuple[int, bool]:
    """Precolor all but ``live_target`` nodes, hand the live nodes
    their exact palettes, and run FinishColoring alone.

    Returns (rounds, final coloring valid)."""
    delta = max((d for _, d in graph.degree), default=1)
    palette = delta * delta + 1
    coloring = partial_greedy_coloring(graph, live_target, seed)
    free = true_free_sets(graph, coloring, palette)
    policy = BandwidthPolicy()
    forward = forward_batch_size(
        graph.number_of_nodes(), palette, policy.budget_bits(
            graph.number_of_nodes()
        )
    )
    inputs = {
        v: {
            "color": coloring[v],
            "free": free.get(v),
            "palette": palette,
            "forward_per_round": forward,
        }
        for v in graph.nodes
    }
    network = Network(
        graph, _FinishProbe, seed=seed, policy=policy, inputs=inputs
    )
    run = network.run(
        stop_when=all_colored,
        raise_on_timeout=False,
        max_rounds=50_000,
    )
    final = network.node_colors()
    valid = check_d2_coloring(graph, final, palette).valid
    # Subtract the preset-announcement round.
    return max(0, run.metrics.rounds - 1), valid


class _LearnProbe(
    _AnnouncePresetMixin,
    ColorTracker,
    SimilarityMixin,
    LearnPaletteMixin,
    NodeProgram,
):
    def __init__(self, ctx: NodeContext):
        super().__init__(ctx)
        self.init_tracker(ctx.data.get("color"))
        self.constants = ctx.data["constants"]
        self.lottery_filter_bits = 0
        self.similarity = None

    def run(self):
        yield from self.announce_preset()
        self.similarity = yield from self.build_similarity(
            self.ctx.data["sim_config"]
        )
        free = yield from self.learn_palette(
            self.ctx.data["learn_config"]
        )
        return free


def run_learn_palette_only(
    graph: nx.Graph,
    live_target: int,
    force_small: bool,
    seed: int = 0,
) -> Tuple[int, bool, bool]:
    """Run LearnPalette on a mostly-precolored graph.

    Returns (rounds, all palettes exactly right, all palettes contain
    every truly free color)."""
    constants = Constants.practical()
    n = graph.number_of_nodes()
    delta = max((d for _, d in graph.degree), default=1)
    palette = delta * delta + 1
    policy = BandwidthPolicy()
    budget = policy.budget_bits(n)
    coloring = partial_greedy_coloring(graph, live_target, seed)
    truth = true_free_sets(graph, coloring, palette)
    sim_config = SimilarityConfig.derive(
        n, delta, budget, constants, force_exact=True
    )
    learn_config = LearnPaletteConfig.derive(
        n, delta, budget, constants, force_small=force_small
    )
    inputs = {
        v: {
            "color": coloring[v],
            "constants": constants,
            "sim_config": sim_config,
            "learn_config": learn_config,
        }
        for v in graph.nodes
    }
    network = Network(
        graph, _LearnProbe, seed=seed, policy=policy, inputs=inputs
    )
    run = network.run()
    exact = True
    superset = True
    for v, learned in run.outputs.items():
        if coloring[v] is not None:
            continue
        if learned != truth[v]:
            exact = False
        if not truth[v] <= (learned or set()):
            superset = False
    return run.metrics.rounds, exact, superset
