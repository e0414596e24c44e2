"""The vectorized array engine: kernels, fallbacks, CSR artifacts.

`test_backend_equivalence.py` pins ``vectorized ≡ reference`` over
the registry × corpus product; this module drills into the engine
itself — exact parity on the awkward paths (round cutoffs, timeout
fast-forwards, precoloring, the end-state node tables), the automatic
fastpath fallback for runs a kernel cannot replay, and the CSR
adjacency artifact the kernels consume.
"""

import dataclasses
import pickle
import random

import networkx as nx
import numpy as np
import pytest

from repro import registry
from repro.baselines.luby import (
    LubyDistanceKProgram,
    _all_decided,
    check_distance_k_mis,
    luby_distance_k_mis,
)
from repro.baselines.naive import NaiveProgram, naive_congest_d2_color
from repro.baselines.trial import TrialProgram, trial_d2_color
from repro.congest.errors import (
    BandwidthExceededError,
    NonterminationError,
)
from repro.congest.message import int_bits
from repro.congest.network import Network
from repro.congest.policy import BandwidthPolicy
from repro.core.constants import Constants
from repro.core.d2color import (
    RandomizedD2Program,
    basic_d2_color,
    improved_d2_color,
    randomized_inputs,
)
from repro.core.trying import all_colored
from repro.det.color_reduction import (
    ColorReductionProgram,
    color_reduction_d2,
)
from repro.det.g_coloring import prime_between
from repro.det.linial import (
    LinialProgram,
    linial_d2_coloring,
    linial_g_coloring,
    linial_schedule,
)
from repro.det.locally_iterative import LocallyIterativeProgram
from repro.det.part_d2coloring import PartLocallyIterativeD2
from repro.exec import use_backend
from repro.util.primes import bertrand_prime
from repro.exec.arrays import (
    build_csr,
    csr_for_graph,
    int_bits_array,
    row_any,
    row_max,
)
from repro.exec.vectorized import KERNELS, kernel_coverage
from repro.obs.trace import (
    NullRecorder,
    TraceRecorder,
    read_trace,
    use_recorder,
)
from repro.workloads.cache import InstanceCache
from repro.workloads.corpus import build_corpus


def _metrics_tuple(metrics):
    return (
        metrics.rounds,
        metrics.total_messages,
        metrics.total_bits,
        metrics.max_message_bits,
        metrics.budget_bits,
        metrics.violations,
        metrics.worst_violation_bits,
    )


def _graphs():
    disconnected = nx.disjoint_union(
        nx.cycle_graph(5), nx.path_graph(4)
    )
    return {
        "petersen": nx.petersen_graph(),
        "gnp24": nx.gnp_random_graph(24, 0.2, seed=11),
        "star": nx.star_graph(6),
        "edgeless": nx.empty_graph(5),
        "singleton": nx.path_graph(1),
        "disconnected": disconnected,
    }


GRAPHS = _graphs()


def _trial_network(graph, seed, policy=None, **data):
    delta = max((d for _, d in graph.degree), default=0)
    payload = {"palette": delta * delta + 1, **data}
    inputs = {v: dict(payload) for v in graph.nodes}
    return Network(
        graph, TrialProgram, seed=seed, policy=policy, inputs=inputs
    )


def _luby_network(graph, seed, k=2, policy=None):
    inputs = {v: {"k": k} for v in graph.nodes}
    return Network(
        graph,
        LubyDistanceKProgram,
        seed=seed,
        policy=policy,
        inputs=inputs,
    )


def _run_pair(make_network, backend="vectorized", **run_kwargs):
    ref_net = make_network()
    vec_net = make_network()
    ref = ref_net.run(backend="reference", **run_kwargs)
    vec = vec_net.run(backend=backend, **run_kwargs)
    return (ref_net, ref), (vec_net, vec)


def _assert_trial_parity(make_network, **run_kwargs):
    (ref_net, ref), (vec_net, vec) = _run_pair(
        make_network, **run_kwargs
    )
    assert vec.outputs == ref.outputs
    assert vec.stopped_early == ref.stopped_early
    assert _metrics_tuple(vec.metrics) == _metrics_tuple(ref.metrics)
    assert vec_net.node_colors() == ref_net.node_colors()
    assert vec_net.node_table("phases_tried") == ref_net.node_table(
        "phases_tried"
    )
    assert vec_net._started == ref_net._started


def _assert_luby_parity(make_network, **run_kwargs):
    (ref_net, ref), (vec_net, vec) = _run_pair(
        make_network, **run_kwargs
    )
    assert vec.outputs == ref.outputs
    assert vec.stopped_early == ref.stopped_early
    assert _metrics_tuple(vec.metrics) == _metrics_tuple(ref.metrics)
    assert vec_net.node_table("state") == ref_net.node_table("state")
    assert vec_net.node_table("phases") == ref_net.node_table("phases")


class TestKernelCoverage:
    def test_trial_and_luby_have_kernels(self):
        coverage = kernel_coverage()
        assert "TrialProgram" in coverage
        assert "LubyDistanceKProgram" in coverage

    def test_registry_spec_names_are_keys(self):
        # Coverage is queryable by registry spec name too, so tooling
        # (e.g. the compare_algorithms fallback warning) need not map
        # spec -> program class itself.
        coverage = kernel_coverage()
        for spec_name in (
            "trial",
            "trial-slack",
            "deterministic-d2",
            "eps-d2-coloring",
            "improved-d2color",
            "basic-d2color",
            "naive-g2",
        ):
            assert spec_name in coverage, spec_name

    def test_spec_lists_every_kernel_it_runs(self):
        # One spec may run several kernels (deterministic-d2 runs all
        # three stages of Theorem 1.2 as kernels); registering another
        # stage must add to its entry, not overwrite it.
        coverage = kernel_coverage()
        assert set(coverage["deterministic-d2"]) == {
            "_linial_kernel",
            "_locally_iterative_kernel",
            "_color_reduction_kernel",
        }
        assert set(coverage["eps-d2-coloring"]) == {
            "_linial_kernel",
            "_part_locally_iterative_kernel",
        }
        assert coverage["naive-g2"] == ("_naive_kernel",)
        kernels = {
            name for name in coverage.values() if isinstance(name, str)
        }
        for spec in registry.ALGORITHMS:
            assert set(coverage.get(spec.name, ())) <= kernels


class TestTrialKernel:
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_track_parity(self, name, seed):
        _assert_trial_parity(
            lambda: _trial_network(
                GRAPHS[name], seed, policy=BandwidthPolicy.track()
            ),
            max_rounds=5_000,
            stop_when=all_colored,
            raise_on_timeout=False,
        )

    @pytest.mark.parametrize("seed", [0, 3])
    def test_unbounded_observables_match_fastpath(self, seed):
        # Under UNBOUNDED both engines skip sizing; they must agree
        # with each other exactly (and with reference on outputs).
        graph = GRAPHS["gnp24"]

        def runs(backend):
            net = _trial_network(graph, seed)
            res = net.run(
                backend=backend,
                max_rounds=5_000,
                stop_when=all_colored,
                raise_on_timeout=False,
            )
            return res

        fast, vec = runs("fastpath"), runs("vectorized")
        assert vec.outputs == fast.outputs
        assert _metrics_tuple(vec.metrics) == _metrics_tuple(
            fast.metrics
        )

    @pytest.mark.parametrize("max_rounds", range(9))
    def test_round_cutoff_parity(self, max_rounds):
        _assert_trial_parity(
            lambda: _trial_network(
                GRAPHS["petersen"], 5, policy=BandwidthPolicy.track()
            ),
            max_rounds=max_rounds,
            stop_when=all_colored,
            raise_on_timeout=False,
        )

    def test_nontermination_raise_parity(self):
        for backend in ("reference", "vectorized"):
            with pytest.raises(NonterminationError):
                _trial_network(GRAPHS["petersen"], 5).run(
                    backend=backend,
                    max_rounds=1,
                    stop_when=all_colored,
                    raise_on_timeout=True,
                )

    def test_no_stop_monitor_fast_forward_parity(self):
        # stop_when=None: once everyone is colored the remaining
        # rounds are message-free; the kernel fast-forwards them and
        # must land on reference's exact metrics.
        _assert_trial_parity(
            lambda: _trial_network(
                GRAPHS["petersen"], 2, policy=BandwidthPolicy.track()
            ),
            max_rounds=60,
            stop_when=None,
            raise_on_timeout=False,
        )

    def test_precolored_parity(self):
        graph = GRAPHS["petersen"]

        def make():
            delta = 3
            inputs = {
                v: {"palette": 10, "color": v % 3 if v < 4 else None}
                for v in graph.nodes
            }
            inputs = {
                v: {k: x for k, x in d.items() if x is not None}
                for v, d in inputs.items()
            }
            return Network(
                graph,
                TrialProgram,
                seed=9,
                policy=BandwidthPolicy.track(),
                delta=delta,
                inputs=inputs,
            )

        _assert_trial_parity(
            make,
            max_rounds=5_000,
            stop_when=all_colored,
            raise_on_timeout=False,
        )

    def test_driver_equivalence(self):
        with use_backend("reference"):
            ref = trial_d2_color(GRAPHS["gnp24"], seed=4)
        with use_backend("vectorized"):
            vec = trial_d2_color(GRAPHS["gnp24"], seed=4)
        assert vec.coloring == ref.coloring
        assert vec.rounds == ref.rounds


class TestLubyKernel:
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_track_parity(self, name, k):
        _assert_luby_parity(
            lambda: _luby_network(
                GRAPHS[name], 7, k=k, policy=BandwidthPolicy.track()
            ),
            max_rounds=5_000,
            stop_when=_all_decided,
            raise_on_timeout=False,
        )

    @pytest.mark.parametrize("max_rounds", range(13))
    def test_round_cutoff_parity(self, max_rounds):
        _assert_luby_parity(
            lambda: _luby_network(
                GRAPHS["gnp24"], 3, k=2, policy=BandwidthPolicy.track()
            ),
            max_rounds=max_rounds,
            stop_when=_all_decided,
            raise_on_timeout=False,
        )

    def test_no_stop_monitor_fast_forward_parity(self):
        # The decided network keeps flooding (K, -1) broadcasts; the
        # kernel's closed-form fast-forward must match reference.
        _assert_luby_parity(
            lambda: _luby_network(
                GRAPHS["petersen"], 1, k=2,
                policy=BandwidthPolicy.track(),
            ),
            max_rounds=41,
            stop_when=None,
            raise_on_timeout=False,
        )

    def test_driver_produces_valid_mis(self):
        graph = GRAPHS["gnp24"]
        with use_backend("vectorized"):
            mis, _phases, _metrics = luby_distance_k_mis(
                graph, k=2, seed=3
            )
        assert check_distance_k_mis(graph, mis, 2)


def _li_network(graph, seed, policy=None):
    delta = max((d for _, d in graph.degree), default=0)
    q = bertrand_prime(max(delta, 1))
    inputs = {
        v: {"q": q, "color_in": i % (q * q)}
        for i, v in enumerate(sorted(graph.nodes))
    }
    return q, Network(
        graph,
        LocallyIterativeProgram,
        seed=seed,
        policy=policy,
        delta=delta,
        inputs=inputs,
    )


def _part_li_network(graph, seed, parts=3, policy=None):
    delta = max((d for _, d in graph.degree), default=0)
    d_part = max(1, delta)
    q = prime_between(4 * d_part, 8 * d_part)
    inputs = {
        v: {"q": q, "part": i % parts, "color_in": i % (q * q)}
        for i, v in enumerate(sorted(graph.nodes))
    }
    return q, Network(
        graph,
        PartLocallyIterativeD2,
        seed=seed,
        policy=policy,
        delta=delta,
        inputs=inputs,
    )


def _assert_poly_phase_parity(make_network, **run_kwargs):
    (ref_net, ref), (vec_net, vec) = _run_pair(
        lambda: make_network()[1], **run_kwargs
    )
    assert vec.outputs == ref.outputs
    assert vec.stopped_early == ref.stopped_early
    assert _metrics_tuple(vec.metrics) == _metrics_tuple(ref.metrics)
    assert vec_net.node_colors() == ref_net.node_colors()
    assert vec_net.node_table("blocked_phases") == ref_net.node_table(
        "blocked_phases"
    )
    assert vec_net._started == ref_net._started


class TestPolyPhaseKernels:
    """The locally-iterative / part-offset kernels behind the
    deterministic-d2 and eps-d2-coloring try-phase stages."""

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    @pytest.mark.parametrize("seed", [0, 2])
    def test_li_track_parity(self, name, seed):
        graph = GRAPHS[name]
        q, _ = _li_network(graph, seed)
        _assert_poly_phase_parity(
            lambda: _li_network(
                graph, seed, policy=BandwidthPolicy.track()
            ),
            max_rounds=3 * q + 3,
            stop_when=all_colored,
            raise_on_timeout=False,
        )

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    @pytest.mark.parametrize("seed", [0, 2])
    def test_part_li_track_parity(self, name, seed):
        graph = GRAPHS[name]
        q, _ = _part_li_network(graph, seed)
        _assert_poly_phase_parity(
            lambda: _part_li_network(
                graph, seed, policy=BandwidthPolicy.track()
            ),
            max_rounds=3 * q + 3,
            stop_when=all_colored,
            raise_on_timeout=False,
        )

    @pytest.mark.parametrize(
        "max_rounds", [0, 1, 2, 3, 4, 5, 6, 7, 11, 200]
    )
    def test_li_round_cutoff_parity(self, max_rounds):
        # Mid-phase cutoffs: the published table must hold exactly the
        # blocked counters the aborted generators hold.
        _assert_poly_phase_parity(
            lambda: _li_network(
                GRAPHS["petersen"], 5, policy=BandwidthPolicy.track()
            ),
            max_rounds=max_rounds,
            stop_when=all_colored,
            raise_on_timeout=False,
        )

    @pytest.mark.parametrize("max_rounds", [0, 1, 3, 5, 8, 200])
    def test_part_li_round_cutoff_parity(self, max_rounds):
        _assert_poly_phase_parity(
            lambda: _part_li_network(
                GRAPHS["gnp24"], 3, policy=BandwidthPolicy.track()
            ),
            max_rounds=max_rounds,
            stop_when=all_colored,
            raise_on_timeout=False,
        )

    def test_li_full_schedule_halts(self):
        # No stop monitor: the program halts itself after 3q rounds;
        # the kernel must replay the whole schedule plus the halting
        # resume and leave the network in the halted state.
        graph = GRAPHS["petersen"]
        q, _ = _li_network(graph, 1)
        _assert_poly_phase_parity(
            lambda: _li_network(
                graph, 1, policy=BandwidthPolicy.track()
            ),
            max_rounds=3 * q + 3,
            stop_when=None,
            raise_on_timeout=False,
        )


def _improved_network(graph, policy, constants=None):
    delta = max(d for _, d in graph.degree)
    data = randomized_inputs(
        graph, "improved", constants or Constants.practical(),
        policy, delta,
    )
    return Network(
        graph,
        RandomizedD2Program,
        seed=1,
        policy=policy,
        delta=delta,
        inputs={v: data for v in graph.nodes},
    )


class TestRandomizedD2Kernel:
    """The hybrid kernel for d2-Color / Improved-d2-Color: random
    trials as array work, similarity/ladder epilogue via the resumed
    generators."""

    @pytest.mark.parametrize(
        "color",
        [improved_d2_color, basic_d2_color],
        ids=["improved", "basic"],
    )
    @pytest.mark.parametrize("seed", [0, 1])
    def test_driver_parity(self, color, seed):
        graph = GRAPHS["gnp24"]

        def run(backend):
            with use_backend(backend):
                return color(
                    graph,
                    seed=seed,
                    allow_deterministic_fallback=False,
                )

        ref, vec = run("reference"), run("vectorized")
        assert vec.coloring == ref.coloring
        assert vec.rounds == ref.rounds
        assert _metrics_tuple(vec.metrics) == _metrics_tuple(
            ref.metrics
        )
        assert [(p.name, p.rounds) for p in vec.phases] == [
            (p.name, p.rounds) for p in ref.phases
        ]

    @pytest.mark.parametrize(
        "color",
        [improved_d2_color, basic_d2_color],
        ids=["improved", "basic"],
    )
    @pytest.mark.parametrize("max_rounds", [0, 1, 2, 3, 7, 20, 61])
    def test_round_cutoff_parity(self, color, max_rounds):
        # Cutoffs land before, inside, and after the trials window
        # (the array-executed section); coloring, metrics, and the
        # phase table must match reference at every boundary.
        graph = GRAPHS["petersen"]

        def run(backend):
            with use_backend(backend):
                return color(
                    graph,
                    seed=5,
                    max_rounds=max_rounds,
                    allow_deterministic_fallback=False,
                )

        ref, vec = run("reference"), run("vectorized")
        assert vec.coloring == ref.coloring
        assert vec.rounds == ref.rounds
        assert _metrics_tuple(vec.metrics) == _metrics_tuple(
            ref.metrics
        )
        assert [(p.name, p.rounds) for p in vec.phases] == [
            (p.name, p.rounds) for p in ref.phases
        ]

    # Improved-d2-Color colors this graph by round 39, inside its
    # 66-round trials window; with c0 = 0.3 the window is 6 rounds
    # long and ends with 21 nodes uncolored.
    GRAPH = nx.random_regular_graph(3, 40, seed=1)
    SHORT = dataclasses.replace(Constants.practical(), c0=0.3)

    @pytest.mark.parametrize("prebuilt", [False, True])
    @pytest.mark.parametrize("max_rounds", [7, 500])
    def test_window_end_builds_no_programs(self, max_rounds, prebuilt):
        # A run that stops (500) or times out (7) inside the window
        # publishes its end-state as node tables and builds no
        # programs; a network built before the run falls back.
        nets, results = {}, {}
        for backend in ("reference", "vectorized"):
            net = _improved_network(self.GRAPH, BandwidthPolicy.track())
            if prebuilt:
                net.materialize()
            results[backend] = net.run(
                backend=backend,
                max_rounds=max_rounds,
                stop_when=all_colored,
                raise_on_timeout=False,
            )
            nets[backend] = net
        ref_net, vec_net = nets["reference"], nets["vectorized"]
        ref, vec = results["reference"], results["vectorized"]
        assert vec.stopped_early == ref.stopped_early
        assert _metrics_tuple(vec.metrics) == _metrics_tuple(ref.metrics)
        assert vec_net.node_colors() == ref_net.node_colors()
        assert vec_net.node_table("phase_log") == ref_net.node_table(
            "phase_log"
        )
        assert vec_net.materialized == prebuilt

    @pytest.mark.parametrize("mode", ["strict", "track", "unbounded"])
    @pytest.mark.parametrize(
        "color",
        [improved_d2_color, basic_d2_color],
        ids=["improved", "basic"],
    )
    def test_handoff_parity(self, color, mode):
        policy = _MODES[mode]

        def run(backend):
            with use_backend(backend):
                return color(
                    self.GRAPH,
                    seed=1,
                    constants=self.SHORT,
                    policy=policy,
                    max_rounds=60,
                    allow_deterministic_fallback=False,
                )

        ref, vec = run("reference"), run("vectorized")
        metric_ref = run("fastpath") if mode == "unbounded" else ref
        assert vec.coloring == ref.coloring
        assert vec.rounds == ref.rounds
        assert _metrics_tuple(vec.metrics) == _metrics_tuple(
            metric_ref.metrics
        )
        assert [(p.name, p.rounds) for p in vec.phases] == [
            (p.name, p.rounds) for p in ref.phases
        ]
        assert ("trials", 6) in [(p.name, p.rounds) for p in ref.phases]

    @pytest.mark.parametrize(
        "constants, handoffs",
        [(None, []), (SHORT, [{"round": 6, "uncolored": 17}])],
        ids=["window-end", "handoff"],
    )
    def test_handoff_event(self, constants, handoffs):
        log = _EventLog("kernel.handoff")
        net = _improved_network(
            self.GRAPH, BandwidthPolicy.track(), constants
        )
        with use_recorder(log):
            net.run(
                backend="vectorized",
                max_rounds=500,
                stop_when=all_colored,
                raise_on_timeout=False,
            )
        assert log.attrs == handoffs
        assert net.materialized == bool(handoffs)


class _EventLog(NullRecorder):
    """A recorder that keeps the attrs of every event named ``name``."""

    def __init__(self, name):
        self.name = name
        self.attrs = []

    def event(self, name, attrs=None):
        if name == self.name:
            self.attrs.append(attrs)


class TestFallbacks:
    """Runs the kernels must decline still execute correctly (via
    fastpath) when ``backend="vectorized"`` is requested."""

    def test_custom_stop_when_falls_back(self):
        _assert_trial_parity(
            lambda: _trial_network(
                GRAPHS["petersen"], 1, policy=BandwidthPolicy.track()
            ),
            max_rounds=30,
            stop_when=lambda net, rnd: False,
            raise_on_timeout=False,
        )

    def test_avoid_known_falls_back(self):
        _assert_trial_parity(
            lambda: _trial_network(
                GRAPHS["gnp24"],
                2,
                policy=BandwidthPolicy.track(),
                avoid_known=True,
            ),
            max_rounds=5_000,
            stop_when=all_colored,
            raise_on_timeout=False,
        )

    def test_selfloop_graph_falls_back(self):
        graph = nx.cycle_graph(5)
        graph.add_edge(2, 2)

        def make():
            inputs = {v: {"palette": 9} for v in graph.nodes}
            return Network(
                graph,
                TrialProgram,
                seed=1,
                policy=BandwidthPolicy.track(),
                inputs=inputs,
            )

        _assert_trial_parity(
            make,
            max_rounds=12,
            stop_when=all_colored,
            raise_on_timeout=False,
        )

    def test_strict_tiny_budget_error_parity(self):
        graph = nx.path_graph(3)
        errors = {}
        for backend in ("reference", "vectorized"):
            with pytest.raises(BandwidthExceededError) as info:
                _trial_network(
                    graph,
                    0,
                    policy=BandwidthPolicy.strict(beta=1, min_bits=5),
                ).run(
                    backend=backend,
                    max_rounds=100,
                    stop_when=all_colored,
                    raise_on_timeout=False,
                )
            errors[backend] = str(info.value)
        assert errors["reference"] == errors["vectorized"]

    def test_record_rounds_delegates(self):
        net = _trial_network(
            GRAPHS["petersen"], 3, policy=BandwidthPolicy.track()
        )
        result = net.run(
            backend="vectorized",
            max_rounds=5_000,
            stop_when=all_colored,
            raise_on_timeout=False,
            record_rounds=True,
        )
        assert len(result.metrics.per_round) == result.metrics.rounds


# ----------------------------------------------------------------------
# the deterministic front half (Linial, color reduction) and the naive
# G² flood


_CORPUS = {scenario.name: scenario for scenario in build_corpus()}
_FRONT_CORPUS = [
    "path16", "star13", "singleton", "edgeless8", "petersen", "gnp24",
    "cliques3x4", "disconnected-mix", "powerlaw24", "relay3x4",
]
_MODES = {
    "strict": BandwidthPolicy.strict(),
    "track": BandwidthPolicy.track(),
    "unbounded": BandwidthPolicy.unbounded(),
}
_BIG = 10**5


class _FallbackLog(NullRecorder):
    """A recorder that keeps the cause of every ``exec.fallback``."""

    def __init__(self):
        self.causes = []

    def event(self, name, attrs=None):
        if name == "exec.fallback":
            self.causes.append(attrs["cause"])


def _outcome(run):
    try:
        return run(), None
    except Exception as error:  # compared across engines below
        return None, error


def _assert_driver_parity(run, mode, fallbacks=()):
    """``run()`` (a driver call) under vectorized matches reference —
    and fastpath on metrics under UNBOUNDED, where neither sizes
    messages; the vectorized run's fallback causes are ``fallbacks``.
    Returns the reference result."""
    with use_backend("reference"):
        ref, ref_error = _outcome(run)
    log = _FallbackLog()
    with use_backend("vectorized"), use_recorder(log):
        vec, vec_error = _outcome(run)
    assert log.causes == list(fallbacks)
    if ref_error is not None:
        assert type(vec_error) is type(ref_error)
        assert str(vec_error) == str(ref_error)
        return None
    assert vec_error is None, vec_error
    metric_ref = ref
    if mode == "unbounded":
        with use_backend("fastpath"):
            metric_ref = run()
    assert vec.coloring == ref.coloring
    assert vec.rounds == ref.rounds
    assert vec.metrics.total_messages == ref.metrics.total_messages
    assert _metrics_tuple(vec.metrics) == _metrics_tuple(
        metric_ref.metrics
    )
    return ref


def _big_ids(graph, seed):
    """Distinct input colors from a large palette, so that Linial's
    schedule is not empty even on tiny graphs."""
    nodes = sorted(graph.nodes)
    return dict(
        zip(nodes, random.Random(seed).sample(range(_BIG), len(nodes)))
    )


def _relabeled(graph, seed):
    """The same graph with non-index labels (negative, sparse) added
    in shuffled order, so inbox order differs from label order."""
    nodes = list(graph.nodes)
    random.Random(seed).shuffle(nodes)
    label = {v: (-1) ** v * (1000 + 7 * v) for v in nodes}
    out = nx.Graph()
    out.add_nodes_from(label[v] for v in nodes)
    edges = list(graph.edges)
    random.Random(seed + 1).shuffle(edges)
    out.add_edges_from((label[u], label[v]) for u, v in edges)
    return out


def _delta(graph):
    return max((d for _, d in graph.degree), default=0)


def _tight(mode, bits):
    return BandwidthPolicy(_MODES[mode].mode, beta=1, min_bits=bits)


def _cr_input(graph, seed):
    """A valid (distinct-color) d2-coloring from a palette 2n above
    the Δ²+1 target."""
    nodes = sorted(graph.nodes)
    palette = _delta(graph) ** 2 + 1 + 2 * len(nodes)
    colors = random.Random(seed).sample(range(palette), len(nodes))
    return dict(zip(nodes, colors)), palette


def _linial_network(graph, ids):
    """A G² Linial network with one-round, 64-item relays."""
    schedule = linial_schedule(_BIG, _delta(graph) ** 2)
    inputs = {
        v: {
            "schedule": schedule,
            "relay": True,
            "relay_rounds": [1] * len(schedule),
            "per_message": [64] * len(schedule),
            "color_in": ids[v],
        }
        for v in graph.nodes
    }
    return Network(
        graph, LinialProgram, policy=BandwidthPolicy.track(),
        inputs=inputs,
    )


def _cr_network(graph, colors, palette):
    """A color-reduction network down to Δ²+1 with two gather rounds
    of three items each."""
    target = _delta(graph) ** 2 + 1
    inputs = {
        v: {
            "color_in": colors[v],
            "target": target,
            "phases": palette - target,
            "gather_rounds": 2,
            "per_message": 3,
        }
        for v in graph.nodes
    }
    return Network(
        graph, ColorReductionProgram,
        policy=BandwidthPolicy.track(), inputs=inputs,
    )


class TestLinialKernel:
    @pytest.mark.parametrize("mode", sorted(_MODES))
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("name", _FRONT_CORPUS)
    @pytest.mark.parametrize(
        "coloring",
        [linial_d2_coloring, linial_g_coloring],
        ids=["g2", "g"],
    )
    def test_parity(self, coloring, name, seed, mode):
        graph = _CORPUS[name].graph(seed)
        ids = _big_ids(graph, seed)
        ref = _assert_driver_parity(
            lambda: coloring(
                graph, policy=_MODES[mode], color_in=ids, palette_in=_BIG
            ),
            mode,
        )
        assert ref.params["iterations"] >= 1

    def test_ids_as_input_colors(self):
        graph = nx.random_regular_graph(3, 400, seed=2)
        ref = _assert_driver_parity(
            lambda: linial_d2_coloring(graph), "track"
        )
        assert ref.params["iterations"] >= 1

    @pytest.mark.parametrize("mode", sorted(_MODES))
    @pytest.mark.parametrize("seed", [0, 3])
    def test_tight_budget_multi_chunk_relay(self, mode, seed):
        # 62 bits hold two 17-bit colors per relay message, so every
        # list of a degree-7 node spans several rounds and the chunk
        # cut follows the (shuffled) inbox order.
        graph = _relabeled(_CORPUS["gnp24"].graph(seed), seed)
        ids = _big_ids(graph, seed)
        ref = _assert_driver_parity(
            lambda: linial_d2_coloring(
                graph, policy=_tight(mode, 62), color_in=ids,
                palette_in=_BIG,
            ),
            mode,
        )
        assert ref.metrics.rounds > 2 * ref.params["iterations"]

    @pytest.mark.parametrize("mode", sorted(_MODES))
    @pytest.mark.parametrize(
        "coloring",
        [linial_d2_coloring, linial_g_coloring],
        ids=["g2", "g"],
    )
    def test_per_part(self, coloring, mode):
        graph = _relabeled(_CORPUS["powerlaw24"].graph(4), 4)
        parts = {v: i % 3 for i, v in enumerate(sorted(graph.nodes))}
        delta = _delta(graph)
        conflict = delta * delta if coloring is linial_d2_coloring else delta
        ids = _big_ids(graph, 4)
        for policy in (_MODES[mode], _tight(mode, 62)):
            _assert_driver_parity(
                lambda: coloring(
                    graph, policy=policy, color_in=ids, palette_in=_BIG,
                    parts=parts, conflict_degree=conflict,
                ),
                mode,
            )

    def test_first_free_point_past_the_first_window(self):
        # Palette 10⁴ at D = 10 gives one step with d = 2, q = 23.  Leaf
        # i's polynomial differs from the center's by (i + 1)·(x - i),
        # so the two agree exactly at x = i and the center's first free
        # point is x = 10.
        q = 23
        graph = nx.star_graph(10)
        a0, a1, a2 = 5, 7, 3
        colors = {0: a0 + a1 * q + a2 * q * q}
        for i in range(10):
            c1 = (a1 + 1 + i) % q
            c0 = (a0 + a1 * i - c1 * i) % q
            colors[i + 1] = c0 + c1 * q + a2 * q * q
        ref = _assert_driver_parity(
            lambda: linial_g_coloring(
                graph, color_in=colors, palette_in=10_000
            ),
            "track",
        )
        assert ref.params["schedule"] == [(2, q, q * q)]
        assert ref.coloring[0] // q == 10

    def test_program_state_after_later_access(self):
        graph = _relabeled(_CORPUS["gnp24"].graph(1), 1)
        ids = _big_ids(graph, 1)
        (ref_net, ref), (vec_net, vec) = _run_pair(
            lambda: _linial_network(graph, ids)
        )
        assert not vec_net.materialized
        assert vec.outputs == ref.outputs
        assert _metrics_tuple(vec.metrics) == _metrics_tuple(ref.metrics)
        assert vec_net.node_colors() == ref_net.node_colors()
        with pytest.raises(RuntimeError, match=r"node_table\(\)"):
            vec_net.programs


class TestColorReductionKernel:
    @pytest.mark.parametrize("mode", sorted(_MODES))
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("name", _FRONT_CORPUS)
    def test_parity(self, name, seed, mode):
        graph = _CORPUS[name].graph(seed)
        colors, palette = _cr_input(graph, seed)
        _assert_driver_parity(
            lambda: color_reduction_d2(
                graph, colors, palette, policy=_MODES[mode]
            ),
            mode,
        )

    @pytest.mark.parametrize("mode", sorted(_MODES))
    @pytest.mark.parametrize("seed", [0, 2])
    def test_tight_budget_and_labels(self, mode, seed):
        # Non-index labels ride in every recolor payload; 44 bits hold
        # two 7-bit colors per gather message, so a degree-7 relay
        # list spans several rounds.
        graph = _relabeled(_CORPUS["gnp24"].graph(seed), seed)
        colors, palette = _cr_input(graph, seed)
        ref = _assert_driver_parity(
            lambda: color_reduction_d2(
                graph, colors, palette, policy=_tight(mode, 44)
            ),
            mode,
        )
        assert ref.params["gather_rounds"] > 1

    def test_program_state_after_later_access(self):
        graph = _relabeled(_CORPUS["cliques3x4"].graph(0), 0)
        colors, palette = _cr_input(graph, 0)
        (ref_net, ref), (vec_net, vec) = _run_pair(
            lambda: _cr_network(graph, colors, palette)
        )
        assert not vec_net.materialized
        assert vec.outputs == ref.outputs
        assert _metrics_tuple(vec.metrics) == _metrics_tuple(ref.metrics)
        assert vec_net.node_colors() == ref_net.node_colors()
        with pytest.raises(RuntimeError, match=r"node_table\(\)"):
            vec_net.materialize()


def _naive_network(graph, seed, policy=None, palette=None, colors=None):
    delta = _delta(graph)
    payload = {
        "palette": palette or delta * delta + 1,
        "relay_rounds": 2,
        "per_message": max(1, -(-delta // 2)),
    }
    inputs = {v: dict(payload) for v in graph.nodes}
    for v, c in (colors or {}).items():
        inputs[v]["color"] = c
    return Network(
        graph, NaiveProgram, seed=seed, policy=policy, inputs=inputs
    )


class TestNaiveKernel:
    @pytest.mark.parametrize("mode", sorted(_MODES))
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("name", _FRONT_CORPUS)
    def test_parity(self, name, seed, mode):
        graph = _CORPUS[name].graph(seed)
        _assert_driver_parity(
            lambda: naive_congest_d2_color(
                graph, seed=seed, policy=_MODES[mode]
            ),
            mode,
        )

    @pytest.mark.parametrize("mode", sorted(_MODES))
    @pytest.mark.parametrize("seed", [0, 5])
    def test_tight_budget_and_labels(self, mode, seed):
        # 48 bits hold two relayed statuses per message on a degree-7
        # graph: several relay rounds per phase, cut in inbox order.
        graph = _relabeled(_CORPUS["gnp24"].graph(seed), seed)
        ref = _assert_driver_parity(
            lambda: naive_congest_d2_color(
                graph, seed=seed, policy=_tight(mode, 48)
            ),
            mode,
        )
        assert ref.params["relay_rounds_per_phase"] > 1

    @pytest.mark.parametrize("max_rounds", list(range(13)) + [40])
    def test_round_cutoff_program_state(self, max_rounds):
        # Cutoffs land on every round of the first phases: the colors
        # must be what the aborted generators hold.
        graph = _relabeled(_CORPUS["powerlaw24"].graph(2), 2)
        colors = {v: 3 for v in sorted(graph.nodes)[:1]}
        _assert_naive_state(
            lambda: _naive_network(
                graph, 7, BandwidthPolicy.track(), colors=colors
            ),
            max_rounds=max_rounds,
            stop_when=all_colored,
            raise_on_timeout=False,
        )

    def test_exhausted_palette_draws_from_whole_palette(self):
        # Palette 2 on a triangle-rich graph: some live node sees no
        # free color and proposes randrange(palette) instead.
        _assert_naive_state(
            lambda: _naive_network(
                _CORPUS["cliques3x4"].graph(0), 3,
                BandwidthPolicy.track(), palette=2,
            ),
            max_rounds=60,
            stop_when=all_colored,
            raise_on_timeout=False,
        )

    def test_nontermination_raise_parity(self):
        for backend in ("reference", "vectorized"):
            with pytest.raises(NonterminationError):
                _naive_network(GRAPHS["petersen"], 5).run(
                    backend=backend,
                    max_rounds=4,
                    stop_when=all_colored,
                    raise_on_timeout=True,
                )


def _assert_naive_state(make_network, **run_kwargs):
    (ref_net, ref), (vec_net, vec) = _run_pair(make_network, **run_kwargs)
    assert not vec_net.materialized
    assert vec_net.node_colors() == ref_net.node_colors()
    assert vec.stopped_early == ref.stopped_early
    assert _metrics_tuple(vec.metrics) == _metrics_tuple(ref.metrics)
    assert vec_net._started == ref_net._started


class TestFrontHalfDeclines:
    """Runs the three kernels cannot replay exactly fall back to
    fastpath and still match reference, errors included."""

    def test_selfloops(self):
        graph = nx.cycle_graph(6)
        graph.add_edge(2, 2)
        ids = _big_ids(graph, 0)
        colors, palette = _cr_input(graph, 0)
        for run in (
            lambda: linial_d2_coloring(
                graph, color_in=ids, palette_in=_BIG
            ),
            lambda: color_reduction_d2(graph, colors, palette),
        ):
            _assert_driver_parity(run, "track", ["kernel-declined"])
        # The looped node hears its own proposal and never adopts.
        (ref_net, ref), (vec_net, vec) = _run_pair(
            lambda: _naive_network(graph, 1, BandwidthPolicy.track()),
            max_rounds=30,
            stop_when=all_colored,
            raise_on_timeout=False,
        )
        assert vec_net.materialized
        assert vec_net.node_colors() == ref_net.node_colors()
        assert _metrics_tuple(vec.metrics) == _metrics_tuple(ref.metrics)

    def test_values_outside_int64(self):
        graph = _CORPUS["petersen"].graph(0)
        nodes = sorted(graph.nodes)
        huge = 2**63
        ids = {v: huge + i for i, v in enumerate(nodes)}
        _assert_driver_parity(
            lambda: linial_d2_coloring(
                graph, color_in=ids, palette_in=2 * huge
            ),
            "track",
            ["kernel-declined"],
        )
        _assert_driver_parity(
            lambda: color_reduction_d2(
                graph, ids, huge + len(nodes), target=huge
            ),
            "track",
            ["kernel-declined"],
        )
        (ref_net, ref), (vec_net, vec) = _run_pair(
            lambda: _naive_network(graph, 2, colors={nodes[0]: huge}),
            max_rounds=200,
            stop_when=all_colored,
            raise_on_timeout=False,
        )
        assert vec_net.materialized  # declined: fastpath built nodes
        assert vec_net.node_colors() == ref_net.node_colors()
        assert _metrics_tuple(vec.metrics) == _metrics_tuple(ref.metrics)

    def test_non_uniform_config(self):
        graph = _CORPUS["gnp24"].graph(0)
        odd = sorted(graph.nodes)[3]
        colors, palette = _cr_input(graph, 0)
        target = _delta(graph) ** 2 + 1

        def reduction():
            inputs = {
                v: {
                    "color_in": colors[v],
                    "target": target,
                    "phases": palette - target - (v == odd),
                    "gather_rounds": 1,
                    "per_message": 64,
                }
                for v in graph.nodes
            }
            return Network(graph, ColorReductionProgram, inputs=inputs)

        def naive():
            net = _naive_network(graph, 4)
            net._inputs[odd]["palette"] += 1
            return net

        for make, kwargs in (
            (reduction, {}),
            (naive, {"max_rounds": 300, "stop_when": all_colored,
                     "raise_on_timeout": False}),
        ):
            (ref_net, ref), (vec_net, vec) = _run_pair(make, **kwargs)
            assert vec_net.materialized
            assert vec_net.node_colors() == ref_net.node_colors()
            assert _metrics_tuple(vec.metrics) == _metrics_tuple(
                ref.metrics
            )

    @pytest.mark.parametrize("mode", ["strict", "track"])
    def test_budget_a_payload_exceeds(self, mode):
        # STRICT must raise the reference's error (same sender,
        # receiver and size, so the same round); TRACK must count the
        # same violations.
        graph = _CORPUS["gnp24"].graph(1)
        ids = _big_ids(graph, 1)
        colors, palette = _cr_input(graph, 1)
        policy = _tight(mode, 18)
        for run in (
            lambda: linial_d2_coloring(
                graph, policy=policy, color_in=ids, palette_in=_BIG
            ),
            lambda: color_reduction_d2(
                graph, colors, palette, policy=policy
            ),
            lambda: naive_congest_d2_color(graph, seed=1, policy=policy),
        ):
            ref = _assert_driver_parity(run, mode, ["kernel-declined"])
            if mode == "track":
                assert ref.metrics.violations > 0

    def test_round_cap_inside_schedule(self):
        graph = _CORPUS["petersen"].graph(0)
        colors, palette = _cr_input(graph, 0)
        target = _delta(graph) ** 2 + 1
        for backend in ("reference", "vectorized"):
            inputs = {
                v: {
                    "color_in": colors[v],
                    "target": target,
                    "phases": palette - target,
                    "gather_rounds": 1,
                    "per_message": 64,
                }
                for v in graph.nodes
            }
            net = Network(graph, ColorReductionProgram, inputs=inputs)
            with pytest.raises(NonterminationError):
                net.run(backend=backend, max_rounds=9)

    def test_naive_without_stop_monitor(self):
        (ref_net, ref), (vec_net, vec) = _run_pair(
            lambda: _naive_network(GRAPHS["petersen"], 1),
            max_rounds=20,
            stop_when=None,
            raise_on_timeout=False,
        )
        assert vec_net.materialized
        assert vec_net.node_colors() == ref_net.node_colors()
        assert _metrics_tuple(vec.metrics) == _metrics_tuple(ref.metrics)


def _kernel_case(program_cls):
    """A small run of ``program_cls``: (network maker, run kwargs,
    an end-state table to compare)."""
    track = BandwidthPolicy.track()
    petersen = GRAPHS["petersen"]
    gnp = _CORPUS["gnp24"].graph(0)
    colors, palette = _cr_input(gnp, 0)
    monitored = {
        "max_rounds": 5_000,
        "stop_when": all_colored,
        "raise_on_timeout": False,
    }
    return {
        TrialProgram: (
            lambda: _trial_network(petersen, 1, policy=track),
            monitored, "color",
        ),
        LubyDistanceKProgram: (
            lambda: _luby_network(gnp, 3, policy=track),
            dict(monitored, stop_when=_all_decided), "state",
        ),
        LocallyIterativeProgram: (
            lambda: _li_network(petersen, 1, policy=track)[1],
            {}, "color",
        ),
        PartLocallyIterativeD2: (
            lambda: _part_li_network(gnp, 3, policy=track)[1],
            {}, "color",
        ),
        LinialProgram: (
            lambda: _linial_network(gnp, _big_ids(gnp, 0)), {}, "color",
        ),
        ColorReductionProgram: (
            lambda: _cr_network(gnp, colors, palette), {}, "color",
        ),
        NaiveProgram: (
            lambda: _naive_network(gnp, 2, track), monitored, "color",
        ),
        RandomizedD2Program: (
            lambda: _improved_network(
                TestRandomizedD2Kernel.GRAPH, track,
                TestRandomizedD2Kernel.SHORT,
            ),
            monitored, "color",
        ),
    }[program_cls]


class TestEndStateChannel:
    """A kernel run's end state is only readable as node tables: a
    network built before the run falls back, and one a kernel ran is
    never built afterwards."""

    @pytest.mark.parametrize(
        "program_cls", list(KERNELS), ids=lambda cls: cls.__name__
    )
    def test_prebuilt_network_falls_back(self, program_cls):
        make, run_kwargs, attr = _kernel_case(program_cls)
        ref_net, vec_net = make(), make()
        vec_net.materialize()
        ref = ref_net.run(backend="reference", **run_kwargs)
        log = _FallbackLog()
        with use_recorder(log):
            vec = vec_net.run(backend="vectorized", **run_kwargs)
        assert log.causes == ["materialized"]
        assert vec.outputs == ref.outputs
        assert vec.stopped_early == ref.stopped_early
        assert _metrics_tuple(vec.metrics) == _metrics_tuple(ref.metrics)
        assert vec_net.node_table(attr) == ref_net.node_table(attr)

    def test_resuming_after_a_kernel_run_raises(self):
        net = _trial_network(GRAPHS["petersen"], 5)
        net.run(
            backend="vectorized",
            max_rounds=2,
            stop_when=all_colored,
            raise_on_timeout=False,
        )
        assert net._started and not net.materialized
        for backend in ("fastpath", "reference", "vectorized"):
            with pytest.raises(RuntimeError, match=r"node_table\(\)"):
                net.run(
                    backend=backend,
                    max_rounds=50,
                    stop_when=all_colored,
                    raise_on_timeout=False,
                )
        assert not net.materialized

    def test_resuming_after_a_generator_run_works(self):
        outcomes = []
        for first in ("reference", "fastpath"):
            net = _trial_network(GRAPHS["petersen"], 5)
            net.run(
                backend=first,
                max_rounds=2,
                stop_when=all_colored,
                raise_on_timeout=False,
            )
            rest = net.run(
                backend="fastpath",
                max_rounds=5_000,
                stop_when=all_colored,
                raise_on_timeout=False,
            )
            assert rest.stopped_early
            outcomes.append((net.node_colors(), _metrics_tuple(rest.metrics)))
        assert outcomes[0] == outcomes[1]

    def test_unpublished_table_names_the_published_ones(self):
        net = _trial_network(GRAPHS["petersen"], 5)
        net.run(
            backend="vectorized",
            max_rounds=5_000,
            stop_when=all_colored,
            raise_on_timeout=False,
        )
        with pytest.raises(KeyError, match="nbr_colors") as info:
            net.node_table("nbr_colors")
        assert "['color', 'phases_tried']" in str(info.value)


@pytest.mark.parametrize(
    "spec_name, kernels",
    [
        (
            "deterministic-d2",
            {
                "_linial_kernel",
                "_locally_iterative_kernel",
                "_color_reduction_kernel",
            },
        ),
        ("naive-g2", {"_naive_kernel"}),
    ],
)
def test_traced_run_never_falls_back(tmp_path, spec_name, kernels):
    # Mid-size graph whose Linial schedule is not empty (n = 400 is
    # above the first fixed point 19² at D = Δ² = 9).
    graph = nx.random_regular_graph(3, 400, seed=3)
    assert linial_schedule(400, 9)
    path = str(tmp_path / "trace.jsonl")
    rec = TraceRecorder(path)
    with use_recorder(rec):
        registry.get_algorithm(spec_name).run(
            graph, seed=1, backend="vectorized"
        )
    rec.close()
    records = read_trace(path)
    assert [r for r in records if r.get("name") == "exec.fallback"] == []
    ran = {
        r["attrs"]["kernel"]
        for r in records
        if r.get("name") == "exec.kernel"
    }
    assert ran == kernels


class TestArrays:
    def test_csr_matches_networkx_neighborhoods(self):
        graph = nx.gnp_random_graph(30, 0.15, seed=2)
        csr = build_csr(graph)
        for i, v in enumerate(csr.order):
            row = set(
                csr.order[j]
                for j in csr.g_indices[
                    csr.g_indptr[i]:csr.g_indptr[i + 1]
                ]
            )
            assert row == set(graph.neighbors(v))
            ball = set(
                nx.single_source_shortest_path_length(
                    graph, v, cutoff=2
                )
            ) - {v}
            row2 = set(
                csr.order[j]
                for j in csr.g2_indices[
                    csr.g2_indptr[i]:csr.g2_indptr[i + 1]
                ]
            )
            assert row2 == ball

    def test_csr_drops_selfloops_but_flags_them(self):
        graph = nx.path_graph(4)
        graph.add_edge(1, 1)
        csr = build_csr(graph)
        assert csr.has_selfloops
        assert csr.degrees.tolist() == [1, 2, 2, 1]
        for i in range(csr.n):
            row2 = csr.g2_indices[
                csr.g2_indptr[i]:csr.g2_indptr[i + 1]
            ]
            assert i not in row2.tolist()

    def test_row_any_and_row_max_handle_empty_rows(self):
        indptr = np.array([0, 2, 2, 5, 5], dtype=np.int64)
        flags = np.array([0, 0, 1, 0, 0], dtype=bool)
        assert row_any(flags, indptr).tolist() == [
            False, False, True, False,
        ]
        values = np.array([4, 1, 9, 2, 7], dtype=np.int64)
        assert row_max(values, indptr, -1).tolist() == [4, -1, 9, -1]

    def test_int_bits_array_exact_across_int64(self):
        values = [
            0, 1, -1, 2, 7, 8, 255, 256, -257,
            2**31 - 1, 2**31, 2**52, 2**53, 2**53 + 1,
            2**61, 2**62 - 1, -(2**62 - 1),
        ]
        got = int_bits_array(np.array(values, dtype=np.int64))
        assert got.tolist() == [int_bits(v) for v in values]

    def test_graph_registry_is_per_object(self):
        graph = nx.petersen_graph()
        assert csr_for_graph(graph) is csr_for_graph(graph)
        assert csr_for_graph(graph) is not csr_for_graph(
            nx.petersen_graph()
        )


class TestInstanceCSRArtifact:
    def test_csr_memoized_and_counted(self):
        cache = InstanceCache()
        instance = cache.intern(
            "csr-probe", 0, tuple(range(6)),
            tuple((i, i + 1) for i in range(5)),
        )
        assert cache.stats.csr_builds == 0
        first = instance.csr()
        assert instance.csr() is first
        assert cache.stats.csr_builds == 1

    def test_plan_driven_run_leaves_cache_stats_unchanged(self):
        # Regression: a NetworkPlan-driven kernel run must hit the
        # instance cache exactly like a materialized Network run —
        # in particular it must not trigger extra CSR or square
        # builds once the instance artifacts are warm.
        cache = InstanceCache()
        instance = cache.intern(
            "plan-stats-probe", 0, tuple(range(12)),
            tuple((i, (i + 1) % 12) for i in range(12)),
        )
        graph = instance.graph()
        instance.csr()
        instance.d2_adjacency()
        base = cache.stats.snapshot()

        def run(backend):
            net = _trial_network(graph, 4)
            net.run(
                backend=backend,
                max_rounds=5_000,
                stop_when=all_colored,
                raise_on_timeout=False,
            )
            return net

        vec_net = run("vectorized")
        after_vec = cache.stats.snapshot()
        assert not vec_net.materialized  # the plan-driven path ran
        run("fastpath")
        after_fast = cache.stats.snapshot()

        vec_delta = {
            key: after_vec[key] - base[key] for key in base
        }
        fast_delta = {
            key: after_fast[key] - after_vec[key] for key in base
        }
        assert vec_delta == fast_delta
        assert vec_delta["csr_builds"] == 0
        assert vec_delta["square_builds"] == 0

    def test_pickle_ships_csr_and_seeds_graph_registry(self):
        cache = InstanceCache()
        instance = cache.intern(
            "csr-ship", 1, tuple(range(6)),
            tuple((i, i + 1) for i in range(5)),
        )
        instance.csr()
        clone = pickle.loads(pickle.dumps(instance))
        receiver = InstanceCache()
        receiver.install([clone])
        assert clone._csr is not None
        # graph() must seed the per-graph registry with the shipped
        # artifact, so vectorized runs on the clone never rebuild.
        assert csr_for_graph(clone.graph()) is clone._csr
        assert receiver.stats.csr_builds == 0


@pytest.mark.slow
class TestHugeTier:
    def test_vectorized_matches_fastpath_on_huge_gnp(self):
        from repro.workloads import instance_cache

        graph = instance_cache().get("gnp-huge-16384", 0).graph()
        spec = registry.get_algorithm("trial")
        fast = spec.run(graph, seed=0, backend="fastpath")
        vec = spec.run(graph, seed=0, backend="vectorized")
        assert vec.coloring == fast.coloring
        assert vec.rounds == fast.rounds
