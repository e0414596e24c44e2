"""Tests for RNG derivation, bandwidth policy, and result types."""

import pickle

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.congest.metrics import RunMetrics
from repro.congest.network import Network
from repro.congest.node import FunctionProgram
from repro.congest.policy import BandwidthMode, BandwidthPolicy
from repro.congest.rng import (
    CounterRandom,
    CounterStreams,
    derive_int,
    derive_rng,
    mix64,
    node_keys,
)
from repro.results import ColoringResult

# Label values of every shape the simulator actually derives streams
# from: ints, strings, and tuples thereof.
_labels = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70),
    st.text(max_size=12),
    st.tuples(st.integers(min_value=-100, max_value=100), st.text(max_size=4)),
)


class TestRng:
    def test_deterministic(self):
        assert derive_int(1, "a") == derive_int(1, "a")

    def test_label_sensitivity(self):
        assert derive_int(1, "a") != derive_int(1, "b")

    def test_seed_sensitivity(self):
        assert derive_int(1, "a") != derive_int(2, "a")

    def test_rng_streams_independent(self):
        r1 = derive_rng(0, "node", 1)
        r2 = derive_rng(0, "node", 2)
        assert [r1.random() for _ in range(5)] != [
            r2.random() for _ in range(5)
        ]

    def test_rng_reproducible(self):
        a = derive_rng(7, "x").random()
        b = derive_rng(7, "x").random()
        assert a == b


_BOUNDS = st.one_of(
    st.sampled_from([1, 2, 3, 2**63 - 1]),
    st.integers(0, 62).map(lambda k: 2**k),
    st.integers(0, 62).map(lambda k: 2**k + 1),
)


def _pair(seed, nodes):
    """The numpy and the scalar form of the same node streams."""
    keys = node_keys(seed, nodes)
    return CounterStreams(keys), [CounterRandom(k) for k in keys.tolist()]


class TestCounterStreams:
    """The numpy form (kernels) and the scalar form (node programs)
    must yield identical sequences — kernels and generators share one
    stream per node across the hybrid handoff."""

    @given(
        seed=_labels,
        nodes=st.lists(
            st.integers(-(2**70), 2**70), min_size=1, max_size=8,
            unique=True,
        ),
        data=st.data(),
    )
    @settings(max_examples=150)
    def test_randrange_matches_scalar(self, seed, nodes, data):
        streams, scalars = _pair(seed, nodes)
        for _ in range(3):
            bounds = data.draw(
                st.lists(_BOUNDS, min_size=len(nodes), max_size=len(nodes))
            )
            idx = np.arange(len(nodes))
            got = streams.randrange(idx, np.array(bounds, dtype=np.uint64))
            want = [rng.randrange(b) for rng, b in zip(scalars, bounds)]
            assert got.tolist() == want
        assert streams.counters.tolist() == [r.counter for r in scalars]

    @given(seed=_labels, bound=_BOUNDS, n=st.integers(1, 16))
    @settings(max_examples=100)
    def test_scalar_bound_broadcasts(self, seed, bound, n):
        streams, scalars = _pair(seed, range(n))
        got = streams.randrange(np.arange(n), bound)
        assert got.tolist() == [rng.randrange(bound) for rng in scalars]

    @pytest.mark.parametrize("k", [0, 1, 53, 64, 65, 128])
    @given(seed=_labels, n=st.integers(1, 6))
    @settings(max_examples=25)
    def test_getrandbits_is_top_bits_of_words(self, k, seed, n):
        """``getrandbits(k)`` is the top ``k`` bits of the next
        ``⌈k/64⌉`` words, read big-endian."""
        streams, scalars = _pair(seed, range(n))
        idx = np.arange(n)
        nwords = -(-k // 64)
        for _ in range(2):
            values = [0] * n
            for _ in range(nwords):
                words = streams.words(idx).tolist()
                values = [(v << 64) | w for v, w in zip(values, words)]
            want = [v >> (64 * nwords - k) for v in values]
            assert [rng.getrandbits(k) for rng in scalars] == want
            assert all(0 <= v < 2**k for v in want)
        assert streams.counters.tolist() == [r.counter for r in scalars]

    @given(seed=_labels, ops=st.lists(
        st.sampled_from(["random", "choice", "sample", "shuffle"]),
        max_size=12,
    ))
    @settings(max_examples=100)
    def test_interleaved_methods_match_numpy_draws(self, seed, ops):
        """The inherited stdlib methods consume the words exactly as
        their documented ``_randbelow`` loops over the numpy form."""
        streams, (rng,) = _pair(seed, [7])
        idx = np.array([0])

        def below(bound):
            return int(streams.randrange(idx, bound)[0])

        for op in ops:
            if op == "random":
                word = int(streams.words(idx)[0])
                assert rng.random() == (word >> 11) * 2.0**-53
            elif op == "choice":
                seq = list(range(10, 23))
                assert rng.choice(seq) == seq[below(len(seq))]
            elif op == "sample":
                pool = list(range(9))
                want = []
                for i in range(4):
                    j = below(9 - i)
                    want.append(pool[j])
                    pool[j] = pool[9 - i - 1]
                assert rng.sample(range(9), 4) == want
            else:
                got, want = list(range(6)), list(range(6))
                rng.shuffle(got)
                for i in reversed(range(1, 6)):
                    j = below(i + 1)
                    want[i], want[j] = want[j], want[i]
                assert got == want
        assert rng.counter == int(streams.counters[0])

    def test_node_keys_match_scalar_mix(self):
        nodes = [0, 1, 5, -3, 2**64 + 9]
        base = derive_int("s", "node")
        assert node_keys("s", nodes).tolist() == [
            mix64(base, v % 2**64) for v in nodes
        ]
        assert (
            node_keys(3, range(4)).tolist()
            == node_keys(3, [0, 1, 2, 3]).tolist()
        )

    def test_state_is_key_and_counter(self):
        rng = CounterRandom(12345)
        rng.randrange(1000)
        copy = pickle.loads(pickle.dumps(rng))
        other = CounterRandom()
        other.setstate(rng.getstate())
        seq = [rng.random() for _ in range(5)]
        assert [copy.random() for _ in range(5)] == seq
        assert [other.random() for _ in range(5)] == seq
        assert 0.0 <= min(seq) and max(seq) < 1.0


class TestHandoffContinuity:
    """Kernel draws, then generator draws on the same network, equal a
    pure scalar run of each node's stream."""

    @staticmethod
    def _network(seed):
        def program(ctx):
            yield {}
            return None

        return Network(
            nx.path_graph(5), FunctionProgram.factory(program), seed=seed
        )

    def test_kernel_then_generator_draws(self):
        network = self._network(11)
        plan = network.plan()
        first = plan.randrange(np.arange(5), 97)
        second = plan.randrange(np.array([1, 3]), np.array([5, 2**40]))
        # Materializing now hands every node its advanced stream.
        later = {v: ctx.rng.randrange(1000) for v, ctx in
                 network.contexts.items()}
        for i, v in enumerate(plan.order):
            pure = CounterRandom(mix64(derive_int(11, "node"), v))
            assert pure.randrange(97) == first[i]
            if v in (1, 3):
                bound = 5 if v == 1 else 2**40
                assert pure.randrange(bound) == second[[1, 3].index(v)]
            assert pure.randrange(1000) == later[v]

    def test_generator_then_kernel_draws(self):
        network = self._network(11)
        contexts = network.contexts
        plan = network.plan()
        early = {v: contexts[v].rng.random() for v in (0, 4)}
        drawn = plan.randrange(np.arange(5), 10)
        last = {v: ctx.rng.randrange(3) for v, ctx in contexts.items()}
        for i, v in enumerate(plan.order):
            pure = CounterRandom(mix64(derive_int(11, "node"), v))
            if v in early:
                assert pure.random() == early[v]
            assert pure.randrange(10) == drawn[i]
            assert pure.randrange(3) == last[v]


class TestPolicy:
    def test_budget_scales_with_log_n(self):
        policy = BandwidthPolicy(beta=8, min_bits=0)
        assert policy.budget_bits(1024) == 80
        assert policy.budget_bits(2048) == 88

    def test_min_bits_floor(self):
        policy = BandwidthPolicy(beta=1, min_bits=100)
        assert policy.budget_bits(4) == 100

    def test_tiny_n(self):
        policy = BandwidthPolicy(beta=8, min_bits=0)
        assert policy.budget_bits(1) == 8

    def test_factories(self):
        assert BandwidthPolicy.strict().mode is BandwidthMode.STRICT
        assert BandwidthPolicy.track().mode is BandwidthMode.TRACK
        assert (
            BandwidthPolicy.unbounded().mode
            is BandwidthMode.UNBOUNDED
        )


class TestRunMetrics:
    def test_observe_tracks_max(self):
        metrics = RunMetrics()
        metrics.observe(10)
        metrics.observe(50)
        metrics.observe(20)
        assert metrics.max_message_bits == 50
        assert metrics.total_messages == 3
        assert metrics.total_bits == 80

    def test_merge_adds_rounds(self):
        a = RunMetrics(rounds=3, total_messages=5, budget_bits=64)
        b = RunMetrics(rounds=2, total_messages=7, budget_bits=64)
        merged = a.merge(b)
        assert merged.rounds == 5
        assert merged.total_messages == 12

    def test_compliance(self):
        metrics = RunMetrics()
        assert metrics.compliant
        metrics.observe_violation(200)
        assert not metrics.compliant
        assert metrics.worst_violation_bits == 200

    def test_summary_contains_rounds(self):
        assert "rounds=0" in RunMetrics().summary()


class TestColoringResult:
    def _result(self):
        return ColoringResult(
            algorithm="x",
            coloring={0: 1, 1: 2, 2: 1},
            palette_size=5,
            rounds=0,
        )

    def test_colors_used(self):
        assert self._result().colors_used == 2

    def test_complete(self):
        result = self._result()
        assert result.complete
        result.coloring[3] = None
        assert not result.complete

    def test_add_phase_accumulates(self):
        result = self._result()
        result.add_phase("a", 10)
        result.add_phase("b", 5)
        assert result.rounds == 15
        assert result.phase_rounds() == {"a": 10, "b": 5}

    def test_add_phase_merges_metrics(self):
        result = self._result()
        result.add_phase("a", 10, RunMetrics(rounds=10, total_bits=7))
        assert result.metrics.total_bits == 7

    def test_summary_mentions_algorithm(self):
        assert "x:" in self._result().summary()
