"""The synchronous CONGEST network executor.

:class:`Network` drives one :class:`~repro.congest.node.NodeProgram`
per graph node in lockstep rounds:

1. every running program is resumed with its inbox and yields an
   outbox (``{neighbor: payload}`` or ``Broadcast``),
2. each message is validated (receiver must be a neighbor) and its
   bit size metered against the bandwidth policy,
3. messages are delivered simultaneously; the next round begins.

A program halts by returning; its return value becomes the node's
output.  The run ends when every program has halted, when the optional
``stop_when`` monitor fires, or after ``max_rounds``.

The round loop itself is pluggable: :meth:`Network.run` delegates to
an execution backend from :mod:`repro.exec` (``reference`` by
default).  ``reference`` and ``fastpath`` are one loop,
:class:`~repro.exec.fastpath.GeneratorLoop`, under two sizing rules
(``fastpath`` skips message sizing under an unbounded policy);
``vectorized`` runs whole protocols as array kernels.  Backends differ
only in mechanics — the delivered messages, outputs and round counts
are identical.  The live generators and in-flight inboxes belong to
the network, so a run that paused (``stop_when`` or a non-raising
``max_rounds``) continues where it stopped on the next :meth:`run`.

Node materialization is *lazy*: building n ``NodeProgram`` objects, n
RNG streams and n generator frames is pure overhead for a run the
vectorized backend executes entirely in arrays, so ``__init__`` only
validates and records the recipe.  The Python nodes are built on first
access of :attr:`contexts`/:attr:`programs` (or explicitly via
:meth:`materialize`).  Node ``v`` draws from the keyed counter stream
of :mod:`repro.congest.rng`: its keys come from one array pass, and a
network that ran kernel draws first hands each node its stream at the
counter the kernels left it.  A run's end state is read through
:meth:`node_colors`/:meth:`node_table`: from the programs after a
generator run, from the tables a whole-run kernel published after a
kernel run.  Such a network never builds its programs (fresh ones
would hold the pre-run state), so :meth:`materialize` refuses.
One consequence: program-constructor errors (e.g. a missing input key)
surface at first materialization — usually :meth:`run` — rather than
at ``Network(...)`` construction.

``stop_when`` is a *simulation-level* convenience (it peeks at global
state, which no CONGEST node could): it only stops the simulation
early, e.g. once every node is colored, and is reported as such.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Mapping, Optional

import networkx as nx

from repro.congest.metrics import RunMetrics
from repro.congest.node import NodeContext, NodeProgram
from repro.congest.policy import BandwidthPolicy
from repro.congest.rng import CounterStreams, node_keys
from repro.obs import trace as obs_trace

_EMPTY_INPUT: Dict[str, Any] = {}


class UniformInputs(Mapping):
    """``{node: payload}`` with one shared payload for every node.

    Protocols whose per-node inputs are identical (the trial and
    naive baselines ship the same palette dict to all n nodes) pass
    this instead of a dict-of-dicts: O(1) memory instead of one dict
    per node — at n = 2²⁰ that alone is ~150 MB.  Materialization
    copies the payload per node (``NodeContext`` owns its data), so
    sharing is safe.
    """

    __slots__ = ("_nodes", "_payload")

    def __init__(self, nodes, payload: Dict[str, Any]):
        self._nodes = nodes
        self._payload = payload

    def __getitem__(self, node) -> Dict[str, Any]:
        if node in self._nodes:
            return self._payload
        raise KeyError(node)

    def get(self, node, default=None):
        return self._payload if node in self._nodes else default

    def __iter__(self):
        return iter(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)


@dataclass
class RunResult:
    """Outcome of one :meth:`Network.run` execution."""

    outputs: Dict[int, Any]
    metrics: RunMetrics
    halted: bool
    stopped_early: bool = False

    @property
    def rounds(self) -> int:
        return self.metrics.rounds


class NetworkPlan:
    """Array-level view of a network for vectorized kernels.

    Everything a kernel needs without touching Python node objects:
    the CSR G/G² adjacency (shared with :meth:`Instance.csr`), the
    dense node order, per-node input dicts, and the per-node keyed
    counter streams (:class:`~repro.congest.rng.CounterStreams`) —
    the very streams the node programs hold once the network
    materializes, so array draws and generator draws never diverge.
    """

    __slots__ = ("network", "csr", "_streams")

    def __init__(self, network: "Network", csr):
        self.network = network
        self.csr = csr
        self._streams: Optional[CounterStreams] = None

    @property
    def order(self):
        """Dense node order (sorted labels) shared with the CSR."""
        return self.csr.order

    def streams(self) -> CounterStreams:
        """Per-node stream keys and counters, aligned with
        :attr:`order` (the keys derived in one array pass)."""
        if self._streams is None:
            rec = obs_trace.recorder()
            trace_t0 = rec.clock() if rec is not None else 0.0
            self._streams = CounterStreams(
                node_keys(self.network._seed, self.order)
            )
            if rec is not None:
                rec.complete(
                    "plan.bulk_rng", trace_t0, {"n": self.csr.n}
                )
        return self._streams

    def randrange(self, idx, bounds):
        """``rng.randrange(bound)`` of each dense index in ``idx``
        (distinct), in one array pass.

        On a materialized network the programs' scalar streams are the
        live state: their counters are read before the draw and
        written back after it.
        """
        streams = self.streams()
        contexts = self.network._contexts
        if contexts is None:
            return streams.randrange(idx, bounds)
        order = self.order
        rngs = [contexts[order[i]].rng for i in idx.tolist()]
        streams.counters[idx] = [rng.counter for rng in rngs]
        out = streams.randrange(idx, bounds)
        for rng, counter in zip(rngs, streams.counters[idx].tolist()):
            rng.counter = counter
        return out

    def input_for(self, node: int) -> Dict[str, Any]:
        """The (unmaterialized) input dict of ``node``; never copied,
        callers must not mutate it."""
        return self.network._inputs.get(node, _EMPTY_INPUT)

    def input_records(self) -> Iterable[Dict[str, Any]]:
        """The input dicts of the nodes in :attr:`order` — or only the
        one every node shares, when the inputs are a
        :class:`UniformInputs` over the graph's own node view, so
        kernels validate it once instead of per node."""
        inputs = self.network._inputs
        if (
            isinstance(inputs, UniformInputs)
            and inputs._nodes is self.network.graph.nodes
        ):
            return (inputs._payload,)
        return map(self.input_for, self.order)


class Network:
    """Synchronous CONGEST executor over a networkx graph.

    Parameters
    ----------
    graph:
        The communication graph; node labels must be integers
        (they double as the O(log n)-bit identifiers).
    program_factory:
        Callable ``(NodeContext) -> NodeProgram``.
    seed:
        Root seed; per-node RNGs are derived deterministically.
    policy:
        Bandwidth policy; defaults to TRACK (measure, never fail).
    delta:
        Maximum degree communicated to nodes; defaults to the true
        maximum degree of ``graph``.
    inputs:
        Optional ``{node: dict}`` of per-node protocol inputs.  Read
        at materialization time (copied per node then); mutating it
        between construction and the first run is unsupported.
    """

    def __init__(
        self,
        graph: nx.Graph,
        program_factory: Callable[[NodeContext], NodeProgram],
        seed: Any = 0,
        policy: Optional[BandwidthPolicy] = None,
        delta: Optional[int] = None,
        inputs: Optional[Dict[int, Dict[str, Any]]] = None,
    ):
        if graph.number_of_nodes() == 0:
            raise ValueError("cannot build a network on an empty graph")
        for node in graph.nodes:
            if not isinstance(node, int):
                raise TypeError(
                    "node labels must be ints (they are the O(log n)-bit "
                    f"identifiers); got {node!r}"
                )
        self.graph = graph
        self.policy = policy or BandwidthPolicy()
        self.n = graph.number_of_nodes()
        self.delta = (
            delta
            if delta is not None
            else max((d for _, d in graph.degree), default=0)
        )
        self._budget = self.policy.budget_bits(self.n)
        self._seed = seed
        self.program_factory = program_factory
        self._inputs: Dict[int, Dict[str, Any]] = inputs or {}

        self._contexts: Optional[Dict[int, NodeContext]] = None
        self._programs: Optional[Dict[int, NodeProgram]] = None
        self._gens: Optional[Dict[int, Any]] = None
        self._nbr_sets: Optional[Dict[int, frozenset]] = None
        self._plan: Optional[NetworkPlan] = None
        #: End-state tables a whole-run kernel published
        #: ({name: () -> dict}); non-empty only after a kernel run.
        self._vector_tables: Dict[str, Callable[[], Dict[int, Any]]] = {}
        self.outputs: Dict[int, Any] = {}
        #: Messages sent in the last round driven, delivered at the
        #: next resume — kept so a later run continues a paused one.
        self._inboxes: Dict[int, Dict[int, Any]] = {}
        self._started = False

    # -- lazy materialization ------------------------------------------

    @property
    def materialized(self) -> bool:
        """Whether the Python node objects have been built."""
        return self._programs is not None

    def materialize(self) -> Dict[int, NodeProgram]:
        """Build contexts/programs/generators (idempotent).

        Refused once a whole-run kernel has run: the programs would
        hold the pre-run state, not the kernel's end state.
        """
        if self._programs is None:
            if self._vector_tables:
                raise RuntimeError(
                    "this network ran as a vectorized kernel and has no "
                    "node programs; read its end state through "
                    "node_colors()/node_table() (published tables: "
                    f"{', '.join(sorted(self._vector_tables))})"
                )
            self._build_nodes()
        return self._programs

    def _build_nodes(self) -> None:
        graph = self.graph
        inputs = self._inputs
        if self._plan is not None:
            # Start from the plan's counters: kernel draws already
            # advanced them, so generator draws continue on-stream.
            order, streams = self._plan.order, self._plan.streams()
        else:
            order = list(graph.nodes)
            streams = CounterStreams(node_keys(self._seed, order))
        rng_of = dict(zip(order, streams.scalars()))
        contexts: Dict[int, NodeContext] = {}
        programs: Dict[int, NodeProgram] = {}
        gens: Dict[int, Any] = {}
        factory = self.program_factory
        n, delta = self.n, self.delta
        for node in graph.nodes:
            ctx = NodeContext(
                node=node,
                neighbors=tuple(sorted(graph.neighbors(node))),
                n=n,
                delta=delta,
                rng=rng_of[node],
                data=dict(inputs.get(node, _EMPTY_INPUT)),
            )
            contexts[node] = ctx
            program = factory(ctx)
            programs[node] = program
            gens[node] = program.run()
        self._contexts = contexts
        self._programs = programs
        self._gens = gens
        self._nbr_sets = {
            node: frozenset(ctx.neighbors)
            for node, ctx in contexts.items()
        }

    @property
    def contexts(self) -> Dict[int, NodeContext]:
        self.materialize()
        return self._contexts

    @property
    def programs(self) -> Dict[int, NodeProgram]:
        self.materialize()
        return self._programs

    @property
    def _generators(self) -> Dict[int, Any]:
        """The live generators (halted nodes are removed as they
        return)."""
        self.materialize()
        return self._gens

    @property
    def _neighbor_sets(self) -> Dict[int, frozenset]:
        self.materialize()
        return self._nbr_sets

    def plan(self) -> NetworkPlan:
        """The array-level :class:`NetworkPlan` (built on first use)."""
        if self._plan is None:
            from repro.exec import arrays

            rec = obs_trace.recorder()
            trace_t0 = rec.clock() if rec is not None else 0.0
            self._plan = NetworkPlan(
                self, arrays.csr_for_graph(self.graph)
            )
            if rec is not None:
                rec.complete(
                    "plan.build", trace_t0, {"n": self._plan.csr.n}
                )
        return self._plan

    # -- observable end-state ------------------------------------------

    def node_colors(self) -> Dict[int, Optional[int]]:
        """``{node: color}`` after a run (see :meth:`node_table`)."""
        return self.node_table("color")

    def node_table(self, attr: str) -> Dict[int, Any]:
        """``{node: getattr(program, attr)}`` after a run.

        After a whole-run kernel this is served from the tables the
        kernel published; an ``attr`` it did not publish raises
        :class:`KeyError` naming the ones it did.
        """
        if self._vector_tables:
            table = self._vector_tables.get(attr)
            if table is None:
                raise KeyError(
                    f"the vectorized kernel published no {attr!r} "
                    f"table; it published {sorted(self._vector_tables)}"
                )
            return table()
        return {
            node: getattr(program, attr)
            for node, program in self.programs.items()
        }

    # ------------------------------------------------------------------

    def run(
        self,
        max_rounds: int = 1_000_000,
        stop_when: Optional[Callable[["Network", int], bool]] = None,
        raise_on_timeout: bool = True,
        record_rounds: bool = False,
        backend: Any = None,
    ) -> RunResult:
        """Execute rounds until all programs halt (or stop/timeout).

        The round loop is driven by an execution backend from
        :mod:`repro.exec`: ``backend`` may be a name ("reference",
        "fastpath", ...) or an
        :class:`~repro.exec.base.ExecutionBackend` instance; ``None``
        selects the ambient backend installed by
        :func:`repro.exec.use_backend` (default: ``reference``).  All
        backends execute identical CONGEST semantics.

        ``stop_when`` is consulted before the ``max_rounds`` guard, so
        a monitor firing on the exact final admissible round reports
        ``stopped_early`` instead of a timeout.
        """
        from repro.exec import get_backend

        return get_backend(backend).execute(
            self,
            max_rounds=max_rounds,
            stop_when=stop_when,
            raise_on_timeout=raise_on_timeout,
            record_rounds=record_rounds,
        )


def run_protocol(
    graph: nx.Graph,
    program_factory: Callable[[NodeContext], NodeProgram],
    seed: Any = 0,
    policy: Optional[BandwidthPolicy] = None,
    delta: Optional[int] = None,
    inputs: Optional[Dict[int, Dict[str, Any]]] = None,
    max_rounds: int = 1_000_000,
    stop_when: Optional[Callable[[Network, int], bool]] = None,
    backend: Any = None,
) -> RunResult:
    """One-shot convenience: build a :class:`Network` and run it."""
    network = Network(
        graph,
        program_factory,
        seed=seed,
        policy=policy,
        delta=delta,
        inputs=inputs,
    )
    return network.run(
        max_rounds=max_rounds,
        stop_when=stop_when,
        raise_on_timeout=stop_when is None,
        backend=backend,
    )


def log2_ceil(n: int) -> int:
    """``ceil(log2 n)`` with ``log2_ceil(1) == 1`` (id width floor)."""
    if n <= 2:
        return 1
    return math.ceil(math.log2(n))
