"""The reference execution backend.

This is the original round-driven loop of
:class:`~repro.congest.network.Network`, moved behind the
:class:`~repro.exec.base.ExecutionBackend` protocol.  It is the
semantic ground truth: every message is validated and sized
individually through :meth:`Network._deliver`, per-round metrics
objects are materialized, and nothing is batched.  Other backends are
tested for equivalence against it.

Stopping order: the ``stop_when`` monitor is consulted *before* the
``max_rounds`` guard.  A protocol that reaches its stop condition on
the exact final admissible round is therefore reported as
``stopped_early`` rather than conflated with non-termination (the
monitor says the run *succeeded*; the timeout only catches runs that
genuinely never got there).
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Callable, Dict, Optional

from repro.congest.errors import NonterminationError
from repro.congest.metrics import RoundMetrics, RunMetrics
from repro.exec.base import ExecutionBackend
from repro.obs import trace as obs_trace

_EMPTY_INBOX: Dict[int, Any] = MappingProxyType({})


class ReferenceBackend(ExecutionBackend):
    """Round-driven lockstep executor (the semantic ground truth)."""

    name = "reference"

    def execute(
        self,
        network,
        *,
        max_rounds: int = 1_000_000,
        stop_when: Optional[Callable] = None,
        raise_on_timeout: bool = True,
        record_rounds: bool = False,
    ):
        from repro.congest.network import RunResult

        rec = obs_trace.recorder()
        trace_t0 = rec.clock() if rec is not None else 0.0

        metrics = RunMetrics(budget_bits=network._budget)
        running = dict(network._generators)
        inboxes: Dict[int, Dict[int, Any]] = {}
        stopped_early = False

        round_index = 0
        while running:
            # Monitor before timeout: firing on the exact final round
            # is a successful early stop, not non-termination.
            if stop_when is not None and stop_when(network, round_index):
                stopped_early = True
                break
            if round_index >= max_rounds:
                if raise_on_timeout:
                    raise NonterminationError(max_rounds, set(running))
                break

            round_metrics = RoundMetrics(round_index)
            next_inboxes: Dict[int, Dict[int, Any]] = {}
            halted_now = []

            for node, gen in running.items():
                inbox = inboxes.get(node, _EMPTY_INBOX)
                try:
                    if network._started or round_index > 0:
                        outbox = gen.send(inbox)
                    else:
                        outbox = gen.send(None)
                except StopIteration as stop:
                    network.outputs[node] = stop.value
                    halted_now.append(node)
                    continue
                network._deliver(
                    node, outbox, next_inboxes, metrics, round_metrics
                )

            # The first resume of each generator happens lazily above;
            # after one full pass every generator has been started.
            network._started = True

            for node in halted_now:
                del running[node]
            inboxes = next_inboxes
            # A trailing resume in which every remaining program halts
            # without sending is local computation, not a communication
            # round: a node that receives in round r and then returns
            # has round complexity r.  (This also makes genuinely
            # zero-round protocols report 0 rounds.)
            if running or round_metrics.messages > 0:
                metrics.rounds += 1
                if record_rounds:
                    metrics.per_round.append(round_metrics)
            round_index += 1

        if rec is not None:
            rec.complete(
                "exec.run",
                trace_t0,
                {
                    "backend": self.name,
                    "rounds": metrics.rounds,
                    "messages": metrics.total_messages,
                    "bits": metrics.total_bits,
                    "halted": not running,
                },
            )
        return RunResult(
            outputs=dict(network.outputs),
            metrics=metrics,
            halted=not running,
            stopped_early=stopped_early,
        )
