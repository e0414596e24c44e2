"""Charge a traced run's wall time to the repo's layers.

Input is the record list of one trace (``repro.obs.trace.read_trace``):
B/E span pairs, single-record X spans and point events.  Spans are
nested by time interval, not by their ``parent`` field, because an X
span records the enclosing B/E span as its parent even when it ran
inside another X span (``plan.build`` inside ``exec.kernel``).

A span's *self time* is its duration minus the durations of its direct
children.  Self times telescope: summed over every span they equal the
summed duration of the root spans, so the per-layer self times plus
``unattributed_s`` (the self time of the benchmark's root span and of
any span no layer claims) add up to the traced wall exactly.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, NamedTuple, Optional

#: Span name -> per-layer metric charged with that span's self time.
LAYER_OF_SPAN = {
    "bench.grid": "workloads.prebuild_s",
    "bench.prebuild": "workloads.prebuild_s",
    "bench.shard_prebuild": "workloads.prebuild_s",
    "bench.csr": "arrays.csr_s",
    "bench.square": "arrays.square_s",
    "bench.manifest": "shards.manifest_s",
    "bench.shard": "shards.checkpoint_s",
    "shard.run": "shards.checkpoint_s",  # minus its lead-in, see below
    "bench.merge": "shards.merge_s",
    "bench.check": "verify.check_s",
    "sweep.cell": "sweep.glue_s",
    "exec.kernel": "vectorized.kernel_s",
    "kernel.try_phases": "vectorized.kernel_s",
    "plan.build": "congest.plan_s",
    "plan.bulk_rng": "congest.bulk_rng_s",
}

#: ``run_shard`` prebuilds the instances its cells reference before its
#: first cell runs; that lead-in of each ``shard.run`` span (its start to
#: its first child's start) is charged here instead of to checkpoint IO.
SHARD_LEAD_IN = "workloads.prebuild_s"

#: ``exec.run`` spans are charged by their ``backend`` attr.
LAYER_OF_BACKEND = {"fastpath": "fastpath.run_s"}

#: Every self-time metric, reported (as 0.0 when absent) in this order.
LAYER_METRICS = tuple(
    sorted(set(LAYER_OF_SPAN.values()) | set(LAYER_OF_BACKEND.values()))
)


class SpanInterval(NamedTuple):
    name: str
    start: float
    dur: float
    attrs: Dict

    @property
    def end(self) -> float:
        return self.start + self.dur


def spans_of(records: List[Dict]) -> List[SpanInterval]:
    """Closed spans of a trace (a B without its E is dropped)."""
    begun: Dict[int, Dict] = {}
    spans: List[SpanInterval] = []
    for rec in records:
        if rec.get("kind") != "span":
            continue
        phase = rec["phase"]
        if phase == "B":
            begun[rec["id"]] = rec
        elif phase == "E" and rec["id"] in begun:
            start = begun.pop(rec["id"])
            attrs = {**start.get("attrs", {}), **rec.get("attrs", {})}
            spans.append(
                SpanInterval(rec["name"], start["t"], rec["dur"], attrs)
            )
        elif phase == "X":
            spans.append(
                SpanInterval(
                    rec["name"], rec["t"], rec["dur"], rec.get("attrs", {})
                )
            )
    return spans


def layer_of(span: SpanInterval) -> Optional[str]:
    if span.name == "exec.run":
        return LAYER_OF_BACKEND.get(span.attrs.get("backend"))
    return LAYER_OF_SPAN.get(span.name)


def parents(spans: List[SpanInterval]) -> List[Optional[int]]:
    """Index of each span's innermost enclosing span (``None`` for a
    root).  One thread's spans nest properly, so a stack suffices."""
    order = sorted(
        range(len(spans)), key=lambda i: (spans[i].start, -spans[i].dur)
    )
    parent: List[Optional[int]] = [None] * len(spans)
    stack: List[int] = []
    for i in order:
        while stack and spans[stack[-1]].end <= spans[i].start:
            stack.pop()
        parent[i] = stack[-1] if stack else None
        stack.append(i)
    return parent


def self_times(
    spans: List[SpanInterval], parent: List[Optional[int]]
) -> List[float]:
    """Self time of each span (same order as ``spans``)."""
    own = [span.dur for span in spans]
    for i, p in enumerate(parent):
        if p is not None:
            own[p] -= spans[i].dur
    return own


def _percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (0 for no values)."""
    if not values:
        return 0.0
    ranked = sorted(values)
    return ranked[min(len(ranked) - 1, int(q * len(ranked)))]


def attribute(records: List[Dict]) -> Dict[str, float]:
    """Per-layer metrics of one trace.

    Keys: every :data:`LAYER_METRICS` self time, ``unattributed_s``,
    ``obs.traced_s`` (summed root-span duration: the traced wall), and
    the span-derived counts and ratios of the benchmark's table.
    """
    spans = spans_of(records)
    parent = parents(spans)
    out: Dict[str, float] = {name: 0.0 for name in LAYER_METRICS}
    out["unattributed_s"] = 0.0
    for span, own in zip(spans, self_times(spans, parent)):
        out[layer_of(span) or "unattributed_s"] += own
    first_child: Dict[int, float] = {}
    for span, p in zip(spans, parent):
        if p is not None and spans[p].name == "shard.run":
            first_child[p] = min(first_child.get(p, span.start), span.start)
    for i, span in enumerate(spans):
        if span.name == "shard.run":
            lead_in = first_child.get(i, span.end) - span.start
            out["shards.checkpoint_s"] -= lead_in
            out[SHARD_LEAD_IN] += lead_in
    out["obs.traced_s"] = sum(
        span.dur for span, p in zip(spans, parent) if p is None
    )
    kernel_s = out["vectorized.kernel_s"]
    run_s = out["fastpath.run_s"]
    out["vectorized.kernel_calls"] = sum(
        1 for s in spans if s.name == "exec.kernel"
    )
    out["vectorized.fallbacks"] = sum(
        1
        for rec in records
        if rec.get("kind") == "event" and rec.get("name") == "exec.fallback"
    )
    out["vectorized.kernel_share"] = (
        kernel_s / (kernel_s + run_s) if kernel_s + run_s > 0 else 0.0
    )
    fast_rounds = sum(
        s.attrs.get("rounds", 0)
        for s in spans
        if layer_of(s) == "fastpath.run_s"
    )
    out["fastpath.rounds_per_s"] = fast_rounds / run_s if run_s > 0 else 0.0
    cells = [s.dur for s in spans if s.name == "sweep.cell"]
    out["sweep.cells"] = len(cells)
    out["sweep.cell_s.p50"] = statistics.median(cells) if cells else 0.0
    out["sweep.cell_s.p99"] = _percentile(cells, 0.99)
    return out

