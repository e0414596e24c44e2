"""The vectorized array-engine execution backend.

Struct-of-arrays execution for the hottest registry pipelines: node
state lives in numpy int arrays (colors, candidates, palettes,
liveness, MIS state) and every round is a batch of array operations
over the CSR-form G/G² adjacency from :mod:`repro.exec.arrays` —
there is no per-node generator dispatch in the hot loop at all.

Semantics are *identical* to the generator loop behind ``reference``
and ``fastpath`` — same outputs, same round counts, same per-node RNG
consumption (kernels draw from the very same per-node streams the
generators would), and bit-identical ``RunMetrics`` under metered
policies.  Like fastpath, UNBOUNDED runs skip message *sizing*
(``total_bits``/``max_message_bits`` stay 0).

Kernels run only on networks whose Python nodes have not been built,
off the :class:`~repro.congest.network.NetworkPlan` — the CSR
adjacency plus the per-node keyed counter streams, drawn in one numpy
pass per phase (:mod:`repro.congest.rng`) — and never build a node
object: a whole-run kernel publishes the end state as node tables
(``color``, ``phases_tried``, ``blocked_phases``, ``state``,
``phases``, ``phase_log``) read through ``Network.node_colors()``/
``node_table()``, and the network refuses to build programs
afterwards.  The hybrid kernel (the randomized d2-color pipeline)
executes the array-friendly try-phase window as batched numpy work and
drives the surrounding protocol sections through the resumable
:class:`~repro.exec.fastpath.GeneratorLoop` (each section its own
``exec.run`` trace span), building the programs only when a generator
section really has to run and writing the window's state into them at
that handoff.

Coverage is per program class, not per call site:

- :class:`TrialProgram` — the whole run (never halts);
- :class:`LubyDistanceKProgram` — the whole run (never halts);
- :class:`LocallyIterativeProgram` / :class:`PartLocallyIterativeD2`
  — the whole bounded 3q-round schedule, halting included (these are
  the try-phase stages of ``deterministic-d2`` and
  ``eps-d2-coloring``);
- :class:`LinialProgram` — the whole Linial schedule (Theorem B.1),
  on G and on G², per part or not: the first stage of
  ``deterministic-d2`` and ``eps-d2-coloring``;
- :class:`ColorReductionProgram` — the whole color reduction
  (Theorem B.2), the last stage of ``deterministic-d2``;
- :class:`NaiveProgram` — the whole ``naive-g2`` run under its
  ``all_colored`` monitor;
- :class:`RandomizedD2Program` — the ``c0·log n`` random-trials
  section of ``improved-d2color``/``basic-d2color``; similarity,
  reduce, learn-palette and finish still run as generators (for
  ``improved``, only if nodes are still uncolored after the trials).

Everything else — networks whose nodes were built before the run,
and every run a kernel cannot replay exactly (custom ``stop_when``
monitors, ``avoid_known`` candidate selection, self-loop graphs,
metered payloads that could exceed the budget, values that could
leave int64, packed relays the per-round packing would truncate) —
falls back to ``fastpath`` automatically, so ``backend="vectorized"``
is always safe to request.  The guarantees are enforced by
``tests/test_backend_equivalence.py`` and
``tests/test_exec_vectorized.py``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Type

import numpy as np

from repro.baselines.luby import (
    _STATE_DOMINATED,
    _STATE_IN_MIS,
    _STATE_LIVE,
    _TAG_RANK,
    LubyDistanceKProgram,
    _all_decided,
)
from repro.baselines.naive import _LIVE, NaiveProgram
from repro.baselines.naive import _TAG_RELAY as _NAIVE_RELAY
from repro.baselines.naive import _TAG_RESULT as _NAIVE_RESULT
from repro.baselines.naive import _TAG_STATUS as _NAIVE_STATUS
from repro.baselines.trial import TrialProgram
from repro.congest.errors import NonterminationError
from repro.congest.message import bit_size, int_bits
from repro.congest.metrics import RunMetrics
from repro.congest.network import UniformInputs
from repro.congest.policy import BandwidthMode
from repro.core.d2color import RandomizedD2Program
from repro.core.trying import TAG_ADOPT, TAG_TRY, TAG_VERDICT, all_colored
from repro.det.color_reduction import ColorReductionProgram
from repro.det.color_reduction import _TAG_COLOR as _CR_COLOR
from repro.det.color_reduction import _TAG_GATHER as _CR_GATHER
from repro.det.color_reduction import _TAG_RECOLOR as _CR_RECOLOR
from repro.det.linial import LinialProgram
from repro.det.linial import _TAG_COLOR as _LINIAL_COLOR
from repro.det.linial import _TAG_RELAY as _LINIAL_RELAY
from repro.det.locally_iterative import LocallyIterativeProgram
from repro.det.part_d2coloring import PartLocallyIterativeD2
from repro.exec import arrays
from repro.exec.base import ExecutionBackend
from repro.exec.fastpath import PAUSED, GeneratorLoop
from repro.obs import trace as obs_trace
from repro.util.primes import is_prime

#: Values any node ever sends stay strictly inside int64 under this
#: bound, and every array comparison is exact.
_INT64_SAFE = 2**62

#: Program class -> kernel.  A kernel returns a RunResult, or None to
#: decline the run (fastpath then executes it).
KERNELS: Dict[Type, Callable] = {}

#: Registry spec name -> the program classes its networks run, in
#: registration order; the spec-name half of :func:`kernel_coverage`.
#: Coverage through this table may be partial per run:
#: ``improved-d2color``/``basic-d2color`` kernelize their random-trials
#: section (the rest stays generator work), ``eps-d2-coloring`` still
#: runs its part color reduction and splitting stages via fastpath,
#: and Step-0 deterministic fallbacks of the randomized specs run other
#: program classes entirely.
SPEC_PROGRAMS: Dict[str, List[Type]] = {}


def register_kernel(program_cls: Type, *, specs: tuple = ()):
    def deco(fn):
        KERNELS[program_cls] = fn
        for spec_name in specs:
            SPEC_PROGRAMS.setdefault(spec_name, []).append(program_cls)
        return fn

    return deco


def kernel_coverage() -> Dict[str, object]:
    """The coverage table, keyed both ways.

    ``{program class name: kernel name}`` for every registered kernel,
    plus ``{registry spec name: (kernel name, ...)}`` — every kernel
    the spec's runs use — for every spec with kernel coverage (see
    :data:`SPEC_PROGRAMS` for the partial-coverage caveats).  Specs
    absent from the table always execute via fastpath.
    """
    table: Dict[str, object] = {
        cls.__name__: fn.__name__ for cls, fn in KERNELS.items()
    }
    for spec_name, classes in SPEC_PROGRAMS.items():
        table[spec_name] = tuple(KERNELS[cls].__name__ for cls in classes)
    return table


class VectorizedBackend(ExecutionBackend):
    """Array-kernel executor with automatic fastpath fallback."""

    name = "vectorized"

    def execute(
        self,
        network,
        *,
        max_rounds: int = 1_000_000,
        stop_when: Optional[Callable] = None,
        raise_on_timeout: bool = True,
        record_rounds: bool = False,
    ):
        rec = obs_trace.recorder()
        factory = network.program_factory
        if record_rounds:
            fallback_cause = "record-rounds"
        elif network._started:
            fallback_cause = "already-started"
        elif network.materialized:
            fallback_cause = "materialized"
        elif not isinstance(factory, type) or factory not in KERNELS:
            fallback_cause = "no-kernel"
        else:
            kernel = KERNELS[factory]
            trace_t0 = rec.clock() if rec is not None else 0.0
            result = kernel(
                network,
                max_rounds=max_rounds,
                stop_when=stop_when,
                raise_on_timeout=raise_on_timeout,
            )
            if result is not None:
                if rec is not None:
                    rec.complete(
                        "exec.kernel",
                        trace_t0,
                        {
                            "kernel": kernel.__name__,
                            "rounds": result.metrics.rounds,
                            "messages": result.metrics.total_messages,
                            "bits": result.metrics.total_bits,
                        },
                    )
                return result
            fallback_cause = "kernel-declined"
        if rec is not None:
            rec.event("exec.fallback", {"cause": fallback_cause})
        from repro.exec import get_backend

        return get_backend("fastpath").execute(
            network,
            max_rounds=max_rounds,
            stop_when=stop_when,
            raise_on_timeout=raise_on_timeout,
            record_rounds=record_rounds,
        )


def _finish(network, rounds, total_messages, total_bits,
            max_message_bits, executed, stopped_early, timed_out,
            max_rounds, raise_on_timeout, halted=False):
    """Shared tail: mirror reference's started flag, timeout raise,
    and result assembly."""
    from repro.congest.network import RunResult

    if executed > 0:
        network._started = True
    if timed_out and raise_on_timeout:
        raise NonterminationError(
            max_rounds, set(network.graph.nodes)
        )
    metrics = RunMetrics(
        rounds=rounds,
        total_messages=total_messages,
        total_bits=total_bits,
        max_message_bits=max_message_bits,
        budget_bits=network._budget,
        violations=0,
        worst_violation_bits=0,
    )
    return RunResult(
        outputs=dict(network.outputs),
        metrics=metrics,
        halted=halted,
        stopped_early=stopped_early,
    )


# ----------------------------------------------------------------------
# the generalized try-phase engine
#
# One phase of core.trying as three array steps (round A try, round B
# verdicts, round C adopt), shared by every kernel built on the
# primitive.  The verdict logic collapses exactly: a live trier ``u``
# with candidate ``c`` adopts iff no G-neighbor *has* color ``c``
# (true colors — a server's own color is free information), no
# d2-neighbor has *announced* ``c`` during this run (only announced
# colors reach distance 2; precolored nodes never announce), and no
# other d2-neighbor tried ``c`` this same phase.  Colors and
# announcements only change at round C, so every verdict server's
# round-B knowledge equals the round-A array state.


class _TryState:
    """Mutable array state of a try-phase window."""

    __slots__ = ("colors", "announced", "adopt_iter", "cand")

    def __init__(self, n, colors=None):
        self.colors = (
            colors
            if colors is not None
            else np.full(n, -1, dtype=np.int64)
        )
        self.announced = np.zeros(n, dtype=bool)
        self.adopt_iter = np.full(n, -1, dtype=np.int64)
        self.cand = np.full(n, -1, dtype=np.int64)


class _Meter:
    """Metering accumulators + precomputed payload base sizes."""

    __slots__ = ("metered", "try_base", "adopt_base", "verdict_bits",
                 "total_messages", "total_bits", "max_message_bits")

    def __init__(self, metered):
        self.metered = metered
        self.try_base = bit_size((TAG_TRY, 0)) - 1
        self.adopt_base = bit_size((TAG_ADOPT, 0)) - 1
        self.verdict_bits = bit_size((TAG_VERDICT, True))
        self.total_messages = 0
        self.total_bits = 0
        self.max_message_bits = 0

    def fits(self, worst_value, budget) -> bool:
        """Whether the worst-case try/verdict/adopt payload stays in
        budget (else the run must replay via fastpath so STRICT
        violations raise at the exact reference round)."""
        if not self.metered:
            return True
        worst = int_bits(int(worst_value))
        return (
            max(
                self.try_base + worst,
                self.adopt_base + worst,
                self.verdict_bits,
            )
            <= budget
        )


def _run_try_phases(
    csr,
    st: "_TryState",
    meter: "_Meter",
    draw,
    *,
    start_round: int,
    end_round: Optional[int],
    max_rounds: int,
    check_stop: bool,
    idle_forever: bool = False,
):
    """Drive rounds ``[start_round, end_round)`` of 3-round try phases.

    ``draw(phase, live_idx)`` returns the int64 candidates of the live
    nodes (aligned with ``live_idx``), consuming exactly the RNG draws
    the generators would.  Returns ``(r, rounds, status)`` with
    ``status`` in ``{"stopped", "timeout", "done"}`` — checked in the
    same order as the round loop (stop monitor, then ``max_rounds``,
    then the window bound).
    """
    rec = obs_trace.recorder()
    trace_t0 = rec.clock() if rec is not None else 0.0
    colors = st.colors
    announced = st.announced
    adopt_iter = st.adopt_iter
    cand = st.cand
    g_indptr, g_indices = csr.g_indptr, csr.g_indices
    g2_indptr, g2_indices = csr.g2_indptr, csr.g2_indices
    deg = csr.degrees
    d2_deg = csr.d2_degrees
    metered = meter.metered
    try_base = meter.try_base
    adopt_base = meter.adopt_base
    verdict_bits = meter.verdict_bits

    adopt_idx = np.empty(0, dtype=np.int64)
    pending_verdicts = 0
    rounds = 0
    r = start_round
    while True:
        if check_stop and not (colors < 0).any():
            break_status = "stopped"
            break
        if r >= max_rounds:
            break_status = "timeout"
            break
        if end_round is not None and r >= end_round:
            break_status = "done"
            break
        k = (r - start_round) % 3
        if k == 0:
            live_idx = np.flatnonzero(colors < 0)
            if live_idx.size == 0 and not check_stop and idle_forever:
                # Everyone colored, no stop monitor: every remaining
                # iteration is message-free local computation with the
                # network still running, so it still counts a round.
                rounds += max_rounds - r
                r = max_rounds
                break_status = "timeout"
                break
            cand.fill(-1)
            if live_idx.size:
                cand[live_idx] = draw(
                    (r - start_round) // 3, live_idx
                )
            send_deg = deg[live_idx]
            msgs = int(send_deg.sum())
            pending_verdicts = msgs
            meter.total_messages += msgs
            if metered and msgs:
                pb = try_base + arrays.int_bits_array(cand[live_idx])
                meter.total_bits += int((send_deg * pb).sum())
                biggest = int(pb[send_deg > 0].max())
                if biggest > meter.max_message_bits:
                    meter.max_message_bits = biggest
            # The phase's adoption outcome, decided on the state every
            # verdict server will hold in round B (colors/announced
            # only change at k == 2, never between here and there).
            own_g = np.repeat(cand, deg)
            conflict_g = arrays.row_any(
                (own_g >= 0) & (colors[g_indices] == own_g),
                g_indptr,
            )
            own_2 = np.repeat(cand, d2_deg)
            known_2 = announced[g2_indices] & (
                colors[g2_indices] == own_2
            )
            trying_2 = cand[g2_indices] == own_2
            conflict_2 = arrays.row_any(
                (own_2 >= 0) & (known_2 | trying_2), g2_indptr
            )
            adopt_idx = np.flatnonzero(
                (cand >= 0) & ~(conflict_g | conflict_2)
            )
        elif k == 1:
            meter.total_messages += pending_verdicts
            if metered and pending_verdicts:
                meter.total_bits += pending_verdicts * verdict_bits
                if verdict_bits > meter.max_message_bits:
                    meter.max_message_bits = verdict_bits
        else:
            send_deg = deg[adopt_idx]
            msgs = int(send_deg.sum())
            meter.total_messages += msgs
            if metered and msgs:
                pb = adopt_base + arrays.int_bits_array(
                    cand[adopt_idx]
                )
                meter.total_bits += int((send_deg * pb).sum())
                biggest = int(pb[send_deg > 0].max())
                if biggest > meter.max_message_bits:
                    meter.max_message_bits = biggest
            colors[adopt_idx] = cand[adopt_idx]
            announced[adopt_idx] = True
            adopt_iter[adopt_idx] = r
        rounds += 1
        r += 1
    if rec is not None:
        rec.complete(
            "kernel.try_phases",
            trace_t0,
            {
                "start_round": start_round,
                "end_round": r,
                "rounds": rounds,
                "status": break_status,
            },
        )
    return r, rounds, break_status


def _nbr_colors_writeback(csr, order, colors, adopt_iter, resumes):
    """Closure building each node's 1-hop color table: an adopt sent
    at iteration t was recorded by neighbors at iteration t + 1, which
    executed iff t + 1 <= ``resumes``."""
    g_indptr, g_indices = csr.g_indptr, csr.g_indices
    recorded = (adopt_iter >= 0) & (adopt_iter + 1 <= resumes)

    def tables(i):
        row = g_indices[g_indptr[i]:g_indptr[i + 1]]
        return {
            order[j]: int(colors[j])
            for j in row[recorded[row]].tolist()
        }

    return tables


def _table(order, values):
    """Builder of the ``{node: value}`` table of an int vector aligned
    with ``order``; -1 (the uncolored sentinel) reads as None."""

    def build():
        table = values.tolist()
        if -1 in table:
            table = [v if v >= 0 else None for v in table]
        return dict(zip(order, table))

    return build


# ----------------------------------------------------------------------
# trial / trial-slack: the whole run is uniform random try phases


@register_kernel(TrialProgram, specs=("trial", "trial-slack"))
def _trial_kernel(network, *, max_rounds, stop_when, raise_on_timeout):
    """Vectorized :class:`TrialProgram` — runs off the
    :class:`NetworkPlan`; builds no Python nodes."""
    if stop_when is not None and stop_when is not all_colored:
        return None
    plan = network.plan()
    csr = plan.csr
    if csr.has_selfloops:
        return None
    n = csr.n
    order = csr.order

    def parse(data):
        """``(palette, color or -1)`` of one input dict; None declines
        (a missing palette: the constructor decides; a negative color
        would break the -1 sentinel)."""
        palette, color = data.get("palette"), data.get("color")
        if data.get("avoid_known", False) or not _is_int(palette, 1):
            return None
        if color is not None and not _is_int(color, 0):
            return None
        return palette, -1 if color is None else color

    parsed = [parse(data) for data in plan.input_records()]
    if None in parsed:
        return None
    table = np.broadcast_to(np.array(parsed, dtype=np.int64), (n, 2))
    palettes, colors = table[:, 0].copy(), table[:, 1].copy()
    metered = network.policy.mode is not BandwidthMode.UNBOUNDED
    meter = _Meter(metered)
    if not meter.fits(int(palettes.max()) - 1, network._budget):
        return None  # could violate: replay exactly via fastpath

    phases_tried = np.zeros(n, dtype=np.int64)

    def draw(_phase, live_idx):
        phases_tried[live_idx] += 1
        return plan.randrange(live_idx, palettes[live_idx])

    st = _TryState(n, colors)
    r, rounds, status = _run_try_phases(
        csr, st, meter, draw,
        start_round=0, end_round=None, max_rounds=max_rounds,
        check_stop=stop_when is not None, idle_forever=True,
    )

    network._vector_tables["color"] = _table(order, colors)
    network._vector_tables["phases_tried"] = _table(order, phases_tried)
    return _finish(
        network, rounds, meter.total_messages, meter.total_bits,
        meter.max_message_bits, r, status == "stopped",
        status == "timeout", max_rounds, raise_on_timeout,
    )


# ----------------------------------------------------------------------
# locally-iterative d2-coloring (deterministic-d2 / eps-d2-coloring):
# q bounded phases trying (offset +) a + b·phase mod q, then halt


def _poly_phase_kernel(
    network, *, max_rounds, stop_when, raise_on_timeout, with_parts,
):
    """Shared kernel for :class:`LocallyIterativeProgram`
    (``with_parts=False``) and :class:`PartLocallyIterativeD2`
    (``with_parts=True``): draw-free try phases with candidates
    ``offset + (a + b·phase) mod q``, halting after q phases."""
    if stop_when is not None and stop_when is not all_colored:
        return None
    plan = network.plan()
    csr = plan.csr
    if csr.has_selfloops:
        return None
    n = csr.n
    order = csr.order

    a = np.empty(n, dtype=np.int64)
    b = np.empty(n, dtype=np.int64)
    offset = np.zeros(n, dtype=np.int64)
    qs = set()
    for i, node in enumerate(order):
        data = plan.input_for(node)
        q = data.get("q")
        color_in = data.get("color_in")
        if (
            not isinstance(q, int)
            or q <= 0
            or q * q >= _INT64_SAFE
            or not isinstance(color_in, int)
            or not 0 <= color_in < q * q
        ):
            return None  # constructor raises on the real run
        qs.add(q)
        a[i] = color_in // q
        b[i] = color_in % q
        if with_parts:
            part = data.get("part")
            if (
                not isinstance(part, int)
                or part < 0
                or part * q >= _INT64_SAFE
            ):
                return None
            offset[i] = part * q
    if len(qs) != 1:
        return None  # mixed q: phase schedules diverge per node
    q = qs.pop()
    worst_candidate = int(offset.max()) + q - 1
    if worst_candidate >= _INT64_SAFE:
        return None

    metered = network.policy.mode is not BandwidthMode.UNBOUNDED
    meter = _Meter(metered)
    if not meter.fits(worst_candidate, network._budget):
        return None

    def draw(phase, live_idx):
        return (
            (a[live_idx] + b[live_idx] * phase) % q + offset[live_idx]
        )

    st = _TryState(n)
    colors, adopt_iter = st.colors, st.adopt_iter
    end_round = 3 * q
    r, rounds, status = _run_try_phases(
        csr, st, meter, draw,
        start_round=0, end_round=end_round, max_rounds=max_rounds,
        check_stop=stop_when is not None,
    )

    halted = status == "done"
    # Generator resumes executed: rounds 0..r-1 for an aborted window,
    # plus the final halting resume (which consumes the last adopt
    # inbox and runs the phase-(q-1) bookkeeping) on a completed one.
    resumes = end_round if halted else r - 1
    if halted:
        network.outputs.update(
            (node, int(c) if c >= 0 else None)
            for node, c in zip(order, colors.tolist())
        )

    # blocked_phases bookkeeping of phase t runs at resume 3t+3; a node
    # tries every phase while live, so with adoption phase A
    # (= adopt_iter // 3, else inf) the blocked count is
    # |{t : t < A, 3t+3 <= resumes, t < q}|.
    t_booked = (resumes - 3) // 3  # last phase with bookkeeping done
    adopt_phase = np.where(adopt_iter >= 0, adopt_iter // 3, np.int64(q))
    blocked = np.maximum(
        0,
        np.minimum(
            np.minimum(adopt_phase - 1, t_booked), q - 1
        ) + 1,
    )
    network._vector_tables["color"] = _table(order, colors)
    network._vector_tables["blocked_phases"] = _table(order, blocked)
    return _finish(
        network, rounds, meter.total_messages, meter.total_bits,
        meter.max_message_bits, r, status == "stopped",
        status == "timeout", max_rounds, raise_on_timeout,
        halted=halted,
    )


@register_kernel(LocallyIterativeProgram, specs=("deterministic-d2",))
def _locally_iterative_kernel(
    network, *, max_rounds, stop_when, raise_on_timeout
):
    """Vectorized :class:`LocallyIterativeProgram` (Theorem B.4)."""
    return _poly_phase_kernel(
        network, max_rounds=max_rounds, stop_when=stop_when,
        raise_on_timeout=raise_on_timeout, with_parts=False,
    )


@register_kernel(PartLocallyIterativeD2, specs=("eps-d2-coloring",))
def _part_locally_iterative_kernel(
    network, *, max_rounds, stop_when, raise_on_timeout
):
    """Vectorized :class:`PartLocallyIterativeD2` (Lemma 3.5 stage 2:
    part-offset palettes, identical phase schedule)."""
    return _poly_phase_kernel(
        network, max_rounds=max_rounds, stop_when=stop_when,
        raise_on_timeout=raise_on_timeout, with_parts=True,
    )


# ----------------------------------------------------------------------
# packed relays: every node w forwards to each G-neighbor v the items
# of its other G-neighbors, cut into per-message chunks (the G² flood
# of Linial, the color-reduction gather and the naive baseline)

#: Work arrays of the chunked kernels stay near this many elements, so
#: peak memory does not grow with n.
_BLOCK = 1 << 21

def _shared(records, keys):
    """The values of ``keys`` (None when absent) that every input dict
    in ``records`` shares, else None.  Records that are the very same
    object (one ``UniformInputs`` payload) are not compared again."""
    first = records[0]
    config = tuple(first.get(key) for key in keys)
    for record in records:
        if record is first:
            continue
        for key, value in zip(keys, config):
            other = record.get(key)
            if other is not value and other != value:
                return None
    return config


def _is_int(value, low=-_INT64_SAFE, high=_INT64_SAFE) -> bool:
    return isinstance(value, int) and low <= value < high


def _int_array(values, low=-_INT64_SAFE, high=_INT64_SAFE):
    """``values`` as an int64 array, or None unless every one is an
    int in ``[low, high)``."""
    if not all(type(value) is int for value in values):
        return None
    try:
        array = np.array(values, dtype=np.int64)
    except OverflowError:
        return None
    if int(array.min()) < low or int(array.max()) >= high:
        return None
    return array


def _send_rank(network, csr):
    """Dense index -> position in ``graph.nodes`` order.

    Engines resume nodes in that order, so every inbox lists its
    senders in it, and a relay list is cut into chunks in it.
    """
    index = csr.index
    pos = np.fromiter(
        (index[v] for v in network.graph.nodes),
        dtype=np.int64,
        count=csr.n,
    )
    rank = np.empty(csr.n, dtype=np.int64)
    rank[pos] = np.arange(csr.n, dtype=np.int64)
    return rank


def _ranges(starts, lens):
    """The concatenated index ranges ``[starts[i], starts[i] +
    lens[i])`` and, per index, the ``i`` it came from."""
    local = np.repeat(np.arange(lens.size, dtype=np.int64), lens)
    flat = (
        np.arange(int(lens.sum()), dtype=np.int64)
        - np.repeat(np.cumsum(lens) - lens, lens)
        + np.repeat(starts, lens)
    )
    return flat, local


def _spans(weights):
    """Consecutive ``(start, stop)`` spans of indices whose ``weights``
    sum stays near :data:`_BLOCK` (at least one index each)."""
    csum = np.cumsum(weights)
    start = 0
    while start < csum.size:
        base = int(csum[start - 1]) if start else 0
        stop = max(
            int(np.searchsorted(csum, base + _BLOCK, side="right")),
            start + 1,
        )
        yield start, stop
        start = stop


def _row_blocks(indptr, rows, width):
    """``rows`` in slices whose CSR entries times ``width`` stay near
    :data:`_BLOCK`."""
    lens = indptr[rows + 1] - indptr[rows]
    for start, stop in _spans((lens + 1) * width):
        yield rows[start:stop]


class _Relay:
    """Message accounting of one packed relay step.

    Node w sends G-neighbor v the items of w's other G-neighbors u
    (with ``group``: only those in v's group), in send order,
    ``per_message`` items to a message, over ``chunks`` rounds.  Which
    items share a message depends only on the graph, so the layout is
    derived once and :meth:`meter` prices it for per-node item sizes.
    ``fits`` is False when some list would not fit the ``chunks``
    rounds: the programs then silently drop items, which the kernels
    do not model.
    """

    def __init__(self, network, csr, per_message, chunks, group=None):
        owner = np.repeat(np.arange(csr.n, dtype=np.int64), csr.degrees)
        self.items = csr.g_indices
        if group is None:
            self.block, size = owner, csr.degrees
        else:
            gid = np.unique(group, return_inverse=True)[1].reshape(-1)
            key = owner * (int(gid.max()) + 1) + gid[self.items]
            _, block, size = np.unique(
                key, return_inverse=True, return_counts=True
            )
            self.block = block.reshape(-1)
        self.size = size
        self.chunks = chunks
        self.per_message = per_message
        length = size[self.block] - 1  # items each receiver is sent
        longest = int(length.max()) if length.size else 0
        self.fits = longest <= chunks * per_message
        self.single = longest <= per_message
        self.sent = length > 0
        if self.single or not self.fits:
            count = int(self.sent.sum())
            self.messages = [count] + [0] * (chunks - 1) if chunks else []
            return
        # Several chunks: an item's chunk is its position in the
        # receiver's list, i.e. in the (relay node, group) block sorted
        # by send rank, minus one if the receiver itself comes first.
        self._perm = np.lexsort(
            (_send_rank(network, csr)[self.items], self.block)
        )
        sblock = self.block[self._perm]
        first = np.ones(sblock.size, dtype=bool)
        first[1:] = sblock[1:] != sblock[:-1]
        starts = np.flatnonzero(first)
        self._bsize = size[sblock]
        self._bstart = np.repeat(starts, self._bsize[starts])
        self._pos = np.arange(sblock.size, dtype=np.int64) - self._bstart
        counts = np.zeros(sblock.size * chunks, dtype=np.int64)
        for _item, key in self._pairs():
            counts += np.bincount(key, minlength=counts.size)
        self._sent2 = (counts > 0).reshape(sblock.size, chunks)
        self.messages = self._sent2.sum(axis=0).tolist()

    def _pairs(self):
        """(item position, receiver-chunk key) arrays over every
        (item, receiver) pair of a block, in bounded slices."""
        pos = self._pos
        for start, stop in _spans(self._bsize):
            recv, item = _ranges(
                self._bstart[start:stop], self._bsize[start:stop]
            )
            item += start
            keep = recv != item
            item, recv = item[keep], recv[keep]
            slot = pos[item] - (pos[recv] < pos[item])
            yield item, recv * self.chunks + slot // self.per_message

    def meter(self, item_bits, header):
        """Per-chunk ``(bits, max_bits)`` lists for per-node item
        sizes ``item_bits`` and a per-message ``header``."""
        chunks = self.chunks
        bits = [0] * chunks
        biggest = [0] * chunks
        if self.single:
            if self.messages and self.messages[0]:
                ib = item_bits[self.items]
                tot = np.bincount(
                    self.block, weights=ib, minlength=self.size.size
                )
                pb = (tot[self.block] - ib)[self.sent].astype(
                    np.int64
                ) + header
                bits[0] = int(pb.sum())
                biggest[0] = int(pb.max())
            return bits, biggest
        ib = item_bits[self.items[self._perm]]
        acc = np.zeros(self._sent2.size, dtype=np.float64)
        for item, key in self._pairs():
            acc += np.bincount(key, weights=ib[item], minlength=acc.size)
        pb = acc.astype(np.int64).reshape(self._sent2.shape) + header
        for k in range(chunks):
            sent = pb[self._sent2[:, k], k]
            if sent.size:
                bits[k] = int(sent.sum())
                biggest[k] = int(sent.max())
        return bits, biggest


def _used_colors(indptr, indices, rows, colors, visible, width):
    """``(len(rows), width)`` bool: row i marks the colors in
    ``[0, width)`` of its CSR neighbors ``u`` with ``visible[u]``."""
    flat, local = _ranges(indptr[rows], indptr[rows + 1] - indptr[rows])
    nbr = indices[flat]
    cols = colors[nbr]
    keep = visible[nbr] & (cols >= 0) & (cols < width)
    used = np.zeros((rows.size, width), dtype=bool)
    used[local[keep], cols[keep]] = True
    return used


# ----------------------------------------------------------------------
# Linial (Theorem B.1): per schedule iteration one color broadcast, the
# packed G² relay (d2 variant), then a local recolor


def _poly_values(digits, q, xs):
    """Horner evaluation over F_q: ``(m, d+1)`` base-q coefficient
    digits (low to high) -> ``(m, len(xs))`` values at the points
    ``xs``."""
    acc = np.repeat(digits[:, -1:], xs.size, axis=1)
    for k in range(digits.shape[1] - 2, -1, -1):
        acc *= xs
        acc += digits[:, k:k + 1]
        acc %= q
    return acc


def _linial_recolor(indptr, indices, colors, parts, d, q):
    """One Linial recolor of every node at once.

    Node v takes ``x·q + p_v(x)`` for the smallest x at which no
    conflict neighbor (CSR row, same part, different color) has
    ``p_u(x) == p_v(x)`` — the first pair of v's cover-free set left
    uncovered (:func:`repro.det.linial._new_color`).  Points are tried
    in growing windows and a node leaves the scan at its first free
    one; with q > d·D most nodes find it among the first few x.
    Returns None if some node has no free pair (the program raises
    there).
    """
    n = colors.size
    digits = np.empty((n, d + 1), dtype=np.int64)
    rest = colors.copy()
    for k in range(d + 1):
        digits[:, k] = rest % q
        rest //= q
    new = np.empty(n, dtype=np.int64)
    pending = np.arange(n, dtype=np.int64)
    x0, width = 0, 8
    while pending.size:
        if x0 >= q:
            return None
        xs = np.arange(x0, min(x0 + width, q), dtype=np.int64)
        unresolved = []
        for rows in _row_blocks(indptr, pending, xs.size):
            own = _poly_values(digits[rows], q, xs)
            flat, local = _ranges(
                indptr[rows], indptr[rows + 1] - indptr[rows]
            )
            nbr = indices[flat]
            keep = colors[nbr] != colors[rows][local]
            if parts is not None:
                keep &= parts[nbr] == parts[rows][local]
            nbr, local = nbr[keep], local[keep]
            blocked = np.zeros(own.shape, dtype=bool)
            if local.size:
                hits = _poly_values(digits[nbr], q, xs) == own[local]
                starts = np.flatnonzero(
                    np.concatenate(([True], local[1:] != local[:-1]))
                )
                blocked[local[starts]] = np.logical_or.reduceat(
                    hits, starts, axis=0
                )
            free = ~blocked
            done = free.any(axis=1)
            x = free[done].argmax(axis=1)
            new[rows[done]] = (x0 + x) * q + own[done, x]
            unresolved.append(rows[~done])
        pending = np.concatenate(unresolved)
        x0 += xs.size
        width *= 2
    return new


@register_kernel(
    LinialProgram, specs=("deterministic-d2", "eps-d2-coloring")
)
def _linial_kernel(network, *, max_rounds, stop_when, raise_on_timeout):
    """Vectorized :class:`LinialProgram`, on G and on G², per part or
    not.

    Every schedule iteration is one round of ``(C, color, part)``
    broadcasts, the packed relay rounds (G² variant), and the local
    recolor of :func:`_linial_recolor`.  Declines on stop monitors,
    round caps inside the schedule, colors the cover-free family
    rejects, relays the packing would truncate, and metered payloads
    over the budget.
    """
    if stop_when is not None:
        return None
    plan = network.plan()
    csr = plan.csr
    if csr.has_selfloops:
        return None
    n = csr.n
    order = csr.order

    keys = ("schedule", "relay", "relay_rounds", "per_message")
    records = [plan.input_for(v) for v in order]
    colors_in = [data.get("color_in", v) for v, data in zip(order, records)]
    parts_in = [data.get("part", 0) for data in records]
    config = _shared(records, keys)
    if config is None or None in config:
        return None  # mixed, or a constructor KeyError
    schedule, relay, relay_rounds, per_message = config
    relay = bool(relay)
    try:
        steps = [(d, q) for d, q, _m_new in schedule]
        if relay:
            packing = [
                (per_message[i], relay_rounds[i])
                for i in range(len(steps))
            ]
    except (TypeError, ValueError, IndexError):
        return None
    for d, q in steps:
        if not (_is_int(d, 0, 64) and _is_int(q, 2, _BLOCK)
                and is_prime(q)):
            return None
    if relay and not all(
        _is_int(pm, 1) and _is_int(rr, 0, 2**31) for pm, rr in packing
    ):
        return None
    total_rounds = sum(
        1 + (packing[i][1] if relay else 0) for i in range(len(steps))
    )
    if total_rounds >= max_rounds:
        return None  # the cap lands inside the schedule

    total_messages = total_bits = max_message_bits = 0
    if not steps:
        # Nothing to do: every node returns its input color at once.
        final = colors_in
    else:
        d0, q0 = steps[0]
        # degree_le_polynomials rejects colors outside [0, q^(d+1)).
        colors = _int_array(colors_in, 0, min(q0 ** (d0 + 1), _INT64_SAFE))
        part_arr = _int_array(parts_in)
        if colors is None or part_arr is None:
            return None
        group = None if (part_arr == part_arr[0]).all() else part_arr

        metered = network.policy.mode is not BandwidthMode.UNBOUNDED
        color_base = bit_size((_LINIAL_COLOR,)) + 2 * 2
        relay_head = bit_size((_LINIAL_RELAY,))
        part_bits = arrays.int_bits_array(part_arr)
        layouts = {}
        for i, (d, q) in enumerate(steps):
            if int(colors.max()) >= q ** (d + 1):
                return None
            total_messages += n
            color_bits = arrays.int_bits_array(colors)
            if metered:
                pb = color_base + color_bits + part_bits
                total_bits += int(pb.sum())
                max_message_bits = max(max_message_bits, int(pb.max()))
            if relay:
                layout = layouts.get(packing[i])
                if layout is None:
                    layout = layouts[packing[i]] = _Relay(
                        network, csr, *packing[i], group=group
                    )
                if not layout.fits:
                    return None
                total_messages += sum(layout.messages)
                if metered:
                    bits, biggest = layout.meter(2 + color_bits, relay_head)
                    total_bits += sum(bits)
                    max_message_bits = max(max_message_bits, *biggest, 0)
                indptr, indices = csr.g2_indptr, csr.g2_indices
            else:
                indptr, indices = csr.g_indptr, csr.g_indices
            colors = _linial_recolor(indptr, indices, colors, group, d, q)
            if colors is None:
                return None
        if metered and max_message_bits > network._budget:
            return None  # replay the violation exactly via fastpath
        final = colors.tolist()

    network.outputs.update(zip(order, final))
    network._vector_tables["color"] = lambda: dict(zip(order, final))
    return _finish(
        network, total_rounds, total_messages, total_bits,
        max_message_bits, total_rounds + 1, False, False, max_rounds,
        raise_on_timeout, halted=True,
    )


# ----------------------------------------------------------------------
# color reduction (Theorem B.2): color broadcast + packed gather, then
# phases in which the strict G² maxima above the target recolor


@register_kernel(ColorReductionProgram, specs=("deterministic-d2",))
def _color_reduction_kernel(
    network, *, max_rounds, stop_when, raise_on_timeout
):
    """Vectorized :class:`ColorReductionProgram`.

    The programs' d2 multisets always equal the current G² colors, so
    a phase recolors exactly the nodes whose color is >= the target
    and above every G² neighbor's, each to the smallest color free in
    its G² row.  A phase that recolors nobody leaves every later phase
    idle too, so the rest of the schedule is counted (two silent rounds
    each) without being stepped.  Declines on stop monitors, round caps
    inside the schedule, non-uniform config, gathers the packing would
    truncate, and metered payloads over the budget.
    """
    if stop_when is not None:
        return None
    plan = network.plan()
    csr = plan.csr
    if csr.has_selfloops:
        return None
    n = csr.n
    order = csr.order

    records = [plan.input_for(v) for v in order]
    colors_in = [data.get("color_in") for data in records]
    config = _shared(
        records, ("target", "phases", "gather_rounds", "per_message")
    )
    if config is None or not all(_is_int(x) for x in config):
        return None
    target, phases, gather_rounds, per_message = config
    phases = max(phases, 0)
    gather_rounds = max(gather_rounds, 0)
    colors = _int_array(colors_in)
    if per_message < 1 or colors is None:
        return None
    if not (_is_int(order[0]) and _is_int(order[-1])):
        return None  # labels ride in the recolor payload
    total_rounds = 1 + gather_rounds + 2 * phases
    if total_rounds >= max_rounds:
        return None  # the cap lands inside the schedule
    layout = _Relay(network, csr, per_message, gather_rounds)
    if not layout.fits:
        return None

    metered = network.policy.mode is not BandwidthMode.UNBOUNDED
    total_messages = n + sum(layout.messages)
    total_bits = max_message_bits = 0
    if metered:
        color_bits = arrays.int_bits_array(colors)
        pb = bit_size((_CR_COLOR,)) + 2 + color_bits
        bits, biggest = layout.meter(2 + color_bits, bit_size((_CR_GATHER,)))
        total_bits = int(pb.sum()) + sum(bits)
        max_message_bits = max([int(pb.max()), *biggest])
    recolor_head = bit_size((_CR_RECOLOR,)) + 3 * 2

    g2_indptr, g2_indices = csr.g2_indptr, csr.g2_indices
    d2_deg = csr.d2_degrees
    labels = np.asarray(order, dtype=np.int64)
    neg = np.int64(-_INT64_SAFE)
    for _ in range(phases):
        top = arrays.row_max(colors[g2_indices], g2_indptr, neg)
        idx = np.flatnonzero((colors >= target) & (colors > top))
        if idx.size == 0:
            break  # nobody changes color again: the rest is idle
        width = min(target, int(d2_deg[idx].max()) + 1)
        used = _used_colors(
            g2_indptr, g2_indices, idx, colors,
            np.ones(n, dtype=bool), width,
        )
        free = ~used
        if not free.any(axis=1).all():
            return None  # _smallest_free raises
        new = free.argmax(axis=1)
        # One (X, me, old, new) broadcast per recoloring node, then one
        # same-size forward broadcast per neighbor.
        senders = 1 + csr.degrees[idx]
        total_messages += int(senders.sum())
        if metered:
            pb = recolor_head + (
                arrays.int_bits_array(labels[idx])
                + arrays.int_bits_array(colors[idx])
                + arrays.int_bits_array(new)
            )
            total_bits += int((senders * pb).sum())
            max_message_bits = max(max_message_bits, int(pb.max()))
        colors[idx] = new
    if metered and max_message_bits > network._budget:
        return None  # replay the violation exactly via fastpath

    final = colors.tolist()
    network.outputs.update(zip(order, final))
    network._vector_tables["color"] = lambda: dict(zip(order, final))
    return _finish(
        network, total_rounds, total_messages, total_bits,
        max_message_bits, total_rounds + 1, False, False, max_rounds,
        raise_on_timeout, halted=True,
    )


# ----------------------------------------------------------------------
# the naive G² simulation baseline: phases of a status round, packed
# relay rounds and a resolve round, until all_colored stops the run


@register_kernel(NaiveProgram, specs=("naive-g2",))
def _naive_kernel(network, *, max_rounds, stop_when, raise_on_timeout):
    """Vectorized :class:`NaiveProgram`.

    In phase t a live node proposes ``choice(free)`` on its own stream,
    where ``free`` excludes the colors its G-neighbors adopted through
    phase t-1 and the G² colors it saw in the statuses of phase t-1;
    it adopts when no G² neighbor showed that color or proposed it in
    phase t.  Only runs monitored by ``all_colored`` are replayed (the
    program never halts); declines on non-uniform config, relays the
    packing would truncate, and metered budgets the worst-case payload
    could exceed.
    """
    if stop_when is not all_colored:
        return None
    plan = network.plan()
    csr = plan.csr
    if csr.has_selfloops:
        return None
    n = csr.n
    order = csr.order

    inputs = [plan.input_for(v) for v in order]
    colors_in = [data.get("color") for data in inputs]
    config = _shared(inputs, ("palette", "relay_rounds", "per_message"))
    if config is None or not all(_is_int(x) for x in config):
        return None
    palette, relay_rounds, per_message = config
    if palette < 1 or relay_rounds < 0 or per_message < 1:
        return None
    if not all(c is None or _is_int(c, 0) for c in colors_in):
        return None  # -1 marks "uncolored" below
    layout = _Relay(network, csr, per_message, relay_rounds)
    if not layout.fits:
        return None
    colors = np.array(
        [-1 if c is None else c for c in colors_in], dtype=np.int64
    )

    metered = network.policy.mode is not BandwidthMode.UNBOUNDED
    status_base = bit_size((_NAIVE_STATUS, _LIVE, 0)) - 1
    result_base = bit_size((_NAIVE_RESULT, False, 0)) - 1
    relay_head = bit_size((_NAIVE_RELAY,))
    # A relayed status costs (2 + 1) for the kind plus 2 + bits(value).
    relay_item = 2 + int_bits(_LIVE) + 2
    if metered:
        worst = int_bits(max(palette - 1, int(colors.max())))
        longest = min(per_message, int(csr.degrees.max()) - 1)
        worst_message = max(
            status_base + worst,
            result_base + worst,
            relay_head + max(longest, 0) * (relay_item + worst),
        )
        if worst_message > network._budget:
            return None  # could violate: replay exactly via fastpath

    deg = csr.degrees
    g_indptr, g_indices = csr.g_indptr, csr.g_indices
    g2_indptr, g2_indices = csr.g2_indptr, csr.g2_indices
    d2_deg = csr.d2_degrees
    # Phase in which each node adopted; precolored nodes count as
    # colored before phase 0, live ones as never.
    never = np.int64(_INT64_SAFE)
    adopt_phase = np.where(colors >= 0, -1, never)
    cand = np.full(n, -1, dtype=np.int64)
    period = relay_rounds + 2
    total_messages = total_bits = max_message_bits = 0

    def send(counts, pb):
        nonlocal total_bits, max_message_bits
        if metered:
            total_bits += int((counts * pb).sum())
            if (counts > 0).any():
                max_message_bits = max(
                    max_message_bits, int(pb[counts > 0].max())
                )

    stopped = timed_out = False
    r = 0
    while True:
        if not (colors < 0).any():
            stopped = True
            break
        if r >= max_rounds:
            timed_out = True
            break
        t, k = divmod(r, period)
        if k == 0:
            live = np.flatnonzero(colors < 0)
            seen = adopt_phase < t - 1  # in known_used
            adopted = (adopt_phase >= 0) & (adopt_phase <= t - 1)
            cand.fill(-1)
            for rows in _row_blocks(g2_indptr, live, palette):
                used = _used_colors(
                    g2_indptr, g2_indices, rows, colors, seen, palette
                ) | _used_colors(
                    g_indptr, g_indices, rows, colors, adopted, palette
                )
                free = ~used
                nfree = palette - used.sum(axis=1)
                draws = plan.randrange(
                    rows, np.where(nfree > 0, nfree, palette)
                )
                kth = (np.cumsum(free, axis=1) > draws[:, None]).argmax(
                    axis=1
                )
                cand[rows] = np.where(nfree > 0, kth, draws)
            status = np.where(colors >= 0, colors, cand)
            total_messages += int(deg.sum())
            send(deg, status_base + arrays.int_bits_array(status))
        elif k <= relay_rounds:
            total_messages += layout.messages[k - 1]
            if metered:
                if k == 1:
                    relay_bits = layout.meter(
                        relay_item + arrays.int_bits_array(status),
                        relay_head,
                    )
                total_bits += relay_bits[0][k - 1]
                max_message_bits = max(
                    max_message_bits, relay_bits[1][k - 1]
                )
        else:
            own = np.repeat(cand, d2_deg)
            nbr_color = colors[g2_indices]
            conflict = arrays.row_any(
                (own >= 0)
                & ((cand[g2_indices] == own) | (nbr_color == own)),
                g2_indptr,
            )
            win = (cand >= 0) & ~conflict
            total_messages += int(deg.sum())
            send(deg, result_base + arrays.int_bits_array(
                np.where(win, cand, 0)
            ))
            colors[win] = cand[win]
            adopt_phase[win] = t
        r += 1

    network._vector_tables["color"] = _table(order, colors)
    return _finish(
        network, r, total_messages, total_bits, max_message_bits, r,
        stopped, timed_out, max_rounds, raise_on_timeout,
    )


def _traced_run_until(loop, bound, **kwargs):
    """``loop.run_until`` as its own ``exec.run`` span (backend
    ``fastpath``), so self-time attribution charges the generator
    rounds of a hybrid run to the loop, not to ``exec.kernel``."""
    rec = obs_trace.recorder()
    if rec is None:
        return loop.run_until(bound, **kwargs)
    trace_t0 = rec.clock()
    rounds0 = loop.rounds
    status = loop.run_until(bound, **kwargs)
    rec.complete(
        "exec.run",
        trace_t0,
        {
            "backend": "fastpath",
            "rounds": loop.rounds - rounds0,
            "halted": not loop.running,
        },
    )
    return status


# ----------------------------------------------------------------------
# randomized d2-color (improved + basic): hybrid — the c0·log n
# random-trials section runs as arrays, everything else as generators


@register_kernel(
    RandomizedD2Program, specs=("improved-d2color", "basic-d2color")
)
def _randomized_d2_kernel(
    network, *, max_rounds, stop_when, raise_on_timeout
):
    """Hybrid :class:`RandomizedD2Program` executor.

    ``improved``: the trials section is a prefix — rounds ``[0, 3T)``
    run as arrays off the :class:`NetworkPlan` (counter-stream draws,
    no Python nodes).  A run that stops or times out inside that
    window ends there and publishes its end-state through the
    ``color``/``phase_log`` node tables; only a completed window with
    nodes still uncolored
    builds the programs and starts the generators (their first resume
    happens at round 3T, exactly where the reference run's generators
    leave the trials loop), marked by a ``kernel.handoff`` trace
    event.  ``basic``: similarity runs first — its round count is a
    node-independent constant of the :class:`SimilarityConfig` — so
    the :class:`GeneratorLoop` builds the programs up front, pauses at
    that boundary, the trials window runs as arrays, and the loop
    resumes with the held similarity inboxes.  At the handoff the
    deferred boundary resume replays the skipped section's observable
    effects through ``RandomizedD2Program._kernel_prefix`` (phase-log
    entry + final-round adopt records), keeping program state
    bit-identical to reference.

    One documented deviation: a ``basic`` run that ends *inside* the
    trials window leaves its generators paused at the similarity
    boundary, so ``program.similarity`` stays ``None``; the window's
    colors, neighbor tables and phase-log entry are written into the
    programs, and metrics and rounds match reference exactly.
    """
    if stop_when is not None and stop_when is not all_colored:
        return None
    plan = network.plan()
    csr = plan.csr
    if csr.has_selfloops:
        return None
    n = csr.n
    order = csr.order

    configs = {
        (
            data.get("palette"),
            data.get("variant"),
            data.get("initial_trials"),
            data.get("sim_config"),
        )
        for data in plan.input_records()
    }
    if len(configs) != 1:
        return None
    palette, variant, trials, sim_config = configs.pop()
    if variant not in ("improved", "basic") or sim_config is None:
        return None
    if (
        not isinstance(palette, int)
        or palette <= 0
        or palette >= _INT64_SAFE
    ):
        return None
    if not isinstance(trials, int) or trials <= 0:
        return None

    metered = network.policy.mode is not BandwidthMode.UNBOUNDED
    meter = _Meter(metered)
    if not meter.fits(palette - 1, network._budget):
        return None

    # Identical at every node by construction (see SimilarityMixin).
    if variant == "basic":
        prologue = (
            sim_config.forward_rounds
            + sim_config.own_rounds
            + (0 if sim_config.exact else 1)
        )
    else:
        prologue = 0
    window_end = prologue + 3 * trials

    loop = None
    if prologue:
        loop = GeneratorLoop(network)  # materializes the nodes
        status = _traced_run_until(
            loop,
            prologue,
            max_rounds=max_rounds,
            stop_when=stop_when,
            raise_on_timeout=raise_on_timeout,
        )
        if status is not PAUSED:
            return loop.result()  # ended inside similarity
        meter.total_messages = loop.total_messages
        meter.total_bits = loop.total_bits
        meter.max_message_bits = loop.max_message_bits

    # --- the trials window, as arrays -----------------------------
    # Programs adopt no colors before their trials section, so the
    # window starts from a blank color state; draws continue on the
    # very same per-node streams the prologue advanced.
    def draw(_phase, live_idx):
        return plan.randrange(live_idx, palette)

    st = _TryState(n)
    colors, adopt_iter = st.colors, st.adopt_iter
    r, rounds, status = _run_try_phases(
        csr, st, meter, draw,
        start_round=prologue, end_round=window_end,
        max_rounds=max_rounds, check_stop=stop_when is not None,
    )
    handoff = status == "done"

    # A run ending inside the window never logs its trials entry;
    # basic's programs logged similarity at the boundary resume (round
    # ``prologue``) iff that round ran.
    log = (
        [("similarity", prologue)]
        if variant == "basic" and r > prologue and not handoff
        else []
    )
    if loop is None and not handoff:
        # Improved, ended inside the window: no generator runs again,
        # so no program is built.
        network._vector_tables["color"] = _table(order, colors)
        network._vector_tables["phase_log"] = lambda: UniformInputs(
            network.graph.nodes, log
        )
        return _finish(
            network, rounds, meter.total_messages, meter.total_bits,
            meter.max_message_bits, r, status == "stopped",
            status == "timeout", max_rounds, raise_on_timeout,
        )

    # The window's state, written into the programs the generators
    # resume: resumes 0..r-1 have happened, so adopts from the final
    # executed round are not yet in any neighbor table — on a
    # completed window they ride the deferred boundary resume via
    # _kernel_prefix instead.
    nbr_tables = _nbr_colors_writeback(
        csr, order, colors, adopt_iter, r - 1
    )

    def writeback(programs):
        for i, node in enumerate(order):
            program = programs[node]
            c = int(colors[i])
            program.color = c if c >= 0 else None
            program.nbr_colors = nbr_tables(i)
            program.phase_log.extend(log)

    if handoff:
        obs_trace.event(
            "kernel.handoff", round=r, uncolored=int((colors < 0).sum())
        )
    if loop is None:
        # Before _started is set: the fresh generators get None first.
        loop = GeneratorLoop(network)  # materializes the nodes
    programs = network.programs
    writeback(programs)
    loop.total_messages = meter.total_messages
    loop.total_bits = meter.total_bits
    loop.max_message_bits = meter.max_message_bits
    loop.rounds += rounds
    loop.round_index = r
    if r > 0:
        network._started = True
    if not handoff:
        loop.stopped_early = status == "stopped"
        if status == "timeout" and raise_on_timeout:
            raise NonterminationError(max_rounds, set(loop.running))
        return loop.result()

    # --- hand back to the generators ------------------------------
    # Neither the stop monitor nor the round cap fired at round r, so
    # the resumed loop runs at least the boundary round and every node
    # consumes its prefix there.
    last = adopt_iter == r - 1
    g_indptr, g_indices = csr.g_indptr, csr.g_indices
    for i, node in enumerate(order):
        row = g_indices[g_indptr[i]:g_indptr[i + 1]]
        adopts = {
            order[j]: int(colors[j])
            for j in row[last[row]].tolist()
        }
        programs[node]._kernel_prefix = (3 * trials, adopts)
    _traced_run_until(
        loop,
        None,
        max_rounds=max_rounds,
        stop_when=stop_when,
        raise_on_timeout=raise_on_timeout,
    )
    return loop.result()


# ----------------------------------------------------------------------
# Luby distance-k MIS: k rounds of max-flooding + k domination rounds


@register_kernel(LubyDistanceKProgram)
def _luby_kernel(network, *, max_rounds, stop_when, raise_on_timeout):
    """Vectorized :class:`LubyDistanceKProgram`.

    Per 2k-round phase: live nodes draw ``rng.randrange(n³)·n + id``
    (same streams, same order as the generators), ranks max-flood for
    k broadcast rounds, the strict maximum within distance k joins,
    and ``(D, hops)`` countdowns dominate the k-ball.  Messages sent
    in round t are applied at the top of round t+1, exactly when the
    generators would resume on that inbox — including the last
    domination round of a phase, which lands at the next phase's first
    resume *before* new ranks are drawn.
    """
    if stop_when is not None and stop_when is not _all_decided:
        return None
    plan = network.plan()
    csr = plan.csr
    if csr.has_selfloops:
        return None
    n = csr.n
    order = csr.order

    ks = {plan.input_for(v).get("k") for v in order}
    if len(ks) != 1:
        return None
    k = ks.pop()
    if not isinstance(k, int) or k < 1:
        return None
    max_label = max(abs(order[0]), abs(order[-1]))
    if (n**3 - 1) * n + max_label >= _INT64_SAFE:
        return None  # rank arithmetic could leave int64

    mode = network.policy.mode
    metered = mode is not BandwidthMode.UNBOUNDED
    budget = network._budget
    rank_base = bit_size((_TAG_RANK, 0)) - 1
    dom_base = rank_base  # both tags are 1-char strings
    if metered:
        worst = rank_base + 1 + int_bits((n**3 - 1) * n + max_label)
        if max(worst, dom_base + int_bits(k)) > budget:
            return None

    g_indptr, g_indices = csr.g_indptr, csr.g_indices
    labels = np.array(order, dtype=np.int64)

    LIVE, IN_MIS, DOM = 0, 1, 2
    state = np.zeros(n, dtype=np.int8)
    own = np.full(n, -1, dtype=np.int64)
    best = np.full(n, -1, dtype=np.int64)
    hops = np.zeros(n, dtype=np.int64)
    joined = np.zeros(n, dtype=bool)
    NEG = np.int64(-_INT64_SAFE)

    phases = 0
    total_messages = 0
    total_bits = 0
    max_message_bits = 0
    rounds = 0
    stopped_early = False
    timed_out = False
    check_stop = stop_when is not None
    period = 2 * k
    inflight = None  # ("rank"|"dom", values) sent one round ago
    idle_bits = rank_base + 2  # bit_size((_TAG_RANK, -1))

    r = 0
    while True:
        if check_stop and not (state == LIVE).any():
            stopped_early = True
            break
        if r >= max_rounds:
            timed_out = True
            break
        if inflight is not None:
            tag, vals = inflight
            inflight = None
            if tag == "rank":
                best = np.maximum(
                    best,
                    arrays.row_max(vals[g_indices], g_indptr, NEG),
                )
            else:
                relay = np.where(vals > 0, vals, NEG)
                nbr_max = arrays.row_max(
                    relay[g_indices], g_indptr, NEG
                )
                has_in = nbr_max > NEG
                state[has_in & (state == LIVE)] = DOM
                hops = np.where(
                    has_in,
                    np.maximum(hops, nbr_max - 1),
                    np.where(joined, hops, 0),
                )
        pos = r % period
        if pos == 0:
            live_idx = np.flatnonzero(state == LIVE)
            if live_idx.size == 0 and not check_stop:
                # Decided network, no stop monitor: each remaining
                # phase is k rounds of n ``(K, -1)`` broadcasts then k
                # silent rounds, forever.
                remaining = max_rounds - r
                full, part = divmod(remaining, period)
                phases += full + (1 if part else 0)
                flood = full * k + min(part, k)
                total_messages += flood * n
                if metered and flood:
                    total_bits += flood * n * idle_bits
                    if idle_bits > max_message_bits:
                        max_message_bits = idle_bits
                rounds += remaining
                r = max_rounds
                timed_out = True
                break
            phases += 1
            own.fill(-1)
            own[live_idx] = (
                plan.randrange(live_idx, n**3) * n + labels[live_idx]
            )
            best = own.copy()
        if pos < k:
            # flood round: every node broadcasts (K, best)
            total_messages += n
            if metered:
                pb = rank_base + arrays.int_bits_array(best)
                total_bits += int(pb.sum())
                biggest = int(pb.max())
                if biggest > max_message_bits:
                    max_message_bits = biggest
            inflight = ("rank", best.copy())
        else:
            if pos == k:
                joined = (state == LIVE) & (best == own)
                state[joined] = IN_MIS
                hops = np.where(joined, k, 0).astype(np.int64)
            senders = hops > 0
            count = int(senders.sum())
            total_messages += count
            if metered and count:
                pb = dom_base + arrays.int_bits_array(hops[senders])
                total_bits += int(pb.sum())
                biggest = int(pb.max())
                if biggest > max_message_bits:
                    max_message_bits = biggest
            inflight = ("dom", np.where(senders, hops, 0))
        rounds += 1
        r += 1

    names = {LIVE: _STATE_LIVE, IN_MIS: _STATE_IN_MIS,
             DOM: _STATE_DOMINATED}
    network._vector_tables["state"] = lambda: {
        node: names[int(s)] for node, s in zip(order, state.tolist())
    }
    network._vector_tables["phases"] = lambda: {
        node: phases for node in order
    }
    return _finish(
        network, rounds, total_messages, total_bits,
        max_message_bits, r, stopped_early, timed_out,
        max_rounds, raise_on_timeout,
    )
