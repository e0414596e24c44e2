"""The "try a color" primitive and 1-hop color tracking (Sec. 2.2).

    "Recall that a node v trying a color means that it sends the color
    to all its immediate neighbors, who then report back if they or
    any of their neighbors were using (or proposing) that color.  If
    all answers are negative, then v adopts the color."

Every node maintains the colors of its *immediate* neighbors (that is
the only color knowledge CONGEST bandwidth affords, which is the whole
difficulty of d2-coloring).  A try is then a 3-round exchange:

  round A  live nodes broadcast ``("try", c)``;
  round B  each neighbor w answers ``("verdict", ok)`` per trier,
           where ok means: w does not use c, no neighbor of w uses c,
           and no *other* neighbor of w tried c this round (nor w
           itself);
  round C  successful triers adopt and broadcast ``("adopt", c)``;
           neighbors update their color tables.

Correctness does not depend on which subset of live nodes tries in a
phase, so all protocols in this package reuse ``TryPhaseMixin``.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

TAG_TRY = "T"
TAG_VERDICT = "V"
TAG_ADOPT = "A"


class ColorTracker:
    """State shared by all coloring protocols: own color plus the
    latest known colors of immediate neighbors."""

    color: Optional[int]
    nbr_colors: Dict[int, int]

    def init_tracker(self, initial: Optional[int] = None) -> None:
        self.color = initial
        self.nbr_colors = {}

    @property
    def live(self) -> bool:
        return self.color is None

    def record_adopts(self, inbox: Dict[int, tuple]) -> None:
        """Update neighbor colors from ``("adopt", c)`` messages."""
        for sender, payload in inbox.items():
            for message in iter_messages(payload):
                if message[0] == TAG_ADOPT:
                    self.nbr_colors[sender] = message[1]


def iter_messages(payload):
    """Yield the logical messages inside a payload.

    A payload is either a single tagged tuple ``(tag, ...)`` or a
    multiplexed ``("*", msg, msg, ...)`` combining several logical
    messages on one edge (CONGEST permits one physical message per
    edge per round, so concurrent sub-protocols share it).
    """
    if not isinstance(payload, tuple) or not payload:
        return
    if payload[0] == "*":
        for message in payload[1:]:
            yield message
    else:
        yield payload


def multiplex(*messages) -> tuple:
    """Combine logical messages into one payload (inverse of
    :func:`iter_messages`)."""
    real = [m for m in messages if m is not None]
    if len(real) == 1:
        return real[0]
    return ("*",) + tuple(real)


class TryPhaseMixin(ColorTracker):
    """Reusable 3-round try phase for :class:`NodeProgram` subclasses.

    Subclasses drive it with ``yield from self.try_phase(c)`` where
    ``c`` is the color to try this phase (or None to sit the phase
    out while still serving verdicts for neighbors).  Returns True if
    the node adopted ``c``.
    """

    ctx = None  # provided by NodeProgram

    def try_phase(self, candidate: Optional[int]):
        # --- round A: broadcast the try --------------------------------
        if candidate is not None:
            inbox = yield {
                v: (TAG_TRY, candidate) for v in self.ctx.neighbors
            }
        else:
            inbox = yield {}
        self.record_adopts(inbox)

        # --- round B: serve verdicts ------------------------------------
        tries_here: Dict[int, int] = {}
        for sender, payload in inbox.items():
            for message in iter_messages(payload):
                if message[0] == TAG_TRY:
                    tries_here[sender] = message[1]
        used_colors = set(self.nbr_colors.values())
        if self.color is not None:
            used_colors.add(self.color)
        outbox = {}
        for trier, color in tries_here.items():
            conflict = color in used_colors
            if not conflict and candidate is not None and color == candidate:
                conflict = True
            if not conflict:
                conflict = any(
                    other_color == color
                    for other, other_color in tries_here.items()
                    if other != trier
                )
            outbox[trier] = (TAG_VERDICT, not conflict)
        inbox = yield outbox
        self.record_adopts(inbox)

        # --- round C: adopt on all-clear ---------------------------------
        adopted = False
        if candidate is not None:
            verdicts = [
                message[1]
                for payload in inbox.values()
                for message in iter_messages(payload)
                if message[0] == TAG_VERDICT
            ]
            # Self-check: the trier's own view of neighbor colors is
            # free information; it makes the primitive safe even when
            # a neighbor halted and cannot serve a verdict.
            known_conflict = candidate in set(
                self.nbr_colors.values()
            )
            if all(verdicts) and not known_conflict:
                self.color = candidate
                adopted = True
        if adopted:
            inbox = yield {
                v: (TAG_ADOPT, self.color) for v in self.ctx.neighbors
            }
        else:
            inbox = yield {}
        self.record_adopts(inbox)
        return adopted


def all_colored(network, _round_index: int) -> bool:
    """``stop_when`` monitor: every node has adopted a color.

    Simulation-level early stop only; see Network docs.
    """
    return all(
        program.color is not None
        for program in network.programs.values()
    )
