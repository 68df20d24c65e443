"""Loop verification, period extraction, and balanced-entry scanning."""

from __future__ import annotations

from itertools import islice
from typing import NamedTuple

from . import engine
from .engine import (
    PLAYER_A,
    PLAYER_B,
    GameState,
    Looped,
    Settings,
    Terminated,
    format_deck,
)


class NotALoopError(ValueError):
    """The match terminated instead of looping."""

    def __init__(self, outcome: Terminated):
        super().__init__(f"match terminated after {outcome.tricks} tricks "
                         f"(winner {outcome.winner})")
        self.outcome = outcome


class UndecidedError(ValueError):
    """Trick budget ran out before a loop or termination was found."""


def standardize(state: GameState) -> GameState:
    """Relabel the players so the leader is always A.

    The rules are symmetric in player identity, so swapping decks together
    with the leader flag yields a state with the identical dynamics.
    """
    if state.leader == PLAYER_B:
        return GameState(state.deck_b, state.deck_a, PLAYER_A)
    return state


class LoopReport(NamedTuple):
    """A verified cycle: its transient, period, states, and balanced entries.

    balanced_entries holds (trick_index, standardized state) for every loop
    state where both players hold the same number of cards.
    """

    transient: int
    period: int
    states_in_loop: tuple
    balanced_entries: tuple

    def to_text(self) -> str:
        lines = [f"transient = {self.transient}", f"period = {self.period}"]
        for trick, state in self.balanced_entries:
            lines.append(f"balanced trick={trick} "
                         f"deck_a={format_deck(state.deck_a)} "
                         f"deck_b={format_deck(state.deck_b)}")
        return "\n".join(lines)


def verify_loop(initial: GameState,
                max_tricks: int = engine.DEFAULT_MATCH_TRICKS) -> LoopReport:
    """Detect a cycle from `initial` and re-verify it by direct replay.

    The replay keeps only the `period` states of the cycle. Raises
    NotALoopError if the match terminates and UndecidedError if the trick
    budget runs out first.
    """
    outcome = engine.play_match(initial, max_tricks)
    if isinstance(outcome, Terminated):
        raise NotALoopError(outcome)
    if not isinstance(outcome, Looped):
        raise UndecidedError(f"no recurrence within {max_tricks} tricks")
    start, period = outcome.transient, outcome.period
    states = engine.walk(initial, start + period)
    loop_states = tuple(islice(states, start, start + period))
    # independent re-check: one full period of play returns to the entry state
    if next(states) != loop_states[0]:
        raise RuntimeError("loop replay diverged from the recorded cycle")
    balanced = tuple(
        (start + i, standardize(s))
        for i, s in enumerate(loop_states)
        if len(s.deck_a) == len(s.deck_b))
    return LoopReport(transient=start, period=period,
                      states_in_loop=loop_states, balanced_entries=balanced)


def scan_balanced_entries(report: LoopReport, settings: Settings) -> tuple:
    """Standardized balanced states of the loop, deduplicated.

    Only states where each player holds exactly half the deck qualify; the
    same standardized state reached at several loop indices is reported once.
    """
    seen = set()
    out = []
    for _, state in report.balanced_entries:
        if len(state.deck_a) != settings.half or len(state.deck_b) != settings.half:
            continue
        if state in seen:
            continue
        seen.add(state)
        out.append(state)
    return tuple(out)
