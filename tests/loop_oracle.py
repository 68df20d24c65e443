"""Reference loop detector: a dict of every trick-boundary state seen.

This is the detector `engine.play_match(detect_loops=True)` and
`engine._trace_states` used before Brent's algorithm moved into the match
kernel. It is slow and keeps one key per trick, but its meaning is plain:
the first state to recur gives Looped(transient=its first index,
period=the gap), found only if the recurrence happens within `max_tricks`.
"""

from __future__ import annotations

from bmn.engine import (
    BudgetExceeded,
    GameState,
    Looped,
    MatchOutcome,
    Terminated,
    canonical_encoding,
    play_trick,
)


def dict_trace_states(initial: GameState, max_tricks: int):
    """(outcome, states): states[i] is the state after trick i. A repeated
    state is not appended again; a final state is."""
    seen = {canonical_encoding(initial): 0}
    states = [initial]
    state = initial
    tricks = 0
    while tricks < max_tricks:
        result = play_trick(state)
        tricks += 1
        state = result.next_state
        if result.terminal:
            states.append(state)
            return Terminated(result.winner, tricks), states
        key = canonical_encoding(state)
        first = seen.get(key)
        if first is not None:
            return Looped(first, tricks - first), states
        seen[key] = tricks
        states.append(state)
    return BudgetExceeded(tricks), states


def dict_play_match(initial: GameState, max_tricks: int) -> MatchOutcome:
    return dict_trace_states(initial, max_tricks)[0]
