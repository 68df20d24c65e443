"""Reference trick and loop detector the differential tests step with.

`reference_trick` is the trick rule written out with a dict of deques and
player names, independent of the match kernel's `_kernels._py_run`, which
plays every trick of the package. `dict_trace_states` is the detector
`engine.play_match(detect_loops=True)` used before Brent's algorithm moved
into the match kernel. It is slow and keeps every state, but its meaning is
plain: the first state to recur gives Looped(transient=its first index,
period=the gap), found only if the recurrence happens within `max_tricks`.
"""

from __future__ import annotations

from collections import deque

from bmn.engine import (
    PLAYER_A,
    PLAYER_B,
    BudgetExceeded,
    GameState,
    Looped,
    MatchOutcome,
    Terminated,
    TrickResult,
    UnplayableStateError,
)


def other_player(player: str) -> str:
    return PLAYER_B if player == PLAYER_A else PLAYER_A


def reference_trick(state: GameState) -> TrickResult:
    """One trick by the rule as stated in `engine.play_trick`'s docstring."""
    if not state.playable:
        raise UnplayableStateError("both decks must be nonempty to play a trick")
    decks = {PLAYER_A: deque(state.deck_a), PLAYER_B: deque(state.deck_b)}
    pile: list[int] = []
    current = state.leader
    challenger = current
    pending = 0
    while True:
        deck = decks[current]
        if not deck:
            winner = other_player(current)
            break
        card = deck.popleft()
        pile.append(card)
        if card > 0:
            challenger = current
            pending = card
            current = other_player(current)
        elif pending > 0:
            pending -= 1
            if pending == 0:
                winner = challenger
                break
        else:
            current = other_player(current)
    decks[winner].extend(pile)
    next_state = GameState(tuple(decks[PLAYER_A]), tuple(decks[PLAYER_B]), winner)
    terminal = len(decks[other_player(winner)]) == 0
    return TrickResult(next_state, winner, tuple(pile), terminal)


def dict_trace_states(initial: GameState, max_tricks: int):
    """(outcome, states): states[i] is the state after trick i. A repeated
    state is not appended again; a final state is."""
    seen = {initial: 0}
    states = [initial]
    state = initial
    tricks = 0
    while tricks < max_tricks:
        result = reference_trick(state)
        tricks += 1
        state = result.next_state
        if result.terminal:
            states.append(state)
            return Terminated(result.winner, tricks), states
        first = seen.get(state)
        if first is not None:
            return Looped(first, tricks - first), states
        seen[state] = tricks
        states.append(state)
    return BudgetExceeded(tricks), states


def dict_play_match(initial: GameState, max_tricks: int) -> MatchOutcome:
    return dict_trace_states(initial, max_tricks)[0]
