"""Predecessor enumeration: running the trick function backwards.

The trick function is deterministic forwards but not injective, so a state
can have several predecessors. They can still be enumerated exactly: the
winner's deck ends with the pile in play order, so every candidate pile is
a bottom slice of it; a slice is a complete natural trick only if it ends
with a rank-k special followed by exactly k ordinaries, and replaying the
slice under forward rules fixes who played each card.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cycles import standardize
from .engine import (
    PLAYER_A,
    PLAYER_B,
    GameState,
    other_player,
    play_trick,
)


@dataclass(frozen=True)
class PredecessorCandidate:
    """A start-of-trick state that forward-plays to the target in one trick."""

    state: GameState
    pile_length: int


@dataclass(frozen=True)
class BackwardSearchConfig:
    max_depth: int
    max_nodes: int = 1_000_000
    stop_on_balanced: bool = False

    def __post_init__(self):
        if self.max_depth < 0:
            raise ValueError("max_depth must be >= 0")
        if self.max_nodes < 1:
            raise ValueError("max_nodes must be >= 1")


def _parse_pile(pile, first_leader):
    """Attribute each pile card to the player forced to flip it.

    Returns (cards played by A, cards played by B, winner) when the pile is
    a complete natural trick ending exactly at its last card; None otherwise.
    This is the trick's inverse. It stays apart from the forward trick loop
    `_kernels._py_run`: replaying candidate piles through that loop made
    enumerate_predecessors 1.7x slower.
    """
    played = {PLAYER_A: [], PLAYER_B: []}
    cur = first_leader
    challenger = cur
    pending = 0
    last = len(pile) - 1
    for i, card in enumerate(pile):
        played[cur].append(card)
        if card > 0:
            challenger = cur
            pending = card
            cur = other_player(cur)
        elif pending > 0:
            pending -= 1
            if pending == 0:
                if i != last:
                    return None  # trick would have ended before the pile did
                return played[PLAYER_A], played[PLAYER_B], challenger
        else:
            cur = other_player(cur)
    return None  # pile ran out with the trick still open


def _ends_with_block(pile) -> bool:
    """True if the pile ends with a rank-k special followed by k ordinaries."""
    k = 0
    while k < len(pile) and pile[len(pile) - 1 - k] == 0:
        k += 1
    if k == 0 or k >= len(pile):
        return False
    return pile[len(pile) - 1 - k] == k


def enumerate_predecessors(target: GameState) -> list:
    """All start-of-trick states whose trick produces `target` exactly.

    target.leader is read as the winner of the preceding trick. Candidate
    piles are the bottom slices of the winner's deck; each surviving parse
    is rebuilt by pushing the played cards back on top of their owners'
    decks and confirmed by one forward trick. Only non-terminal predecessors
    (both decks nonempty) are produced. Deduplicated, discovery order.
    """
    winner = target.leader
    wdeck = target.deck_of(winner)
    out = []
    seen = set()
    for plen in range(2, len(wdeck) + 1):
        pile = wdeck[len(wdeck) - plen:]
        if not _ends_with_block(pile):
            continue
        rest = wdeck[:len(wdeck) - plen]
        for prior in (PLAYER_A, PLAYER_B):
            parsed = _parse_pile(pile, prior)
            if parsed is None:
                continue
            played_a, played_b, parse_winner = parsed
            if parse_winner != winner:
                continue
            if winner == PLAYER_A:
                prev_a = tuple(played_a) + rest
                prev_b = tuple(played_b) + target.deck_b
            else:
                prev_a = tuple(played_a) + target.deck_a
                prev_b = tuple(played_b) + rest
            candidate = GameState(prev_a, prev_b, prior)
            result = play_trick(candidate)
            if result.terminal or result.next_state != target:
                continue
            if candidate not in seen:
                seen.add(candidate)
                out.append(PredecessorCandidate(candidate, plen))
    return out


def discover(seed_states, config: BackwardSearchConfig):
    """Yield (depth, state) for each state of a breadth-first backward search.

    Every distinct seed comes first, at depth 0. Each later level holds the
    predecessors of the level before it that were not seen yet, in
    discovery order. Expansion stops at config.max_depth, or as soon as
    config.max_nodes states (seeds included) are known.
    """
    visited = set()
    level = []
    for state in seed_states:
        if state not in visited:
            visited.add(state)
            level.append(state)
            yield 0, state
    depth = 0
    while level and depth < config.max_depth and len(visited) < config.max_nodes:
        depth += 1
        previous, level = level, []
        for state in previous:
            for cand in enumerate_predecessors(state):
                if cand.state in visited:
                    continue
                visited.add(cand.state)
                level.append(cand.state)
                yield depth, cand.state
                if len(visited) >= config.max_nodes:
                    return


def backward_search(seed_states, config: BackwardSearchConfig) -> list:
    """Breadth-first predecessor expansion collecting balanced states.

    Every discovered state (seeds included) with even card split is
    standardized and reported; with stop_on_balanced the search returns at
    the first hit. Exhausting depth or the node budget without a hit is a
    normal empty result.
    """
    balanced = []
    balanced_seen = set()
    for _, state in discover(seed_states, config):
        if len(state.deck_a) != len(state.deck_b):
            continue
        std = standardize(state)
        if std in balanced_seen:
            continue
        balanced_seen.add(std)
        balanced.append(std)
        if config.stop_on_balanced:
            break
    return balanced
