"""Predecessor enumeration: running the trick function backwards.

The trick function is deterministic forwards but not injective, so a state
can have several predecessors. They can still be enumerated exactly: the
winner's deck ends with the pile in play order, so every candidate pile is
a bottom slice of it; a slice is a complete natural trick only if it ends
with a rank-k special followed by exactly k ordinaries, and replaying the
slice under forward rules fixes who played each card and, given the
winner, which player led.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cycles import standardize
from .engine import PLAYER_A, GameState, other_player, play_trick


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


def _parse_pile(pile):
    """Attribute each pile card to the player forced to flip it.

    Cards are assigned relative to the trick's leader, since the rules do
    not depend on which player leads. Returns (cards the leader played,
    cards the other player played, whether the leader won) when the pile is
    a complete natural trick ending exactly at its last card; None
    otherwise. This is the trick's inverse. It stays apart from the forward
    trick loop `_kernels._py_run`: replaying candidate piles through that
    loop made enumerate_predecessors 1.7x slower.
    """
    played = ([], [])
    cur = 0
    challenger = 0
    pending = 0
    last = len(pile) - 1
    for i, card in enumerate(pile):
        played[cur].append(card)
        if card > 0:
            challenger = cur
            pending = card
            cur = 1 - cur
        elif pending > 0:
            pending -= 1
            if pending == 0:
                if i != last:
                    return None  # trick would have ended before the pile did
                return played[0], played[1], challenger == 0
        else:
            cur = 1 - cur
    return None  # pile ran out with the trick still open


def enumerate_predecessors(target: GameState) -> list:
    """All start-of-trick states whose trick produces `target` exactly.

    target.leader is read as the winner of the preceding trick. Candidate
    piles are the bottom slices of the winner's deck; each surviving parse
    is rebuilt by pushing the played cards back on top of their owners'
    decks and confirmed by one forward trick. A target with an empty deck
    has no predecessors. A predecessor fixes its trick, and with it the
    pile length, so the list has no duplicates; it is in order of pile
    length.
    """
    if not target.playable:
        return []
    winner = target.leader
    loser = other_player(winner)
    wdeck, ldeck = target.deck_of(winner), target.deck_of(loser)
    n = len(wdeck)
    # every pile ends with the deck's closing block: k ordinaries after a
    # rank-k special, so slices shorter than the block cannot be tricks
    k = 0
    while k < n and wdeck[n - 1 - k] == 0:
        k += 1
    if k == 0 or k == n or wdeck[n - 1 - k] != k:
        return []
    out = []
    for plen in range(k + 1, n + 1):
        parsed = _parse_pile(wdeck[n - plen:])
        if parsed is None:
            continue
        led, followed, leader_won = parsed
        won, lost = (led, followed) if leader_won else (followed, led)
        prev_w = tuple(won) + wdeck[:n - plen]
        prev_l = tuple(lost) + ldeck
        decks = (prev_w, prev_l) if winner == PLAYER_A else (prev_l, prev_w)
        candidate = GameState(*decks, winner if leader_won else loser)
        if play_trick(candidate).next_state == target:
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
