"""Predecessor enumeration: running the trick function backwards.

The trick function is deterministic forwards but not injective, so a state
can have several predecessors. They can still be enumerated exactly: the
winner's deck ends with the pile in play order, so every candidate pile is
a bottom slice of it; a slice is a complete natural trick only if it ends
with a rank-k special followed by exactly k ordinaries, and replaying the
slice under forward rules fixes who played each card and, given the
winner, which player led. The parse and the forward trick that confirms
each candidate run in `_kernels.predecessors`, on the C kernel if it loaded.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _kernels
from .cycles import standardize
from .engine import PLAYER_A, GameState, other_player


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


def enumerate_predecessors(target: GameState) -> list:
    """All start-of-trick states whose trick produces `target` exactly.

    target.leader is read as the winner of the preceding trick. Candidate
    piles are the bottom slices of the winner's deck; `_kernels.predecessors`
    parses each one as a trick, pushes the played cards back on top of
    their owners' decks and confirms the candidate by one forward trick, on
    the C kernel or in Python. A target whose winner's deck does not end
    in a closing block is turned away here first, which is cheaper than a
    kernel call. A target with an empty deck has no predecessors. A
    predecessor fixes its trick, and with it the pile length, so the list
    has no duplicates; it is in order of pile length.
    """
    if not target.playable:
        return []
    winner = target.leader
    loser = other_player(winner)
    wdeck, ldeck = target.deck_of(winner), target.deck_of(loser)
    n = len(wdeck)
    # every pile ends with the deck's closing block: k ordinaries after a
    # rank-k special; most targets have none and no predecessors
    k = 0
    while k < n and wdeck[n - 1 - k] == 0:
        k += 1
    if k == 0 or k == n or wdeck[n - 1 - k] != k:
        return []
    out = []
    for plen, leader_won, prev_w, prev_l in _kernels.predecessors(wdeck, ldeck):
        decks = (prev_w, prev_l) if winner == PLAYER_A else (prev_l, prev_w)
        out.append(PredecessorCandidate(GameState(*decks, winner if leader_won else loser), plen))
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
