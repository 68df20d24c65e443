"""Predecessor enumeration: running the trick function backwards.

The trick function is deterministic forwards but not injective, so a state
can have several predecessors. They can still be enumerated exactly: the
winner's deck ends with the pile in play order, so every candidate pile is
a bottom slice of it; a slice is a complete natural trick only if it ends
with a rank-k special followed by exactly k ordinaries, and replaying the
slice under forward rules fixes who played each card and, given the
winner, which player led. The whole search over packed states is one
`_kernels.search` call, run to its limits before `discover` yields; a
`GameState` is built only for a state handed out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .engine import PLAYER_A, PLAYER_B, GameState


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


def _state(packed: bytes) -> GameState:
    leader, cards_a, cards_b = _kernels.split(packed)
    return GameState(tuple(cards_a), tuple(cards_b), PLAYER_B if leader else PLAYER_A)


def _search(seed_states, config: BackwardSearchConfig, stop_on_balanced=False):
    seeds = [_kernels.pack(s.deck_a, s.deck_b, s.leader == PLAYER_B) for s in seed_states]
    return _kernels.search(seeds, config.max_depth, config.max_nodes, stop_on_balanced)


def enumerate_predecessors(target: GameState) -> list:
    """All start-of-trick states whose trick produces `target` exactly.

    target.leader is read as the winner of the preceding trick. This is a
    search of depth 1: the loser's deck grows backwards, so no state is its
    own predecessor, and every state after the target is one of them. A
    target with an empty deck has none. A predecessor fixes its trick, and
    with it the pile length, so the list has no duplicates; it is in order
    of pile length.
    """
    states, offsets, _, plens = _search([target], BackwardSearchConfig(max_depth=1))
    offsets = offsets.tolist()
    return [PredecessorCandidate(_state(states[i:j]), plen)
            for i, j, plen in zip(offsets[1:], offsets[2:], plens[1:].tolist())]


def discover_packed(seed_states, config: BackwardSearchConfig):
    """`discover`, yielding each state packed (`_kernels.pack`)."""
    states, offsets, depths, _ = _search(seed_states, config)
    offsets = offsets.tolist()
    for depth, i, j in zip(depths.tolist(), offsets, offsets[1:]):
        yield depth, states[i:j]


def discover(seed_states, config: BackwardSearchConfig):
    """Yield (depth, state) for each state of a breadth-first backward search.

    Every distinct seed comes first, at depth 0. Each later level holds the
    predecessors of the level before it that were not seen yet, in
    discovery order. Expansion stops at config.max_depth, or as soon as
    config.max_nodes states (seeds included) are known. The search runs to
    these limits before the first state is yielded.
    """
    for depth, packed in discover_packed(seed_states, config):
        yield depth, _state(packed)


def backward_search(seed_states, config: BackwardSearchConfig) -> list:
    """Breadth-first predecessor expansion collecting balanced states.

    Every discovered state (seeds included) with even card split is
    standardized and reported; with stop_on_balanced the search returns at
    the first hit. Exhausting depth or the node budget without a hit is a
    normal empty result.
    """
    states, offsets, _, _ = _search(seed_states, config, config.stop_on_balanced)
    # the balanced states, read from the packed headers: deck lengths alike
    head, starts = np.frombuffer(states, np.uint8), offsets[:-1]
    even = (head[starts + 1] == head[starts + 3]) & (head[starts + 2] == head[starts + 4])
    balanced = {}
    for i in np.flatnonzero(even).tolist():
        packed = states[offsets[i]:offsets[i + 1]]
        if packed[0]:  # standardize: relabel the players so that A leads
            _, cards_a, cards_b = _kernels.split(packed)
            packed = _kernels.pack(cards_b, cards_a, 0)
        balanced.setdefault(packed, None)
    return [_state(packed) for packed in balanced]
