"""Predecessor enumeration: running the trick function backwards.

The trick function is deterministic forwards but not injective, so a state
can have several predecessors. They can still be enumerated exactly: the
winner's deck ends with the pile in play order, so every candidate pile is
a bottom slice of it; a slice is a complete natural trick only if it ends
with a rank-k special followed by exactly k ordinaries, and replaying the
slice under forward rules fixes who played each card and, given the
winner, which player led. The whole search over packed states is one
`_kernels.search` call, which gives the packed states found, as rows of
one width back to back in one bytes object, and their depths; a
`GameState` is built only for a state handed out, from its row's bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _kernels
from .engine import PLAYER_A, PLAYER_B, GameState


@dataclass(frozen=True)
class BackwardSearchConfig:
    max_depth: int
    max_nodes: int = 1_000_000

    def __post_init__(self):
        if self.max_depth < 0:
            raise ValueError("max_depth must be >= 0")
        if self.max_nodes < 1:
            raise ValueError("max_nodes must be >= 1")


def _state(packed) -> GameState:
    leader, cards_a, cards_b = _kernels.split(packed)
    return GameState(tuple(cards_a), tuple(cards_b), PLAYER_B if leader else PLAYER_A)


def search(seed_states, config: BackwardSearchConfig):
    """The search from the states, which hold the same number of cards, as
    `_kernels.search` returns it: the packed states found, as one bytes
    object of rows of one width, and their depths."""
    seeds = [_kernels.pack(s.deck_a, s.deck_b, s.leader == PLAYER_B) for s in seed_states]
    return _kernels.search(seeds, config.max_depth, config.max_nodes)


def enumerate_predecessors(target: GameState) -> list[GameState]:
    """All start-of-trick states whose trick produces `target` exactly.

    target.leader is read as the winner of the preceding trick. This is a
    search of depth 1: the loser's deck grows backwards, so no state is its
    own predecessor, and every state after the target is one of them. A
    target with an empty deck has none. A predecessor fixes its trick, and
    with it the pile length, so the list has no duplicates; it is in order
    of pile length, shortest first.
    """
    states, depths = search([target], BackwardSearchConfig(max_depth=1))
    width = len(states) // len(depths)
    return [_state(states[i:i + width]) for i in range(width, len(states), width)]


def _rows_holding(states, width, n_a):
    """The rows of `states` whose header gives deck A `n_a` cards, found by
    reading the header's two length bytes, low byte first, as strided
    slices: a byte search over the low bytes, not a loop over the rows."""
    low, high = states[1::width], states[2::width]
    row = low.find(n_a & 255)
    while row >= 0:
        if high[row] == n_a >> 8:
            yield states[row * width:(row + 1) * width]
        row = low.find(n_a & 255, row + 1)


def backward_search(seed_states, config: BackwardSearchConfig) -> list:
    """Every balanced state of a breadth-first backward search.

    Every discovered state (seeds included) with even card split is
    standardized and reported once, in discovery order. Exhausting depth or
    the node budget without a hit is a normal empty result. The seeds hold
    the same number of cards; a ValueError says otherwise.
    """
    states, depths = search(seed_states, config)
    if not depths:
        return []
    width = len(states) // len(depths)
    # decks A and B hold as many cards only if the count is even, A half
    half, odd = divmod(width - _kernels.HEADER.size, 2)
    if odd:
        return []
    balanced = {}
    for packed in _rows_holding(states, width, half):
        if packed[0]:  # standardize: relabel the players so that A leads
            _, cards_a, cards_b = _kernels.split(packed)
            packed = _kernels.pack(cards_b, cards_a, 0)
        balanced.setdefault(packed, None)
    return [_state(packed) for packed in balanced]
