"""Predecessor enumeration: running the trick function backwards.

The trick function is deterministic forwards but not injective, so a state
can have several predecessors. They can still be enumerated exactly: the
winner's deck ends with the pile in play order, so every candidate pile is
a bottom slice of it; a slice is a complete natural trick only if it ends
with a rank-k special followed by exactly k ordinaries, and replaying the
slice under forward rules fixes who played each card and, given the
winner, which player led. The search steps a level of packed states per
`_kernels.expand` call, and builds a `GameState` only for one it hands out.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def enumerate_predecessors(target: GameState) -> list:
    """All start-of-trick states whose trick produces `target` exactly.

    target.leader is read as the winner of the preceding trick. This is
    `_kernels.expand` on a level of one state. A target with an empty deck
    has no predecessors. A predecessor fixes its trick, and with it the pile
    length, so the list has no duplicates; it is in order of pile length.
    """
    packed = _kernels.pack(target.deck_a, target.deck_b, target.leader == PLAYER_B)
    _, preds, plens = _kernels.expand([packed], 1)
    return [PredecessorCandidate(_state(p), plen) for p, plen in zip(preds, plens)]


def discover_packed(seed_states, config: BackwardSearchConfig):
    """`discover`, yielding each state packed (`_kernels.pack`)."""
    visited, level = set(), []
    for state in seed_states:
        packed = _kernels.pack(state.deck_a, state.deck_b, state.leader == PLAYER_B)
        if packed not in visited:
            visited.add(packed)
            level.append(packed)
            yield 0, packed
    depth = 0
    while level and depth < config.max_depth and len(visited) < config.max_nodes:
        depth += 1
        rest, level = level, []
        while rest:  # more calls only if a full buffer or duplicates stopped one
            count, preds, _ = _kernels.expand(rest, config.max_nodes - len(visited))
            rest = rest[count:]
            for packed in preds:
                if packed in visited:
                    continue
                visited.add(packed)
                level.append(packed)
                yield depth, packed
                if len(visited) >= config.max_nodes:
                    return


def discover(seed_states, config: BackwardSearchConfig):
    """Yield (depth, state) for each state of a breadth-first backward search.

    Every distinct seed comes first, at depth 0. Each later level holds the
    predecessors of the level before it that were not seen yet, in
    discovery order. Expansion stops at config.max_depth, or as soon as
    config.max_nodes states (seeds included) are known.
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
    balanced = []
    balanced_seen = set()
    for _, packed in discover_packed(seed_states, config):
        leader, n_a, n_b = _kernels.HEADER.unpack_from(packed)
        if n_a != n_b:
            continue
        if leader:  # standardize: relabel the players so that A leads
            _, cards_a, cards_b = _kernels.split(packed)
            packed = _kernels.pack(cards_b, cards_a, 0)
        if packed in balanced_seen:
            continue
        balanced_seen.add(packed)
        balanced.append(_state(packed))
        if config.stop_on_balanced:
            break
    return balanced
