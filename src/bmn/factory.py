"""Adaptive insertion search growing small cycling decks to full composition.

Starting from a small pair of decks that provably never terminates, the
search inserts card fragments one at a time, keeping only insertions that
preserve non-termination, until the combined decks reach the exact (N, R)
composition. A seed holding more cards of some type than the composition
allows is repaired along the way: when no insertion keeps the loop, an
excess card is removed or retyped to a deficient rank instead. Verified
intermediate configurations are kept as checkpoints; selection prefers the
highest compositional score with pseudo-random escapes and occasional
restarts to leave dead ends.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple, Optional

from . import _kernels, engine
from ._rng import SplitMix64
from .cycles import LoopReport, verify_loop
from .engine import PLAYER_A, Deck, GameState, Looped, Settings

_MAX_FRAGMENTS = 12     # fragments tried per round
_MAX_POSITIONS = 40     # insertion points sampled per fragment
_RESTART_INTERVAL = 50  # rounds between restart draws
_RESTART_PROBABILITY = 0.2
_ESCAPE_THRESHOLD = 5   # fruitless rounds on one checkpoint before escaping
_CHECKPOINT_CAPACITY = 1500
# bytes a run's memo of failed tests may hold: in C its arena and table
# together, in `_Failed` its entries' packed bytes
_MEMO_BYTES = 1 << 22
_DEFAULT_SEED_A = (1, 0, 0)
_DEFAULT_SEED_B = (0, 1, 0)


class SeedNotLoopingError(ValueError):
    """The seed configuration terminates, so there is nothing to grow."""


class Checkpoint(NamedTuple):
    """A verified non-terminating partial configuration in the frontier."""

    deck_a: Deck
    deck_b: Deck
    depth: int          # successful insertions since the seed
    score: int
    age: int            # creation counter, monotonically increasing
    # both derived from the decks, so they never tell equal decks apart
    deficits: dict      # missing(deck_a, deck_b, settings)
    excess: bool        # some deficit is negative

    @property
    def state(self) -> GameState:
        return GameState(self.deck_a, self.deck_b, PLAYER_A)


@dataclass(frozen=True)
class FactoryConfig:
    settings: Settings
    seed_state: GameState
    budget: int                       # exploration rounds
    rng_seed: int = 0
    nontermination_trick_cap: int = engine.DEFAULT_BATCH_TRICKS

    def __post_init__(self):
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        if self.nontermination_trick_cap < 1:
            raise ValueError("nontermination_trick_cap must be >= 1")


class FactoryResult(NamedTuple):
    complete: Optional[GameState]
    report: Optional[LoopReport]
    best: Checkpoint
    rounds_used: int
    tests_run: int      # candidates tested, those the memo of failed tests skips too

    @property
    def success(self) -> bool:
        return self.complete is not None


def default_seed_state() -> GameState:
    """The smallest known cycling configuration: [1CC] versus [C1C]."""
    return GameState(_DEFAULT_SEED_A, _DEFAULT_SEED_B, PLAYER_A)


def missing(deck_a: Deck, deck_b: Deck, settings: Settings) -> dict:
    """Signed deficit per card type: target count minus held count.

    Positive means the type is still needed, negative that it is in excess.
    Type 0 are the ordinary cards. A card of no rank of the setting is a ValueError.
    """
    ranks = range(settings.max_rank + 1)
    held = [deck_a.count(rank) + deck_b.count(rank) for rank in ranks]
    if sum(held) != len(deck_a) + len(deck_b):
        card = next(card for card in chain(deck_a, deck_b) if card not in ranks)
        raise ValueError(f"card {card} is not a rank of setting {settings}")
    return {rank: settings.target_count(rank) - n for rank, n in zip(ranks, held)}


def score(deck_a: Deck, deck_b: Deck, settings: Settings) -> int:
    """N minus the total absolute deficit; equals N iff composition is complete."""
    return _checkpoint(settings, deck_a, deck_b, 0, 0).score


def test_nontermination(state: GameState,
                        trick_cap: int = engine.DEFAULT_BATCH_TRICKS) -> bool:
    """True if the match from `state` loops with transient + period <= trick_cap.

    A match still running at the cap counts as False, so every True is
    backed by a recurrence found in play. The factory tests its seed with
    it, and every insertion and correction by the same rule (`_loops`; on
    the C kernel, `_kernels.factory` plays them), a failing one once a run.
    """
    return isinstance(engine.play_match(state, trick_cap), Looped)


# ---------------------------------------------------------------------------
# Fragment generation
# ---------------------------------------------------------------------------


def _pattern_fragments(pattern: str, ranks: list) -> list:
    """Raw fragment templates for a pattern, before deficit filtering.

    Each group of the pattern's shapes in `_PATTERNS` is written out in
    turn: C slots are 0, r and s take ranks from `ranks`, in its order.
    """
    if pattern not in _PATTERNS:
        raise ValueError(f"unknown pattern {pattern!r}")
    frags = []
    for group in _PATTERNS[pattern]:
        pairs = ([(r, s) for r in ranks for s in ranks if r != s] if "s" in group
                 else [(r, None) for r in ranks] if "r" in group else [(None, None)])
        for r, s in pairs:
            cards = {"C": 0, "r": r, "s": s}
            frags += [tuple(cards[c] for c in shape) for shape in group.split(" ")]
    return frags


def _fits_deficits(fragment: tuple, deficits: dict) -> bool:
    """A fragment may only use types it leaves non-negative demand for."""
    return all(fragment.count(c) <= deficits.get(c, 0) for c in fragment)


# A rank order turns a pattern and the deficient special ranks, ascending,
# into the pattern's templates in the order they are tried.


def _ascending(pattern: str, ranks: list, deficits: dict) -> list:
    return _pattern_fragments(pattern, ranks)


def _descending(pattern: str, ranks: list, deficits: dict) -> list:
    return _pattern_fragments(pattern, ranks[::-1])


def _largest_deficit(pattern: str, ranks: list, deficits: dict) -> list:
    return _pattern_fragments(pattern, sorted(ranks, key=lambda r: (-deficits[r], r)))


def _ordinaries_first(pattern: str, ranks: list, deficits: dict) -> list:
    return sorted(_pattern_fragments(pattern, ranks), key=any)  # stable: all-C first


# The rank orders, in the order the C kernel numbers them.
_ORDERS = (_ascending, _descending, _largest_deficit, _ordinaries_first)
# The patterns' templates, the one table both round loops read:
# `_pattern_fragments` here, and `bmn_factory`, to which `_c_rounds` passes
# it. Each pattern is a tuple of groups of shapes split at spaces, where C
# is an ordinary and r and s are ranks. A group is written out for each
# pair of distinct ranks (r, s) if it names s, for each rank r if it names
# r, and once otherwise. `bmn_factory` takes the table as given; a tier-1
# test checks that it fits there: no empty pattern, group or shape, no
# shape over 10 cards, and at most 81 templates a pattern over nine ranks.
_PATTERNS = {
    "single": ("r", "C"),
    "pairs": ("rr", "Cr", "rC", "CC"),
    "triplets": ("CrC", "CCr", "rCC", "CCC"),
    "burst5": ("CCCCC",),
    "burst7": ("CCCCCCC",),
    "burst10": ("CCCCCCCCCC",),
    "interleaved": ("CrCrC",),
    "rank-terminated": ("CCr CCCr CCCCr",),
    "mixed7": ("CCCrCCC CrC CCrCC", "CrrC"),
    "mixed10": ("CCCCrCCCCC", "CCrCCsCC"),
}

# The insertion strategies: a rank order and the patterns drawn with it.
# Every pattern is reachable somewhere.
STRATEGIES = (
    (_ascending, ("single", "pairs", "triplets", "rank-terminated", "mixed7", "burst5")),
    (_descending, ("single", "pairs", "triplets", "rank-terminated", "mixed7", "burst5")),
    (_ordinaries_first, ("single", "pairs", "triplets", "burst5", "burst7", "burst10")),
    (_ascending, ("single", "pairs", "triplets", "interleaved", "mixed7")),
    (_largest_deficit, ("single", "pairs", "triplets", "mixed7", "mixed10", "burst5")),
    (_ascending, ("single", "pairs", "triplets", "mixed7")),
    (_ascending, ("single", "interleaved", "mixed7", "mixed10", "rank-terminated")),
    (_ascending, ("single", "triplets", "rank-terminated")),
)


def generate_sequences(order, pattern: str, deficits: dict) -> list:
    """Candidate insertion fragments for one exploration round.

    Fragments follow the pattern's templates in the rank order `order` (one
    of the orders in STRATEGIES), restricted to deficient types with
    multiplicity (nothing in excess is ever inserted, so a successful
    insertion always raises the compositional score by the fragment length).
    The fragments and their order are fully determined by order, pattern
    and deficits. The ranks are distinct, so no template repeats a
    fragment.
    """
    ranks = sorted(r for r, d in deficits.items() if r >= 1 and d > 0)
    frags = [f for f in order(pattern, ranks, deficits) if _fits_deficits(f, deficits)]
    return frags[:_MAX_FRAGMENTS]


# ---------------------------------------------------------------------------
# Search loop
# ---------------------------------------------------------------------------


def _rank(cp: Checkpoint) -> tuple:
    return cp.score, cp.depth, cp.age


def _keep(store: list, top: Checkpoint, new_cp: Checkpoint) -> Checkpoint:
    """Append `new_cp` to `store`, evict the lowest (score, age) down to
    capacity, and return the new top by `_rank`, given the top before.

    The top is never the one evicted. No shape of `_PATTERNS` is empty, so
    a kept checkpoint scores above the one it grew from: an insertion adds
    at least one card of a deficient type, and a correction removes an
    excess card or retypes it to a deficient rank. That parent is still in
    the store, so the checkpoint evicted scores no more than the parent,
    below the top."""
    store.append(new_cp)
    while len(store) > _CHECKPOINT_CAPACITY:
        store.remove(min(store, key=lambda cp: (cp.score, cp.age)))
    return max(top, new_cp, key=_rank)


class _Failed(set):
    """A run's memo of failed tests: the (deck_a, deck_b) of each insertion
    or correction test that did not loop.

    A test's outcome depends on its decks alone (A leads, and the trick cap
    is the run's), so a test found here fails again and is not played. The
    memo is emptied when its entries, counted as packed states
    (`_kernels.pack`: a 5-byte header, then the cards), would pass
    _MEMO_BYTES. The C kernel's memo counts more: its arena of packed states
    with the spare room past them, and its table, which makes it empty
    sooner on the same bound.
    """

    held = 0

    def add(self, decks):
        size = _kernels.HEADER.size + len(decks[0]) + len(decks[1])
        if self.held + size > _MEMO_BYTES:
            self.clear()
            self.held = 0
        if size <= _MEMO_BYTES:
            super().add(decks)
            self.held += size


def _loops(decks: tuple, trick_cap: int, failed: _Failed) -> bool:
    """One insertion or correction test, A leading: played unless `failed`
    holds its decks; one that does not loop goes into `failed`."""
    if decks in failed:
        return False
    if _kernels.play_match_loops(*decks, 0, trick_cap)[0] == 1:
        return True
    failed.add(decks)
    return False


def _first_insertion(cp: Checkpoint, fragments: list, bias: int, rng: SplitMix64,
                     trick_cap: int, failed: _Failed):
    """(tests, decks): the first insertion of a fragment that keeps the loop.

    Fragments are tried in order, each at up to _MAX_POSITIONS insertion
    points shuffled when it is reached, A leading; `decks` is the grown
    (deck_a, deck_b), or None if no insertion loops. `tests` counts every
    candidate, those the memo `failed` holds too, which are not played, so
    that no count or draw depends on the memo.
    """
    tests = 0
    for f_idx, frag in enumerate(fragments):
        into_a = bias == 0 or (bias == 2 and f_idx % 2 == 0)
        deck, other = (cp.deck_a, cp.deck_b) if into_a else (cp.deck_b, cp.deck_a)
        positions = list(range(len(deck) + 1))
        rng.shuffle(positions)
        for pos in positions[:_MAX_POSITIONS]:
            tests += 1
            grown = deck[:pos] + frag + deck[pos:]
            decks = (grown, other) if into_a else (other, grown)
            if _loops(decks, trick_cap, failed):
                return tests, decks
    return tests, None


def _first_correction(cp: Checkpoint, rng: SplitMix64, trick_cap: int, failed: _Failed):
    """(tests, decks): the first correction of an excess card that keeps the
    loop, or None for `decks`.

    Each of up to _MAX_POSITIONS excess spots, shuffled first, is tried
    with its card removed, and then each with its card retyped to each
    deficient rank; `tests` and the memo `failed` as in `_first_insertion`.
    """
    decks, deficits = (cp.deck_a, cp.deck_b), cp.deficits
    spots = [(which, i) for which, deck in enumerate(decks)
             for i, card in enumerate(deck) if deficits.get(card, 0) < 0]
    rng.shuffle(spots)
    spots = spots[:_MAX_POSITIONS]
    deficient = sorted(r for r, d in deficits.items() if d > 0)
    removals = [(spot, ()) for spot in spots]
    retypes = [(spot, (rank,)) for spot in spots for rank in deficient]
    tests = 0
    for (which, i), card in removals + retypes:
        deck = decks[which]
        if card or len(deck) > 1:  # never empty a deck
            deck = deck[:i] + card + deck[i + 1:]
            fixed = (deck, decks[1]) if which == 0 else (decks[0], deck)
            tests += 1
            if _loops(fixed, trick_cap, failed):
                return tests, fixed
    return tests, None


def _checkpoint(settings: Settings, deck_a: Deck, deck_b: Deck, depth: int,
                age: int) -> Checkpoint:
    # a checkpoint's decks never change: count its composition once
    deficits = missing(deck_a, deck_b, settings)
    return Checkpoint(deck_a, deck_b, depth,
                      settings.n_total - sum(abs(d) for d in deficits.values()),
                      age, deficits, any(d < 0 for d in deficits.values()))


def run_factory(config: FactoryConfig) -> FactoryResult:
    """Grow the seed toward a complete non-terminating (N, R) configuration.

    One round is: pick a checkpoint, a STRATEGIES row, one of its patterns
    and a deck bias, and test the generated fragments at sampled positions until one insertion keeps
    the match looping; if none does and the checkpoint holds excess cards,
    test its corrections next. Stops at a composition-complete configuration
    (with its verified LoopReport) or when the round budget runs out, in
    which case the highest-scoring checkpoint found is reported. Fully
    deterministic given the config. The rounds run on the C kernel where
    it holds the run's checkpoints, otherwise in `_rounds`, with the same
    result.
    """
    cap = config.nontermination_trick_cap
    seed = _checkpoint(config.settings, config.seed_state.deck_a, config.seed_state.deck_b,
                       0, 0)
    # every checkpoint is played with A leading, the seed too
    if not test_nontermination(seed.state, cap):
        raise SeedNotLoopingError("seed configuration does not cycle")
    rng = SplitMix64.for_stream(config.rng_seed, 0)
    complete, best, rounds, tests = _c_rounds(config, seed, rng) or _rounds(config, seed, rng)
    if complete:
        return FactoryResult(complete=best.state, report=verify_loop(best.state, cap),
                             best=best, rounds_used=rounds, tests_run=tests)
    return FactoryResult(complete=None, report=None, best=best,
                         rounds_used=rounds, tests_run=tests)


@functools.lru_cache(maxsize=1)
def _c_tables(strategies: tuple, patterns: tuple):
    """(table, rows): the `_PATTERNS` items `patterns` and the STRATEGIES
    rows `strategies` as `_kernels.factory` takes them. The table is the
    patterns as one string: each group ends at a NUL, each pattern at a
    second one, the table at a third (no group or pattern is empty). A row
    is its order, its pattern count and its patterns' indices. Cached by
    the contents of both tables, so that a test patching either still
    reaches C."""
    names = [name for name, _ in patterns]
    rows = bytes(chain.from_iterable((_ORDERS.index(order), len(drawn),
                                      *map(names.index, drawn))
                                     for order, drawn in strategies))
    groups = [groups for _, groups in patterns]
    return ("\0\0".join(map("\0".join, groups)) + "\0\0\0").encode(), rows


def _c_rounds(config: FactoryConfig, seed: Checkpoint, rng: SplitMix64):
    """`_rounds` on the C kernel, or None where `_kernels.factory` does not
    run: without a loaded C kernel, or for checkpoints it cannot hold."""
    settings = config.settings
    table, rows = _c_tables(STRATEGIES, tuple(_PATTERNS.items()))
    found = _kernels.factory(
        seed.deck_a, seed.deck_b, [settings.target_count(r) for r in seed.deficits],
        table, rows, len(STRATEGIES),
        (_MAX_FRAGMENTS, _MAX_POSITIONS, _RESTART_INTERVAL, _ESCAPE_THRESHOLD,
         _CHECKPOINT_CAPACITY, _MEMO_BYTES),
        _RESTART_PROBABILITY, rng.state, config.budget, config.nontermination_trick_cap)
    if found is None:
        return None
    complete, deck_a, deck_b, depth, age, rounds, tests, _ = found
    return complete, _checkpoint(settings, deck_a, deck_b, depth, age), rounds, tests


def _rounds(config: FactoryConfig, seed: Checkpoint, rng: SplitMix64):
    """(complete, best, rounds, tests): run_factory's round loop from the
    checkpoint `seed`, in Python: the reference `_kernels.factory` follows,
    run only without a loaded C kernel or for checkpoints it cannot hold."""
    settings = config.settings
    cap = config.nontermination_trick_cap
    tests = 0
    failed = _Failed()  # kept through restarts: no test's outcome changes
    age_counter = 0
    store = [seed]
    best = top = seed
    last_selected_age = -1
    stuck = 0

    rounds = 0
    while rounds < config.budget:
        rounds += 1
        if (rounds % _RESTART_INTERVAL == 0
                and rng.random() < _RESTART_PROBABILITY):
            age_counter += 1
            store = [_checkpoint(settings, seed.deck_a, seed.deck_b, 0, age_counter)]
            top = store[0]
            last_selected_age = -1
            stuck = 0

        escape = stuck >= _ESCAPE_THRESHOLD
        cp = store[rng.below(len(store))] if escape and len(store) > 1 else top
        if escape:
            stuck = 0

        order, patterns = STRATEGIES[rng.below(len(STRATEGIES))]
        pattern = patterns[rng.below(len(patterns))]
        bias = rng.below(3)  # 0: deck A, 1: deck B, 2: alternate
        fragments = generate_sequences(order, pattern, cp.deficits)
        n_tests, decks = _first_insertion(cp, fragments, bias, rng, cap, failed)
        tests += n_tests
        if decks is None and cp.excess:
            n_tests, decks = _first_correction(cp, rng, cap, failed)
            tests += n_tests
        if decks is None:
            stuck = stuck + 1 if cp.age == last_selected_age else 1
            last_selected_age = cp.age
            continue

        age_counter += 1
        # depth counts insertions only, the one move that adds cards
        grew = len(decks[0]) + len(decks[1]) > len(cp.deck_a) + len(cp.deck_b)
        new_cp = _checkpoint(settings, *decks, cp.depth + grew, age_counter)
        top = _keep(store, top, new_cp)
        stuck = 0
        last_selected_age = -1
        if new_cp.score > best.score or (new_cp.score == best.score
                                         and new_cp.depth > best.depth):
            best = new_cp
        if new_cp.score == settings.n_total:
            return True, new_cp, rounds, tests
    return False, best, rounds, tests
