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

from dataclasses import dataclass, field
from itertools import chain
from typing import Optional

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
_DEFAULT_SEED_A = (1, 0, 0)
_DEFAULT_SEED_B = (0, 1, 0)


class SeedNotLoopingError(ValueError):
    """The seed configuration terminates, so there is nothing to grow."""


@dataclass(frozen=True)
class Checkpoint:
    """A verified non-terminating partial configuration in the frontier."""

    deck_a: Deck
    deck_b: Deck
    depth: int          # successful insertions since the seed
    score: int
    age: int            # creation counter, monotonically increasing
    deficits: dict = field(compare=False)  # missing(deck_a, deck_b, settings)
    excess: bool = field(compare=False)    # some deficit is negative

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


@dataclass(frozen=True)
class FactoryResult:
    complete: Optional[GameState]
    report: Optional[LoopReport]
    best: Checkpoint
    rounds_used: int
    tests_run: int

    @property
    def success(self) -> bool:
        return self.complete is not None


def default_seed_state() -> GameState:
    """The smallest known cycling configuration: [1CC] versus [C1C]."""
    return GameState(_DEFAULT_SEED_A, _DEFAULT_SEED_B, PLAYER_A)


def missing(deck_a: Deck, deck_b: Deck, settings: Settings) -> dict:
    """Signed deficit per card type: target count minus held count.

    Positive means the type is still needed, negative that it is in excess.
    Type 0 are the ordinary cards.
    """
    counts = {rank: 0 for rank in range(settings.max_rank + 1)}
    for deck in (deck_a, deck_b):
        for card in deck:
            counts[card] = counts.get(card, 0) + 1
    return {rank: settings.target_count(rank) - counts.get(rank, 0)
            for rank in range(settings.max_rank + 1)}


def score(deck_a: Deck, deck_b: Deck, settings: Settings) -> int:
    """N minus the total absolute deficit; equals N iff composition is complete."""
    deficits = missing(deck_a, deck_b, settings)
    return settings.n_total - sum(abs(d) for d in deficits.values())


def test_nontermination(state: GameState,
                        trick_cap: int = engine.DEFAULT_BATCH_TRICKS) -> bool:
    """True if the match from `state` loops with transient + period <= trick_cap.

    A match still running at the cap counts as False, so every True is
    backed by a recurrence found in play. The factory tests its seed with
    it, and every insertion and correction by the same rule: on the C
    kernel, `_kernels.factory` plays them.
    """
    return isinstance(engine.play_match(state, trick_cap), Looped)


# ---------------------------------------------------------------------------
# Fragment generation
# ---------------------------------------------------------------------------


def _pattern_fragments(pattern: str, ranks: list) -> list:
    """Raw fragment templates for a pattern, before deficit filtering.

    C slots are 0; special slots take each rank from `ranks` in turn.
    """
    frags = []
    if pattern == "single":
        frags += [(r,) for r in ranks]
        frags.append((0,))
    elif pattern == "pairs":
        frags += [(r, r) for r in ranks]
        frags += [(0, r) for r in ranks]
        frags += [(r, 0) for r in ranks]
        frags.append((0, 0))
    elif pattern == "triplets":
        frags += [(0, r, 0) for r in ranks]
        frags += [(0, 0, r) for r in ranks]
        frags += [(r, 0, 0) for r in ranks]
        frags.append((0, 0, 0))
    elif pattern == "burst5":
        frags.append((0,) * 5)
    elif pattern == "burst7":
        frags.append((0,) * 7)
    elif pattern == "burst10":
        frags.append((0,) * 10)
    elif pattern == "interleaved":
        frags += [(0, r, 0, r, 0) for r in ranks]
    elif pattern == "rank-terminated":
        for r in ranks:
            frags += [(0, 0, r), (0, 0, 0, r), (0, 0, 0, 0, r)]
    elif pattern == "mixed7":
        for r in ranks:
            frags += [(0, 0, 0, r, 0, 0, 0), (0, r, 0), (0, 0, r, 0, 0)]
        frags += [(0, r, r, 0) for r in ranks]
    elif pattern == "mixed10":
        for r in ranks:
            frags.append((0, 0, 0, 0, r, 0, 0, 0, 0, 0))
        for r1 in ranks:
            for r2 in ranks:
                if r1 != r2:
                    frags.append((0, 0, r1, 0, 0, r2, 0, 0))
    else:
        raise ValueError(f"unknown pattern {pattern!r}")
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


# The rank orders and patterns, in the order the C kernel numbers them.
_ORDERS = (_ascending, _descending, _largest_deficit, _ordinaries_first)
_PATTERNS = ("single", "pairs", "triplets", "burst5", "burst7", "burst10",
             "interleaved", "rank-terminated", "mixed7", "mixed10")

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
    fragment; none is longer than 10 cards.
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
    The store is rescanned only when eviction removes the top."""
    store.append(new_cp)
    top = max(top, new_cp, key=_rank)
    while len(store) > _CHECKPOINT_CAPACITY:
        victim = min(store, key=lambda cp: (cp.score, cp.age))
        store.remove(victim)
        if victim is top:
            top = max(store, key=_rank)
    return top


def _first_insertion(cp: Checkpoint, fragments: tuple, bias: int, rng: SplitMix64,
                     trick_cap: int):
    """(tests, decks): the first insertion of a fragment that keeps the loop.

    Fragments are tried in order, each at up to _MAX_POSITIONS insertion
    points shuffled when it is reached, A leading; `decks` is the grown
    (deck_a, deck_b), or None if no insertion loops.
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
            if _kernels.play_match_loops(*decks, 0, trick_cap)[0] == 1:
                return tests, decks
    return tests, None


def _first_correction(cp: Checkpoint, rng: SplitMix64, trick_cap: int):
    """(tests, decks): the first correction of an excess card that keeps the
    loop, or None for `decks`.

    Each of up to _MAX_POSITIONS excess spots, shuffled first, is tried
    with its card removed, and then each with its card retyped to each
    deficient rank.
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
            if test_nontermination(GameState(*fixed, PLAYER_A), trick_cap):
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
    it takes them, otherwise in `_rounds`, with the same result.
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


def _c_rounds(config: FactoryConfig, seed: Checkpoint, rng: SplitMix64):
    """`_rounds` on the C kernel, or None where `_kernels.factory` does not run."""
    settings = config.settings
    rows = bytes(chain.from_iterable((_ORDERS.index(order), len(patterns),
                                      *map(_PATTERNS.index, patterns))
                                     for order, patterns in STRATEGIES))
    found = _kernels.factory(
        seed.deck_a, seed.deck_b, [settings.target_count(r) for r in seed.deficits], rows,
        len(STRATEGIES), (_MAX_FRAGMENTS, _MAX_POSITIONS, _RESTART_INTERVAL,
                          _ESCAPE_THRESHOLD, _CHECKPOINT_CAPACITY),
        _RESTART_PROBABILITY, rng.state, config.budget, config.nontermination_trick_cap)
    if found is None:
        return None
    complete, deck_a, deck_b, depth, age, rounds, tests = found
    return complete, _checkpoint(settings, deck_a, deck_b, depth, age), rounds, tests


def _rounds(config: FactoryConfig, seed: Checkpoint, rng: SplitMix64):
    """(complete, best, rounds, tests): run_factory's round loop from the
    checkpoint `seed`, in Python: the reference `_kernels.factory` follows."""
    settings = config.settings
    cap = config.nontermination_trick_cap
    tests = 0
    age_counter = 0
    store = [seed]
    best = top = seed
    fragment_table = {}  # (order, pattern, deficits) -> fragments
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
        key = (order, pattern, tuple(cp.deficits.values()))
        if key not in fragment_table:
            fragment_table[key] = tuple(generate_sequences(order, pattern, cp.deficits))

        n_tests, decks = _first_insertion(cp, fragment_table[key], bias, rng, cap)
        tests += n_tests
        if decks is None and cp.excess:
            n_tests, decks = _first_correction(cp, rng, cap)
            tests += n_tests
        if decks is None:
            stuck = stuck + 1 if cp.age == last_selected_age else 1
            last_selected_age = cp.age
            continue

        grown = GameState(*decks, PLAYER_A)
        age_counter += 1
        # depth counts insertions only, the one move that adds cards
        new_cp = _checkpoint(settings, *decks, cp.depth + (grown.n_cards > cp.state.n_cards),
                             age_counter)
        top = _keep(store, top, new_cp)
        stuck = 0
        last_selected_age = -1
        if new_cp.score > best.score or (new_cp.score == best.score
                                         and new_cp.depth > best.depth):
            best = new_cp
        if new_cp.score == settings.n_total:
            return True, new_cp, rounds, tests
    return False, best, rounds, tests
