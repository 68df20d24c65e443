"""Adaptive insertion search growing small cycling decks to full composition.

Starting from a small pair of decks that provably never terminates, the
search inserts card fragments one at a time, keeping only insertions that
preserve non-termination, until the combined decks reach the exact (N, R)
composition. Verified intermediate configurations are kept as checkpoints;
selection prefers the highest compositional score with pseudo-random
escapes and occasional restarts to leave dead ends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import engine
from ._rng import SplitMix64
from .cycles import LoopReport, verify_loop
from .engine import PLAYER_A, Deck, GameState, Looped, Settings

STRATEGIES = (
    "low-rank-first",
    "high-rank-first",
    "ordinaries-first",
    "specials-first",
    "balanced-fill",
    "cluster-specials",
    "disperse-specials",
    "rank1-blocks",
)

PATTERNS = (
    "single",
    "pairs",
    "triplets",
    "burst5",
    "burst7",
    "burst10",
    "interleaved",
    "rank-terminated",
    "mixed7",
    "mixed10",
)

# Patterns each strategy draws from; every pattern is reachable somewhere.
STRATEGY_PATTERNS = {
    "low-rank-first": ("single", "pairs", "triplets", "rank-terminated", "mixed7", "burst5"),
    "high-rank-first": ("single", "pairs", "triplets", "rank-terminated", "mixed7", "burst5"),
    "ordinaries-first": ("single", "pairs", "triplets", "burst5", "burst7", "burst10"),
    "specials-first": ("single", "pairs", "triplets", "interleaved", "mixed7"),
    "balanced-fill": ("single", "pairs", "triplets", "mixed7", "mixed10", "burst5"),
    "cluster-specials": ("single", "pairs", "triplets", "mixed7"),
    "disperse-specials": ("single", "interleaved", "mixed7", "mixed10", "rank-terminated"),
    "rank1-blocks": ("single", "triplets", "rank-terminated"),
}

_MAX_FRAGMENTS = 12     # fragments tried per round
_MAX_POSITIONS = 40     # insertion points sampled per fragment
_RESTART_INTERVAL = 50  # rounds between restart draws
_RESTART_PROBABILITY = 0.2
_ESCAPE_THRESHOLD = 5   # fruitless rounds on one checkpoint before escaping
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
    strategy_id: str
    age: int            # creation counter, monotonically increasing

    @property
    def state(self) -> GameState:
        return GameState(self.deck_a, self.deck_b, PLAYER_A)


@dataclass(frozen=True)
class FactoryConfig:
    settings: Settings
    seed_state: GameState
    budget: int                       # exploration rounds
    rng_seed: int = 0
    checkpoint_capacity: int = 1500
    nontermination_trick_cap: int = engine.DEFAULT_BATCH_TRICKS

    def __post_init__(self):
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        if self.checkpoint_capacity < 1:
            raise ValueError("checkpoint_capacity must be >= 1")


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
    """True only for a proven cycle within trick_cap.

    Hitting the budget counts as False, so every positive answer is backed
    by an actual recurrence.
    """
    return isinstance(engine.play_match(state, trick_cap), Looped)


# ---------------------------------------------------------------------------
# Fragment generation
# ---------------------------------------------------------------------------


def _rank_priority(strategy: str, deficits: dict) -> list:
    """Deficient special ranks in the order the strategy wants them filled."""
    ranks = sorted(r for r, d in deficits.items() if r >= 1 and d > 0)
    if strategy == "high-rank-first":
        return ranks[::-1]
    if strategy == "balanced-fill":
        # largest relative deficit first (target is 4 per special rank)
        return sorted(ranks, key=lambda r: (-deficits[r] / 4, r))
    if strategy == "rank1-blocks":
        return ([1] if 1 in ranks else []) + [r for r in ranks if r != 1]
    return ranks


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
    need = {}
    for card in fragment:
        need[card] = need.get(card, 0) + 1
    return all(deficits.get(card, 0) >= used for card, used in need.items())


def generate_sequences(strategy: str, pattern: str, deficits: dict) -> list:
    """Candidate insertion fragments for one exploration round.

    Fragments follow the pattern's templates with special slots filled in
    the strategy's priority order, restricted to deficient types with
    multiplicity (nothing in excess is ever inserted, so a successful
    insertion always raises the compositional score by the fragment length).
    Fragment order is fully determined by strategy and pattern.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    ranks = _rank_priority(strategy, deficits)
    frags = [f for f in _pattern_fragments(pattern, ranks)
             if len(f) <= 10 and _fits_deficits(f, deficits)]
    if strategy == "ordinaries-first":
        frags.sort(key=lambda f: (any(c > 0 for c in f),))  # all-C fragments first
    seen = set()
    unique = []
    for f in frags:
        if f not in seen:
            seen.add(f)
            unique.append(f)
    return unique[:_MAX_FRAGMENTS]


# ---------------------------------------------------------------------------
# Search loop
# ---------------------------------------------------------------------------


def _evict(store: list, capacity: int) -> None:
    while len(store) > capacity:
        victim = min(store, key=lambda cp: (cp.score, cp.age))
        store.remove(victim)


def _select(store: list, rng: SplitMix64, escape: bool) -> Checkpoint:
    if escape and len(store) > 1:
        return store[rng.below(len(store))]
    return max(store, key=lambda cp: (cp.score, cp.depth, cp.age))


def _try_insertions(cp: Checkpoint, fragments: list, bias: int,
                    trick_cap: int, rng: SplitMix64,
                    counter: list) -> Optional[tuple]:
    """First (deck_a, deck_b) insertion that keeps the match non-terminating."""
    for f_idx, frag in enumerate(fragments):
        into_a = bias == 0 or (bias == 2 and f_idx % 2 == 0)
        deck = cp.deck_a if into_a else cp.deck_b
        positions = list(range(len(deck) + 1))
        rng.shuffle(positions)
        for pos in positions[:_MAX_POSITIONS]:
            new_deck = deck[:pos] + frag + deck[pos:]
            da = new_deck if into_a else cp.deck_a
            db = cp.deck_b if into_a else new_deck
            counter[0] += 1
            if test_nontermination(GameState(da, db, PLAYER_A), trick_cap):
                return da, db
    return None


def _try_corrections(cp: Checkpoint, deficits: dict,
                     trick_cap: int, rng: SplitMix64,
                     counter: list) -> Optional[tuple]:
    """Remove or retype one excess card, keeping non-termination."""
    spots = [(which, i)
             for which, deck in ((0, cp.deck_a), (1, cp.deck_b))
             for i, card in enumerate(deck)
             if deficits.get(card, 0) < 0]
    if not spots:
        return None
    rng.shuffle(spots)
    spots = spots[:_MAX_POSITIONS]
    deficient = sorted(r for r, d in deficits.items() if d > 0)

    def decks_with(which, deck):
        return (deck, cp.deck_b) if which == 0 else (cp.deck_a, deck)

    for which, i in spots:
        deck = cp.deck_a if which == 0 else cp.deck_b
        shorter = deck[:i] + deck[i + 1:]
        if not shorter:
            continue  # never empty a deck
        da, db = decks_with(which, shorter)
        counter[0] += 1
        if test_nontermination(GameState(da, db, PLAYER_A), trick_cap):
            return da, db
    for which, i in spots:
        deck = cp.deck_a if which == 0 else cp.deck_b
        for rank in deficient:
            swapped = deck[:i] + (rank,) + deck[i + 1:]
            da, db = decks_with(which, swapped)
            counter[0] += 1
            if test_nontermination(GameState(da, db, PLAYER_A), trick_cap):
                return da, db
    return None


def run_factory(config: FactoryConfig) -> FactoryResult:
    """Grow the seed toward a complete non-terminating (N, R) configuration.

    One round is: pick a checkpoint, pick a strategy/pattern/bias, and try
    the generated fragments at sampled positions until one insertion keeps
    the match looping. Stops at a composition-complete configuration (with
    its verified LoopReport) or when the round budget runs out, in which
    case the highest-scoring checkpoint found is reported. Fully
    deterministic given the config.
    """
    settings = config.settings
    cap = config.nontermination_trick_cap
    seed = config.seed_state
    if not test_nontermination(seed, cap):
        raise SeedNotLoopingError("seed configuration does not cycle")

    rng = SplitMix64.for_stream(config.rng_seed, 0)
    tests = [0]

    def fresh_seed_cp(age):
        return Checkpoint(seed.deck_a, seed.deck_b, depth=0,
                          score=score(seed.deck_a, seed.deck_b, settings),
                          strategy_id="seed", age=age)

    age_counter = 0
    store = [fresh_seed_cp(age_counter)]
    best = store[0]
    last_selected_age = -1
    stuck = 0

    rounds = 0
    while rounds < config.budget:
        rounds += 1
        if (rounds % _RESTART_INTERVAL == 0
                and rng.random() < _RESTART_PROBABILITY):
            age_counter += 1
            store = [fresh_seed_cp(age_counter)]
            last_selected_age = -1
            stuck = 0

        escape = stuck >= _ESCAPE_THRESHOLD
        cp = _select(store, rng, escape)
        if escape:
            stuck = 0

        strategy = STRATEGIES[rng.below(len(STRATEGIES))]
        patterns = STRATEGY_PATTERNS[strategy]
        pattern = patterns[rng.below(len(patterns))]
        bias = rng.below(3)  # 0: deck A, 1: deck B, 2: alternate
        deficits = missing(cp.deck_a, cp.deck_b, settings)
        fragments = generate_sequences(strategy, pattern, deficits)

        grown = _try_insertions(cp, fragments, bias, cap, rng, tests)
        new_depth = cp.depth + 1
        if grown is None:
            if any(d < 0 for d in deficits.values()):
                grown = _try_corrections(cp, deficits, cap, rng, tests)
                new_depth = cp.depth  # depth counts insertions only

        if grown is None:
            if cp.age == last_selected_age:
                stuck += 1
            else:
                stuck = 1
            last_selected_age = cp.age
            continue

        da, db = grown
        age_counter += 1
        new_cp = Checkpoint(da, db, depth=new_depth,
                            score=score(da, db, settings),
                            strategy_id=strategy, age=age_counter)
        store.append(new_cp)
        _evict(store, config.checkpoint_capacity)
        stuck = 0
        last_selected_age = -1
        if new_cp.score > best.score or (new_cp.score == best.score
                                         and new_cp.depth > best.depth):
            best = new_cp
        if new_cp.score == settings.n_total:
            report = verify_loop(new_cp.state, cap)
            return FactoryResult(complete=new_cp.state, report=report,
                                 best=new_cp, rounds_used=rounds,
                                 tests_run=tests[0])

    return FactoryResult(complete=None, report=None, best=best,
                         rounds_used=rounds, tests_run=tests[0])
