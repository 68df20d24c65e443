"""Loop-factory tests: scoring, fragments, the search loop."""

from collections import Counter

import pytest

from bmn import _kernels, factory
from bmn._rng import SplitMix64
from bmn.cycles import verify_loop
from bmn.engine import GameState, Settings, format_deck
from bmn.factory import (
    PATTERNS,
    STRATEGIES,
    STRATEGY_PATTERNS,
    FactoryConfig,
    default_seed_state,
    generate_sequences,
    missing,
    run_factory,
    score,
)
from bmn.factory import test_nontermination as check_nontermination
from conftest import BLOCKS, GOLDEN_MATCHES, require_c_kernel, state


# ---------------------------------------------------------------------------
# Composition accounting
# ---------------------------------------------------------------------------


def test_missing_examples():
    s = Settings(12, 1)
    assert missing((1, 0, 0), (0, 1, 0), s) == {0: 4, 1: 2}
    complete = state("[1CC1CC1CC]", "[C1C]")
    assert missing(complete.deck_a, complete.deck_b, s) == {0: 0, 1: 0}
    assert missing((), (), s) == {0: 8, 1: 4}


def test_missing_reports_excess_as_negative():
    s = Settings(12, 1)
    assert missing((1, 1, 1, 1, 1), (0,), s)[1] == -1


def test_score_examples():
    s = Settings(12, 1)
    assert score((1, 0, 0), (0, 1, 0), s) == 6
    assert score(state("[1CC1CC1CC]", "[C1C]").deck_a,
                 state("[1CC1CC1CC]", "[C1C]").deck_b, s) == 12
    assert score((), (), s) == 0


# ---------------------------------------------------------------------------
# Non-termination testing
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("deck_a,deck_b", BLOCKS)
def test_block_configurations_cycle(deck_a, deck_b):
    s = state(deck_a, deck_b)
    assert check_nontermination(s)
    assert verify_loop(s).period == 2


def test_all_ordinary_decks_terminate():
    assert not check_nontermination(state("[C]", "[C]"))


def test_budget_exhaustion_counts_as_not_looping():
    _, a, b, _, _ = GOLDEN_MATCHES[0]
    assert not check_nontermination(state(a, b), trick_cap=100)


# ---------------------------------------------------------------------------
# Fragment generation
# ---------------------------------------------------------------------------


def test_single_pattern_priority_order():
    frags = generate_sequences("low-rank-first", "single", {0: 3, 1: 2, 2: 1})
    assert frags.index((1,)) < frags.index((2,)) < frags.index((0,))
    frags_hi = generate_sequences("high-rank-first", "single", {0: 3, 1: 2, 2: 1})
    assert frags_hi.index((2,)) < frags_hi.index((1,))


def test_burst10_is_exactly_ten_ordinaries():
    frags = generate_sequences("ordinaries-first", "burst10", {0: 12, 1: 2})
    assert frags == [(0,) * 10]
    assert generate_sequences("ordinaries-first", "burst10", {0: 9, 1: 2}) == []


def test_rank_terminated_templates():
    frags = generate_sequences("rank1-blocks", "rank-terminated", {0: 8, 1: 2})
    assert frags == [(0, 0, 1), (0, 0, 0, 1), (0, 0, 0, 0, 1)]


def test_fragments_never_use_excess_types():
    deficits = {0: 6, 1: -1, 2: 3}
    for pattern in STRATEGY_PATTERNS["low-rank-first"]:
        for frag in generate_sequences("low-rank-first", pattern, deficits):
            assert 1 not in frag


def test_fragments_respect_deficit_multiplicity():
    deficits = {0: 2, 1: 1, 2: 4}
    for strategy in STRATEGIES:
        for pattern in STRATEGY_PATTERNS[strategy]:
            frags = generate_sequences(strategy, pattern, deficits)
            for frag in frags:
                used = Counter(frag)
                assert all(used[t] <= deficits.get(t, 0) for t in used)
                assert len(frag) <= 10
            assert len(set(frags)) == len(frags)


def test_every_pattern_is_reachable():
    reachable = {p for pats in STRATEGY_PATTERNS.values() for p in pats}
    assert reachable == set(PATTERNS)


def test_unknown_strategy_is_an_error():
    with pytest.raises(ValueError):
        generate_sequences("clever", "single", {0: 1})


# ---------------------------------------------------------------------------
# The search loop
# ---------------------------------------------------------------------------


def test_factory_completes_12_1():
    config = FactoryConfig(settings=Settings(12, 1),
                           seed_state=default_seed_state(),
                           budget=100_000, rng_seed=7)
    result = run_factory(config)
    assert result.success
    assert score(result.complete.deck_a, result.complete.deck_b,
                 Settings(12, 1)) == 12
    assert result.report.period >= 1
    assert check_nontermination(result.complete)


def test_factory_is_deterministic():
    config = FactoryConfig(settings=Settings(12, 1),
                           seed_state=default_seed_state(),
                           budget=200, rng_seed=31)
    assert run_factory(config) == run_factory(config)


def test_factory_budget_one_with_failing_first_round_returns_seed():
    # rng_seed=4 generates no accepted insertion in its single round
    config = FactoryConfig(settings=Settings(12, 1),
                           seed_state=default_seed_state(),
                           budget=1, rng_seed=4)
    result = run_factory(config)
    assert not result.success
    assert result.best.depth == 0
    assert result.best.deck_a == default_seed_state().deck_a
    assert result.best.score == 6


def test_factory_rejects_terminating_seed():
    config = FactoryConfig(settings=Settings(12, 1),
                           seed_state=state("[C]", "[C]"), budget=10)
    with pytest.raises(factory.SeedNotLoopingError):
        run_factory(config)


def test_factory_works_with_capacity_one(monkeypatch):
    monkeypatch.setattr(factory, "_CHECKPOINT_CAPACITY", 1)
    config = FactoryConfig(settings=Settings(12, 1),
                           seed_state=default_seed_state(),
                           budget=50_000, rng_seed=3)
    result = run_factory(config)
    assert result.best.score >= 6


def test_factory_eviction_heavy_result_is_pinned(monkeypatch, kernel):
    # two checkpoints kept: nearly every success evicts one
    monkeypatch.setattr(factory, "_CHECKPOINT_CAPACITY", 2)
    config = FactoryConfig(settings=Settings(20, 2), seed_state=default_seed_state(),
                           budget=3000, rng_seed=1)
    result = run_factory(config)
    assert format_deck(result.complete.deck_a) == "[1CC2C1CC1CC2C]"
    assert format_deck(result.complete.deck_b) == "[C2C1CC2]"
    assert (result.report.transient, result.report.period) == (2, 43)
    assert (result.rounds_used, result.tests_run, result.best.depth) == (571, 2192, 6)


def test_kept_top_is_the_store_maximum_when_eviction_removes_it(monkeypatch):
    # equal scores, and the oldest checkpoint is also the deepest: eviction
    # (lowest score, then oldest) removes the top (highest score, then
    # deepest, then youngest), so the store must be rescanned
    monkeypatch.setattr(factory, "_CHECKPOINT_CAPACITY", 2)

    def rank(cp):
        return cp.score, cp.depth, cp.age

    def checkpoint(score, depth, age):
        return factory.Checkpoint((1,), (0,), depth, score, age, {}, False)

    store = [checkpoint(5, 3, 0)]
    top = store[0]
    evicted_tops = 0
    for new_cp in (checkpoint(5, 1, 1), checkpoint(5, 2, 2), checkpoint(5, 0, 3),
                   checkpoint(5, 1, 4), checkpoint(6, 0, 5), checkpoint(4, 9, 6)):
        before = top
        top = factory._keep(store, top, new_cp)
        assert len(store) <= 2
        assert top is max(store, key=rank)
        evicted_tops += before not in store and rank(before) > rank(new_cp)
    assert evicted_tops == 2


def test_factory_completes_20_2_with_higher_rank_insertions():
    config = FactoryConfig(settings=Settings(20, 2),
                           seed_state=default_seed_state(),
                           budget=30_000, rng_seed=11)
    result = run_factory(config)
    assert result.success
    assert result.complete.n_cards == 20
    assert 2 in result.complete.deck_a + result.complete.deck_b


def test_factory_reports_best_partial_when_target_has_no_loops():
    # the whole (16,1) state space terminates, so completion is impossible
    # and the search must come back with its best checkpoint instead
    config = FactoryConfig(settings=Settings(16, 1),
                           seed_state=state(*BLOCKS[1]),
                           budget=300, rng_seed=11)
    result = run_factory(config)
    assert not result.success
    assert 12 <= result.best.score < 16
    assert check_nontermination(result.best.state)


# six 1s where (20,1) holds four
EXCESS_SEED = ("[1CC1CC1CC]", "[C1CC1CC1C]")


def test_factory_corrects_excess_cards():
    # insertions never add an excess card, so only a removal or retype can
    # bring the rank-1 excess down
    seed = state(*EXCESS_SEED)
    s = Settings(20, 1)
    assert missing(seed.deck_a, seed.deck_b, s)[1] == -2
    config = FactoryConfig(settings=s, seed_state=seed, budget=300, rng_seed=2)
    result = run_factory(config)
    best = result.best
    # the counts stored when the checkpoint was made are its decks' counts
    assert best.deficits == missing(best.deck_a, best.deck_b, s)
    assert best.deficits[1] > -2
    assert best.score == score(best.deck_a, best.deck_b, s) > score(seed.deck_a, seed.deck_b, s)
    assert check_nontermination(best.state)


def test_factory_20_2_result_is_pinned():
    # a change to any rng draw, to the test order or to the test count
    # shows here, on either kernel
    config = FactoryConfig(settings=Settings(20, 2), seed_state=default_seed_state(),
                           budget=3000, rng_seed=1)
    result = run_factory(config)
    assert format_deck(result.complete.deck_a) == "[1CC2C2C]"
    assert format_deck(result.complete.deck_b) == "[C2C1CC2C1CC1C]"
    assert (result.report.transient, result.report.period) == (1, 11)
    assert (result.rounds_used, result.tests_run, result.best.depth) == (598, 2846, 7)
    best = result.best
    assert best.deficits == missing(best.deck_a, best.deck_b, Settings(20, 2))
    assert best.score == score(best.deck_a, best.deck_b, Settings(20, 2)) == 20


def test_fragment_table_builds_each_entry_once(monkeypatch):
    calls = Counter()
    build = factory.generate_sequences

    def counted(strategy, pattern, deficits):
        calls[strategy, pattern, tuple(deficits.values())] += 1
        return build(strategy, pattern, deficits)

    monkeypatch.setattr(factory, "generate_sequences", counted)
    config = FactoryConfig(settings=Settings(20, 2), seed_state=default_seed_state(),
                           budget=3000, rng_seed=1)
    result = run_factory(config)
    assert calls and set(calls.values()) == {1}
    assert len(calls) < result.rounds_used
    assert (result.rounds_used, result.tests_run) == (598, 2846)


@pytest.mark.parametrize("setting, rng_seed, budget, seed", [
    ((20, 2), 1, 3000, BLOCKS[0]),
    ((20, 2), 2, 3000, BLOCKS[0]),
    ((20, 2), 3, 3000, BLOCKS[0]),
    ((28, 1), 1, 300, BLOCKS[0]),
    ((20, 1), 2, 300, EXCESS_SEED),
])
def test_factory_results_agree_on_both_kernels(monkeypatch, setting, rng_seed, budget, seed):
    require_c_kernel()
    config = FactoryConfig(settings=Settings(*setting), seed_state=state(*seed),
                           budget=budget, rng_seed=rng_seed)
    on_c = run_factory(config)
    monkeypatch.setattr(_kernels, "_ckernel", False)
    assert _kernels.backend() == "python"
    assert run_factory(config) == on_c


def test_factory_config_validation():
    with pytest.raises(ValueError):
        FactoryConfig(settings=Settings(12, 1), seed_state=default_seed_state(),
                      budget=0)
