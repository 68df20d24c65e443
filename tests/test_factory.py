"""Loop-factory tests: scoring, fragments, the search loop."""

import random
from collections import Counter

import pytest

from bmn import _kernels, factory
from bmn._rng import SplitMix64
from bmn.cycles import verify_loop
from bmn.engine import GameState, Settings, format_deck
from bmn.factory import (
    STRATEGIES,
    FactoryConfig,
    default_seed_state,
    generate_sequences,
    missing,
    run_factory,
    score,
)
from bmn.factory import test_nontermination as check_nontermination
from conftest import BLOCKS, GOLDEN_MATCHES, NONTERMINATING, require_c_kernel, state


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


# the table's four rank orders, by the row that first draws each
ASCENDING, DESCENDING, ORDINARIES_FIRST = (order for order, _ in STRATEGIES[:3])
LARGEST_DEFICIT = STRATEGIES[4][0]
PATTERNS = ("single", "pairs", "triplets", "burst5", "burst7", "burst10",
            "interleaved", "rank-terminated", "mixed7", "mixed10")


def test_strategy_table_rows():
    # eight rows, drawn with rng.below(8); five share the ascending order
    assert len(STRATEGIES) == 8
    assert [order for order, _ in STRATEGIES] == [
        ASCENDING, DESCENDING, ORDINARIES_FIRST, ASCENDING, LARGEST_DEFICIT,
        ASCENDING, ASCENDING, ASCENDING]
    assert len({ASCENDING, DESCENDING, ORDINARIES_FIRST, LARGEST_DEFICIT}) == 4
    assert all(patterns and set(patterns) <= set(PATTERNS) for _, patterns in STRATEGIES)


def test_single_pattern_priority_order():
    deficits = {0: 3, 1: 2, 2: 1}
    frags = generate_sequences(ASCENDING, "single", deficits)
    assert frags.index((1,)) < frags.index((2,)) < frags.index((0,))
    frags_hi = generate_sequences(DESCENDING, "single", deficits)
    assert frags_hi.index((2,)) < frags_hi.index((1,))
    assert generate_sequences(ORDINARIES_FIRST, "single", deficits) == [(0,), (1,), (2,)]


def test_largest_deficit_order_breaks_ties_by_rank():
    deficits = {0: 9, 1: 1, 2: 3, 3: 1, 4: 3}
    assert generate_sequences(LARGEST_DEFICIT, "single", deficits) == [
        (2,), (4,), (1,), (3,), (0,)]


def test_ordinaries_first_keeps_the_all_ordinary_fragment_past_the_cut():
    # 13 pair templates for four ranks: the ascending order cuts (0, 0) at
    # twelve, ordinaries first tries it first and keeps the rest in order
    deficits = {0: 9, 1: 2, 2: 2, 3: 2, 4: 2}
    ascending = generate_sequences(ASCENDING, "pairs", deficits)
    assert len(ascending) == 12 and (0, 0) not in ascending
    assert generate_sequences(ORDINARIES_FIRST, "pairs", deficits) == [(0, 0)] + ascending[:11]


def test_burst10_is_exactly_ten_ordinaries():
    frags = generate_sequences(ORDINARIES_FIRST, "burst10", {0: 12, 1: 2})
    assert frags == [(0,) * 10]
    assert generate_sequences(ORDINARIES_FIRST, "burst10", {0: 9, 1: 2}) == []


def test_rank_terminated_templates():
    frags = generate_sequences(ASCENDING, "rank-terminated", {0: 8, 1: 2})
    assert frags == [(0, 0, 1), (0, 0, 0, 1), (0, 0, 0, 0, 1)]


def test_fragments_never_use_excess_types():
    deficits = {0: 6, 1: -1, 2: 3}
    for pattern in STRATEGIES[0][1]:
        for frag in generate_sequences(ASCENDING, pattern, deficits):
            assert 1 not in frag


def test_fragments_respect_deficit_multiplicity():
    deficits = {0: 2, 1: 1, 2: 4}
    for order, patterns in STRATEGIES:
        for pattern in patterns:
            frags = generate_sequences(order, pattern, deficits)
            for frag in frags:
                used = Counter(frag)
                assert all(used[t] <= deficits.get(t, 0) for t in used)
                assert len(frag) <= 10
            assert len(set(frags)) == len(frags)


def test_every_pattern_is_reachable():
    reachable = {p for _, patterns in STRATEGIES for p in patterns}
    assert reachable == set(PATTERNS)
    deficits = {0: 36, 1: 4, 2: 4, 3: 4, 4: 4}
    assert all(generate_sequences(ASCENDING, p, deficits) for p in PATTERNS)


def test_unknown_pattern_is_an_error():
    with pytest.raises(ValueError, match="unknown pattern"):
        generate_sequences(ASCENDING, "clever", {0: 1})


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


def test_factory_tests_the_seed_with_a_leading(kernel):
    # every checkpoint plays with A leading, the seed too: this seed loops
    # when B leads, but ends in two tricks when A leads
    seed = state("[1C]", "[CC1C]", "B")
    assert check_nontermination(seed)
    assert not check_nontermination(state("[1C]", "[CC1C]"))
    config = FactoryConfig(settings=Settings(12, 1), seed_state=seed, budget=1, rng_seed=3)
    with pytest.raises(factory.SeedNotLoopingError):
        run_factory(config)


def test_factory_works_with_capacity_one(monkeypatch, kernel):
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
    # the Python round loop: the C kernel builds its fragments each round,
    # out of reach of the monkeypatch
    monkeypatch.setattr(_kernels, "_ckernel", False)
    calls = Counter()
    build = factory.generate_sequences

    def counted(order, pattern, deficits):
        calls[order, pattern, tuple(deficits.values())] += 1
        return build(order, pattern, deficits)

    monkeypatch.setattr(factory, "generate_sequences", counted)
    config = FactoryConfig(settings=Settings(20, 2), seed_state=default_seed_state(),
                           budget=3000, rng_seed=1)
    result = run_factory(config)
    assert calls and set(calls.values()) == {1}
    assert len(calls) < result.rounds_used
    assert (result.rounds_used, result.tests_run) == (598, 2846)


def _python_rounds(monkeypatch):
    """The calls that run_factory makes from now on to its Python round loop."""
    calls, rounds = [], factory._rounds
    monkeypatch.setattr(factory, "_rounds", lambda *args: calls.append(args) or rounds(*args))
    return calls


def _on_both_kernels(monkeypatch, configs):
    """run_factory's results for `configs` on the C kernel, each run checked
    to have stayed in C, and then on the Python kernel."""
    require_c_kernel()
    in_python = _python_rounds(monkeypatch)
    on_c = [run_factory(config) for config in configs]
    assert in_python == []
    monkeypatch.setattr(_kernels, "_ckernel", False)
    return on_c, [run_factory(config) for config in configs]


# (setting, rng seed, budget, seed decks, (rounds used, tests run)): a change
# to any rng draw, to the test order or to the test count shows here
AGREE_CASES = [
    ((20, 2), 1, 3000, BLOCKS[0], (598, 2846)),
    ((20, 2), 2, 3000, BLOCKS[0], (43, 111)),
    ((20, 2), 3, 3000, BLOCKS[0], (1261, 5792)),
    ((28, 1), 1, 300, BLOCKS[0], (300, 1088)),
    ((20, 1), 2, 300, EXCESS_SEED, (300, 1445)),
    ((20, 2), 4, 3000, BLOCKS[0], (863, 4326)),
    ((20, 2), 5, 3000, BLOCKS[0], (1259, 5922)),
    ((20, 2), 6, 3000, BLOCKS[0], (3000, 13612)),  # partial
    ((20, 2), 7, 3000, BLOCKS[0], (397, 1582)),
    ((20, 2), 8, 3000, BLOCKS[0], (1402, 6510)),
]


# the ids leave out the expected counts, so that a case keeps its name
@pytest.mark.parametrize("setting, rng_seed, budget, seed, counts", AGREE_CASES,
                         ids=[f"setting{i}-{rng_seed}-{budget}-seed{i}"
                              for i, (_, rng_seed, budget, _, _) in enumerate(AGREE_CASES)])
def test_factory_results_agree_on_both_kernels(monkeypatch, setting, rng_seed, budget, seed,
                                               counts):
    config = FactoryConfig(settings=Settings(*setting), seed_state=state(*seed),
                           budget=budget, rng_seed=rng_seed)
    (on_c,), (on_python,) = _on_both_kernels(monkeypatch, [config])
    assert (on_c.rounds_used, on_c.tests_run) == counts
    assert on_c.success == (counts[0] < budget)
    assert on_python == on_c


# (rounds used, tests run) for rng seeds 1-5 at budget 300, measured before
# the round loop moved to C; (44,9) draws mixed10's two-rank templates
# over nine ranks
SWEEP = {
    (28, 3): ((300, 6743), (14, 188), (300, 4517), (300, 3716), (40, 713)),
    (40, 3): ((300, 12025), (300, 4158), (300, 18241), (300, 17417), (300, 11147)),
    (52, 4): ((300, 31257), (300, 21550), (300, 18394), (300, 13643), (300, 26077)),
    (44, 9): ((300, 6635), (300, 6479), (300, 6801), (300, 6825), (300, 6672)),
}


@pytest.mark.parametrize("setting", SWEEP, ids="{0[0]},{0[1]}".format)
def test_factory_sweep_agrees_on_both_kernels(monkeypatch, setting):
    configs = [FactoryConfig(settings=Settings(*setting), seed_state=default_seed_state(),
                             budget=300, rng_seed=rng_seed) for rng_seed in range(1, 6)]
    on_c, on_python = _on_both_kernels(monkeypatch, configs)
    assert [(r.rounds_used, r.tests_run) for r in on_c] == list(SWEEP[setting])
    assert on_python == on_c


# tuning constants set apart from their defaults: both kernels read them
# at each call; one insertion point or one fragment a round, every point,
# frequent restarts and escapes, a store of three
CONSTANTS = [
    {"_MAX_POSITIONS": 1},
    {"_MAX_POSITIONS": 65, "_MAX_FRAGMENTS": 1},
    {"_MAX_POSITIONS": 100_000, "_MAX_FRAGMENTS": 100},
    {"_RESTART_INTERVAL": 3, "_RESTART_PROBABILITY": 0.9, "_ESCAPE_THRESHOLD": 1},
    {"_CHECKPOINT_CAPACITY": 3, "_ESCAPE_THRESHOLD": 2},
]


@pytest.mark.parametrize("constants", CONSTANTS, ids=lambda c: "-".join(c))
def test_factory_constants_reach_both_kernels(monkeypatch, constants):
    # published loops grown toward twelve more cards and one more rank, and
    # the excess seed, at random rng seeds, budgets and trick caps at which
    # the seed loops
    rng = random.Random(str(constants))
    seeds = [(Settings(s.n_total + 12, s.max_rank + 1), state(*pair))
             for s, pairs in ((Settings.parse(k), v) for k, v in NONTERMINATING.items())
             for pair in pairs]
    configs = []
    for settings, seed in seeds + [(Settings(20, 1), state(*EXCESS_SEED))] * 3:
        cap = rng.choice([64, 1000, 100_000])
        if check_nontermination(seed, cap):
            configs.append(FactoryConfig(settings=settings, seed_state=seed,
                                         budget=rng.choice([20, 60]),
                                         rng_seed=rng.getrandbits(64),
                                         nontermination_trick_cap=cap))
    assert len(configs) >= 12
    defaults = [run_factory(config) for config in configs]
    for name, value in constants.items():
        monkeypatch.setattr(factory, name, value)
    on_c, on_python = _on_both_kernels(monkeypatch, configs)
    assert on_python == on_c != defaults
    assert any(r.best.depth for r in on_c)


@pytest.mark.parametrize("seed, in_c", [(default_seed_state(), True),
                                        (state(*BLOCKS[2]), False)])
def test_factory_past_1024_cards_plays_in_python(monkeypatch, seed, in_c):
    # a checkpoint gains only the types its seed lacks, up to the
    # composition: in (1024,1) the default seed's hold 1024 cards at most,
    # which fits the C kernel, but BLOCKS[2]'s may keep its two excess 1s
    # beside 1022 other cards, which does not
    require_c_kernel()
    config = FactoryConfig(settings=Settings(1024, 1), seed_state=seed, budget=20,
                           rng_seed=1)
    in_python = _python_rounds(monkeypatch)
    result = run_factory(config)
    assert len(in_python) == (not in_c)
    monkeypatch.setattr(_kernels, "_ckernel", False)
    assert run_factory(config) == result


def test_factory_config_validation():
    with pytest.raises(ValueError, match="budget"):
        FactoryConfig(settings=Settings(12, 1), seed_state=default_seed_state(),
                      budget=0)
    for cap in (0, -1):
        with pytest.raises(ValueError, match="nontermination_trick_cap"):
            FactoryConfig(settings=Settings(12, 1), seed_state=default_seed_state(),
                          budget=10, nontermination_trick_cap=cap)
