"""Engine tests: deck notation, trick rules, match execution, value types."""

import dataclasses
import random
from collections import Counter

import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from bmn import backward, cycles, engine, factory, simulator, stats
from bmn.engine import (
    PLAYER_A,
    PLAYER_B,
    BudgetExceeded,
    DeckParseError,
    GameState,
    Looped,
    Settings,
    Terminated,
    UnplayableStateError,
    format_deck,
    parse_deck,
    play_match,
    play_trick,
)
from conftest import random_playable_state, state
from loop_oracle import reference_trick


# ---------------------------------------------------------------------------
# Settings
# ---------------------------------------------------------------------------


def test_settings_derived_counts():
    s = Settings(40, 3)
    assert (s.n_special, s.n_ordinary, s.half) == (12, 28, 20)
    assert s.target_count(0) == 28
    assert s.target_count(3) == 4


@pytest.mark.parametrize("n,r", [(41, 3), (2, 1), (40, 0), (40, 10), (10, 3)])
def test_settings_rejects_invalid(n, r):
    with pytest.raises(ValueError):
        Settings(n, r)


def test_settings_parse():
    assert Settings.parse("40,3") == Settings(40, 3)
    with pytest.raises(ValueError):
        Settings.parse("40;3")
    # each part is an integer as engine.parse_int reads it: no other digits
    for text in ("4_0,3", "40,\u0663", "\uff14\uff10,3", "+40,3", "40, 3"):
        with pytest.raises(ValueError):
            Settings.parse(text)


# ---------------------------------------------------------------------------
# Deck notation
# ---------------------------------------------------------------------------


def test_parse_deck_examples():
    assert parse_deck("[C1C]") == (0, 1, 0)
    assert parse_deck("[]") == ()
    assert parse_deck("1CC1CC1CC") == (1, 0, 0, 1, 0, 0, 1, 0, 0)
    assert parse_deck(" [C, 1 C]") == (0, 1, 0)


def test_parse_deck_rejects_bad_character():
    with pytest.raises(DeckParseError, match="'X'"):
        parse_deck("[C1XC]")
    with pytest.raises(DeckParseError, match="'0'"):
        parse_deck("C0C")
    # digits other than ASCII 1..9: Arabic-Indic and fullwidth 3, superscript 2
    for ch in ("\u0663", "\uff13", "\u00b2"):
        with pytest.raises(DeckParseError, match=repr(ch)):
            parse_deck(f"[C1{ch}C]")


def test_parse_deck_enforces_max_rank():
    s = Settings(40, 3)
    assert parse_deck("[123]", s) == (1, 2, 3)
    with pytest.raises(DeckParseError, match="'4'"):
        parse_deck("[C4C]", s)


def test_format_deck_examples():
    assert format_deck((0, 1, 0)) == "[C1C]"
    assert format_deck(()) == "[]"
    assert format_deck((1, 0, 0)) == "[1CC]"


@given(st.lists(st.integers(min_value=0, max_value=9), max_size=30))
def test_deck_roundtrip(cards):
    deck = tuple(cards)
    assert parse_deck(format_deck(deck)) == deck


# ---------------------------------------------------------------------------
# Tricks
# ---------------------------------------------------------------------------


def test_trick_special_lead():
    # leader's special goes unanswered: [1CC...C2] vs [C1C]
    result = play_trick(state("[1CCCCCCC2]", "[C1C]"))
    assert result.winner == PLAYER_A
    assert result.next_state == state("[CCCCCCC21C]", "[1C]")
    assert result.pile_in_play_order == (1, 0)
    assert len(result.pile_in_play_order) == 2
    assert not result.terminal


def test_trick_challenge_chain():
    # a different start reaching the same output: non-injectivity in action
    result = play_trick(state("[C1CCCCCC]", "[2C1C]"))
    assert result.winner == PLAYER_A
    assert result.next_state == state("[CCCCCCC21C]", "[1C]")
    assert result.pile_in_play_order == (0, 2, 1, 0)


def test_trick_exhaustion_mid_challenge():
    # B must answer two cards but holds one: A collects, match over
    result = play_trick(state("[2]", "[C]"))
    assert result.winner == PLAYER_A
    assert result.terminal
    assert result.next_state == state("[2C]", "[]")


def test_trick_requires_playable_state():
    with pytest.raises(UnplayableStateError):
        play_trick(GameState((), (0, 1), PLAYER_A))


def test_block_configuration_enters_two_trick_loop():
    s = state("[1CC]", "[C1C]")
    after1 = play_trick(s).next_state
    after2 = play_trick(after1).next_state
    after3 = play_trick(after2).next_state
    assert after3 == after1
    assert after1 != after2


@hyp_settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_trick_conserves_cards(seed):
    rng = random.Random(seed)
    s = random_playable_state(rng)
    result = play_trick(s)
    before = Counter(s.deck_a) + Counter(s.deck_b)
    after = Counter(result.next_state.deck_a) + Counter(result.next_state.deck_b)
    assert before == after


@hyp_settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_trick_is_deterministic(seed):
    rng = random.Random(seed)
    s = random_playable_state(rng)
    assert play_trick(s) == play_trick(s)


@hyp_settings(max_examples=500, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.sampled_from([PLAYER_A, PLAYER_B]),
       st.sampled_from([6, 12, 26]))
def test_trick_matches_reference(seed, leader, max_cards):
    # play_trick runs the match kernel's trick loop; the reference writes
    # the rule out on its own
    s = random_playable_state(random.Random(seed), max_cards=max_cards)
    s = GameState(s.deck_a, s.deck_b, leader)
    assert play_trick(s) == reference_trick(s)


@hyp_settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_winner_deck_is_suffix_plus_pile(seed):
    # winner's new deck = what they did not play, then the pile in play order
    rng = random.Random(seed)
    s = random_playable_state(rng)
    result = play_trick(s)
    pre = s.deck_of(result.winner)
    post = result.next_state.deck_of(result.winner)
    played = len(pre) + len(result.pile_in_play_order) - len(post)
    assert post == pre[played:] + result.pile_in_play_order


@hyp_settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_winner_deck_ends_with_block(seed):
    # non-terminal tricks leave [rank-k, C*k] at the winner's bottom
    rng = random.Random(seed)
    s = random_playable_state(rng)
    result = play_trick(s)
    if result.terminal:
        return
    deck = result.next_state.deck_of(result.winner)
    k = 0
    while k < len(deck) and deck[len(deck) - 1 - k] == 0:
        k += 1
    assert 1 <= k <= 9
    assert deck[len(deck) - 1 - k] == k


# ---------------------------------------------------------------------------
# Matches
# ---------------------------------------------------------------------------


def test_play_match_terminates_with_final_trick_counted():
    outcome = play_match(state("[2]", "[C]"))
    assert outcome == Terminated(winner=PLAYER_A, tricks=1)


def test_play_match_detects_block_loop():
    outcome = play_match(state("[1CC]", "[C1C]"))
    assert outcome == Looped(transient=1, period=2)


def test_play_match_loop_is_structural():
    s = state("[1CC1CC]", "[C1CC1C]")
    outcome = play_match(s)
    assert isinstance(outcome, Looped)
    walk = s
    for _ in range(outcome.transient):
        walk = play_trick(walk).next_state
    entry = walk
    for _ in range(outcome.period):
        walk = play_trick(walk).next_state
    assert walk == entry


def test_play_match_budget():
    outcome = play_match(state("[1CC]", "[C1C]"), max_tricks=5, detect_loops=False)
    assert outcome == BudgetExceeded(tricks_played=5)


def test_play_match_fast_path_matches_stepping():
    rng = random.Random(11)
    for _ in range(50):
        s = random_playable_state(rng, max_cards=20, max_rank=3)
        fast = play_match(s, max_tricks=3000, detect_loops=False)
        slow = play_match(s, max_tricks=3000, detect_loops=True)
        if isinstance(slow, Looped):
            assert isinstance(fast, BudgetExceeded)
        else:
            assert fast == slow


def test_play_match_validates_input():
    with pytest.raises(UnplayableStateError):
        play_match(GameState((0,), (), PLAYER_A))
    with pytest.raises(ValueError):
        play_match(state("[1CC]", "[C1C]"), max_tricks=0)


# ---------------------------------------------------------------------------
# Value types
# ---------------------------------------------------------------------------


def test_values_hash_as_their_field_tuples():
    # so sets and dicts of states iterate in the same order as plain tuples do
    a, b = parse_deck("[1CC]"), parse_deck("[C1C]")
    assert hash(GameState(a, b, PLAYER_B)) == hash((a, b, PLAYER_B))
    assert GameState(a, b) == (a, b, PLAYER_A)
    assert hash(Looped(1, 2)) == hash((1, 2))
    assert hash(Terminated(PLAYER_A, 5)) == hash((PLAYER_A, 5))


@pytest.mark.parametrize("value, name", [
    (GameState((1,), (0,)), "leader"),
    (Terminated(PLAYER_A, 5), "tricks"),
    (Looped(1, 2), "period"),
    (BudgetExceeded(3), "tricks_played"),
])
def test_value_fields_cannot_be_assigned(value, name):
    with pytest.raises(AttributeError):
        setattr(value, name, 0)


def test_outcome_reprs():
    assert repr(Terminated("A", 5)) == "Terminated(winner='A', tricks=5)"
    assert repr(Looped(1, 2)) == "Looped(transient=1, period=2)"
    assert repr(BudgetExceeded(7)) == "BudgetExceeded(tricks_played=7)"


def test_only_the_validated_configs_are_dataclasses():
    modules = (engine, cycles, factory, stats, simulator, backward)
    found = {name for module in modules for name, value in vars(module).items()
             if isinstance(value, type) and dataclasses.is_dataclass(value)}
    assert found == {"Settings", "SimConfig", "FactoryConfig", "BackwardSearchConfig"}
