"""Cycle verification and balanced-entry scanning tests."""

import random

import pytest

from bmn import cycles, engine
from bmn.engine import (
    PLAYER_A,
    PLAYER_B,
    GameState,
    Looped,
    Settings,
    format_deck,
    play_match,
    play_trick,
)
from conftest import (
    BALANCED_12_1,
    BALANCED_28_3,
    INF_52_4,
    NONTERMINATING,
    random_playable_state,
    state,
)


@pytest.mark.parametrize("transient, period", [(4, 61), (4, 63), (3, 62)])
def test_verify_loop_rejects_a_cycle_that_does_not_close(monkeypatch, transient, period):
    # the replay checks the detector: a wrong cycle does not close on itself
    monkeypatch.setattr(engine, "play_match", lambda s, cap: Looped(transient, period))
    with pytest.raises(RuntimeError):
        cycles.verify_loop(state(*INF_52_4))


def test_verify_loop_block_configuration():
    report = cycles.verify_loop(state("[1CC]", "[C1C]"))
    assert report.transient == 1
    assert report.period == 2
    assert len(report.states_in_loop) == 2
    assert report.balanced_entries == ()


def test_verify_loop_roundtrip_replay():
    report = cycles.verify_loop(state(*NONTERMINATING["28,3"][0]))
    for start in report.states_in_loop:
        walk = start
        for _ in range(report.period):
            walk = play_trick(walk).next_state
        assert walk == start


def test_verify_loop_rejects_terminating_decks():
    with pytest.raises(cycles.NotALoopError, match="terminated after"):
        cycles.verify_loop(state("[2]", "[C]"))


def test_verify_loop_budget():
    with pytest.raises(cycles.UndecidedError):
        cycles.verify_loop(state(*NONTERMINATING["52,1"][0]), max_tricks=3)


def test_standardize_swaps_roles_once():
    s = GameState((1, 0), (0, 0), PLAYER_B)
    std = cycles.standardize(s)
    assert std == GameState((0, 0), (1, 0), PLAYER_A)
    assert cycles.standardize(std) == std


def test_standardize_preserves_dynamics():
    rng = random.Random(13)
    for _ in range(100):
        s = random_playable_state(rng, max_cards=16, max_rank=2)
        std = cycles.standardize(s)
        r1, r2 = play_trick(s), play_trick(std)
        if s.leader == PLAYER_A:
            assert r1 == r2
        else:
            assert r1.winner == ("A" if r2.winner == "B" else "B")
            assert r1.next_state.deck_a == r2.next_state.deck_b
            assert r1.next_state.deck_b == r2.next_state.deck_a
            assert r1.pile_in_play_order == r2.pile_in_play_order


def test_scan_finds_published_balanced_12_1():
    report = cycles.verify_loop(state("[C1C1CC1CC]", "[C1C]"))
    found = {(format_deck(e.deck_a), format_deck(e.deck_b))
             for e in cycles.scan_balanced_entries(report, Settings(12, 1))}
    assert found == {BALANCED_12_1[1], BALANCED_12_1[2]}


def test_scan_finds_all_published_balanced_28_3():
    report = cycles.verify_loop(state(*NONTERMINATING["28,3"][0]))
    found = {(format_deck(e.deck_a), format_deck(e.deck_b))
             for e in cycles.scan_balanced_entries(report, Settings(28, 3))}
    assert found == set(BALANCED_28_3)


def test_scan_is_empty_for_always_unbalanced_loop():
    # the classic 52-card infinite match never returns to an even split
    report = cycles.verify_loop(state(*INF_52_4))
    assert cycles.scan_balanced_entries(report, Settings(52, 4)) == ()


def test_balanced_entries_restart_their_loop():
    report = cycles.verify_loop(state("[C1C1CC1CC]", "[C1C]"))
    for entry in cycles.scan_balanced_entries(report, Settings(12, 1)):
        outcome = play_match(entry)
        assert isinstance(outcome, Looped)
        assert outcome.transient == 0


def test_loop_report_text_listing():
    report = cycles.verify_loop(state("[C1C1CC1CC]", "[C1C]"))
    text = report.to_text()
    lines = text.splitlines()
    assert lines[0] == "transient = 2"
    assert lines[1] == "period = 16"
    assert len(lines) == 2 + len(report.balanced_entries)
    assert all(line.startswith("balanced trick=") for line in lines[2:])
