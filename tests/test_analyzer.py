"""Analyzer tests: separation, entropy, bounds, per-trick traces."""

import math
import random

import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from bmn import analyzer
from bmn.analyzer import (
    entropy_bounds,
    interval_lengths,
    mean_separation,
    position_entropy,
    special_positions,
    trace_match,
)
from bmn.engine import Looped, Settings, Terminated, parse_deck
from bmn.simulator import SimConfig, match_state
from bmn.engine import play_match
from conftest import INF_40_1, state

decks = st.lists(st.integers(0, 4), min_size=1, max_size=40).map(tuple)


# ---------------------------------------------------------------------------
# Separation
# ---------------------------------------------------------------------------


def test_interval_lengths_basics():
    assert interval_lengths(parse_deck("[C1CC1C]")) == (1, 2, 1)
    assert interval_lengths((0, 0, 0)) == (3,)
    assert interval_lengths((1, 1)) == (0, 0, 0)
    assert special_positions(parse_deck("[C1CC1C]")) == (2, 5)


def test_mean_separation_examples():
    assert mean_separation(parse_deck("[C1CC1C]")) == pytest.approx(4 / 3)
    assert mean_separation((0, 0, 0, 0, 0)) == 5.0


def test_mean_separation_full_deck_is_order_independent():
    s = Settings(52, 4)
    rng = random.Random(0)
    cards = [r for r in range(1, 5) for _ in range(4)] + [0] * 36
    expected = (52 - 16) / (16 + 1)
    for _ in range(20):
        rng.shuffle(cards)
        assert mean_separation(tuple(cards)) == pytest.approx(expected)
    assert expected == pytest.approx(36 / 17)


def test_mean_separation_empty_deck_is_an_error():
    with pytest.raises(ValueError):
        mean_separation(())


@hyp_settings(max_examples=300)
@given(decks)
def test_interval_sum_is_ordinary_count(deck):
    m, k = len(deck), sum(1 for c in deck if c > 0)
    assert sum(interval_lengths(deck)) == m - k
    assert len(interval_lengths(deck)) == k + 1


# ---------------------------------------------------------------------------
# Entropy
# ---------------------------------------------------------------------------


def test_position_entropy_examples():
    assert position_entropy((1, 1, 1)) == 0.0
    assert position_entropy(parse_deck("[C1CC1C]")) == pytest.approx(math.log(18) / 3)
    clustered = tuple([1] * 16 + [0] * 36)
    assert position_entropy(clustered) == pytest.approx(0.255, abs=1e-3)


def test_entropy_bounds_examples():
    b = entropy_bounds(52, 16)
    assert b.h_min == pytest.approx(0.255, abs=1e-3)
    assert b.h_max == pytest.approx(2.833, abs=1e-3)
    assert entropy_bounds(10, 0) == (0.0, 0.0)
    assert entropy_bounds(40, 12).h_max == pytest.approx(math.log(13), abs=1e-12)


def test_entropy_bounds_validation():
    with pytest.raises(ValueError):
        entropy_bounds(0, 0)
    with pytest.raises(ValueError):
        entropy_bounds(5, 6)


@hyp_settings(max_examples=500)
@given(decks.filter(lambda d: sum(1 for c in d if c > 0) >= 2))
def test_entropy_within_bounds_for_two_or_more_specials(deck):
    m, k = len(deck), sum(1 for c in deck if c > 0)
    h = position_entropy(deck)
    b = entropy_bounds(m, k)
    assert b.h_min - 1e-12 <= h <= b.h_max + 1e-12


def test_entropy_cap_is_loose_for_single_special():
    # with k=1 the ln(k+1) cap can be exceeded: known limitation of the bound
    deck = parse_deck("[C1C]")
    assert position_entropy(deck) > entropy_bounds(3, 1).h_max


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------


def test_trace_records_initial_state_and_every_trick():
    records, outcome = trace_match(state("[1CC]", "[C1C]"))
    assert outcome == Looped(transient=1, period=2)
    assert [r.trick for r in records] == [0, 1, 2]
    assert records[0].size_a == 3 and records[0].size_b == 3
    assert all(r.size_a + r.size_b == 6 for r in records)


def test_trace_terminated_match_final_record():
    cfg = SimConfig(settings=Settings(28, 3), matches=40, seed=21)
    checked = 0
    for i in range(cfg.matches):
        initial = match_state(cfg, i)
        records, outcome = trace_match(initial)
        assert isinstance(outcome, Terminated)
        final = records[-1]
        assert len(records) == outcome.tricks + 1
        assert {final.size_a, final.size_b} == {0, 28}
        win_sep = final.sep_a if final.size_a == 28 else final.sep_b
        assert win_sep == (28 - 12) / (12 + 1)  # exact float equality
        lose_sep = final.sep_b if final.size_a == 28 else final.sep_a
        assert lose_sep == 0.0
        checked += 1
    assert checked == 40


def test_trace_agrees_with_play_match():
    s = state(*INF_40_1)
    records, outcome = trace_match(s)
    direct = play_match(s)
    assert outcome == direct
    assert isinstance(outcome, Looped)
    loop = records[outcome.transient:outcome.transient + outcome.period]
    assert all(11 <= r.size_a <= 29 and 11 <= r.size_b <= 29 for r in loop)


def test_trace_positions_match_specials():
    records, _ = trace_match(state("[1CC3C2C1CC2C2C3C3C1CC2C]", "[C3C1C]"),
                             max_tricks=50)
    for r in records:
        assert len(r.positions_a) == r.specials_a
        assert len(r.positions_b) == r.specials_b
        assert all(1 <= p <= r.size_a for p in r.positions_a)
        assert list(r.positions_a) == sorted(r.positions_a)


def test_trace_csv_files(tmp_path):
    records, _ = trace_match(state("[1CC]", "[C1C]"))
    trace_file = tmp_path / "trace.csv"
    pos_file = tmp_path / "pos.csv"
    with open(trace_file, "w") as fh, open(pos_file, "w") as pos:
        analyzer.write_trace_csv(records, fh, pos)
    lines = trace_file.read_text().splitlines()
    assert lines[0] == ("trick,size_a,size_b,specials_a,specials_b,"
                        "sep_a,sep_b,entropy_a,entropy_b")
    assert len(lines) == len(records) + 1
    pos_lines = pos_file.read_text().splitlines()
    assert pos_lines[0] == "trick,positions_a,positions_b"
    assert pos_lines[1] == "0,1,2"  # specials on top of A at 1; B at 2
