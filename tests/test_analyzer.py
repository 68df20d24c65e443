"""Analyzer tests: separation, entropy, bounds, per-trick traces."""

import hashlib
import math
import random

import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from bmn import analyzer, cli
from bmn.analyzer import (
    entropy_bounds,
    interval_lengths,
    mean_separation,
    position_entropy,
    special_positions,
    trace_match,
)
from bmn.engine import GameState, Looped, Settings, Terminated, parse_deck
from bmn.simulator import SimConfig, match_state
from bmn.engine import play_match
from conftest import GOLDEN_MATCHES, INF_40_1, state

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


def _reference_metrics(deck):
    """A deck's record fields from the four public metric functions."""
    if not deck:
        return special_positions(deck), 0.0, 0.0
    return special_positions(deck), mean_separation(deck), position_entropy(deck)


def test_record_for_agrees_with_the_metric_functions():
    rng = random.Random(17)
    decks = [(), (1,), (0,), (3,) * 7, (0,) * 9, (9, 0, 9, 9, 0, 0, 0, 0, 0, 0, 0, 0, 9),
             tuple(rng.choice((0, 0, 0, rng.randint(1, 9))) for _ in range(1024)),
             (0,) * 1023 + (9,), (1,) * 1024]
    decks += [tuple(rng.choice((0, 0, 0, rng.randint(1, 9))) for _ in range(rng.randint(0, 60)))
              for _ in range(3000)]
    for i, (deck_a, deck_b) in enumerate(zip(decks, decks[1:] + decks[:1])):
        r = analyzer.record_for(i, GameState(deck_a, deck_b))
        pos_a, sep_a, ent_a = _reference_metrics(deck_a)
        pos_b, sep_b, ent_b = _reference_metrics(deck_b)
        # repr: the same floats bit for bit, not only equal ones
        assert repr(r) == repr(analyzer.TrickRecord(
            i, len(deck_a), len(deck_b), len(pos_a), len(pos_b), pos_a, pos_b,
            sep_a, sep_b, ent_a, ent_b))


# (index into GOLDEN_MATCHES, sha256 of the trace CSV, of the positions CSV)
_GOLDEN_TRACES = [
    (0, "b4ef4ac6a84a51cd0f5c01541749d351b6f69fa191011dd17341a183fdb97bcd",
     "02c87245ffa4f6ef454c4b64cf5f30a6a897bbf40113a895b3685f9f283ae1e3"),
    (3, "8450f5a382f12f527d3ec9a114aacf5bc5dc9ee727f4776105ee4e9f3306c4d5",
     "b9cdf797d4c10d926984c79b4b0afd58fbd0cb2ee0785dba56286ef434d8ee61"),
]


@pytest.mark.parametrize("golden, trace_sha, positions_sha", _GOLDEN_TRACES,
                         ids=["420 tricks", "1164 tricks"])
def test_golden_trace_files_are_pinned(tmp_path, capsys, golden, trace_sha, positions_sha):
    setting, deck_a, deck_b, _, tricks = GOLDEN_MATCHES[golden]
    trace, positions = tmp_path / "t.csv", tmp_path / "p.csv"
    assert cli.main(["play", "--setting", setting, "--deck-a", deck_a, "--deck-b", deck_b,
                     "--trace", str(trace), "--positions", str(positions)]) == 0
    assert f"tricks={tricks}" in capsys.readouterr().out
    assert hashlib.sha256(trace.read_bytes()).hexdigest() == trace_sha
    assert hashlib.sha256(positions.read_bytes()).hexdigest() == positions_sha
