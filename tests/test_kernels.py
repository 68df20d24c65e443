"""Match kernels and RNG: raw play against one-trick stepping, batch slicing."""

import random
from collections import Counter

import numpy as np
import pytest

from bmn import _kernels
from bmn._rng import SplitMix64, fmix64, stream_state
from bmn.engine import PLAYER_A, Settings, play_trick
from bmn.simulator import full_deck
from conftest import random_playable_state


def test_backend_name():
    assert _kernels.backend() == "python"


# ---------------------------------------------------------------------------
# RNG
# ---------------------------------------------------------------------------


def test_fmix64_is_stable():
    # fixed points of the reference implementation
    assert fmix64(0) == 0
    assert fmix64(1) == 0x5692161D100B05E5
    assert fmix64((1 << 64) - 1) == fmix64(-1)  # masked to 64 bits


def test_below_is_in_range_and_exhaustive():
    rng = SplitMix64(123)
    seen = Counter(rng.below(6) for _ in range(6000))
    assert set(seen) == set(range(6))
    assert min(seen.values()) > 800  # roughly uniform


def test_shuffle_is_a_permutation():
    rng = SplitMix64(99)
    items = list(range(40))
    shuffled = items.copy()
    rng.shuffle(shuffled)
    assert sorted(shuffled) == items
    assert shuffled != items


def test_stream_states_differ_by_index():
    states = {stream_state(7, i) for i in range(1000)}
    assert len(states) == 1000


# ---------------------------------------------------------------------------
# Match kernel vs engine
# ---------------------------------------------------------------------------


def _stepped(s, max_tricks):
    """(status, winner, tricks) of raw play, one engine.play_trick at a time."""
    for tricks in range(1, max_tricks + 1):
        result = play_trick(s)
        if result.terminal:
            return 0, 0 if result.winner == PLAYER_A else 1, tricks
        s = result.next_state
    return 2, -1, max_tricks


def test_py_match_agrees_with_engine_stepping():
    rng = random.Random(5)
    statuses = Counter()
    for _ in range(300):
        s = random_playable_state(rng, max_cards=20, max_rank=3)
        code = 0 if s.leader == PLAYER_A else 1
        for cap in (1, 7, 500):
            got = _kernels._py_match(s.deck_a, s.deck_b, code, cap)
            assert got == _stepped(s, cap), (s, cap)
            statuses[got[0], got[1]] += 1
    # both winners and over-budget matches occur
    assert set(statuses) == {(0, 0), (0, 1), (2, -1)}


# ---------------------------------------------------------------------------
# Batch kernel
# ---------------------------------------------------------------------------


def test_simulate_batch_is_index_sliced():
    # the same match index yields the same outcome regardless of batch bounds
    deck = full_deck(Settings(12, 1))
    d1, w1 = _kernels.simulate_batch(50, deck, 7, 100_000)
    d2, w2 = _kernels.simulate_batch(30, deck, 7, 100_000)
    assert np.array_equal(d1[:30], d2) and np.array_equal(w1[:30], w2)


def test_simulate_batch_rejects_huge_budget():
    with pytest.raises(ValueError):
        _kernels.simulate_batch(1, full_deck(Settings(12, 1)), 0, 2 ** 31)
