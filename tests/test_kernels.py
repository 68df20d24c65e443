"""Match kernels and RNG: play against reference-trick stepping, the lockstep
deal against the scalar shuffle, batch slicing and memory."""

import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from bmn import _kernels
from bmn._rng import SplitMix64, fmix64, stream_state
from bmn.engine import PLAYER_A, PLAYER_B, BudgetExceeded, Settings, Terminated, play_match
from bmn.simulator import full_deck
from conftest import random_playable_state
from loop_oracle import reference_trick


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
    """Outcome of play that never looks for loops, one reference trick at a time."""
    for tricks in range(1, max_tricks + 1):
        result = reference_trick(s)
        if result.terminal:
            return Terminated(result.winner, tricks)
        s = result.next_state
    return BudgetExceeded(max_tricks)


def test_play_match_without_loops_agrees_with_stepping():
    rng = random.Random(5)
    outcomes = set()
    for _ in range(300):
        s = random_playable_state(rng, max_cards=20, max_rank=3)
        for cap in (1, 7, 500):
            got = play_match(s, cap, detect_loops=False)
            assert got == _stepped(s, cap), (s, cap)
            outcomes.add(getattr(got, "winner", "over budget"))
    # both winners and over-budget matches occur
    assert outcomes == {PLAYER_A, PLAYER_B, "over budget"}


# ---------------------------------------------------------------------------
# Batch kernel
# ---------------------------------------------------------------------------


class _CountingRng(SplitMix64):
    """The scalar reference, noting how many draws each `below` call took."""

    __slots__ = ("calls", "draws")

    def __init__(self, state):
        super().__init__(state)
        self.calls = 0
        self.draws = []

    def next_u64(self):
        self.calls += 1
        return super().next_u64()

    def below(self, n):
        before = self.calls
        r = super().below(n)
        self.draws.append(self.calls - before)
        return r


@pytest.mark.parametrize("seed", [0, 2 ** 64 - 1, -123_456_789])
@pytest.mark.parametrize("setting", [(12, 1), (40, 3), (52, 4)])
def test_deal_block_matches_scalar_shuffle(setting, seed):
    deck = full_deck(Settings(*setting))
    most_draws = 0
    for start in (0, 1_000_003):
        cards = _kernels.deal_block(deck, seed, start, 300)
        assert cards.shape == (300, len(deck))
        for k, row in enumerate(cards.tolist()):
            expected = deck.copy()
            rng = _CountingRng(stream_state(seed, start + k))
            rng.shuffle(expected)
            assert row == expected, (start, k)
            most_draws = max(most_draws, max(rng.draws))
    # some row redrew at least twice in one `below`, so the rows compared
    # above went through the masked rejection more than once
    assert most_draws >= 3


def test_simulate_batch_is_index_sliced():
    # the same match index yields the same outcome regardless of batch bounds
    deck = full_deck(Settings(12, 1))
    d1, w1 = _kernels.simulate_batch(50, deck, 7, 100_000)
    d2, w2 = _kernels.simulate_batch(30, deck, 7, 100_000)
    assert np.array_equal(d1[:30], d2) and np.array_equal(w1[:30], w2)
    # batches that cross deal-block boundaries, or start inside or past one;
    # the small cap keeps (12,1)'s cycling deals cheap
    block, cap = _kernels._DEAL_BLOCK, 200
    d, w = _kernels.simulate_batch(2 * block + 1, deck, 7, cap)
    for n, start in ((block + 1, 0), (block + 1, block), (1, 2 * block),
                     (block + 6, block - 5)):
        ds, ws = _kernels.simulate_batch(n, deck, 7, cap, start)
        assert np.array_equal(d[start:start + n], ds), (n, start)
        assert np.array_equal(w[start:start + n], ws), (n, start)
    # each match is its own scalar deal played alone; the winners code
    # loops as -1 and over-budget matches as -2
    for i in (0, block - 1, block, block + 1, 2 * block):
        cards = deck.copy()
        SplitMix64.for_stream(7, i).shuffle(cards)
        status, a, b = _kernels.play_match_loops(cards[:6], cards[6:], 0, cap)
        assert (d[i], w[i]) == (b, a if status == 0 else -status), i
    assert (w == -1).any() and (w >= 0).any()
    _, w = _kernels.simulate_batch(50, deck, 7, 3)
    assert (w == -2).any()


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_simulate_batch_memory_is_bounded_by_the_deal_block():
    # numpy reports its buffers to tracemalloc. Ten times the matches may
    # add only the larger output arrays (int32 durations, int8 winners),
    # plus a few kB the interpreter keeps in free lists (deque blocks).
    # Holding every deal would add at least its 40-byte row per match,
    # over 700 kB here.
    deck = full_deck(Settings(40, 3))
    block = _kernels._DEAL_BLOCK
    small, large = 2 * block, 20 * block
    _kernels.simulate_batch(small, deck, 1, 100_000)  # fill the free lists
    peak_small = _peak_bytes(lambda: _kernels.simulate_batch(small, deck, 5, 100_000))
    peak_large = _peak_bytes(lambda: _kernels.simulate_batch(large, deck, 5, 100_000))
    outputs = (large - small) * (4 + 1)
    assert peak_large - peak_small <= outputs + 8_192


def test_simulate_batch_rejects_huge_budget():
    with pytest.raises(ValueError):
        _kernels.simulate_batch(1, full_deck(Settings(12, 1)), 0, 2 ** 31)
