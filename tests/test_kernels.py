"""Match kernels and RNG: play against reference-trick stepping, batch
slicing and memory, the C kernel against the pure-Python one, and how the
C kernel is built and cached."""

import hashlib
import itertools
import os
import random
import shutil
import subprocess
import sys
import threading
import tracemalloc
from collections import Counter

import pytest

from bmn import _kernels, cli
from bmn._rng import GOLDEN, MASK64, SplitMix64, fmix64, stream_state
from bmn.engine import (
    PLAYER_A,
    PLAYER_B,
    BudgetExceeded,
    GameState,
    Settings,
    Terminated,
    play_match,
)
from bmn.simulator import full_deck
from conftest import (
    NotingKernel,
    random_deck,
    random_playable_state,
    require_c_kernel,
)
from conftest import state as parse_state
from loop_oracle import other_player, reference_trick


def test_backend_name():
    # the C kernel plays wherever a compiler can build it; Python elsewhere
    assert _kernels.backend() == ("c" if shutil.which("cc") else "python")


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


def test_below_draws_as_next_u64_does():
    # `below` writes `next_u64` out: the same draws and the same state after
    for n in (1, 2, 3, 5, 7, 8, 9, 40, 41, 64, 65, 1000, 2 ** 31 + 1, 2 ** 64):
        rng, reference = SplitMix64(n), SplitMix64(n)
        mask = (1 << (n - 1).bit_length()) - 1
        for _ in range(50):
            r = reference.next_u64() & mask
            while r >= n:
                r = reference.next_u64() & mask
            assert rng.below(n) == r and rng.state == reference.state, n


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


def _fold(status, a, b):
    """The batch kernel's fold of one `play_match_loops` result: (histogram,
    wins of A, wins of B, loops, matches over the budget)."""
    if status == 0:
        return {b: 1}, int(a == 0), int(a == 1), 0, 0
    return {}, 0, 0, int(status == 1), int(status == 2)


def _summed(folds):
    histogram = Counter()
    for fold in folds:
        histogram.update(fold[0])
    return dict(histogram), *(sum(fold[k] for fold in folds) for k in range(1, 5))


def test_simulate_batch_is_index_sliced(kernel):
    # each match is its own scalar deal played alone, whatever the batch
    # bounds; the small cap keeps (12,1)'s cycling deals cheap
    deck = full_deck(Settings(12, 1))
    cap = 200
    for i in (0, 299, 300, 301, 600):
        cards = deck.copy()
        SplitMix64.for_stream(7, i).shuffle(cards)
        outcome = _kernels.play_match_loops(cards[:6], cards[6:], 0, cap)
        assert _kernels.simulate_batch(1, deck, 7, cap, i) == _fold(*outcome), i
    # a batch folds as the sum of its slices, those that start at 0, inside
    # or at the end of it, in any order
    whole = _kernels.simulate_batch(601, deck, 7, cap)
    for bounds in ((0, 301, 601), (0, 300, 601), (0, 600, 601), (0, 295, 601)):
        parts = [_kernels.simulate_batch(hi - lo, deck, 7, cap, lo)
                 for lo, hi in zip(bounds, bounds[1:])]
        assert _summed(parts[::-1]) == whole, bounds
    # each player wins some matches and some loop; within 3 tricks, some
    # matches are over the budget
    histogram, wins_a, wins_b, loops, over = whole
    assert wins_a and wins_b and loops
    assert sum(histogram.values()) == wins_a + wins_b == 601 - loops - over
    assert _kernels.simulate_batch(50, deck, 7, 3)[4] > 0


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_python_batch_memory_is_bounded(kernel):
    # Nine times the matches may add only a few kB the interpreter keeps
    # in free lists (deque blocks) and a histogram of a few more trick
    # counts. Holding every deal would add at least its 40-byte row per
    # match, some 41 kB here.
    deck = full_deck(Settings(40, 3))
    small, large = 128, 1152
    _kernels.simulate_batch(small, deck, 1, 100_000)  # fill the free lists
    peak_small = _peak_bytes(lambda: _kernels.simulate_batch(small, deck, 5, 100_000))
    peak_large = _peak_bytes(lambda: _kernels.simulate_batch(large, deck, 5, 100_000))
    assert peak_large - peak_small <= 8_192


# ---------------------------------------------------------------------------
# C kernel against the pure-Python reference
# ---------------------------------------------------------------------------


#: Each draw adds GOLDEN to the state; its inverse mod 2**64 counts them.
_GOLDEN_INVERSE = pow(GOLDEN, -1, 1 << 64)


class _CountingRng(SplitMix64):
    """The scalar reference, noting how many draws each `below` call took."""

    __slots__ = ("draws",)

    def __init__(self, state):
        super().__init__(state)
        self.draws = []

    def below(self, n):
        before = self.state
        r = super().below(n)
        self.draws.append(((self.state - before) * _GOLDEN_INVERSE) & MASK64)
        return r


@pytest.mark.parametrize("setting, cap", [
    ((40, 3), 100_000),
    ((12, 1), 3),         # every match over the budget
    ((12, 1), 50),        # loops and over-budget matches
    ((12, 1), 100_000),
    ((52, 4), 100_000),
    ((20, 1), 100_000),
    ((28, 3), 100_000),
    # decks that fill their power-of-two ring exactly, where the C trick
    # loop writes each card past both decks' tails with no slot to spare;
    # (64,1) loops, so the lockstep transient and the watched blocks run on
    # a full ring too; and (4,1), the smallest deck Settings allows
    ((16, 1), 100_000),
    ((32, 2), 100_000),
    ((64, 1), 100_000),
    ((4, 1), 100_000),
])
@pytest.mark.parametrize("seed", [0, 2 ** 64 - 1, -5])
def test_c_batch_matches_python_batch(monkeypatch, setting, cap, seed):
    require_c_kernel()
    dealt = []

    class Recorded(_CountingRng):
        __slots__ = ()

        def __init__(self, state):
            super().__init__(state)
            dealt.append(self)

    # the Python batch deals with the reference shuffle, counted
    monkeypatch.setattr(_kernels, "SplitMix64", Recorded)
    deck = full_deck(Settings(*setting))
    for n, start in ((400, 0), (300, 123), (60, 1_000_003)):
        fold = _kernels.simulate_batch(n, deck, seed, cap, start)
        assert fold == _kernels._py_simulate_batch(n, deck, seed, cap, start), (n, start)
    assert len(dealt) == 760
    # some deal redrew at least twice in one `below`, so the C deal was
    # compared through the masked rejection more than once
    assert max(max(rng.draws) for rng in dealt) >= 3


def test_c_match_matches_python_match():
    require_c_kernel()
    rng = random.Random(8)
    statuses = set()
    for _ in range(3000):
        s = random_playable_state(rng, max_cards=rng.choice([6, 12, 20]),
                                  max_rank=rng.randint(1, 4))
        leader = rng.randint(0, 1)
        cap = rng.choice([1, 2, 7, 63, 64, 65, 128, 129, 3000, 100_000])
        got = _kernels.play_match_loops(s.deck_a, s.deck_b, leader, cap)
        assert got == _kernels._py_match_loops(s.deck_a, s.deck_b, leader, cap), (s, cap)
        statuses.add((got[0], leader))
    assert statuses == {(status, leader) for status in (0, 1, 2) for leader in (0, 1)}


def test_c_match_matches_python_match_on_full_rings():
    # states whose cards fill their power-of-two ring, the C trick loop's,
    # exactly, so each card it flips goes past both decks' tails with no
    # slot to spare: every split and leader of every 8-card deal of
    # ordinaries and 1s (20 of them loop for each leader), then random
    # states of 2 to 128 cards
    require_c_kernel()
    rng = random.Random(1024)
    states = [(cards[:na], cards[na:], leader)
              for cards in itertools.product((0, 1), repeat=8)
              for na in range(1, 8) for leader in (0, 1)]
    for _ in range(3000):
        total, max_rank = rng.choice([2, 4, 8, 16, 32, 64, 128]), rng.randint(1, 4)
        na = rng.randint(1, total - 1)
        states.append((random_deck(rng, na, max_rank), random_deck(rng, total - na, max_rank),
                       rng.randint(0, 1)))
    statuses = Counter()
    for deck_a, deck_b, leader in states:
        cap = rng.choice([1, 2, 7, 63, 64, 65, 128, 129, 3000, 100_000])
        got = _kernels.play_match_loops(deck_a, deck_b, leader, cap)
        assert got == _kernels._py_match_loops(deck_a, deck_b, leader, cap), (deck_a, deck_b)
        statuses[got[0], leader] += 1
    assert min(statuses[status, leader] for status in (0, 1, 2) for leader in (0, 1)) >= 5


def test_c_batch_at_max_cards_matches_python_batch(monkeypatch):
    # 1024 cards, MAX_CARDS: the deal fills the largest ring the C kernel has
    require_c_kernel()
    fallbacks = _recording(monkeypatch, "_py_simulate_batch")
    deck = full_deck(Settings(1024, 9))
    fold = _kernels.simulate_batch(20, deck, 3, 3000)
    assert fallbacks == []
    assert fold == _kernels._py_simulate_batch(20, deck, 3, 3000)
    _, wins_a, wins_b, loops, over = fold
    assert wins_a and wins_b and over and not loops  # over the cap, and won by each player


def test_c_batch_grows_its_histogram(monkeypatch):
    # a one-entry first histogram: the first match that ends stops the C
    # fold, which resumes from it once the histogram has doubled past its
    # trick count, and so on for each longer match
    require_c_kernel()
    fallbacks = _recording(monkeypatch, "_py_simulate_batch")
    deck = full_deck(Settings(40, 3))
    expected = _kernels.simulate_batch(500, deck, 11, 100_000, 40)
    monkeypatch.setattr(_kernels, "_FIRST_HISTOGRAM", 1)
    fold = _kernels.simulate_batch(500, deck, 11, 100_000, 40)
    assert fallbacks == []
    assert fold == expected == _kernels._py_simulate_batch(500, deck, 11, 100_000, 40)
    assert max(fold[0]) > 64


def test_c_batch_grows_its_histogram_on_a_helper_thread(monkeypatch):
    # each thread doubles the histogram it owns: a helper's first chunk, not
    # the caller's, holds the first match that outlasts one entry
    require_c_kernel()
    deck = full_deck(Settings(40, 3))
    expected = _kernels._py_simulate_batch(500, deck, 11, 100_000, 40)
    noting = NotingKernel(_kernels._c())
    monkeypatch.setattr(_kernels, "_ckernel", noting)
    monkeypatch.setattr(_kernels, "_FIRST_HISTOGRAM", 1)
    monkeypatch.setattr(_kernels, "_CHUNK", 50)
    assert _kernels.simulate_batch(500, deck, 11, 100_000, 40, threads=2) == expected
    helpers = {n_hist for thread, *_, n_hist, _ in noting.calls
               if thread is not threading.current_thread()}
    assert max(helpers) > 64


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_batch_folds_alike_on_any_thread_count(monkeypatch, kernel, threads):
    # batches of 1, chunk - 1, chunk, chunk + 1 and 2 chunk + 1 matches (a
    # chunk of 4 here), some of which loop or run over the budget, fold as
    # the reference batch does at any thread count
    monkeypatch.setattr(_kernels, "_CHUNK", 4)
    deck = full_deck(Settings(12, 1))
    for n in (1, 3, 4, 5, 9, 601):
        fold = _kernels.simulate_batch(n, deck, 7, 12, 3, threads)
        assert fold == _kernels._py_simulate_batch(n, deck, 7, 12, 3), n
    assert fold[3] and fold[4]


def test_batch_threads_claim_each_chunk_once_under_stress(monkeypatch):
    # eight threads on fewer cores claim one-match chunks, switching as
    # often as the interpreter lets them: a claim the lock did not guard
    # would play some match twice or not at all
    require_c_kernel()
    deck = full_deck(Settings(12, 1))
    expected = _kernels._py_simulate_batch(2000, deck, 9, 12, 0)
    noting = NotingKernel(_kernels._c())
    monkeypatch.setattr(_kernels, "_ckernel", noting)
    monkeypatch.setattr(_kernels, "_CHUNK", 1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert _kernels.simulate_batch(2000, deck, 9, 12, 0, threads=8) == expected
    finally:
        sys.setswitchinterval(interval)
    played = sorted(i for _, start, _, folded in noting.calls
                    for i in range(start, start + folded))
    assert played == list(range(2000))
    assert len({thread for thread, *_ in noting.calls}) > 1
    assert not any(thread.is_alive() for thread, *_ in noting.calls
                   if thread is not threading.current_thread())


@pytest.mark.parametrize("n_matches", [2 ** 62 + 1, 2 ** 63 - 1, 2 ** 63, 2 ** 64 - 1,
                                       2 ** 64 + 10, 2 ** 70],
                         ids=["2**62+1", "2**63-1", "2**63", "2**64-1", "2**64+10", "2**70"])
def test_a_huge_batch_reaches_c_in_counts_it_takes(monkeypatch, n_matches):
    # bmn_simulate's count is an int64, which ctypes fills from a Python int
    # mod 2**64: a batch of 2**64 + 10 matches once reached C as 10 of them
    # and doubled its histogram for ever, and one of 2**63 as a negative
    # count, which fell back to Python
    counts = []

    class Kernel:
        @staticmethod
        def bmn_simulate(cards, n, seed, start, count, max_tricks, hist, n_hist, tally):
            counts.append((start, count, n_hist))
            return count  # every match folded, none outlasting the histogram

    monkeypatch.setattr(_kernels, "_ckernel", Kernel)
    fallbacks = _recording(monkeypatch, "_py_simulate_batch")
    deck = full_deck(Settings(12, 1))
    assert _kernels.simulate_batch(n_matches, deck, 3, 100, 5) == ({}, 0, 0, 0, 0)
    assert fallbacks == []
    assert all(1 <= count < 2 ** 63 for _, count, _ in counts)
    assert sum(count for _, count, _ in counts) == n_matches
    assert {n_hist for *_, n_hist in counts} == {_kernels._FIRST_HISTOGRAM}
    done = 5
    for start, count, _ in counts:
        assert start == done & (2 ** 64 - 1)
        done += count


def _predecessor_targets(case, rng):
    """(winner's deck, loser's deck) targets for the C predecessor check:
    mostly images of one reference trick, which have a predecessor."""
    if case == "only ordinaries":
        return [((0,) * size, random_deck(rng, rng.randint(1, 20)))
                for size in range(1, 41) for _ in range(5)]
    targets = []
    while len(targets) < 1500:
        if case == "one card":
            sizes = [1, rng.randint(1, 12)][::rng.choice([1, -1])]
            s = GameState(*(random_deck(rng, n, max_rank=3) for n in sizes),
                          rng.choice([PLAYER_A, PLAYER_B]))
        else:
            s = random_playable_state(rng, max_cards=rng.choice([8, 24, 40]), max_rank=9)
        result = reference_trick(s)
        if not result.terminal:
            s = result.next_state
        targets.append((s.deck_of(s.leader), s.deck_of(other_player(s.leader))))
    return targets


def _predecessors(search, wdeck, ldeck):
    """`search` of depth 1 from one target, whose winner A holds `wdeck`
    and leads: (pile length, leader won, winner's deck, loser's deck) for
    each predecessor, the pile length read off a replay of its trick."""
    states, depths = search([_kernels.pack(wdeck, ldeck, 0)], 1, 10**6)
    assert depths.tolist() == [0] + [1] * (len(depths) - 1)
    width = len(states) // len(depths)
    out = []
    for i in range(width, len(states), width):
        leader, prev_w, prev_l = _kernels.split(states[i:i + width])
        pred = GameState(tuple(prev_w), tuple(prev_l), (PLAYER_A, PLAYER_B)[leader])
        trick = reference_trick(pred)
        assert trick.next_state == GameState(tuple(wdeck), tuple(ldeck), PLAYER_A)
        out.append((len(trick.pile_in_play_order), leader == 0, tuple(prev_w), tuple(prev_l)))
    return out


@pytest.mark.parametrize("case", ["rank 9", "only ordinaries", "one card"])
def test_c_predecessors_match_python(monkeypatch, case):
    require_c_kernel()
    reference = _kernels._py_search
    fallbacks = _recording(monkeypatch, "_py_search")
    seen = Counter()
    for wdeck, ldeck in _predecessor_targets(case, random.Random(case)):
        got = _predecessors(_kernels.search, wdeck, ldeck)
        assert got == _predecessors(reference, wdeck, ldeck), (wdeck, ldeck)
        for plen, leader_won, prev_w, prev_l in got:
            seen["found"] += 1
            seen[leader_won] += 1
            seen["rank 9"] += 9 in wdeck[-plen:]
            seen["one card"] += min(len(prev_w), len(prev_l)) == 1
    assert fallbacks == []  # the C kernel took every target
    if case == "only ordinaries":
        assert not seen
    else:
        assert min(seen[key] for key in ("found", True, False, case)) >= 20, seen


def test_predecessors_past_max_cards_play_in_python(monkeypatch):
    require_c_kernel()
    reference = _kernels._py_search
    fallbacks = _recording(monkeypatch, "_py_search")
    wdeck = (0,) * 1000 + (2, 0, 0, 1, 0)
    for n_loser, plays_in_python in ((19, False), (20, True)):  # 1024 cards at most
        ldeck = (0, 3) + (0,) * (n_loser - 2)
        got = _predecessors(_kernels.search, wdeck, ldeck)
        assert len(fallbacks) == plays_in_python
        assert got == _predecessors(reference, wdeck, ldeck)
        assert [(plen, leader_won) for plen, leader_won, _, _ in got] == [
            (2, True), (3, False), (4, True)]
        fallbacks.clear()


def _listed(found):
    """A search's result as its states' bytes and its depths as a list, to
    compare with =="""
    states, depths = found
    assert type(states) is bytes and depths.typecode == "q"
    return states, depths.tolist()


def test_c_search_matches_python_on_a_level(monkeypatch):
    require_c_kernel()
    reference = _kernels._py_search
    fallbacks = _recording(monkeypatch, "_py_search")
    rng = random.Random(41)
    targets = []
    while len(targets) < 120:  # images of a trick, so most have predecessors
        result = reference_trick(random_playable_state(rng, max_cards=30, max_rank=4))
        if not result.terminal:
            targets.append(result.next_state)
    # many predecessors each: nine for m = 7
    targets += [parse_state("[" + "C" * m + "21C]", "[1C]", leader)
                for m in range(4, 12) for leader in (PLAYER_A, PLAYER_B)]
    # a closing block but an empty deck, and the empty decks themselves
    targets += [GameState((0, 1, 0), (), PLAYER_A), GameState((), (0, 1, 0), PLAYER_B),
                GameState((), (1, 0), PLAYER_A)]
    rng.shuffle(targets)
    level = [_kernels.pack(s.deck_a, s.deck_b, s.leader == PLAYER_B) for s in targets]
    assert {s.leader for s in targets} == {PLAYER_A, PLAYER_B}

    # a search takes the seeds of one width: one level per width, in order
    levels = {}
    for packed in level:
        levels.setdefault(len(packed), []).append(packed)
    assert len(levels) > 20
    everything = [reference(seeds, 1, 10**9) for seeds in levels.values()]
    assert sum(len(depths) for _, depths in everything) > 4 * len(level)
    for seeds, (_, all_depths) in zip(levels.values(), everything):
        for budget in (1, 7, 50, 301, 10**9):
            got = _kernels.search(seeds, 1, budget)
            assert _listed(got) == _listed(reference(seeds, 1, budget))
            # exact at the budget, and every distinct seed kept past it
            assert len(got[1]) == max(min(budget, len(all_depths)), len(set(seeds)))
    assert fallbacks == []  # the C kernel took every search
    # 1025 cards, past the C kernel: the whole search runs in Python
    big = GameState((0, 3) + (0,) * 18, (0,) * 1000 + (2, 0, 0, 1, 0), PLAYER_B)
    bigs = [_kernels.pack(big.deck_a, big.deck_b, True),
            _kernels.pack(big.deck_b, big.deck_a, False)]
    assert _listed(_kernels.search(bigs, 1, 10**9)) == _listed(reference(bigs, 1, 10**9))
    assert len(fallbacks) == 1


# In a fresh interpreter, searches back from a target with nine
# predecessors on the kernel argv[1] names and prints the kernel and the
# search's result, if no numpy module was loaded.
_SEARCH_ALONE = """
import sys
from bmn import _kernels
if sys.argv[1] == "python":
    _kernels._ckernel = False
states, depths = _kernels.search([_kernels.pack((0,) * 7 + (2, 1, 0), (1, 0), 0)], 3, 100)
assert "numpy" not in sys.modules
print(_kernels.backend(), states.hex(), *depths)
"""


def test_search_loads_no_numpy(kernel):
    proc = subprocess.run([sys.executable, "-c", _SEARCH_ALONE, kernel],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    backend, states, *depths = proc.stdout.split()
    want = _kernels.search([_kernels.pack((0,) * 7 + (2, 1, 0), (1, 0), 0)], 3, 100)
    assert (backend, bytes.fromhex(states), [int(d) for d in depths]) == (
        kernel, want[0], want[1].tolist())
    assert len(depths) > 9


def test_c_kernel_has_the_python_first_block():
    # results do not depend on the block, but the first-block edge tests
    # probe the C kernel at the Python constant's edges
    with open(_kernels._SOURCE) as fh:
        assert f"#define FIRST_BLOCK {_kernels._BRENT_FIRST_BLOCK} " in fh.read()


def _recording(monkeypatch, name):
    """Wrap the Python function `name` of _kernels; returns the calls made."""
    calls = []
    inner = getattr(_kernels, name)

    def wrapped(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(_kernels, name, wrapped)
    return calls


def test_inputs_past_the_c_limits_play_in_python(monkeypatch):
    # budgets and limits past the counts the C kernel takes play on it, cut
    # below 2**60, with the reference's results, an over-budget match naming
    # the caller's own budget; a card it cannot hold and more cards than it
    # holds play in Python
    require_c_kernel()
    calls = _recording(monkeypatch, "_py_match_loops")
    small, looping = ((1, 0, 0), (0, 1, 0)), ((0, 1, 0, 0, 1, 0), (1, 0, 0, 1, 0, 0))
    outcomes = set()
    for decks in (small, looping):
        for cap in (2 ** 60, -2 ** 60, 2 ** 64, 10 ** 30, -10 ** 30):
            got = _kernels.play_match_loops(*decks, 1, cap)
            assert calls == []
            assert got == _kernels._py_match_loops(*decks, 1, cap), (decks, cap)
            calls.clear()
            outcomes.add(got[0])
    assert outcomes == {0, 1, 2}
    wide = ((0,) * 600 + (1,), (0,) * 600 + (2,))
    for deck_a, deck_b, cap in [((300, 0), (0, 1), 100), (*wide, 50)]:
        got = _kernels.play_match_loops(deck_a, deck_b, 1, cap)
        assert calls.pop() == (deck_a, deck_b, 1, cap)
        assert got == _kernels._py_match_loops(deck_a, deck_b, 1, cap)
    batches = _recording(monkeypatch, "_py_simulate_batch")
    deck = full_deck(Settings(12, 1))
    for cap in (2 ** 64, -2 ** 64):
        want = _kernels._py_simulate_batch(50, deck, 5, cap)
        batches.clear()
        assert _kernels.simulate_batch(50, deck, 5, cap) == want
        assert batches == []
    deck = [1] * 4 + [0] * 1022
    assert _kernels.simulate_batch(3, deck, 5, 20) == ({}, 0, 0, 0, 3)
    assert len(batches) == 1
    searches = _recording(monkeypatch, "_py_search")
    seeds = [_kernels.pack((0,) * 7 + (2, 1, 0), (1, 0), 0)]
    for limit in (2 ** 64, -2 ** 63 - 1):  # ctypes would wrap the second to 2**63 - 1
        want = _listed(_kernels._py_search(seeds, limit, 10 ** 30))
        searches.clear()
        assert _listed(_kernels.search(seeds, limit, 10 ** 30)) == want
        assert searches == []


def test_failed_build_falls_back_to_python(monkeypatch, tmp_path):
    require_c_kernel()
    args = ["simulate", "--setting", "12,1", "--matches", "2000", "--seed", "7",
            "--max-tricks", "50"]

    def outputs(tag):
        out, hist = tmp_path / f"{tag}.txt", tmp_path / f"{tag}.csv"
        assert cli.main(args + ["--out", str(out), "--hist", str(hist)]) == 0
        return out.read_bytes(), hist.read_bytes()

    with_c = outputs("c")
    monkeypatch.setattr(_kernels, "_load_c", lambda: None)
    monkeypatch.setattr(_kernels, "_ckernel", None)
    assert _kernels.backend() == "python"
    assert outputs("python") == with_c


@pytest.fixture
def cache(monkeypatch, tmp_path):
    """An empty kernel cache for this test, and the compiler calls it sees."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    compiles = []
    run = subprocess.run

    def counted(cmd, *args, **kwargs):
        compiles.append(cmd)
        return run(cmd, *args, **kwargs)

    monkeypatch.setattr(subprocess, "run", counted)
    return tmp_path / "bmn", compiles


def test_kernel_is_compiled_once_into_a_private_cache(cache):
    require_c_kernel()
    folder, compiles = cache
    assert _kernels._load_c() is not None
    assert len(compiles) == 1
    assert [str(folder / name) for name in os.listdir(folder)] == [_kernels._library_path()]
    assert not os.stat(folder).st_mode & 0o077
    # a later load takes the cached library and runs no compiler
    assert _kernels._load_c() is not None
    assert len(compiles) == 1


def test_a_build_keeps_every_other_file_in_the_cache(cache):
    # the libraries of other sources, flags or platforms stay: runs of two
    # source versions sharing a cache each load their own, compiled once
    folder, compiles = cache
    folder.mkdir(mode=0o700)
    tag = _kernels._platform_tag()
    others = [folder / f"_ckernel-{'0' * 64}-{tag}.so",
              folder / f"_ckernel-{'0' * 64}-{tag}-other.so",
              folder / f"_ckernel-{'0' * 64}-other-{tag}.so",
              folder / "notes.txt"]
    for path in others:
        path.write_bytes(b"fake")
    require_c_kernel()
    assert _kernels._load_c() is not None
    assert len(compiles) == 1
    built = os.path.basename(_kernels._library_path())
    assert sorted(os.listdir(folder)) == sorted([built, *(path.name for path in others)])
    assert all(path.read_bytes() == b"fake" for path in others)


def test_kernel_is_not_built_or_loaded_from_a_shared_directory(cache):
    require_c_kernel()
    folder, compiles = cache
    folder.mkdir(mode=0o777)
    folder.chmod(0o777)  # whatever the umask
    assert _kernels._load_c() is None
    assert compiles == [] and os.listdir(folder) == []
    folder.chmod(0o700)
    assert _kernels._load_c() is not None
    library = folder / os.listdir(folder)[0]
    library.chmod(0o777)
    assert _kernels._load_c() is None


def test_platform_tag_names_the_machine():
    tag = _kernels._platform_tag()
    assert tag.startswith(f"{sys.platform}-{os.uname().machine}")


def test_a_cached_library_that_does_not_load_is_built_again(monkeypatch, tmp_path):
    # in a new process: one that loaded the library keeps its handle
    require_c_kernel()
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    folder = tmp_path / "bmn"
    folder.mkdir(mode=0o700)
    library = folder / os.path.basename(_kernels._library_path())
    library.write_bytes(b"not a shared library")
    library.chmod(0o700)
    code = "from bmn import _kernels; print(_kernels.backend())"
    done = subprocess.run([sys.executable, "-c", code], text=True,
                          capture_output=True, timeout=300)
    assert done.stdout == "c\n", done.stderr
    assert os.listdir(folder) == [library.name]
    assert library.read_bytes() != b"not a shared library"


def test_library_name_covers_the_source_and_the_flags(cache, monkeypatch):
    # a working library cached under the name of the source alone, as the
    # cache once named it, is not loaded but built again under the name of
    # the source and the flags; so is one of other flags
    require_c_kernel()
    folder, compiles = cache
    assert _kernels._load_c() is not None
    built = _kernels._library_path()
    with open(_kernels._SOURCE, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    source_only = folder / f"_ckernel-{digest}-{_kernels._platform_tag()}.so"
    os.replace(built, source_only)
    assert _kernels._load_c() is not None
    assert len(compiles) == 2
    monkeypatch.setattr(_kernels, "_CFLAGS", (*_kernels._CFLAGS, "-O1"))
    assert _kernels._library_path() != built
    assert _kernels._load_c() is not None
    assert compiles[-1][-1] == "-O1" and len(compiles) == 3


def test_failed_compile_leaves_no_file(cache, monkeypatch, tmp_path):
    require_c_kernel()
    folder, compiles = cache
    broken = tmp_path / "broken.c"
    broken.write_text("this is not C\n")
    monkeypatch.setattr(_kernels, "_SOURCE", str(broken))
    assert _kernels._load_c() is None
    assert len(compiles) == 1 and os.listdir(folder) == []
    monkeypatch.setattr(shutil, "which", lambda name: None)
    assert _kernels._load_c() is None
    assert len(compiles) == 1


def test_concurrent_first_loads_both_get_the_kernel(tmp_path):
    require_c_kernel()
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path))
    code = "from bmn import _kernels; print(_kernels.backend())"
    procs = [subprocess.Popen([sys.executable, "-c", code], env=env, text=True,
                              stdout=subprocess.PIPE) for _ in range(2)]
    outs = [p.communicate(timeout=300)[0] for p in procs]
    assert [p.returncode for p in procs] == [0, 0]
    assert outs == ["c\n", "c\n"]
    assert len(os.listdir(tmp_path / "bmn")) == 1
