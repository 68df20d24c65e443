"""Match kernels and RNG: play against reference-trick stepping, batch
slicing and memory, the C kernel against the pure-Python one, and how the
C kernel is built and cached."""

import hashlib
import os
import random
import shutil
import subprocess
import sys
import tracemalloc
from collections import Counter

import numpy as np
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
    other_player,
    play_match,
)
from bmn.simulator import full_deck
from conftest import (
    random_deck,
    random_playable_state,
    require_c_kernel,
)
from conftest import state as parse_state
from loop_oracle import reference_trick


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


def test_simulate_batch_is_index_sliced(kernel):
    # the same match index yields the same outcome regardless of batch bounds
    deck = full_deck(Settings(12, 1))
    d1, w1 = _kernels.simulate_batch(50, deck, 7, 100_000)
    d2, w2 = _kernels.simulate_batch(30, deck, 7, 100_000)
    assert np.array_equal(d1[:30], d2) and np.array_equal(w1[:30], w2)
    # slices that start at 0, inside or at the end of a longer batch; the
    # small cap keeps (12,1)'s cycling deals cheap
    cap = 200
    d, w = _kernels.simulate_batch(601, deck, 7, cap)
    for n, start in ((301, 0), (301, 300), (1, 600), (306, 295)):
        ds, ws = _kernels.simulate_batch(n, deck, 7, cap, start)
        assert np.array_equal(d[start:start + n], ds), (n, start)
        assert np.array_equal(w[start:start + n], ws), (n, start)
    # each match is its own scalar deal played alone; the winners code
    # loops as -1 and over-budget matches as -2
    for i in (0, 299, 300, 301, 600):
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


@pytest.mark.parametrize("kernel", ["python"], indirect=True)
def test_python_batch_memory_is_bounded(kernel):
    # numpy reports its buffers to tracemalloc. Ten times the matches may
    # add only the larger output arrays (int32 durations, int8 winners),
    # plus a few kB the interpreter keeps in free lists (deque blocks).
    # Holding every deal would add at least its 40-byte row per match,
    # over 180 kB here.
    deck = full_deck(Settings(40, 3))
    small, large = 512, 5120
    _kernels.simulate_batch(small, deck, 1, 100_000)  # fill the free lists
    peak_small = _peak_bytes(lambda: _kernels.simulate_batch(small, deck, 5, 100_000))
    peak_large = _peak_bytes(lambda: _kernels.simulate_batch(large, deck, 5, 100_000))
    outputs = (large - small) * (4 + 1)
    assert peak_large - peak_small <= outputs + 8_192


def test_simulate_batch_rejects_huge_budget():
    with pytest.raises(ValueError):
        _kernels.simulate_batch(1, full_deck(Settings(12, 1)), 0, 2 ** 31)


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
        d, w = _kernels.simulate_batch(n, deck, seed, cap, start)
        d_py, w_py = _kernels._py_simulate_batch(n, deck, seed, cap, start)
        assert d.dtype == d_py.dtype and w.dtype == w_py.dtype
        assert np.array_equal(d, d_py) and np.array_equal(w, w_py), (n, start)
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
    states, offsets, depths = search([_kernels.pack(wdeck, ldeck, 0)], 1, 10**6)
    assert depths.tolist() == [0] + [1] * (len(depths) - 1)
    out = []
    for i in range(1, len(depths)):
        leader, prev_w, prev_l = _kernels.split(states[offsets[i]:offsets[i + 1]])
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
    """A search's result with its arrays as lists, to compare with =="""
    states, *arrays = found
    return (states, *(a.tolist() for a in arrays))


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

    everything = reference(level, 1, 10**9)
    assert len(everything[2]) > 4 * len(level)  # the level and its predecessors
    for budget in (1, 7, 50, 301, 10**9):
        got = _kernels.search(level, 1, budget)
        assert _listed(got) == _listed(reference(level, 1, budget))
        # exact at the budget, and every distinct seed kept past it
        assert len(got[2]) == max(min(budget, len(everything[2])), len(set(level)))
    assert fallbacks == []  # the C kernel took every search
    # 1025 cards, past the C kernel: the whole search runs in Python
    big = GameState((0, 3) + (0,) * 18, (0,) * 1000 + (2, 0, 0, 1, 0), PLAYER_B)
    level.insert(len(level) // 2, _kernels.pack(big.deck_a, big.deck_b, True))
    assert _listed(_kernels.search(level, 1, 10**9)) == _listed(reference(level, 1, 10**9))
    assert len(fallbacks) == 1


def test_even_split_reads_both_bytes_of_each_deck_length():
    # lengths alike in one byte of two (513 against 257, 256 against 0) are
    # not even; 300 against 300 is
    decks = [((0,) * 513, (0,) * 257), ((0,) * 256, ()), ((1,), (0,) * 256),
             ((0,) * 300, (2,) * 300), ((), ()), ((0, 1), (1,)), ((1, 0, 0), (0, 0, 2))]
    packed = [_kernels.pack(a, b, leader) for a, b in decks for leader in (0, 1)]
    offsets = np.cumsum([0] + [len(p) for p in packed])
    mask = _kernels.even_split(b"".join(packed), offsets)
    assert mask.tolist() == [len(a) == len(b) for a, b in decks for _ in (0, 1)]


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
    require_c_kernel()
    calls = _recording(monkeypatch, "_py_match_loops")
    small = ((1, 0, 0), (0, 1, 0))
    assert _kernels.play_match_loops(*small, 0, 100) == _kernels._py_match_loops(*small, 0, 100)
    calls.clear()
    # a budget whose trick counts could overflow int64, a card the C kernel
    # cannot hold, and more cards than it holds
    wide = ((0,) * 600 + (1,), (0,) * 600 + (2,))
    for deck_a, deck_b, cap in [(*small, 2 ** 60), (*small, -2 ** 60),
                                ((300, 0), (0, 1), 100), (*wide, 50)]:
        got = _kernels.play_match_loops(deck_a, deck_b, 1, cap)
        assert calls.pop() == (deck_a, deck_b, 1, cap)
        assert got == _kernels._py_match_loops(deck_a, deck_b, 1, cap)
    batches = _recording(monkeypatch, "_py_simulate_batch")
    deck = [1] * 4 + [0] * 1022
    d, w = _kernels.simulate_batch(3, deck, 5, 20)
    assert len(batches) == 1
    assert (w == -2).all() and (d == 20).all()


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
    with open(_kernels._SOURCE, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    assert os.listdir(folder) == [f"_ckernel-{digest}-{_kernels._platform_tag()}.so"]
    assert not os.stat(folder).st_mode & 0o077
    # a later load takes the cached library and runs no compiler
    assert _kernels._load_c() is not None
    assert len(compiles) == 1


def test_a_build_removes_the_libraries_of_other_sources(cache):
    folder, compiles = cache
    folder.mkdir(mode=0o700)
    tag = _kernels._platform_tag()
    stale = folder / f"_ckernel-{'0' * 64}-{tag}.so"
    kept = [folder / f"_ckernel-{'0' * 64}-{tag}-other.so",  # another platform's
            folder / f"_ckernel-{'0' * 64}-other-{tag}.so",
            folder / "notes.txt"]
    for path in [stale, *kept]:
        path.write_bytes(b"fake")
    require_c_kernel()
    assert _kernels._load_c() is not None
    assert len(compiles) == 1
    with open(_kernels._SOURCE, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    built = f"_ckernel-{digest}-{tag}.so"
    assert sorted(os.listdir(folder)) == sorted([built, *(path.name for path in kept)])


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


def test_a_cached_library_that_does_not_load_is_built_again(tmp_path):
    # in a new process: one that loaded the library keeps its handle
    require_c_kernel()
    with open(_kernels._SOURCE, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    folder = tmp_path / "bmn"
    folder.mkdir(mode=0o700)
    library = folder / f"_ckernel-{digest}-{_kernels._platform_tag()}.so"
    library.write_bytes(b"not a shared library")
    library.chmod(0o700)
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path))
    code = "from bmn import _kernels; print(_kernels.backend())"
    done = subprocess.run([sys.executable, "-c", code], env=env, text=True,
                          capture_output=True, timeout=300)
    assert done.stdout == "c\n", done.stderr
    assert os.listdir(folder) == [library.name]
    assert library.read_bytes() != b"not a shared library"


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
