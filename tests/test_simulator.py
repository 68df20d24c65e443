"""Simulator tests: deal uniformity, reproducibility, batch aggregation."""

import dataclasses
import math
import os
import subprocess
import sys
import threading
from collections import Counter
from fractions import Fraction

import pytest

from bmn import _kernels, engine, simulator, stats
from bmn._rng import SplitMix64
from bmn.engine import PLAYER_A, Settings, Terminated, play_match
from bmn.simulator import SimConfig, deal, match_state, run_batch
from conftest import NotingKernel, require_c_kernel
from stats_oracle import summarize


def _fake_cpus(monkeypatch, n):
    """Let the process see `n` CPUs, both in all and in its affinity mask."""
    monkeypatch.setattr(simulator.os, "cpu_count", lambda: n)
    monkeypatch.setattr(simulator.os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)


def test_deal_shape_and_composition():
    s = Settings(40, 3)
    rng = SplitMix64.for_stream(1, 0)
    for _ in range(50):
        st = deal(s, rng)
        assert len(st.deck_a) == len(st.deck_b) == 20
        assert st.leader == PLAYER_A
        combined = Counter(st.deck_a) + Counter(st.deck_b)
        assert combined == Counter({0: 28, 1: 4, 2: 4, 3: 4})


def test_deal_special_count_mean_is_2r():
    s = Settings(40, 3)
    rng = SplitMix64.for_stream(3, 0)
    n = 20_000
    total = sum(sum(1 for c in deal(s, rng).deck_a if c > 0) for _ in range(n))
    assert total / n == pytest.approx(6.0, abs=0.05)


def test_first_special_position_matches_negative_hypergeometric_mean():
    # oracle: P(first special of the full shuffled deck at position t), exact
    s = Settings(40, 3)
    n, k = s.n_total, s.n_special
    probs = {}
    for t in range(1, s.half + 1):
        p = Fraction(k, 1)
        for i in range(t - 1):
            p *= Fraction(n - k - i, 1)
        for i in range(t):
            p /= Fraction(n - i, 1)
        probs[t] = p
    mass = sum(probs.values())
    oracle_mean = float(sum(t * p for t, p in probs.items()) / mass)

    rng = SplitMix64.for_stream(17, 0)
    positions = []
    for _ in range(20_000):
        st = deal(s, rng)
        for i, card in enumerate(st.deck_a):
            if card > 0:
                positions.append(i + 1)
                break
    emp = sum(positions) / len(positions)
    assert emp == pytest.approx(oracle_mean, rel=0.02)


def test_match_state_reconstructs_batch_matches():
    cfg = SimConfig(settings=Settings(28, 3), matches=30, seed=99)
    summary = run_batch(cfg)
    replayed = [play_match(match_state(cfg, i), cfg.max_tricks, detect_loops=False)
                for i in range(cfg.matches)]
    assert summarize(replayed) == summary


def test_run_batch_is_reproducible():
    cfg = SimConfig(settings=Settings(40, 3), matches=500, seed=7)
    assert run_batch(cfg) == run_batch(cfg)


def test_run_batch_workers_do_not_change_results(kernel):
    base = SimConfig(settings=Settings(40, 3), matches=2000, seed=11, workers=1)
    multi = SimConfig(settings=Settings(40, 3), matches=2000, seed=11, workers=2)
    assert run_batch(base) == run_batch(multi)


def test_batches_without_a_terminated_match_compare_equal(monkeypatch):
    # no match ends within 3 tricks, so the float statistics are undefined;
    # they must still compare equal across runs and worker counts
    _fake_cpus(monkeypatch, 2)
    one, two = (SimConfig(settings=Settings(12, 1), matches=3, seed=3,
                          max_tricks=3, workers=w) for w in (1, 2))
    summary = run_batch(one)
    assert summary.terminated == 0
    assert run_batch(one) == summary
    assert run_batch(two) == summary
    assert "mean = nan" in summary.to_text().splitlines()


@pytest.mark.parametrize("setting, matches, cap", [
    ((40, 3), 1, 10 ** 6),    # fewer matches than workers
    ((40, 3), 2, 10 ** 6),
    ((40, 3), 3, 10 ** 6),
    ((12, 1), 2001, 50),      # odd count; some matches loop
])
def test_worker_ranges_sum_to_one_run(monkeypatch, kernel, setting, matches, cap):
    # three cores, so that three workers really run three ranges
    _fake_cpus(monkeypatch, 3)
    configs = [SimConfig(settings=Settings(*setting), matches=matches, seed=5,
                         max_tricks=cap, workers=w) for w in (1, 2, 3)]
    summary = run_batch(configs[0])
    assert summary.matches == matches and not math.isnan(summary.mean)
    for cfg in configs[1:]:
        assert run_batch(cfg) == summary


def test_run_batch_plays_ranges_on_threads(monkeypatch):
    # the calling thread and workers - 1 helpers claim fixed chunks (4
    # matches here) from one counter: each match is played once, the caller
    # plays, each thread's chunks rise in index order, and no process forks
    require_c_kernel()
    _fake_cpus(monkeypatch, 3)

    def no_fork():
        raise AssertionError("run_batch forked a process")

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(_kernels, "_CHUNK", 4)
    noting = NotingKernel(_kernels._c())
    monkeypatch.setattr(_kernels, "_ckernel", noting)
    me = threading.current_thread()
    for matches in (1, 3, 4, 5, 9):
        expected = stats.summarize_counts(*_kernels._py_simulate_batch(
            matches, simulator.full_deck(Settings(40, 3)), 2, engine.DEFAULT_BATCH_TRICKS))
        for workers in (1, 2, 3):
            noting.calls.clear()
            cfg = SimConfig(settings=Settings(40, 3), matches=matches, seed=2, workers=workers)
            assert run_batch(cfg) == expected, (matches, workers)
            played = sorted(i for _, start, _, folded in noting.calls
                            for i in range(start, start + folded))
            assert played == list(range(matches)), (matches, workers)
            players = {thread for thread, *_ in noting.calls}
            assert me in players
            assert len(players) == min(workers, -(-matches // 4)), (matches, workers)
            for player in players:
                starts = [start for thread, start, *_ in noting.calls if thread == player]
                assert starts == sorted(starts), (matches, workers)


def test_python_batch_plays_on_the_caller_alone(monkeypatch, kernel):
    # the Python kernel holds the interpreter lock: at any worker count its
    # batch is one call on the calling thread
    _fake_cpus(monkeypatch, 3)
    reference, calls = _kernels._py_simulate_batch, []

    def noting_thread(n_matches, deck, seed, max_tricks, start=0):
        calls.append((start, n_matches, threading.get_ident()))
        return reference(n_matches, deck, seed, max_tricks, start)

    monkeypatch.setattr(_kernels, "_py_simulate_batch", noting_thread)
    cfg = SimConfig(settings=Settings(12, 1), matches=2001, seed=5, max_tricks=50, workers=3)
    summary = run_batch(cfg)
    assert summary == run_batch(dataclasses.replace(cfg, workers=1))
    if kernel == "python":
        assert calls == [(0, 2001, threading.get_ident())] * 2
    else:
        assert calls == []


# In a fresh interpreter on two cores, plays a batch on two threads, then on
# one, and prints the summary if they agree and neither loaded numpy.
_FIRST_BATCH = """
import os, sys
from bmn import _kernels
from bmn.engine import Settings
from bmn.simulator import SimConfig, run_batch
assert "numpy" not in sys.modules
os.cpu_count = lambda: 2
os.sched_getaffinity = lambda pid: {0, 1}
if sys.argv[1] == "python":
    _kernels._ckernel = False
config = SimConfig(Settings(*map(int, sys.argv[2:4])), int(sys.argv[4]), seed=7, workers=2)
two = run_batch(config)
one = run_batch(SimConfig(config.settings, config.matches, seed=7, workers=1))
assert two == one, (two, one)
assert "numpy" not in sys.modules
print(two.to_text(), end="")
"""


@pytest.mark.parametrize("setting, matches", [((40, 3), 3001), ((12, 1), 2001)])
def test_first_batch_loads_no_numpy(kernel, setting, matches):
    proc = subprocess.run([sys.executable, "-c", _FIRST_BATCH, kernel, *map(str, setting),
                           str(matches)], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    summary = run_batch(SimConfig(settings=Settings(*setting), matches=matches, seed=7))
    assert proc.stdout == summary.to_text()
    assert setting == (40, 3) or summary.loop_count > 0


def test_pool_size_caps_at_matches_and_cores(monkeypatch):
    # computed only: no pool is started here
    _fake_cpus(monkeypatch, 8)
    assert simulator.pool_size(1, 100) == 1
    assert simulator.pool_size(3, 100) == 3
    assert simulator.pool_size(10 ** 6, 100) == 8
    assert simulator.pool_size(10 ** 6, 5) == 5
    assert simulator.pool_size(2, 1) == 1
    monkeypatch.setattr(simulator.os, "cpu_count", lambda: None)
    monkeypatch.delattr(simulator.os, "sched_getaffinity", raising=False)
    assert simulator.pool_size(4, 100) == 1


def test_pool_size_caps_at_the_cpus_the_process_may_use(monkeypatch):
    # as under `taskset -c 0` on a machine of eight cores
    monkeypatch.setattr(simulator.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(simulator.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert simulator.pool_size(4, 1000) == 1
    kernel, calls = _kernels.simulate_batch, set()

    def noting_thread(n_matches, deck, seed, max_tricks, start=0, threads=1):
        calls.add((start, start + n_matches, threads, threading.get_ident()))
        return kernel(n_matches, deck, seed, max_tricks, start, threads)

    monkeypatch.setattr(_kernels, "simulate_batch", noting_thread)
    cfg = SimConfig(settings=Settings(40, 3), matches=1000, seed=4, workers=4)
    assert run_batch(cfg) == run_batch(dataclasses.replace(cfg, workers=1))
    # both batches play their one range on the caller's thread alone
    assert calls == {(0, 1000, 1, threading.get_ident())}


def test_run_batch_detect_loops_agrees_with_fast_path(kernel):
    # (12,1) has only 495 distinct deals and some of them cycle: the batch
    # kernel must report what loop-detecting play of every match reports,
    # loops and over-budget matches included
    for cap in (1, 3, 10, 100_000):
        cfg = SimConfig(settings=Settings(12, 1), matches=800, seed=3, max_tricks=cap)
        expected = summarize(
            play_match(match_state(cfg, i), cap, detect_loops=True)
            for i in range(cfg.matches))
        assert run_batch(cfg) == expected, cap
    assert expected.loop_count > 0
    assert expected.budget_exceeded_count == 0


def test_run_batch_replays_no_match(monkeypatch):
    # loops are decided in the batch kernel: run_batch neither re-deals a
    # match nor plays one through the engine
    def replayed(*args, **kwargs):
        raise AssertionError("run_batch replayed a match")

    monkeypatch.setattr(simulator, "match_state", replayed)
    monkeypatch.setattr(engine, "play_match", replayed)
    summary = run_batch(SimConfig(settings=Settings(12, 1), matches=2000, seed=7,
                                  max_tricks=10 ** 5))
    assert summary.loop_count > 0
    assert summary.budget_exceeded_count == 0


def test_run_batch_small_setting_statistics():
    cfg = SimConfig(settings=Settings(28, 3), matches=50_000, seed=5)
    summary = run_batch(cfg)
    assert summary.mean == pytest.approx(12.56, abs=0.25)
    assert summary.min_tricks == 1


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(settings=Settings(12, 1), matches=0)
    with pytest.raises(ValueError):
        SimConfig(settings=Settings(12, 1), matches=1, workers=0)
