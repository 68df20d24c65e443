"""Seeded Monte Carlo harness: uniform deals and reproducible batch runs."""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass

from . import _kernels, stats
from ._rng import SplitMix64
from .engine import DEFAULT_BATCH_TRICKS, PLAYER_A, GameState, Settings


@dataclass(frozen=True)
class SimConfig:
    """Batch parameters. Match i always draws from the (seed, i) stream.

    Match i is dealt by the C kernel or by the reference `SplitMix64.shuffle`
    (bit-identical) and played on up to `workers` threads, each taking a
    contiguous range of match indices; neither the kernel nor the worker
    count changes a result. Every match is played with loop detection: it
    terminates, loops with transient + period <= `max_tricks`, or exceeds
    the budget.
    """

    settings: Settings
    matches: int
    seed: int = 0
    max_tricks: int = DEFAULT_BATCH_TRICKS
    workers: int = 1

    def __post_init__(self):
        if self.matches < 1:
            raise ValueError("matches must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.max_tricks < 1:
            raise ValueError("max_tricks must be >= 1")


def full_deck(settings: Settings) -> list:
    """The complete card multiset in canonical pre-shuffle order."""
    cards = [r for r in range(1, settings.max_rank + 1) for _ in range(4)]
    cards += [0] * settings.n_ordinary
    return cards


def deal(settings: Settings, rng: SplitMix64) -> GameState:
    """Uniform random even split: shuffle the full multiset, top half to A."""
    cards = full_deck(settings)
    rng.shuffle(cards)
    half = settings.half
    return GameState(tuple(cards[:half]), tuple(cards[half:]), PLAYER_A)


def match_state(config: SimConfig, index: int) -> GameState:
    """Reconstruct the initial deal of match `index` of a batch."""
    return deal(config.settings, SplitMix64.for_stream(config.seed, index))


def pool_size(workers: int, matches: int) -> int:
    """Threads a batch runs on: never more than its matches or the CPUs.

    The CPUs are those the process may run on (its affinity mask, where
    the platform has one), not all the machine's.
    """
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(workers, matches, cpus)


def run_batch(config: SimConfig) -> stats.DurationSummary:
    """Play config.matches independent matches and summarize the outcomes.

    Contiguous index ranges play on up to config.workers threads, each
    folded by the batch kernel, which detects loops; this sums the folds.
    A loop counts when transient + period <= config.max_tricks, so loops
    and genuinely over-budget matches are reported apart. Results are
    bitwise identical for any worker count.
    """
    deck = full_deck(config.settings)
    threads = pool_size(config.workers, config.matches)

    def play(lo, hi):
        # looked up when called, so the kernel may be wrapped (say, by a tracer)
        return _kernels.simulate_batch(hi - lo, deck, config.seed, config.max_tricks, lo)

    if threads == 1:
        return stats.summarize_counts(*play(0, config.matches))
    # The C kernel releases the GIL, so threads play ranges in parallel.
    # Imported here so that `import bmn` does not pay for the pool.
    from concurrent.futures import ThreadPoolExecutor

    bounds = [config.matches * k // threads for k in range(threads + 1)]
    with ThreadPoolExecutor(threads) as pool:
        histograms, *counts = zip(*pool.map(play, bounds, bounds[1:]))
    return stats.summarize_counts(sum(map(Counter, histograms), Counter()), *map(sum, counts))
