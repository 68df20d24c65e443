"""Seeded Monte Carlo harness: uniform deals and reproducible batch runs."""

from __future__ import annotations

import os
from dataclasses import dataclass

from . import _kernels, stats
from ._rng import SplitMix64
from .engine import DEFAULT_BATCH_TRICKS, PLAYER_A, GameState, Settings


@dataclass(frozen=True)
class SimConfig:
    """Batch parameters. Match i always draws from the (seed, i) stream.

    Match i is dealt by the C kernel or by the reference `SplitMix64.shuffle`
    (bit-identical). On the C kernel the batch plays on the calling thread
    and up to `workers - 1` more, each claiming fixed chunks of match
    indices in turn; the Python kernel plays it on the calling thread alone.
    Neither the kernel nor the worker count changes a result. Every match is
    played with loop detection: it terminates, loops with transient + period
    <= `max_tricks`, or exceeds the budget.
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

    The batch kernel plays and folds them, detecting loops, on the calling
    thread and up to config.workers - 1 more (`pool_size`), which claim
    fixed chunks of match indices in turn (`_kernels.simulate_batch`). A
    loop counts when transient + period <= config.max_tricks, so loops and
    genuinely over-budget matches are reported apart. Results are bitwise
    identical for any worker count.
    """
    return stats.summarize_counts(*_kernels.simulate_batch(
        config.matches, full_deck(config.settings), config.seed, config.max_tricks,
        threads=pool_size(config.workers, config.matches)))
