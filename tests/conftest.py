"""Shared test helpers: published configurations, random-state makers and
the choice of match kernel."""

from __future__ import annotations

import random
import shutil
import threading

import pytest

from bmn import _kernels
from bmn.engine import PLAYER_A, PLAYER_B, GameState, parse_deck


def require_c_kernel():
    """Fail unless the C kernel plays; skip, saying so, only without a compiler."""
    if _kernels.backend() != "c":
        if shutil.which("cc"):
            pytest.fail("a C compiler is on PATH but the C kernel did not load")
        pytest.skip("no C compiler on PATH: the C kernel cannot be built")


@pytest.fixture(params=["c", "python"])
def kernel(request, monkeypatch):
    """The match kernel a test plays on: each test taking it runs once on
    C and once on Python. The Python run plays as if the C kernel had not
    loaded; the C run fails, or skips without a compiler, as
    `require_c_kernel` does."""
    if request.param == "c":
        require_c_kernel()
    else:
        monkeypatch.setattr(_kernels, "_ckernel", False)
    return request.param


class NotingKernel:
    """A loaded C kernel whose `bmn_simulate` notes each call's thread (its
    `Thread`: a thread's ident may be reused once it has ended), first match,
    histogram length and matches folded, in `calls`."""

    def __init__(self, lib):
        self.lib, self.calls = lib, []

    def bmn_simulate(self, cards, n, seed, start, count, max_tricks, hist, n_hist, tally):
        folded = self.lib.bmn_simulate(cards, n, seed, start, count, max_tricks, hist, n_hist,
                                       tally)
        self.calls.append((threading.current_thread(), start, n_hist, folded))
        return folded


# Ultra-long published matches: (setting, deck_a, deck_b, winner, tricks).
# The (40,2) pair is the corrected one: the two rank-1 cards of deck A are
# pinned by composition and exactly one of the 190 placements yields the
# documented 700-trick B win.
GOLDEN_MATCHES = [
    ("40,3", "[C1CC1CC32C3CCC3C2CCC]", "[CC2CCC2CC1CC3CC1CCCC]", "A", 420),
    ("40,2", "[CCCC1C1CCCCCCCCCCCCC]", "[C22CCCC1CC2CCCC1CCC2]", "B", 700),
    ("52,4", "[CCCC3CCC4CC2C4CC114CCCCCC1]", "[CCCCC33CCCCCCCCC4C13C2C2C2]", "A", 1106),
    ("52,4", "[CCC41CC2CCCCCCCCC243211C23]", "[CCCCC4CCCC31C3CCCCCCCC4CCC]", "B", 1164),
]

# Known infinite matches.
INF_40_1 = ("[CCCCCCCCCCC1CCCCCC1C]", "[1CCCCCCCCCCCCC1CCCCC]")
INF_52_4 = ("[CCC3CCC2C3241CCCCC441CC1CC]", "[CCCCCCCCCC2CCCC32C1CCCCC34]")

# Small cycling building blocks (seed configurations).
BLOCKS = [
    ("[1CC]", "[C1C]"),
    ("[1CC1CC]", "[C1CC1C]"),
    ("[1CC1CC1CC]", "[C1CC1CC1C]"),
]

# Published non-terminating configurations by setting (player A leads).
NONTERMINATING = {
    "12,1": [("[1CC1CC1CC]", "[C1C]"), ("[C1C1CC1CC]", "[C1C]")],
    "20,2": [("[1CC]", "[C2C2C1CC1CC2C2C1C]"),
             ("[1CC2C2C1CC2C2C1CC]", "[C1C]")],
    "24,1": [("[1CCCCCCCC1CC1CCCCCCCC]", "[C1C]")],
    "24,2": [("[1CCCCC]", "[CCCC1CC2C21CC2C21C]")],
    "28,1": [("[1CCCCCC1CCCCCC]", "[CC1CCCCCCCCC1C]")],
    "28,3": [("[1CC3C2C1CC2C2C3C3C1CC2C]", "[C3C1C]")],
    "32,2": [("[1CC2C1CC1CCCCCCCC2CCCC2CCCC]", "[C1CC2]")],
    "32,3": [("[2C1CC2C]", "[C3C3C331CC2CCCC1CC2CCCC1C]")],
    "36,1": [("[1CC]", "[CCCCCCC1CC1CCCCC1CCCCCCCCCCCCCCCC]"),
             ("[1CCCCCCCCCCCCCC1CC1CCCCCCCCCCCCCC]", "[C1C]")],
    "40,1": [("[1CCCCCCCCCCCCCCCCC1CCCCC1CCCCCCCC]", "[CCCCC1C]")],
    "52,1": [("[1CCCCC1CCCCCCCCCCCCCCCCC1CCCCCCCCCCCCCCCCCCCCCCCC]", "[C1C]")],
}

# Published balanced configurations that cycle from the first trick.
BALANCED_12_1 = [
    ("[CCC11C]", "[1CC1CC]"),
    ("[11CC1C]", "[CCCC1C]"),
    ("[C1CC1C]", "[CCC11C]"),
]
BALANCED_28_1 = ("[1CCCCCC1CCCCCC]", "[CC1CCCCCCCCC1C]")
BALANCED_28_3 = [
    ("[CC2C3C3C2C3C1C]", "[1CC2C1CC2C3C1C]"),
    ("[CC3C2C3C3C3C1C]", "[1CC2C2C2C1CC1C]"),
    ("[CC3C1CC3C1CC1C]", "[2C2C2C3C3C2C1C]"),
    ("[CC2C3C2C3C2C1C]", "[1CC1CC3C3C2C1C]"),
    ("[CC3C2C2C3C3C1C]", "[3C2C2C1CC1CC1C]"),
    ("[CC1CC1CC3C2C1C]", "[3C2C2C3C3C2C1C]"),
    ("[CC3C1CC1CC3C1C]", "[2C3C3C2C2C2C1C]"),
    ("[CC3C3C2C3C2C1C]", "[1CC2C2C1CC3C1C]"),
]


def state(deck_a: str, deck_b: str, leader: str = PLAYER_A) -> GameState:
    return GameState(parse_deck(deck_a), parse_deck(deck_b), leader)


def random_deck(rng: random.Random, size: int, max_rank: int = 4) -> tuple:
    return tuple(rng.choice([0, 0, 0, rng.randint(1, max_rank)])
                 for _ in range(size))


def random_playable_state(rng: random.Random, max_cards: int = 26,
                          max_rank: int = 4) -> GameState:
    size_a = rng.randint(1, max_cards // 2)
    size_b = rng.randint(1, max_cards // 2)
    leader = rng.choice([PLAYER_A, PLAYER_B])
    return GameState(random_deck(rng, size_a, max_rank),
                     random_deck(rng, size_b, max_rank), leader)
