"""Reference deck metrics the trace records are checked against.

Each is the textbook formula from `analyzer`'s module docstring, written
out on its own: `analyzer.record_for` and `analyzer.trace_records` must give
the same positions and, bit for bit, the same floats.
"""

from __future__ import annotations

import math

from bmn.analyzer import interval_lengths
from bmn.engine import Deck


def special_positions(deck: Deck) -> tuple:
    """1-based positions of the special cards, counted from the top."""
    return tuple(i + 1 for i, card in enumerate(deck) if card > 0)


def mean_separation(deck: Deck) -> float:
    """Average ordinaries per interval, (m - k) / (k + 1)."""
    if not deck:
        raise ValueError("mean separation is undefined for an empty deck")
    lengths = interval_lengths(deck)
    return sum(lengths) / len(lengths)


def position_entropy(deck: Deck) -> float:
    """-sum (l/m) ln(l/m) over nonempty ordinary runs (0 ln 0 = 0).

    The terms are added one by one, left to right from 0.0, and the sum is
    negated as 0.0 - s: `sum()` adds floats with compensation from Python
    3.12 on, and -s gives -0.0 for a deck with no specials.
    """
    if not deck:
        raise ValueError("position entropy is undefined for an empty deck")
    m = len(deck)
    s = 0.0
    for l in interval_lengths(deck):
        if l > 0:
            s += (l / m) * math.log(l / m)
    return 0.0 - s
