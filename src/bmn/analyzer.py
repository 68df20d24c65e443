"""Per-trick instrumentation: deck sizes, special-card spacing, entropy.

A deck of size m holding k special cards at 1-based positions
p_1 < ... < p_k splits into k+1 runs of ordinary cards with lengths
l_0 = p_1 - 1, l_j = p_{j+1} - p_j - 1, l_k = m - p_k. The mean separation
(m - k) / (k + 1) and the position entropy -sum (l/m) ln(l/m) over nonempty
runs are the two spacing measures tracked along a match.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

from . import engine
from .engine import Deck, GameState, MatchOutcome

TRACE_HEADER = "trick,size_a,size_b,specials_a,specials_b,sep_a,sep_b,entropy_a,entropy_b"
POSITIONS_HEADER = "trick,positions_a,positions_b"


def special_positions(deck: Deck) -> tuple:
    """1-based positions of the special cards, counted from the top."""
    return tuple(i + 1 for i, card in enumerate(deck) if card > 0)


def interval_lengths(deck: Deck) -> tuple:
    """Ordinary-run lengths l_0..l_k around the special cards."""
    lengths = []
    run = 0
    for card in deck:
        if card > 0:
            lengths.append(run)
            run = 0
        else:
            run += 1
    lengths.append(run)
    return tuple(lengths)


def mean_separation(deck: Deck) -> float:
    """Average ordinaries per interval, (m - k) / (k + 1)."""
    if not deck:
        raise ValueError("mean separation is undefined for an empty deck")
    lengths = interval_lengths(deck)
    return sum(lengths) / len(lengths)


def position_entropy(deck: Deck) -> float:
    """-sum (l/m) ln(l/m) over nonempty ordinary runs (0 ln 0 = 0)."""
    if not deck:
        raise ValueError("position entropy is undefined for an empty deck")
    m = len(deck)
    return -sum((l / m) * math.log(l / m) for l in interval_lengths(deck) if l > 0)


class EntropyBounds(NamedTuple):
    h_min: float
    h_max: float


def entropy_bounds(m: int, k: int) -> EntropyBounds:
    """Clustered-versus-dispersed entropy bounds for k specials in m cards.

    h_min = -(1 - k/m) ln(1 - k/m) is attained with all specials packed at
    one end; h_max = ln(k + 1) caps the dispersed case. The cap is loose,
    and for k = 1 it can be exceeded slightly (e.g. [C1C]); see the tests.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if not 0 <= k <= m:
        raise ValueError("need 0 <= k <= m")
    c = 1.0 - k / m
    h_min = 0.0 if c == 0.0 else -c * math.log(c)
    return EntropyBounds(h_min=h_min, h_max=math.log(k + 1))


# ---------------------------------------------------------------------------
# Match traces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrickRecord:
    """Both players' deck metrics at one trick boundary.

    For an empty deck (the loser at match end) separation and entropy are
    reported as 0.0.
    """

    trick: int
    size_a: int
    size_b: int
    specials_a: int
    specials_b: int
    positions_a: tuple
    positions_b: tuple
    sep_a: float
    sep_b: float
    entropy_a: float
    entropy_b: float


@functools.cache
def _entropy_terms(m: int) -> tuple:
    """(l/m) ln(l/m) for l = 0..m (0 for l = 0): a deck size's entropy terms."""
    return tuple((l / m) * math.log(l / m) if l else 0.0 for l in range(m + 1))


def _deck_metrics(deck: Deck):
    """Positions, separation and entropy from the run lengths: bit for bit
    the four functions above, the reference."""
    m = len(deck)
    if not m:
        return (), 0.0, 0.0
    lengths = interval_lengths(deck)
    positions = tuple(accumulate(l + 1 for l in lengths[:-1]))
    terms = _entropy_terms(m)
    return (positions, (m - len(positions)) / len(lengths),
            -sum(terms[l] for l in lengths if l > 0))


def record_for(trick: int, state: GameState) -> TrickRecord:
    pos_a, sep_a, ent_a = _deck_metrics(state.deck_a)
    pos_b, sep_b, ent_b = _deck_metrics(state.deck_b)
    return TrickRecord(
        trick=trick,
        size_a=len(state.deck_a), size_b=len(state.deck_b),
        specials_a=len(pos_a), specials_b=len(pos_b),
        positions_a=pos_a, positions_b=pos_b,
        sep_a=sep_a, sep_b=sep_b,
        entropy_a=ent_a, entropy_b=ent_b,
    )


def trace_records(initial: GameState, outcome: MatchOutcome):
    """Yield one TrickRecord per trick boundary of the match from `initial`
    that ended in `outcome` (record 0 describes the initial state).

    A walk replays exactly the states the outcome covers, holding none of
    them. A loop's repeated state is not recorded again; a terminated
    match's final state is.
    """
    if isinstance(outcome, engine.Looped):
        tricks = outcome.transient + outcome.period - 1
    elif isinstance(outcome, engine.Terminated):
        tricks = outcome.tricks
    else:
        tricks = outcome.tricks_played
    for i, s in enumerate(engine.walk(initial, tricks)):
        yield record_for(i, s)


def trace_match(initial: GameState,
                max_tricks: int = engine.DEFAULT_MATCH_TRICKS
                ) -> tuple[list, MatchOutcome]:
    """Play a match with loop detection and list its `trace_records`."""
    outcome = engine.play_match(initial, max_tricks)
    return list(trace_records(initial, outcome)), outcome


def _fmt(x: float) -> str:
    return format(x, ".12g")


def write_trace_csv(records, fh, pos=None) -> None:
    """Trace CSV, one row per trick boundary, to the text file `fh`, and
    optionally its companion positions CSV (semicolon-joined special
    positions per player) to `pos`.

    Both files are written in one pass, so `records` may be a generator.
    """
    fh.write(TRACE_HEADER + "\n")
    if pos:
        pos.write(POSITIONS_HEADER + "\n")
    for r in records:
        fh.write(f"{r.trick},{r.size_a},{r.size_b},{r.specials_a},{r.specials_b},"
                 f"{_fmt(r.sep_a)},{_fmt(r.sep_b)},"
                 f"{_fmt(r.entropy_a)},{_fmt(r.entropy_b)}\n")
        if pos:
            pa = ";".join(str(p) for p in r.positions_a)
            pb = ";".join(str(p) for p in r.positions_b)
            pos.write(f"{r.trick},{pa},{pb}\n")
