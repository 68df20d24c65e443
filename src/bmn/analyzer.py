"""Per-trick instrumentation: deck sizes, special-card spacing, entropy.

A deck of size m holding k special cards at 1-based positions
p_1 < ... < p_k splits into k+1 runs of ordinary cards with lengths
l_0 = p_1 - 1, l_j = p_{j+1} - p_j - 1, l_k = m - p_k. The mean separation
(m - k) / (k + 1) and the position entropy -sum (l/m) ln(l/m) over nonempty
runs are the two spacing measures tracked along a match. The entropy's
terms are added one by one, left to right from 0.0, and the sum negated as
0.0 - s, so that it is the same float on every Python (`sum()` compensates
from 3.12 on) and never -0.0.

A trace takes each trick boundary's whole record from the C kernel
(`_kernels.trace`), which computes the measures in the same order;
`record_for`, its reference and fallback, reads them off each state of
`engine.walk` with `_spacing`.
"""

from __future__ import annotations

import math
from itertools import accumulate, count
from typing import NamedTuple

from . import _kernels, engine
from .engine import Deck, GameState, MatchOutcome

TRACE_HEADER = "trick,size_a,size_b,specials_a,specials_b,sep_a,sep_b,entropy_a,entropy_b"
POSITIONS_HEADER = "trick,positions_a,positions_b"


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


class TrickRecord(NamedTuple):
    """Both players' deck metrics at one trick boundary.

    For an empty deck (the loser at match end) separation and entropy are
    reported as 0.0, and so is the entropy of a deck of only ordinaries or
    only specials.
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


def _spacing(m: int, lengths) -> tuple:
    """Separation and entropy of a deck of m cards from its run lengths, the
    entropy summed left to right as `bmn_trace` sums it; 0.0 for no cards."""
    if not m:
        return 0.0, 0.0
    s = 0.0
    for l in lengths:
        if l:
            x = l / m
            s += x * math.log(x)
    return (m - len(lengths) + 1) / len(lengths), 0.0 - s


def record_for(trick: int, state: GameState) -> TrickRecord:
    """The record of `state`, read off its decks."""
    runs_a, runs_b = interval_lengths(state.deck_a), interval_lengths(state.deck_b)
    pos_a, pos_b = (tuple(accumulate(l + 1 for l in r[:-1])) for r in (runs_a, runs_b))
    sep_a, ent_a = _spacing(len(state.deck_a), runs_a)
    sep_b, ent_b = _spacing(len(state.deck_b), runs_b)
    return TrickRecord(trick, len(state.deck_a), len(state.deck_b), len(pos_a), len(pos_b),
                       pos_a, pos_b, sep_a, sep_b, ent_a, ent_b)


def trace_records(initial: GameState, outcome: MatchOutcome):
    """Yield one TrickRecord per trick boundary of the match from `initial`
    that ended in `outcome` (record 0 describes the initial state).

    A walk replays exactly the states the outcome covers, holding none of
    them: `_kernels.trace` on the C kernel, which gives each state's
    record, or else `engine.walk` and `record_for`, the reference, with the
    same records bit for bit. A loop's repeated state is not recorded
    again; a terminated match's final state is.
    """
    if isinstance(outcome, engine.Looped):
        tricks = outcome.transient + outcome.period - 1
    elif isinstance(outcome, engine.Terminated):
        tricks = outcome.tricks
    else:
        tricks = outcome.tricks_played
    walk = _kernels.trace(initial.deck_a, initial.deck_b, initial.leader == engine.PLAYER_B,
                          tricks, TrickRecord)
    yield from walk or map(record_for, count(), engine.walk(initial, tricks))


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
