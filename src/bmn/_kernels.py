"""The match kernels: the one trick loop, the one match function, batches.

Every trick the package plays runs through `_py_run`: whole matches,
single tricks (`engine.play_trick`) and state walks (`engine.walk`). Every
match is played by `play_match_loops`, which runs Brent's cycle detector
on that loop, saving one state at a time and finding the exact transient
with a second lockstep pass; it tells a terminated match, a loop and a
match over the trick budget apart. A batch draws match i's deal from the
(seed, i) splitmix64 stream, so its results do not depend on how the batch
is split. It deals blocks of up to `_DEAL_BLOCK` matches in lockstep with
numpy `uint64` arithmetic (`deal_block`), bit-identical to
`SplitMix64.shuffle` of each stream, and plays them one by one.

Card coding: 0 is an ordinary card, 1..9 are special ranks. Players are
coded 0 (A) and 1 (B). Match status codes: 0 = terminated, 1 = looped,
2 = trick budget exhausted.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ._rng import _MIX1, _MIX2, GOLDEN, MASK64


def backend() -> str:
    """Name of the kernel backend; pure Python is the only one."""
    return "python"


def _py_run(decks, cur, n, watch=None):
    """Play up to `n` tricks in place; the package's one trick loop.

    `decks` is a list of two deques, `cur` the player leading the next
    trick. Returns (status, player, tricks played, pile): status 0 means
    the match ended and `player` won it; 2 means `n` tricks were played and
    `player` leads the next one. `pile` lists the cards of the last trick
    played, in play order. With `watch = (leader, deque_a, deque_b)`
    the run also stops with status 1 at the first trick boundary whose
    state equals `watch`; the decks are compared only when the leader and
    the deck sizes already match.
    """
    if watch is not None:
        w_cur, w_a, w_b = watch
        w_len = len(w_a)
    tricks = 0
    pile = []
    while tricks < n:
        pending = 0
        challenger = 0
        pile = []
        winner = -1
        while True:
            deck = decks[cur]
            if not deck:
                # required to flip from an empty deck: the other player wins
                winner = 1 - cur
                break
            card = deck.popleft()
            pile.append(card)
            if card > 0:
                challenger = cur
                pending = card
                cur = 1 - cur
            elif pending > 0:
                pending -= 1
                if pending == 0:
                    winner = challenger
                    break
            else:
                cur = 1 - cur
        decks[winner].extend(pile)
        tricks += 1
        if not decks[1 - winner]:
            return 0, winner, tricks, pile
        cur = winner
        if watch is not None:
            if (cur == w_cur and len(decks[0]) == w_len
                    and decks[0] == w_a and decks[1] == w_b):
                return 1, cur, tricks, pile
    return 2, cur, tricks, pile


def _py_transient(deck_a, deck_b, leader, period, max_transient):
    """Exact transient of a match known to cycle with `period`, or None.

    Two copies of the match run in lockstep, `period` tricks apart; the
    first trick count at which their states agree is the transient. Gives
    None once the transient would exceed `max_transient`.
    """
    behind = [deque(deck_a), deque(deck_b)]
    ahead = [deque(deck_a), deque(deck_b)]
    _, c_ahead, _, _ = _py_run(ahead, leader, period)
    c_behind = leader
    transient = 0
    while c_behind != c_ahead or behind != ahead:
        if transient == max_transient:
            return None
        _, c_behind, _, _ = _py_run(behind, c_behind, 1)
        _, c_ahead, _, _ = _py_run(ahead, c_ahead, 1)
        transient += 1
    return transient


#: Tricks in Brent's first block, played with no state saved or watched;
#: a loop with transient 0 is found in the second block. Short matches
#: dominate batches and loop-checking play, and this block costs them
#: nothing. Medians of 9 interleaved rounds (2-core Xeon): per-match time
#: on 10k (40,3) deals, against unwatched play to the cap, was 1.16x at
#: 16, 0.98x at 32, 0.97x at 64 and 0.94x at 128; a factory run of (20,2)
#: seeds 1-8 and (28,1) seeds 1-2 took 1.19, 1.14, 1.12 and 1.12 s.
#: Repeats showed no steady difference between 64 and 128; 256 was slower.
_BRENT_FIRST_BLOCK = 64


def play_match_loops(deck_a, deck_b, leader, max_tricks):
    """Play one match with Brent cycle detection in O(1) saved states.

    Returns (status, a, b): (0, winner, tricks) if the match ends within
    `max_tricks`; (1, transient, period) if the trick-boundary states
    cycle with transient + period <= `max_tricks`; otherwise
    (2, -1, max_tricks). This is the package's only match function.

    Brent's algorithm (R. P. Brent, BIT 20, 1980), with blocks of
    f * 2**k tricks (f = _BRENT_FIRST_BLOCK). Block 0, the first f tricks,
    is played unwatched. Block k >= 1 saves the state after
    s = f * (2**k - 1) tricks and compares it with each of the next f * 2**k
    states. A cycle therefore shows at trick s + period in the first block
    k >= 1 with s >= transient and f * 2**k >= period. Let transient +
    period <= max_tricks. If that is block 1, play finds the cycle by trick
    f + period <= max_tricks + f. If it is a later block, the block before
    failed one of the two tests, so f * 2**(k-1) < max_tricks + f - 1 and
    f * 2**k <= last, the least f * 2**j >= max_tricks + f - 1; play finds
    the cycle by trick last - f + period < max_tricks + last. Play
    therefore runs to trick max_tricks + last at most before deciding
    against the cap.
    """
    decks = [deque(deck_a), deque(deck_b)]
    first = _BRENT_FIRST_BLOCK
    status, cur, tricks, _ = _py_run(decks, leader, first)
    if status == 0:
        return (0, cur, tricks) if tricks <= max_tricks else (2, -1, max_tricks)
    last = first
    while last < max_tricks + first - 1:
        last *= 2
    limit = max_tricks + last
    block = 2 * first
    while tricks < limit:
        saved = (cur, deque(decks[0]), deque(decks[1]))
        status, cur, played, _ = _py_run(decks, cur, min(block, limit - tricks), saved)
        tricks += played
        if status == 0:
            if tricks <= max_tricks:
                return 0, cur, tricks
            break
        if status == 1:
            if played <= max_tricks:
                transient = _py_transient(deck_a, deck_b, leader, played,
                                          max_tricks - played)
                if transient is not None:
                    return 1, transient, played
            break
        block *= 2
    return 2, -1, max_tricks


_U64 = np.uint64

#: Matches dealt together. The block, not the batch, bounds the deal's
#: memory. A (40,3) block of 1024 deals in about 7 ms on a 2-core Xeon,
#: some 15 % of the time its matches take to play.
_DEAL_BLOCK = 1024


def _fmix64_rows(z):
    """`_rng.fmix64` of every element of a uint64 array (a new array)."""
    z = z ^ (z >> _U64(30))
    z *= _U64(_MIX1)
    z ^= z >> _U64(27)
    z *= _U64(_MIX2)
    return z ^ (z >> _U64(31))


def deal_block(deck, seed, start, count):
    """Shuffle `count` copies of `deck` at once, one splitmix64 stream per row.

    Row k is bit for bit `deck` after `SplitMix64.for_stream(seed, start + k)
    .shuffle`: all streams take each Fisher-Yates step together, and in
    `below`'s masked rejection only the rows whose draw was rejected draw
    again. Returns a (count, len(deck)) uint8 array.
    """
    index = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    state = _fmix64_rows(_U64(seed & MASK64) ^ _fmix64_rows(index))
    cards = np.tile(np.asarray(deck, dtype=np.uint8), (count, 1))
    rows = np.arange(count)
    for i in range(len(deck) - 1, 0, -1):
        n = i + 1
        mask = _U64((1 << i.bit_length()) - 1)
        state += _U64(GOLDEN)
        j = _fmix64_rows(state) & mask
        redraw = np.flatnonzero(j >= n)
        while redraw.size:
            s = state[redraw] + _U64(GOLDEN)
            state[redraw] = s
            r = _fmix64_rows(s) & mask
            j[redraw] = r
            redraw = redraw[r >= n]
        top = cards[:, i].copy()
        cards[:, i] = cards[rows, j]
        cards[rows, j] = top
    return cards


def simulate_batch(n_matches, deck, seed, max_tricks, start=0):
    """Deal and play matches start .. start + n_matches - 1.

    Match i shuffles a copy of `deck` (the full multiset in canonical order)
    with the (seed, i) stream, gives each player half and is played by
    `play_match_loops` with A leading. Returns (durations int32, winners
    int8): winners[i] is 0 or 1 for the winner of a terminated match, -1 for
    a loop and -2 for a match over the trick budget; durations[i] is its
    trick count, its period or `max_tricks`, respectively.
    """
    if max_tricks >= 2 ** 31:
        raise ValueError("max_tricks too large for the batch kernel")
    durations = np.empty(n_matches, dtype=np.int32)
    winners = np.empty(n_matches, dtype=np.int8)
    half = len(deck) // 2
    for lo in range(0, n_matches, _DEAL_BLOCK):
        cards = deal_block(deck, seed, start + lo,
                           min(_DEAL_BLOCK, n_matches - lo))
        halves = zip(cards[:, :half].tolist(), cards[:, half:].tolist())
        for idx, (deck_a, deck_b) in enumerate(halves, lo):
            status, a, b = play_match_loops(deck_a, deck_b, 0, max_tricks)
            winners[idx] = a if status == 0 else -status
            durations[idx] = b
    return durations, winners
