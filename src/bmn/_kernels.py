"""Hot match-playing kernels: numba-jitted paths with pure-Python fallbacks.

Both backends consume identical per-match splitmix64 streams and identical
Fisher-Yates draws, so batch results are bit-for-bit equal whichever one
runs. Set BMN_NO_NUMBA=1 to force the Python fallback even when numba is
installed; benchmarks/bench_kernels.py compares the two.

Loop-detecting play (`play_match_loops`) runs Brent's cycle detector
inside the Python core's trick loop on either backend: it saves one state
at a time and finds the exact transient with a second lockstep pass.

Card coding: 0 is an ordinary card, 1..9 are special ranks. Players are
coded 0 (A) and 1 (B). Match status codes: 0 = terminated, 1 = looped,
2 = trick budget exhausted.
"""

from __future__ import annotations

import os
from collections import deque

import numpy as np

from ._rng import GOLDEN, MASK64, SplitMix64, stream_state

try:
    import numba
    from numba import njit, prange
except ImportError:  # pragma: no cover - exercised only without numba
    numba = None

_DISABLED = bool(os.environ.get("BMN_NO_NUMBA"))
HAVE_NUMBA = numba is not None and not _DISABLED


def backend() -> str:
    """Name of the active kernel backend: "numba" or "python"."""
    return "numba" if HAVE_NUMBA else "python"


# ---------------------------------------------------------------------------
# Pure-Python fallback
# ---------------------------------------------------------------------------


def _py_run(decks, cur, n, watch=None):
    """Play up to `n` tricks in place; the one trick loop of the Python core.

    `decks` is a list of two deques, `cur` the player leading the next
    trick. Returns (status, player, tricks played): status 0 means the
    match ended and `player` won it; 2 means `n` tricks were played and
    `player` leads the next one. With `watch = (leader, deque_a, deque_b)`
    the run also stops with status 1 at the first trick boundary whose
    state equals `watch`; the decks are compared only when the leader and
    the deck sizes already match.
    """
    if watch is not None:
        w_cur, w_a, w_b = watch
        w_len = len(w_a)
    tricks = 0
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
            return 0, winner, tricks
        cur = winner
        if watch is not None:
            if (cur == w_cur and len(decks[0]) == w_len
                    and decks[0] == w_a and decks[1] == w_b):
                return 1, cur, tricks
    return 2, cur, tricks


def _py_match(deck_a, deck_b, leader, max_tricks):
    """Play one match without loop detection; returns (status, winner, tricks)."""
    status, player, tricks = _py_run([deque(deck_a), deque(deck_b)], leader,
                                     max_tricks)
    if status == 0:
        return 0, player, tricks
    return 2, -1, tricks


def _py_transient(deck_a, deck_b, leader, period, max_transient):
    """Exact transient of a match known to cycle with `period`, or None.

    Two copies of the match run in lockstep, `period` tricks apart; the
    first trick count at which their states agree is the transient. Gives
    None once the transient would exceed `max_transient`.
    """
    behind = [deque(deck_a), deque(deck_b)]
    ahead = [deque(deck_a), deque(deck_b)]
    _, c_ahead, _ = _py_run(ahead, leader, period)
    c_behind = leader
    transient = 0
    while c_behind != c_ahead or behind != ahead:
        if transient == max_transient:
            return None
        _, c_behind, _ = _py_run(behind, c_behind, 1)
        _, c_ahead, _ = _py_run(ahead, c_ahead, 1)
        transient += 1
    return transient


#: Tricks in Brent's first block. Each block copies the decks and makes one
#: call into the trick loop, and short matches dominate loop-checking play:
#: of the 112k insertion tests of perfbench's factory_small, 80 % end within
#: 16 tricks (median 8). There, over 10 alternating pairs of runs, 16 gave
#: 1.20x the matches/s of plain Brent (first block 1) and won every pair.
_BRENT_FIRST_BLOCK = 16


def play_match_loops(deck_a, deck_b, leader, max_tricks):
    """Play one match with Brent cycle detection in O(1) saved states.

    This is the entry for either backend: it always runs the Python core.
    Returns (status, a, b): (0, winner, tricks) if the match ends within
    `max_tricks`; (1, transient, period) if the trick-boundary states
    cycle with transient + period <= `max_tricks`; otherwise
    (2, -1, max_tricks).

    Brent's algorithm (R. P. Brent, BIT 20, 1980), with blocks of
    f * 2**k tricks (f = _BRENT_FIRST_BLOCK): block k saves the state after
    s = f * (2**k - 1) tricks and compares it with each of the next f * 2**k
    states. A cycle therefore shows at trick s + period in the first block
    with s >= transient and f * 2**k >= period. For transient + period <=
    max_tricks that block has f * 2**k <= last, the least f * 2**j >=
    max_tricks + f - 1, so play runs to trick max_tricks + last - f at most
    before deciding against the cap.
    """
    first = _BRENT_FIRST_BLOCK
    last = first
    while last < max_tricks + first - 1:
        last *= 2
    limit = max_tricks + last - first
    decks = [deque(deck_a), deque(deck_b)]
    cur = leader
    tricks = 0
    block = first
    while tricks < limit:
        saved = (cur, deque(decks[0]), deque(decks[1]))
        status, cur, played = _py_run(decks, cur, min(block, limit - tricks), saved)
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


def _py_batch(lo, hi, n_total, max_rank, seed, max_tricks, durations, winners):
    half = n_total // 2
    base = [r for r in range(1, max_rank + 1) for _ in range(4)]
    base += [0] * (n_total - 4 * max_rank)
    for idx in range(lo, hi):
        rng = SplitMix64(stream_state(seed, idx))
        cards = base.copy()
        rng.shuffle(cards)
        status, winner, tricks = _py_match(cards[:half], cards[half:], 0, max_tricks)
        durations[idx - lo] = tricks
        winners[idx - lo] = winner if status == 0 else -1


# ---------------------------------------------------------------------------
# numba kernels
# ---------------------------------------------------------------------------

if HAVE_NUMBA:
    _J_GOLD = np.uint64(GOLDEN)
    _J_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
    _J_MIX2 = np.uint64(0x94D049BB133111EB)
    _J_ONE = np.uint64(1)
    _J30 = np.uint64(30)
    _J27 = np.uint64(27)
    _J31 = np.uint64(31)

    @njit(cache=True)
    def _jit_fmix64(z):
        z = (z ^ (z >> _J30)) * _J_MIX1
        z = (z ^ (z >> _J27)) * _J_MIX2
        return z ^ (z >> _J31)

    @njit(cache=True)
    def _jit_stream_state(seed, index):
        return _jit_fmix64(seed ^ _jit_fmix64(index + _J_ONE))

    @njit(cache=True)
    def _jit_next(state):
        state = state + _J_GOLD
        return state, _jit_fmix64(state)

    @njit(cache=True)
    def _jit_below(state, n):
        size = np.uint64(n)
        mask = np.uint64(1)
        while mask < size:
            mask = mask << _J_ONE
        mask = mask - _J_ONE
        while True:
            state, z = _jit_next(state)
            r = z & mask
            if r < size:
                return state, r

    @njit(cache=True)
    def _jit_match(deckbuf, heads, counts, pile, leader, max_tricks):
        cap = deckbuf.shape[1]
        cur = leader
        tricks = 0
        while tricks < max_tricks:
            pending = 0
            challenger = 0
            plen = 0
            winner = -1
            while True:
                if counts[cur] == 0:
                    winner = 1 - cur
                    break
                card = deckbuf[cur, heads[cur]]
                heads[cur] += 1
                if heads[cur] == cap:
                    heads[cur] = 0
                counts[cur] -= 1
                pile[plen] = card
                plen += 1
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
            tail = heads[winner] + counts[winner]
            if tail >= cap:
                tail -= cap
            for i in range(plen):
                deckbuf[winner, tail] = pile[i]
                tail += 1
                if tail == cap:
                    tail = 0
            counts[winner] += plen
            tricks += 1
            if counts[1 - winner] == 0:
                return 0, winner, tricks
            cur = winner
        return 2, -1, tricks

    @njit(cache=True)
    def _jit_sim_one(idx, n_total, max_rank, seed, max_tricks,
                     deckbuf, heads, counts, pile, full):
        state = _jit_stream_state(seed, np.uint64(idx))
        p = 0
        for r in range(1, max_rank + 1):
            for _ in range(4):
                full[p] = r
                p += 1
        while p < n_total:
            full[p] = 0
            p += 1
        for i in range(n_total - 1, 0, -1):
            state, j = _jit_below(state, i + 1)
            t = full[i]
            full[i] = full[j]
            full[j] = t
        half = n_total // 2
        for i in range(half):
            deckbuf[0, i] = full[i]
            deckbuf[1, i] = full[half + i]
        heads[0] = 0
        heads[1] = 0
        counts[0] = half
        counts[1] = half
        return _jit_match(deckbuf, heads, counts, pile, 0, max_tricks)

    @njit(cache=True)
    def _jit_batch(lo, hi, n_total, max_rank, seed, max_tricks, durations, winners):
        deckbuf = np.empty((2, n_total), np.int8)
        heads = np.empty(2, np.int64)
        counts = np.empty(2, np.int64)
        pile = np.empty(n_total, np.int8)
        full = np.empty(n_total, np.int8)
        for idx in range(lo, hi):
            status, winner, tricks = _jit_sim_one(
                idx, n_total, max_rank, seed, max_tricks,
                deckbuf, heads, counts, pile, full)
            durations[idx - lo] = tricks
            winners[idx - lo] = winner if status == 0 else -1

    @njit(cache=True, parallel=True)
    def _jit_batch_par(lo, hi, n_total, max_rank, seed, max_tricks, durations, winners):
        for idx in prange(lo, hi):
            deckbuf = np.empty((2, n_total), np.int8)
            heads = np.empty(2, np.int64)
            counts = np.empty(2, np.int64)
            pile = np.empty(n_total, np.int8)
            full = np.empty(n_total, np.int8)
            status, winner, tricks = _jit_sim_one(
                idx, n_total, max_rank, seed, max_tricks,
                deckbuf, heads, counts, pile, full)
            durations[idx - lo] = tricks
            winners[idx - lo] = winner if status == 0 else -1

    def _set_threads(workers):
        try:
            numba.set_num_threads(max(1, min(workers, numba.config.NUMBA_NUM_THREADS)))
        except Exception:
            pass


# ---------------------------------------------------------------------------
# Dispatchers
# ---------------------------------------------------------------------------


def play_match_raw(deck_a, deck_b, leader, max_tricks):
    """(status, winner, tricks) for one match, no loop detection."""
    if HAVE_NUMBA:
        n = len(deck_a) + len(deck_b)
        deckbuf = np.zeros((2, n), dtype=np.int8)
        if deck_a:
            deckbuf[0, : len(deck_a)] = deck_a
        if deck_b:
            deckbuf[1, : len(deck_b)] = deck_b
        heads = np.zeros(2, dtype=np.int64)
        counts = np.array([len(deck_a), len(deck_b)], dtype=np.int64)
        pile = np.empty(n, dtype=np.int8)
        status, winner, tricks = _jit_match(deckbuf, heads, counts, pile,
                                            leader, max_tricks)
        return int(status), int(winner), int(tricks)
    return _py_match(deck_a, deck_b, leader, max_tricks)


def simulate_batch(n_matches, n_total, max_rank, seed, max_tricks, workers=1):
    """Deal and play `n_matches` independent matches.

    Match i draws from the stream derived from (seed, i); the result arrays
    are therefore identical for any worker count and either backend.
    Returns (durations int32, winners int8) with winner -1 marking matches
    that hit the trick budget.
    """
    if max_tricks >= 2 ** 31:
        raise ValueError("max_tricks too large for the batch kernels")
    durations = np.empty(n_matches, dtype=np.int32)
    winners = np.empty(n_matches, dtype=np.int8)
    seed_u = np.uint64(seed & MASK64)
    if HAVE_NUMBA:
        if workers > 1:
            _set_threads(workers)
            _jit_batch_par(0, n_matches, n_total, max_rank, seed_u, max_tricks,
                           durations, winners)
        else:
            _jit_batch(0, n_matches, n_total, max_rank, seed_u, max_tricks,
                       durations, winners)
    else:
        _py_batch(0, n_matches, n_total, max_rank, seed, max_tricks,
                  durations, winners)
    return durations, winners
