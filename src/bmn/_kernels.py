"""The match kernels: the one trick loop, the one match function, batches.

Every trick the package plays runs through `_py_run`: whole matches,
single tricks (`engine.play_trick`) and state walks (`engine.walk`). Every
match is played by `play_match_loops`, which runs Brent's cycle detector
on that loop, saving one state at a time and finding the exact transient
with a second lockstep pass; it tells a terminated match, a loop and a
match over the trick budget apart. A batch deals match i with
`SplitMix64.shuffle`, the reference deal, on the (seed, i) splitmix64
stream, so its results do not depend on how the batch is split, and plays
the matches one by one.

`factory` runs the loop factory's whole round loop, `factory._rounds`,
in one call: its draws, fragments, checkpoint store and every insertion
and correction test, each a `play_match_loops` with A leading. `search`
runs the whole breadth-first backward search over `pack`ed states, to its
depth or node limit, in one call, and returns the states found and their
depths: each bottom slice of the winner's deck that `_parse_pile` reads as
a trick is pushed back onto the players' decks, which gives one
predecessor; no trick is played to confirm it.

`play_match_loops`, `simulate_batch` and `search` run on a C kernel when
one is available, and `factory` runs only there: `_ckernel.c`, the same
shuffle, trick loop, Brent detector, pile parse and factory round loop
line for line, bit-identical to the reference shuffle and the Python code
here and in `factory`, which stays as the reference and the fallback.
On first use the source is compiled with the system C compiler (`cc -O2
-shared -fPIC`) into `$XDG_CACHE_HOME/bmn` (default `~/.cache/bmn`), the
file named by the source's sha256 and the platform (system, machine, C
library), and loaded with ctypes; later processes load the cached library
without compiling, and build it again only if it does not load. A build
removes the libraries of other source versions for the same platform.
Without a compiler, when the build fails or the cache directory is not
private to the user, and for decks or budgets past the C kernel's limits,
the Python code plays. `backend()` names the kernel in use.

Card coding: 0 is an ordinary card, 1..9 are special ranks. Players are
coded 0 (A) and 1 (B). Match status codes: 0 = terminated, 1 = looped,
2 = trick budget exhausted.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import re
import struct
import sys
from collections import deque
from itertools import chain

import numpy as np

from ._rng import MASK64, SplitMix64

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_ckernel.c")

#: Budgets the C kernel takes: its trick counts, up to about three times
#: the budget (see `_py_match_loops`), stay within int64. Its search takes
#: depth and node limits cut to this.
_C_MAX_TRICKS = 2 ** 60


def _cache_dir() -> str:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "bmn")


def _private(path) -> bool:
    """True if `path` is the user's own and no one else may write to it."""
    st = os.stat(path)
    return st.st_uid == os.getuid() and not st.st_mode & 0o022


def _compile(target) -> bool:
    """Compile the C source into `target`; False if no compiler could.

    The library is built in a temporary directory beside `target` and moved
    into place with `os.replace`, so processes or threads building it at
    once never load a partial file.
    """
    # imported here: a process that finds the library cached needs none of them
    import shutil
    import subprocess
    import tempfile

    cc = shutil.which("cc")
    if cc is None:
        return False
    with tempfile.TemporaryDirectory(dir=os.path.dirname(target)) as work:
        built = os.path.join(work, "_ckernel.so")
        try:
            subprocess.run([cc, "-O2", "-shared", "-fPIC", "-o", built, _SOURCE],
                           check=True, capture_output=True, timeout=300)
        except subprocess.SubprocessError:
            return False
        os.chmod(built, 0o700)
        os.replace(built, target)
    return True


def _platform_tag() -> str:
    """The system, machine and C library a compiled kernel is bound to, so
    that hosts sharing a cache directory keep their libraries apart."""
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION") or ""
    except (ValueError, OSError):  # not glibc
        libc = ""
    return "-".join([sys.platform, os.uname().machine, *libc.split()])


def _build_c():
    """Path of the compiled C kernel, compiled into the cache unless it is
    there; None without a compiler or a cache private to the user. A cached
    library is taken as it is: no compiler runs."""
    with open(_SOURCE, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    folder = _cache_dir()
    os.makedirs(folder, mode=0o700, exist_ok=True)
    if not _private(folder):
        return None
    tag = _platform_tag()
    target = os.path.join(folder, f"_ckernel-{digest}-{tag}.so")
    if not os.path.exists(target):
        if not _compile(target):
            return None
        # the libraries of other source versions for this platform are stale
        stale = re.compile(rf"_ckernel-(?!{digest})[0-9a-f]{{64}}-{re.escape(tag)}\.so")
        for name in os.listdir(folder):
            if stale.fullmatch(name):
                with contextlib.suppress(OSError):  # gone already, or kept: no harm
                    os.remove(os.path.join(folder, name))
    return target if _private(target) else None


def _load_c():
    """The C kernel through ctypes, or None if it cannot be built or loaded.

    A cached library that does not load (a damaged file, or one built for
    another C library under the same name) is removed and built once more.
    """
    try:
        path = _build_c()
        if path is None:
            return None
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            os.remove(path)
            path = _build_c()
            if path is None:
                return None
            lib = ctypes.CDLL(path)
    except OSError:
        return None
    # buffers go as plain pointers: checking typed pointer arguments made a
    # call cost 2.1 us instead of 1.4 us (2-core Xeon), as much as a short
    # match takes to play
    ptr, size, i64 = ctypes.c_void_p, ctypes.c_uint32, ctypes.c_int64
    lib.bmn_play_loops.argtypes = [ptr, size, ptr, size, ctypes.c_int, i64, ptr]
    lib.bmn_play_loops.restype = ctypes.c_int
    lib.bmn_simulate.argtypes = [ptr, size, ctypes.c_uint64, ctypes.c_uint64, i64, i64,
                                 ptr, ptr]
    lib.bmn_simulate.restype = ctypes.c_int
    lib.bmn_factory.argtypes = [ptr, size, size, ptr, i64, ptr, i64, ptr, ctypes.c_double,
                                ctypes.c_uint64, i64, i64, ptr, ptr]
    lib.bmn_factory.restype = ctypes.c_int
    lib.bmn_search.argtypes = [ptr, i64, i64, i64, ptr]
    lib.bmn_search.restype = ctypes.c_int
    lib.bmn_free.argtypes = [ptr]
    lib.bmn_free.restype = None
    return lib


#: The loaded C kernel; None until first use, False if it did not load.
_ckernel = None


def _c():
    """The C kernel, loading it on first use; False if it is unavailable."""
    global _ckernel
    if _ckernel is None:
        _ckernel = _load_c() or False
    return _ckernel


def backend() -> str:
    """Name of the kernel that plays matches: "c" or "python"."""
    return "c" if _c() else "python"


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


_Result = ctypes.c_int64 * 2


def play_match_loops(deck_a, deck_b, leader, max_tricks):
    """Play one match with Brent cycle detection in O(1) saved states.

    Returns (status, a, b): (0, winner, tricks) if the match ends within
    `max_tricks`; (1, transient, period) if the trick-boundary states
    cycle with transient + period <= `max_tricks`; otherwise
    (2, -1, max_tricks). This is the package's only match function. It
    runs on the C kernel if that loaded and takes the decks (cards in
    0..255, at most 1024 of them) and the budget; otherwise on
    `_py_match_loops`, with the same result.
    """
    lib = _c()
    if lib and -_C_MAX_TRICKS < max_tricks < _C_MAX_TRICKS:
        try:
            a, b = bytes(deck_a), bytes(deck_b)
        except ValueError:  # a card outside 0..255
            pass
        else:
            result = _Result()
            status = lib.bmn_play_loops(a, len(a), b, len(b), leader, max_tricks, result)
            if status >= 0:  # -1: more cards than the C kernel holds
                return status, result[0], result[1]
    return _py_match_loops(deck_a, deck_b, leader, max_tricks)


def _py_match_loops(deck_a, deck_b, leader, max_tricks):
    """`play_match_loops` in pure Python: the reference the C kernel follows.

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


def factory(deck_a, deck_b, targets, rows, n_rows, knobs, restart_probability, rng_state,
            budget, max_tricks):
    """`factory._rounds` in one call on the C kernel, or None without it.

    The seed decks, the composition `targets` (per type, ordinaries
    first), the `n_rows` strategy rows encoded in the bytes `rows`, the
    tuning constants `knobs` and `restart_probability`, the rng's state,
    the round budget (cut to `_C_MAX_TRICKS`) and the trick cap go as
    `factory._c_rounds` gives them. Returns (complete, best deck_a, best
    deck_b, best depth, best age, rounds, tests); None also for a cap from
    `_C_MAX_TRICKS` on, a card outside 0..255, a run whose checkpoints
    could hold more than 1024 cards, or constants the kernel does not take.
    """
    lib = _c()
    if not lib or max_tricks >= _C_MAX_TRICKS:
        return None
    try:
        seed = bytes(deck_a) + bytes(deck_b)
    except ValueError:  # a card outside 0..255
        return None
    # room for any checkpoint: it holds no more than the seed and the composition
    best, out = ctypes.create_string_buffer(len(seed) + sum(targets)), (ctypes.c_int64 * 6)()
    status = lib.bmn_factory(seed, len(deck_a), len(deck_b),
                             (ctypes.c_int64 * len(targets))(*targets), len(targets), rows,
                             n_rows, (ctypes.c_int64 * len(knobs))(*knobs),
                             restart_probability, rng_state, min(budget, _C_MAX_TRICKS),
                             max_tricks, best, out)
    if status == -1:
        return None
    if status == -2:
        raise MemoryError("no memory for the loop factory")
    rounds, tests, n_a, n_b, depth, age = out
    return (status == 1, tuple(best.raw[:n_a]), tuple(best.raw[n_a:n_a + n_b]), depth, age,
            rounds, tests)


#: A packed state is this header (the leader, then the lengths of decks A
#: and B), then a byte per card of A and then of B: equal states, equal bytes.
HEADER = struct.Struct("<BHH")


def pack(deck_a, deck_b, leader) -> bytes:
    try:
        header = HEADER.pack(leader, len(deck_a), len(deck_b))
    except struct.error:  # a deck length past the header's 16 bits
        raise ValueError("a packed state holds decks of at most 65,535 cards") from None
    return header + bytes(deck_a) + bytes(deck_b)


def split(packed):
    """(leader, cards of A, cards of B) of a packed state, the cards as bytes."""
    leader, n_a, _ = HEADER.unpack_from(packed)
    return leader, packed[HEADER.size:HEADER.size + n_a], packed[HEADER.size + n_a:]


def even_split(states, offsets):
    """Mask of the packed states states[offsets[i]:offsets[i + 1]], as
    `search` returns them, whose two decks hold the same number of cards."""
    head, starts = np.frombuffer(states, np.uint8), offsets[:-1]
    # header bytes 1-2 and 3-4 are the lengths of A and B
    return (head[starts + 1] == head[starts + 3]) & (head[starts + 2] == head[starts + 4])


class _Found(ctypes.Structure):
    """bmn_search's result: arrays the C kernel allocated, freed by bmn_free."""
    _fields_ = [("states", ctypes.c_void_p), ("offsets", ctypes.c_void_p),
                ("depths", ctypes.c_void_p), ("n", ctypes.c_int64)]


def search(seeds, max_depth, max_nodes):
    """Breadth-first backward search from the packed states `seeds`, each
    led by the winner of the trick before it.

    Every distinct seed is found first, at depth 0. Each later level holds
    the predecessors of the level before it, in its order and then by pile
    length, that were not found before. The search stops after `max_depth`
    levels or as soon as `max_nodes` states are found (every distinct seed
    is kept). Returns (states, offsets, depths), the last two numpy arrays:
    state i is states[offsets[i]:offsets[i + 1]], found at depths[i]. Runs
    on the C kernel if that loaded, and on `_py_search` without it or for a
    seed past its 1024 cards, with the same result.
    """
    lib, found = _c(), _Found()
    status = lib.bmn_search(b"".join(seeds), len(seeds), min(max_depth, _C_MAX_TRICKS),
                            min(max_nodes, _C_MAX_TRICKS),
                            ctypes.addressof(found)) if lib else -1
    if status == -1:  # no C kernel, or a seed with more cards than it holds
        return _py_search(seeds, max_depth, max_nodes)
    if status:
        raise MemoryError("no memory for the backward search")
    try:
        n = found.n
        offsets = np.frombuffer(ctypes.string_at(found.offsets, 8 * (n + 1)), np.int64)
        return (ctypes.string_at(found.states, int(offsets[-1])), offsets,
                np.frombuffer(ctypes.string_at(found.depths, 8 * n), np.int64))
    finally:
        lib.bmn_free(ctypes.addressof(found))


def _py_search(seeds, max_depth, max_nodes):
    """`search` in pure Python: the reference the C kernel follows."""
    found = dict.fromkeys(seeds, 0)  # each state's depth, in the order found
    level, depth = list(found), 0
    while level and depth < max_depth and len(found) < max_nodes:
        depth += 1
        targets, level = level, []
        # chained lazily: no target is stepped once the budget is spent
        for packed in chain.from_iterable(map(_py_step, targets)):
            if packed not in found:
                found[packed] = depth
                level.append(packed)
                if len(found) >= max_nodes:
                    break
    return (b"".join(found), np.cumsum([0, *map(len, found)], dtype=np.int64),
            np.fromiter(found.values(), np.int64, len(found)))


def _py_step(packed):
    """Yield the predecessors of the packed state, led by the winner of the
    trick before it, in order of pile length: the reference for the C
    kernel's `step`."""
    winner, cards_a, cards_b = split(packed)
    wdeck, ldeck = (cards_b, cards_a) if winner else (cards_a, cards_b)
    n = len(wdeck)
    # a pile ends with the closing block, k ordinaries after a rank-k special
    k = n - len(wdeck.rstrip(b"\0"))
    if not ldeck or not 0 < k < n or wdeck[-1 - k] != k:
        return
    for plen in range(1, n + 1):
        parsed = _parse_pile(wdeck[n - plen:])
        if parsed is None:
            continue
        # a parse needs no trick to confirm it: with each player's parsed
        # cards back on top of their deck, the trick flips the same cards,
        # never from an empty deck, and ends at the same card; the
        # challenger puts the pile under the rest of wdeck, and the loser
        # keeps ldeck, not empty: no terminal trick
        won, lost, leader_won = parsed
        prev_w, prev_l = won + wdeck[:n - plen], lost + ldeck
        decks = (prev_l, prev_w) if winner else (prev_w, prev_l)
        yield pack(*decks, winner if leader_won else 1 - winner)


def _parse_pile(pile):
    """Attribute each pile card to the player forced to flip it.

    Cards are assigned relative to the trick's leader, since the rules do
    not depend on which player leads. Returns (bytearrays of the cards the
    winner and the loser played, whether the leader won) when the pile is a
    complete natural trick ending exactly at its last card; None otherwise:
    the reference for the C kernel's `parse_pile`. It stays apart from the
    forward trick loop `_py_run`: replaying candidate piles through that
    loop made the backward step 1.7x slower.
    """
    played = (bytearray(), bytearray())
    cur = 0
    challenger = 0
    pending = 0
    last = len(pile) - 1
    for i, card in enumerate(pile):
        played[cur].append(card)
        if card > 0:
            challenger = cur
            pending = card
            cur = 1 - cur
        elif pending > 0:
            pending -= 1
            if pending == 0:
                if i != last:
                    return None  # trick would have ended before the pile did
                return played[challenger], played[1 - challenger], challenger == 0
        else:
            cur = 1 - cur
    return None  # pile ran out with the trick still open


def simulate_batch(n_matches, deck, seed, max_tricks, start=0):
    """Deal and play matches start .. start + n_matches - 1.

    Match i shuffles a copy of `deck` (the full multiset in canonical order)
    with the (seed, i) stream, gives each player half and is played by
    `play_match_loops` with A leading. Returns (durations int32, winners
    int8): winners[i] is 0 or 1 for the winner of a terminated match, -1 for
    a loop and -2 for a match over the trick budget; durations[i] is its
    trick count, its period or `max_tricks`, respectively. Runs on the C
    kernel if that loaded and takes the deck, otherwise on
    `_py_simulate_batch`, with the same result.
    """
    if max_tricks >= 2 ** 31:
        raise ValueError("max_tricks too large for the batch kernel")
    lib = _c()
    if lib:
        try:
            cards = bytes(deck)
        except ValueError:  # a card outside 0..255
            cards = None
        durations = np.empty(n_matches, dtype=np.int32)
        winners = np.empty(n_matches, dtype=np.int8)
        if cards is not None and lib.bmn_simulate(
                cards, len(cards), seed & MASK64, start & MASK64, n_matches, max_tricks,
                durations.ctypes.data, winners.ctypes.data) == 0:
            return durations, winners
    return _py_simulate_batch(n_matches, deck, seed, max_tricks, start)


def _py_simulate_batch(n_matches, deck, seed, max_tricks, start=0):
    """`simulate_batch` in pure Python: the reference the C kernel follows.

    Match i is dealt as `simulator.match_state` deals it and played alone.
    """
    durations = np.empty(n_matches, dtype=np.int32)
    winners = np.empty(n_matches, dtype=np.int8)
    half = len(deck) // 2
    for idx in range(n_matches):
        cards = list(deck)
        SplitMix64.for_stream(seed, start + idx).shuffle(cards)
        status, a, b = _py_match_loops(cards[:half], cards[half:], 0, max_tricks)
        winners[idx] = a if status == 0 else -status
        durations[idx] = b
    return durations, winners
