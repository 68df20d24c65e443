"""The match kernels: the one trick loop, the one match function, batches.

The trick rule is written once in Python, in `_py_run`: single tricks
(`engine.play_trick`), state walks (`engine.walk`) and the reference
matches play through it, and the C kernel plays the same tricks: its
`run` keeps the decks in locals, has no challenger (a trick's winner is
the player not to flip when it ends) and writes each card flipped straight
past the tails of both decks' rings, so no pile is gathered and copied;
the comment there says why the decks come out the same. Every
match is played by `play_match_loops`, which runs Brent's cycle detector
on that loop as one loop over blocks of tricks, the first unwatched,
saving one state at a time and finding the exact transient with a second
lockstep pass; it tells a terminated match, a loop and a match over the
trick budget apart. A batch deals match i with `SplitMix64.shuffle`, the
reference deal, on the (seed, i) splitmix64 stream, so its results do not
depend on how the batch is split, and plays the matches one by one; on the
C kernel the calling thread and its helpers share it out in fixed chunks.

`factory` runs the loop factory's whole round loop, `factory._rounds`,
in one call: its draws, its fragments from the pattern table it is passed
(`factory._PATTERNS`, which `factory._pattern_fragments` reads too,
encoded once per table by `factory._c_tables`), its checkpoint store and
every insertion and correction test, each a `play_match_loops` with A
leading. Both round loops keep a memo of the run's failed tests, bounded
by `factory._MEMO_BYTES`, and play no test it holds; in C a test and a
memo entry are `pack`ed states, the layout of the search and the trace
too. The count of tests (`FactoryResult.tests_run`) takes in every
candidate all the same, so it counts candidates, not matches played;
`factory` also gives the count of tests played, the memo's misses.
In C the memo and the states the search finds are one hash set of
`pack`ed states: an arena of the states, in the order kept, and a table
that finds them.
`search` runs the whole breadth-first backward search over `pack`ed
states of one width, to its depth or node limit, in one call, and returns
the states found and their depths: each bottom slice of the winner's deck
that `_parse_pile` reads as a trick is pushed back onto the players'
decks, which gives one predecessor; no trick is played to confirm it.
`trace` walks a match a chunk of tricks per call and gives each trick
boundary's whole record, as `analyzer.trace_records` yields it: deck
sizes, special positions, separations and entropies.

`play_match_loops`, `simulate_batch` and `search` run on a C kernel when
one is available and holds their decks, and `factory` and `trace` run
only there: `_ckernel.c`, the same Brent detector, pile parse and factory
round loop line for line, the trick loop above, and the shuffle without
branches (a rejected draw swaps a slot with itself, so it takes
`SplitMix64.below`'s draws), bit-identical to the reference shuffle and
the Python code here, in `factory` and in `engine.walk`, which stays as
the reference and the fallback.
On first use the source is compiled with the system C compiler (`cc -o
LIBRARY _ckernel.c` and `_CFLAGS`) into `$XDG_CACHE_HOME/bmn` (default
`~/.cache/bmn`), the file named by the sha256 of the source and the flags
and by the platform (system, machine, C library): `_library_path()`. It
is loaded with ctypes; later processes load the cached library without
compiling, and build it again only if it does not load.
The C kernel takes what the entry points here hand it and checks
nothing: `_c_decks` alone decides whether it holds the decks (at most
1024 cards, each in 0..255), and `_cut` cuts every count it is handed (a
budget, trick cap, depth, node limit, round budget or batch) into
(-2**60, 2**60), which could change a result only past 2**60 tricks,
rounds or states; an over-budget match still gives the caller's own
budget.
Without a compiler, when the build fails or the cache directory is not
private to the user, and for decks the C kernel cannot hold, the Python
code plays. `backend()` names the kernel in use.

No kernel imports numpy: `search` gives its states as one bytes object
of fixed-width rows and their depths as an `array("q")`.

Card coding: 0 is an ordinary card, 1..9 are special ranks. Players are
coded 0 (A) and 1 (B). Match status codes: 0 = terminated, 1 = looped,
2 = trick budget exhausted.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import struct
import sys
import threading
from array import array
from collections import deque
from itertools import chain, compress, islice

from ._rng import MASK64, SplitMix64

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_ckernel.c")



#: What `cc -o LIBRARY _ckernel.c` is given after the source, the library
#: last: libm for the trace's log; no fused multiply-add, which some
#: machines would use for the entropy sum and so round it unlike Python.
#: A later -O or other flag overrides one here.
_CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC", "-lm")


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
            subprocess.run([cc, "-o", built, _SOURCE, *_CFLAGS], check=True,
                           capture_output=True, timeout=300)
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


def _library_path() -> str:
    """Where the cache keeps the library built from the source with
    `_CFLAGS` on this platform: a change to either names another file."""
    with open(_SOURCE, "rb") as fh:
        build = hashlib.sha256(fh.read())
    build.update("\0".join(("", *_CFLAGS)).encode())
    return os.path.join(_cache_dir(), f"_ckernel-{build.hexdigest()}-{_platform_tag()}.so")


def _build_c():
    """Path of the compiled C kernel, compiled into the cache unless it is
    there; None without a compiler or a cache private to the user. A cached
    library is taken as it is: no compiler runs."""
    target = _library_path()
    folder = os.path.dirname(target)
    os.makedirs(folder, mode=0o700, exist_ok=True)
    if not _private(folder):
        return None
    if not os.path.exists(target) and not _compile(target):
        return None
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
                                 ptr, i64, ptr]
    lib.bmn_simulate.restype = i64
    lib.bmn_factory.argtypes = [ptr, size, size, ptr, i64, ptr, ptr, i64, ptr,
                                ctypes.c_double, ctypes.c_uint64, i64, i64, ptr, ptr]
    lib.bmn_factory.restype = ctypes.c_int
    lib.bmn_search.argtypes = [ptr, i64, i64, i64, ptr]
    lib.bmn_search.restype = ctypes.c_int
    lib.bmn_free.argtypes = [ptr]
    lib.bmn_free.restype = None
    lib.bmn_trace.argtypes = [ptr, i64, ptr]
    lib.bmn_trace.restype = i64
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


#: Cards the C kernel holds: its MAX_CARDS.
_C_MAX_CARDS = 1024
#: Every count handed to the C kernel lies strictly within this of 0: its
#: trick counts, up to about three times a budget (see `_py_match_loops`),
#: stay within int64.
_C_MAX_TRICKS = 2 ** 60


def _c_decks(size, *decks):
    """(the C kernel, each of `decks` as bytes) if the kernel is loaded and
    holds them: `size` cards in play at most, no more than its 1024, each
    in 0..255; otherwise None in place of each. The one check of the decks
    the C kernel is handed."""
    lib = _c()
    try:
        if lib and size <= _C_MAX_CARDS:
            return lib, *map(bytes, decks)
    except ValueError:  # a card outside 0..255
        pass
    return (None,) * (1 + len(decks))


def _cut(count):
    """`count` cut into (-2**60, 2**60), the counts the C kernel takes: a
    budget, trick cap, depth, node limit or batch past them could change a
    result only past 2**60 tricks, rounds or states."""
    return max(1 - _C_MAX_TRICKS, min(count, _C_MAX_TRICKS - 1))


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
    runs on the C kernel, the budget `_cut`, if that loaded and holds the
    decks (`_c_decks`); otherwise on `_py_match_loops`, with the same result.
    """
    lib, a, b = _c_decks(len(deck_a) + len(deck_b), deck_a, deck_b)
    if not lib:
        return _py_match_loops(deck_a, deck_b, leader, max_tricks)
    result = _Result()
    status = lib.bmn_play_loops(a, len(a), b, len(b), leader, _cut(max_tricks), result)
    return (status, result[0], result[1]) if status < 2 else (2, -1, max_tricks)


def _py_match_loops(deck_a, deck_b, leader, max_tricks):
    """`play_match_loops` in pure Python: the reference the C kernel follows.

    Brent's algorithm (R. P. Brent, BIT 20, 1980), with blocks of
    f * 2**k tricks (f = _BRENT_FIRST_BLOCK), played by one loop that
    decides termination and looping alike for every block. Block 0, the
    first f tricks, is played unwatched. Block k >= 1 saves the state after
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
    first = _BRENT_FIRST_BLOCK
    last = first
    while last < max_tricks + first - 1:
        last *= 2
    limit = max_tricks + last
    decks = [deque(deck_a), deque(deck_b)]
    cur, tricks, block = leader, 0, first
    while tricks < limit:
        saved = (cur, deque(decks[0]), deque(decks[1])) if tricks else None
        status, cur, played, _ = _py_run(decks, cur, min(block, limit - tricks), saved)
        tricks += played
        if status == 0:
            if tricks > max_tricks:
                break
            return 0, cur, tricks
        if status == 1:
            transient = (_py_transient(deck_a, deck_b, leader, played, max_tricks - played)
                         if played <= max_tricks else None)
            if transient is None:
                break
            return 1, transient, played
        block *= 2
    return 2, -1, max_tricks


#: Bytes of rows one `bmn_trace` call writes at most, so a trace's chunks
#: take the same memory whatever the number of specials; a call walks at
#: least one trick, and a short match gets a buffer of its own rows only.
_TRACE_BYTES = 1 << 15


def trace(deck_a, deck_b, leader, tricks, record):
    """`engine.walk` from a state on the C kernel, each state measured, or
    None unless that loaded and holds the decks (`_c_decks`).

    Yields a `record`, a tuple type with `analyzer.TrickRecord`'s fields,
    for the state (trick 0) and after each of the next `tricks` tricks:
    (trick, size of A, size of B, A's special count, B's, positions of A's
    specials, of B's, separation of A, of B, entropy of A, of B), the
    positions 1-based from the top, in tuples, and the measures bit for
    bit `analyzer._spacing`'s. The walk stops at the end of the match. It
    plays a chunk of tricks per C call and holds no more.
    """
    lib, a, b = _c_decks(len(deck_a) + len(deck_b), deck_a, deck_b)
    if not lib:
        return None
    packed = pack(a, b, leader)
    specials = len(packed) - HEADER.size - packed.count(0, HEADER.size)
    return _c_trace(lib, ctypes.create_string_buffer(packed, len(packed)), specials, tricks,
                    record)


def _c_trace(lib, state, specials, tricks, record):
    """`trace`'s walk: `bmn_trace` writes each row as the sizes of A and B
    and A's special count k, then the positions of A's k specials and of
    B's, all native uint16, then A's and B's separations and entropies,
    native doubles, unaligned."""
    end = 3 + specials  # where the doubles start
    row = struct.Struct(f"={end}H4d")
    per_call = max(1, min(tricks, _TRACE_BYTES // row.size - 1))
    out = ctypes.create_string_buffer(row.size * (per_call + 1))
    # tuple.__new__ skips the named tuple's own __new__, a Python function
    # that took a fifth of a record's time
    new, trick = tuple.__new__, 0
    skip = 0  # a later chunk starts at the state the one before ended at
    while True:
        n = min(per_call, tricks)
        played = lib.bmn_trace(state, n, out)
        for r in islice(row.iter_unpack(out), skip, played + 1):
            k = r[2]
            yield new(record, (trick, r[0], r[1], k, specials - k, r[3:3 + k], r[3 + k:end],
                               r[end], r[end + 1], r[end + 2], r[end + 3]))
            trick += 1
        tricks -= played
        if played < n or not tricks:
            return
        skip = 1


def factory(deck_a, deck_b, targets, table, rows, n_rows, knobs, restart_probability,
            rng_state, budget, max_tricks):
    """`factory._rounds` in one call on the C kernel, or None without it.

    The seed decks, the composition `targets` (per type, ordinaries
    first), the pattern `table` and the `n_rows` strategy rows encoded in
    the bytes `rows`, which name patterns by their index (both as
    `factory._c_tables` encodes them), the tuning constants `knobs` (the
    last the memo's bound: the bytes of its arena and table together) and
    `restart_probability`, the rng's state, the round budget and the trick
    cap (both `_cut`) go as `factory._c_rounds` gives them; the kernel
    takes the package's tables and constants as given, and a tier-1 test
    checks that they fit it. Returns (complete, best deck_a, best deck_b,
    best depth, best age, rounds, tests, played), `played` the tests that
    the memo of failed tests did not hold; None also if the kernel cannot
    hold the run's checkpoints (`_c_decks`): a checkpoint gains no type but
    those the seed lacks, and those only up to the composition, so the seed
    and its positive deficits bound its cards.
    """
    seed = (*deck_a, *deck_b)
    lacking = sum(max(0, n - seed.count(t)) for t, n in enumerate(targets))
    lib, seed = _c_decks(len(seed) + lacking, seed)
    if not lib:
        return None
    # room for any checkpoint: it holds no more than the seed and the composition
    best, out = ctypes.create_string_buffer(len(seed) + sum(targets)), (ctypes.c_int64 * 7)()
    status = lib.bmn_factory(seed, len(deck_a), len(deck_b),
                             (ctypes.c_int64 * len(targets))(*targets), len(targets), table,
                             rows, n_rows, (ctypes.c_int64 * len(knobs))(*knobs),
                             restart_probability, rng_state, _cut(budget), _cut(max_tricks),
                             best, out)
    if status < 0:
        raise MemoryError("no memory for the loop factory")
    rounds, tests, n_a, n_b, depth, age, played = out
    return (status == 1, tuple(best.raw[:n_a]), tuple(best.raw[n_a:n_a + n_b]), depth, age,
            rounds, tests, played)


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


class _Found(ctypes.Structure):
    """bmn_search's result: arrays the C kernel allocated, freed by bmn_free."""
    _fields_ = [("states", ctypes.c_void_p), ("depths", ctypes.c_void_p),
                ("n", ctypes.c_int64)]


def search(seeds, max_depth, max_nodes):
    """Breadth-first backward search from the packed states `seeds`, all of
    one width, each led by the winner of the trick before it.

    Every distinct seed is found first, at depth 0. Each later level holds
    the predecessors of the level before it, in its order and then by pile
    length, that were not found before. The search stops after `max_depth`
    levels or as soon as `max_nodes` states are found (every distinct seed
    is kept). Returns (states, depths): a trick keeps every card, so the
    states are rows of the seeds' width, back to back in one bytes object,
    state i the bytes states[i * width:(i + 1) * width], found at
    depths[i], an `array("q")`. Seeds of two widths are a ValueError. Runs
    on the C kernel, both limits `_cut`, if that loaded and holds the seeds
    (`_c_decks`), and on `_py_search` otherwise, with the same result.
    """
    width, *others = set(map(len, seeds)) or {HEADER.size}
    if others:
        raise ValueError("the seeds of one search must hold the same number of cards")
    lib, joined = _c_decks(width - HEADER.size, b"".join(seeds))
    if not lib:
        return _py_search(seeds, max_depth, max_nodes)
    found = _Found()
    if lib.bmn_search(joined, len(seeds), _cut(max_depth), _cut(max_nodes),
                      ctypes.addressof(found)):
        raise MemoryError("no memory for the backward search")
    try:
        depths = array("q")
        depths.frombytes(ctypes.string_at(found.depths, 8 * found.n))
        return ctypes.string_at(found.states, found.n * width), depths
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
    return b"".join(found), array("q", found.values())


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


#: Trick counts a batch's first histogram holds (0 .. 1023); a longer match doubles it.
_FIRST_HISTOGRAM = 1024
#: Matches a thread of a batch claims at a time; a batch of more than
#: `_CHUNK * _MAX_CHUNKS` matches is cut into at most `_MAX_CHUNKS` larger chunks.
_CHUNK = 512
_MAX_CHUNKS = 4096


def simulate_batch(n_matches, deck, seed, max_tricks, start=0, threads=1):
    """Deal, play and fold matches start .. start + n_matches - 1.

    Match i shuffles a copy of `deck` (the full multiset in canonical order)
    with the (seed, i) stream, gives each player half and is played by
    `play_match_loops` with A leading. Returns `stats.summarize_counts`'
    arguments: the terminated matches' count by trick count (a dict), wins
    of A, wins of B, loops and matches over the budget.

    Runs on the C kernel, the budget and each call's matches `_cut`, if that
    loaded and holds the deck (`_c_decks`). The C kernel releases the
    interpreter lock, so the calling thread and up to `threads - 1` helper
    threads play together: each claims chunks of `_CHUNK` matches, in index
    order, from one shared counter and folds every chunk it claims into a
    histogram and tally of its own. The folds are integer sums, so the result
    does not depend on which thread played which chunk. An error or an
    interrupt on any thread stops every thread at its next claim; once the
    helpers have ended, the first is raised here. Otherwise the batch plays
    on `_py_simulate_batch`, with the same result, on the calling thread
    alone: the Python kernel holds the interpreter lock.
    """
    lib, cards = _c_decks(len(deck), deck)
    if not lib:
        return _py_simulate_batch(n_matches, deck, seed, max_tricks, start)
    stop = start + n_matches
    chunk = max(_CHUNK, -(-n_matches // _MAX_CHUNKS))
    lock, claimed, folds, errors = threading.Lock(), [start], [], []

    def claim():
        """The next chunk (lo, hi), or None once all are claimed or a thread failed."""
        with lock:
            lo = claimed[0]
            if lo >= stop or errors:
                return None
            claimed[0] = min(lo + chunk, stop)
            return lo, claimed[0]

    def play(first):
        try:
            folds.append(_fold_chunks(lib, cards, seed, max_tricks, first, claim))
        except BaseException as exc:  # a helper's too: it is raised on the caller
            with lock:
                errors.append(exc)

    first = claim()  # the caller plays the first chunk, each helper one of the next
    helpers = [threading.Thread(target=play, args=(claim(),))
               for _ in range(min(threads, -(-n_matches // chunk)) - 1)]
    try:
        for helper in helpers:
            helper.start()
        play(first)
    finally:
        with lock:
            claimed[0] = stop  # if the caller was stopped outside `play`
        for helper in helpers:
            if helper.ident is not None:
                helper.join()
    if errors:
        raise errors[0]
    histogram = {}
    for hist, _ in folds:
        # one slice to a list: reading the 1024 ctypes entries one by one
        # took 240 us, four times as long (2-core Xeon)
        counts = hist[:]
        for n in compress(range(len(counts)), counts):
            histogram[n] = histogram.get(n, 0) + counts[n]
    return histogram, *map(sum, zip(*(tally[:] for _, tally in folds)))


def _fold_chunks(lib, cards, seed, max_tricks, chunk, claim):
    """Fold `chunk` and each chunk `claim()` gives until it gives None into
    one histogram and tally, which it returns; one `bmn_simulate` call per
    chunk, and one more each time a match outlasts the histogram, which
    then doubles."""
    hist, tally = (ctypes.c_int64 * _FIRST_HISTOGRAM)(), (ctypes.c_int64 * 4)()
    while chunk is not None:
        lo, hi = chunk
        while lo < hi:
            count = _cut(hi - lo)
            folded = lib.bmn_simulate(cards, len(cards), seed & MASK64, lo & MASK64, count,
                                      _cut(max_tricks), hist, len(hist), tally)
            lo += folded
            if folded < count:  # match lo outlasts the histogram
                hist, short = (ctypes.c_int64 * (2 * len(hist)))(), hist
                ctypes.memmove(hist, short, ctypes.sizeof(short))
        chunk = claim()
    return hist, tally


def _py_simulate_batch(n_matches, deck, seed, max_tricks, start=0):
    """`simulate_batch` in pure Python: the reference the C kernel follows.

    Match i is dealt as `simulator.match_state` deals it and played alone.
    """
    histogram, tally = {}, [0, 0, 0, 0]
    half = len(deck) // 2
    for idx in range(start, start + n_matches):
        cards = list(deck)
        SplitMix64.for_stream(seed, idx).shuffle(cards)
        status, a, b = _py_match_loops(cards[:half], cards[half:], 0, max_tricks)
        tally[a if status == 0 else 1 + status] += 1
        if status == 0:
            histogram[b] = histogram.get(b, 0) + 1
    return histogram, *tally
