"""Command-line interface: play, simulate, loops, backward, factory.

Exit codes: 0 success, 1 usage or parse error, 2 verification failure
(e.g. verifying a loop on decks that terminate), 141 (128 + SIGPIPE) when
the reader of standard output closes it early (`bmn ... | head`). All
commands are deterministic given their full flag set; emitted files are
documented in FORMATS.md.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import stat
import sys
import tempfile

from . import _kernels
from . import __version__, analyzer, backward, cycles, engine, factory, simulator, stats
from .engine import (
    PLAYER_A,
    PLAYER_B,
    BudgetExceeded,
    DeckParseError,
    GameState,
    Looped,
    Settings,
    Terminated,
    format_deck,
    parse_deck,
)

USAGE_ERROR = 1
VERIFY_ERROR = 2
BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a process the signal ended
#: States of a `backward` listing formatted per write: its memory stays
#: bounded whatever --max-nodes is.
_LISTING_BLOCK = 4096
#: The least value of each integer flag that has one, by its argparse dest:
#: below it, the command fails with an error line naming the flag before it
#: runs (the configs behind the flags check their own fields too).
_LEAST = {"matches": 1, "workers": 1, "max_tricks": 1, "depth": 0, "max_nodes": 1,
          "budget": 1, "trick_cap": 1}


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; this CLI reserves 2 for
    # verification failures, so remap.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


class _FlagError(Exception):
    """A flag value its reader rejects; `main` prints it as one `error:` line.

    Not a ValueError: argparse would catch that and print its usage lines
    and a message of its own."""


def _reader(flag, read, expects):
    """The argparse `type` of `flag`: `read`, a value it rejects with a
    ValueError raising `_FlagError`."""
    def typed(text):
        try:
            return read(text)
        except ValueError:
            raise _FlagError(f"{flag} expects {expects}, got {text!r}") from None
    return typed


def _integer(flag):
    """The argparse `type` of an integer flag: `engine.parse_int`."""
    return _reader(flag, engine.parse_int, "an integer")


def _fit_range(text):
    """`--fit`'s LO,HI as two integers."""
    lo, hi = text.split(",")
    return engine.parse_int(lo), engine.parse_int(hi)


_SETTING = _reader("--setting", Settings.parse, "N,R (e.g. 40,3)")


def _fail(message: str, code: int = USAGE_ERROR) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _parse_state(args, settings) -> GameState:
    deck_a = parse_deck(args.deck_a, settings)
    deck_b = parse_deck(args.deck_b, settings)
    return GameState(deck_a, deck_b, args.leader)


def _stage(path, staged):
    """Open output `path` for writing. A regular file (or a new one) is
    written under a temporary name beside it, listed in `staged` as
    (temporary, final) to be moved into place; any other path, such as a
    device or a pipe, is opened as it is."""
    try:
        st = os.stat(path)
    except FileNotFoundError:
        st = None
    if st is not None and not stat.S_ISREG(st.st_mode):
        return open(path, "w")
    final = os.path.realpath(path)
    try:
        fd, temporary = tempfile.mkstemp(dir=os.path.dirname(final),
                                         prefix=f".{os.path.basename(final)}.")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    staged.append((temporary, final))
    if st is not None:
        mode = stat.S_IMODE(st.st_mode)
    else:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    os.fchmod(fd, mode)
    return os.fdopen(fd, "w")


@contextlib.contextmanager
def _outputs(*paths):
    """Open every output path given (None: no file) for writing, before the
    work that fills them; yields the files, None for an absent path.

    A regular file is written under a temporary name beside it and moved
    into place once the work is done, so an error or an interrupt leaves
    no partial output and keeps the file that was there before. Devices
    and pipes are written to directly and never removed.
    """
    staged = []
    try:
        with contextlib.ExitStack() as stack:
            yield [stack.enter_context(_stage(path, staged)) if path else None
                   for path in paths]
        for temporary, final in staged:
            os.replace(temporary, final)
    finally:
        for temporary, _ in staged:
            with contextlib.suppress(OSError):
                os.remove(temporary)


def _outcome_line(outcome) -> str:
    if isinstance(outcome, Terminated):
        return f"Terminated winner={outcome.winner} tricks={outcome.tricks}"
    if isinstance(outcome, Looped):
        return f"Looped transient={outcome.transient} period={outcome.period}"
    return f"BudgetExceeded tricks={outcome.tricks_played}"


# ---------------------------------------------------------------------------
# play
# ---------------------------------------------------------------------------


def cmd_play(args) -> int:
    if args.positions and not args.trace:
        return _fail("--positions is written alongside --trace; give both")
    settings = args.setting
    state = _parse_state(args, settings)
    if not state.playable:
        return _fail("both decks must be nonempty")
    deficits = factory.missing(state.deck_a, state.deck_b, settings)
    if not args.allow_partial and any(d != 0 for d in deficits.values()):
        off = {r: d for r, d in deficits.items() if d != 0}
        return _fail(f"decks do not form a complete {settings} composition "
                     f"(deficits {off}); use --allow-partial to play anyway")
    with _outputs(args.trace, args.positions) as (trace, positions):
        outcome = engine.play_match(state, args.max_tricks)
        if trace:
            analyzer.write_trace_csv(analyzer.trace_records(state, outcome),
                                     trace, positions)
    print(_outcome_line(outcome))
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _stats_text(config, summary, fit) -> str:
    lines = [
        "# bmn stats v3",
        f"version = {__version__}",
        f"setting = {config.settings}",
        f"matches = {config.matches}",
        f"seed = {config.seed}",
        f"max_tricks = {config.max_tricks}",
        "",
        "[summary]",
        summary.to_text(),
    ]
    if fit is not None:
        lines += [
            "",
            "[fit]",
            f"lambda = {fit.lam!r}",
            f"p_geometric = {fit.p_geometric!r}",
            f"range_lo = {fit.fit_lo}",
            f"range_hi = {fit.fit_hi}",
            f"r_squared = {fit.r_squared!r}",
        ]
    return "\n".join(lines) + "\n"


def write_histogram_csv(histogram: dict, fh) -> None:
    fh.write("tricks,count\n")
    for tricks in sorted(histogram):
        fh.write(f"{tricks},{histogram[tricks]}\n")


def cmd_simulate(args) -> int:
    settings = args.setting
    config = simulator.SimConfig(settings=settings, matches=args.matches,
                                 seed=args.seed, max_tricks=args.max_tricks,
                                 workers=args.workers)
    if args.fit and args.fit[0] >= args.fit[1]:
        return _fail("--fit needs LO < HI, got '{},{}'".format(*args.fit))
    with _outputs(args.out, args.hist) as (out, hist):
        summary = simulator.run_batch(config)
        fit = stats.fit_exponential(summary.histogram, *args.fit) if args.fit else None
        (out or sys.stdout).write(_stats_text(config, summary, fit))
        if hist:
            write_histogram_csv(summary.histogram, hist)
    return 0


# ---------------------------------------------------------------------------
# loops
# ---------------------------------------------------------------------------


def cmd_loops(args) -> int:
    settings = args.setting
    state = _parse_state(args, settings)
    try:
        report = cycles.verify_loop(state, args.max_tricks)
    except cycles.NotALoopError as exc:
        print(exc, file=sys.stderr)
        return VERIFY_ERROR
    except cycles.UndecidedError as exc:
        print(f"undecided: {exc}", file=sys.stderr)
        return VERIFY_ERROR
    if args.mode == "verify":
        print(report.to_text())
    else:  # scan
        for entry in cycles.scan_balanced_entries(report, settings):
            print(f"deck_a={format_deck(entry.deck_a)} "
                  f"deck_b={format_deck(entry.deck_b)}")
    return 0


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------


def cmd_backward(args) -> int:
    config = backward.BackwardSearchConfig(max_depth=args.depth,
                                           max_nodes=args.max_nodes)
    settings = args.setting
    state = _parse_state(args, settings)
    if not state.playable:
        return _fail("both decks must be nonempty")
    if args.find_balanced:
        for found in backward.backward_search([state], config):
            print(f"leader={found.leader} deck_a={format_deck(found.deck_a)} "
                  f"deck_b={format_deck(found.deck_b)}")
        return 0
    # the predecessor tree, written from the packed states a block at a time;
    # the seed, the one state at depth 0, comes first and is not listed
    states, depths = backward.search([state], config)
    width = len(states) // len(depths)
    for lo in range(width, len(states), _LISTING_BLOCK * width):
        block = states[lo:lo + _LISTING_BLOCK * width]
        text = block.translate(engine.CARD_CHARS).decode("latin-1")
        lines = []
        # A's length, from the header's bytes 1 and 2, low byte first
        for i, low, high in zip(range(0, len(block), width), block[1::width], block[2::width]):
            cards = i + _kernels.HEADER.size  # A's cards, then B's from `split`
            split = cards + low + 256 * high
            lines.append(f"leader={'AB'[block[i]]} deck_a=[{text[cards:split]}] "
                         f"deck_b=[{text[split:i + width]}]\n")
        sys.stdout.write("".join(lines))
    return 0


# ---------------------------------------------------------------------------
# factory
# ---------------------------------------------------------------------------


def _findings_line(settings, state, report) -> str:
    return (f"setting={settings} deck_a={format_deck(state.deck_a)} "
            f"deck_b={format_deck(state.deck_b)} "
            f"transient={report.transient} period={report.period}")


def _read_seed_decks(path, settings) -> list:
    """Seed states from a seed-decks file; errors name the file and line."""
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:  # a ValueError that names no file
        raise ValueError(f"{path}: {exc}") from exc
    seeds = []
    for number, line in enumerate(lines, start=1):
        fields = line.split()
        if not fields or fields[0].startswith("#"):
            continue
        if len(fields) != 2:
            raise ValueError(f"{path}:{number}: expected 'DECKA DECKB', "
                             f"got {line.strip()!r}")
        try:
            deck_a, deck_b = (parse_deck(f, settings) for f in fields)
        except DeckParseError as exc:
            raise ValueError(f"{path}:{number}: {exc}") from exc
        if not (deck_a and deck_b):
            raise ValueError(f"{path}:{number}: both decks must be nonempty")
        seeds.append(GameState(deck_a, deck_b, PLAYER_A))
    return seeds


def cmd_factory(args) -> int:
    settings = args.setting
    seeds = []
    if args.seed_decks:
        seeds = _read_seed_decks(args.seed_decks, settings)
    elif args.seed_deck_a or args.seed_deck_b:
        if not (args.seed_deck_a and args.seed_deck_b):
            return _fail("--seed-deck-a and --seed-deck-b go together")
        seeds.append(GameState(parse_deck(args.seed_deck_a, settings),
                               parse_deck(args.seed_deck_b, settings), PLAYER_A))
        if not seeds[0].playable:
            return _fail("both decks must be nonempty")
    else:
        seeds.append(factory.default_seed_state())

    best_result = None
    # opened before the search, so that a bad path fails at once
    with open(args.out, "a") if args.out else contextlib.nullcontext() as out:
        for seed_state in seeds:
            config = factory.FactoryConfig(settings=settings, seed_state=seed_state,
                                           budget=args.budget, rng_seed=args.rng_seed,
                                           nontermination_trick_cap=args.trick_cap)
            try:
                result = factory.run_factory(config)
            except factory.SeedNotLoopingError:
                print(f"seed {format_deck(seed_state.deck_a)} "
                      f"{format_deck(seed_state.deck_b)} terminates; skipped",
                      file=sys.stderr)
                continue
            if result.success:
                line = _findings_line(settings, result.complete, result.report)
                if out:
                    out.write(line + "\n")
                print(f"complete {line} rounds={result.rounds_used}")
                return 0
            if best_result is None or result.best.score > best_result.best.score:
                best_result = result
    if best_result is None:
        return _fail("no usable seed configuration", VERIFY_ERROR)
    cp = best_result.best
    print(f"partial score={cp.score}/{settings.n_total} depth={cp.depth} "
          f"deck_a={format_deck(cp.deck_a)} deck_b={format_deck(cp.deck_b)} "
          f"rounds={best_result.rounds_used}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_deck_args(p):
    p.add_argument("--deck-a", required=True, help="player A's deck string")
    p.add_argument("--deck-b", required=True, help="player B's deck string")
    p.add_argument("--leader", choices=[PLAYER_A, PLAYER_B],
                   default=PLAYER_A, help="who flips first")


@functools.cache  # one parser per process: building it took 1.9 ms (2-core Xeon)
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bmn",
                     description="Beggar-My-Neighbour engine, simulator, "
                                 "and loop-search toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("play", help="play one match from explicit decks")
    p.add_argument("--setting", type=_SETTING, required=True, help="N,R e.g. 40,3")
    _add_deck_args(p)
    p.add_argument("--max-tricks", type=_integer("--max-tricks"),
                   default=engine.DEFAULT_MATCH_TRICKS)
    p.add_argument("--allow-partial", action="store_true",
                   help="accept decks that do not form a full (N,R) composition")
    p.add_argument("--trace", help="write a per-trick CSV trace here")
    p.add_argument("--positions",
                   help="companion CSV of special-card positions (with --trace)")
    p.set_defaults(func=cmd_play)

    p = sub.add_parser("simulate", help="Monte Carlo batch over uniform deals")
    p.add_argument("--setting", type=_SETTING, required=True)
    p.add_argument("--matches", type=_integer("--matches"), required=True)
    p.add_argument("--seed", type=_integer("--seed"), default=0)
    p.add_argument("--workers", type=_integer("--workers"), default=1,
                   help="play the batch on up to N threads; changes no result")
    p.add_argument("--max-tricks", type=_integer("--max-tricks"),
                   default=engine.DEFAULT_BATCH_TRICKS)
    p.add_argument("--out", help="write the stats file here (default stdout)")
    p.add_argument("--hist", help="write the histogram CSV here")
    p.add_argument("--fit", metavar="LO,HI", type=_reader("--fit", _fit_range, "LO,HI"),
                   help="fit an exponential tail over this trick range")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("loops", help="verify a cycle / scan its balanced entries")
    p.add_argument("mode", choices=["verify", "scan"])
    p.add_argument("--setting", type=_SETTING, required=True)
    _add_deck_args(p)
    p.add_argument("--max-tricks", type=_integer("--max-tricks"),
                   default=engine.DEFAULT_BATCH_TRICKS)
    p.set_defaults(func=cmd_loops)

    p = sub.add_parser("backward", help="enumerate predecessor states")
    p.add_argument("--setting", type=_SETTING, required=True)
    _add_deck_args(p)
    p.add_argument("--depth", type=_integer("--depth"), default=1)
    p.add_argument("--max-nodes", type=_integer("--max-nodes"), default=1_000_000)
    p.add_argument("--find-balanced", action="store_true",
                   help="report standardized balanced states instead of the tree")
    p.set_defaults(func=cmd_backward)

    p = sub.add_parser("factory", help="grow a seed loop to full composition")
    p.add_argument("--setting", type=_SETTING, required=True)
    p.add_argument("--seed-deck-a", help="seed deck for player A")
    p.add_argument("--seed-deck-b", help="seed deck for player B")
    p.add_argument("--seed-decks", help="file of 'DECKA DECKB' seed lines")
    p.add_argument("--budget", type=_integer("--budget"), default=100_000,
                   help="exploration rounds")
    p.add_argument("--rng-seed", type=_integer("--rng-seed"), default=0)
    p.add_argument("--trick-cap", type=_integer("--trick-cap"),
                   default=engine.DEFAULT_BATCH_TRICKS)
    p.add_argument("--out", help="append complete findings to this file")
    p.set_defaults(func=cmd_factory)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    except _FlagError as exc:
        return _fail(str(exc))
    for dest, least in _LEAST.items():
        if getattr(args, dest, least) < least:
            return _fail(f"--{dest.replace('_', '-')} must be >= {least}")
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that left shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader of stdout is gone: no error line, and stdout goes to
        # the null device so that its flush at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return BROKEN_PIPE
    except ValueError as exc:  # DeckParseError included
        return _fail(str(exc))
    except OSError as exc:  # unreadable input or unwritable output path
        return _fail(str(exc))
    except MemoryError as exc:  # a backward search, or a batch's histogram
        return _fail(str(exc) or "out of memory")


if __name__ == "__main__":
    sys.exit(main())
