"""Deterministic trick engine for generalized Beggar-My-Neighbour.

Cards carry only a rank: 0 is an ordinary card (written ``C``), ranks 1..9
are special cards that force the opponent to answer with up to that many
cards. Suits never matter for the dynamics and are not modeled. Decks are
plain tuples with index 0 on top; states are immutable values, so every
operation here is pure and safe to share between threads. A state's
identity is its value: a `GameState` is the tuple `(deck_a, deck_b,
leader)`, equal to a plain tuple of the same fields and hashing as one,
so equal states are the same state and serve directly as set and dict
keys. Every trick is played by the match kernel's one trick loop,
`_kernels._py_run`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import NamedTuple, Union

from . import _kernels

PLAYER_A = "A"
PLAYER_B = "B"
_PLAYER_CODE = {PLAYER_A: 0, PLAYER_B: 1}
_PLAYERS = (PLAYER_A, PLAYER_B)
#: Card code -> character, a `bytes.translate` table.
CARD_CHARS = bytes.maketrans(bytes(range(10)), b"C123456789")

#: Trick budget for single-match play (`play`, `play_match`).
DEFAULT_MATCH_TRICKS = 1_000_000
#: Trick budget for batch simulation and for the loop and factory searches.
DEFAULT_BATCH_TRICKS = 100_000

Card = int
Deck = tuple


class DeckParseError(ValueError):
    """Malformed deck string."""


class UnplayableStateError(ValueError):
    """A trick was requested from a state where a deck is already empty."""


def parse_int(text: str) -> int:
    """An integer written as an optional `-` and then ASCII digits only: no
    sign `+`, space, `_` or other script's digit, all of which `int()`
    takes. Raises ValueError otherwise."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"expected an integer, got {text!r}")
    return int(text)


@dataclass(frozen=True)
class Settings:
    """An (N, R) game: N cards in four suits, special ranks 1..R.

    There are 4*R special cards (four per rank) and N - 4*R ordinary cards.
    """

    n_total: int
    max_rank: int

    def __post_init__(self):
        if self.n_total < 2 or self.n_total % 2 != 0:
            raise ValueError(f"n_total must be even and >= 2, got {self.n_total}")
        if not 1 <= self.max_rank <= 9:
            raise ValueError(f"max_rank must be in 1..9, got {self.max_rank}")
        if 4 * self.max_rank > self.n_total:
            raise ValueError(
                f"need 4*{self.max_rank} special cards but only {self.n_total} total")

    @classmethod
    def parse(cls, text: str) -> "Settings":
        """Parse the "N,R" flag syntax, e.g. "40,3", each part a `parse_int`."""
        try:
            n_str, r_str = text.split(",")
            return cls(parse_int(n_str), parse_int(r_str))
        except ValueError as exc:
            raise ValueError(f"expected setting as N,R (e.g. 40,3), got {text!r}") from exc

    @property
    def n_special(self) -> int:
        return 4 * self.max_rank

    @property
    def n_ordinary(self) -> int:
        return self.n_total - 4 * self.max_rank

    @property
    def half(self) -> int:
        return self.n_total // 2

    def target_count(self, rank: int) -> int:
        """Cards of `rank` in a complete deck (rank 0 = ordinaries)."""
        return self.n_ordinary if rank == 0 else 4

    def __str__(self):
        return f"{self.n_total},{self.max_rank}"


class GameState(NamedTuple):
    """Trick-boundary state: both decks plus who leads the next trick."""

    deck_a: Deck
    deck_b: Deck
    leader: str = PLAYER_A

    @property
    def playable(self) -> bool:
        return len(self.deck_a) > 0 and len(self.deck_b) > 0

    @property
    def n_cards(self) -> int:
        return len(self.deck_a) + len(self.deck_b)

    def deck_of(self, player: str) -> Deck:
        return self.deck_a if player == PLAYER_A else self.deck_b


class TrickResult(NamedTuple):
    """Outcome of a single trick."""

    next_state: GameState
    winner: str
    pile_in_play_order: Deck
    terminal: bool  # loser's deck is empty after the trick


class Terminated(NamedTuple):
    winner: str
    tricks: int


class Looped(NamedTuple):
    transient: int  # tricks before the first state of the cycle
    period: int


class BudgetExceeded(NamedTuple):
    tricks_played: int


MatchOutcome = Union[Terminated, Looped, BudgetExceeded]


# ---------------------------------------------------------------------------
# Deck notation
# ---------------------------------------------------------------------------


def parse_deck(text: str, settings: Settings | None = None) -> Deck:
    """Parse a deck string like "[C1CC2C]"; leftmost character is the top.

    Brackets are optional; whitespace and commas are ignored. Raises
    DeckParseError for any other character, or for a rank above
    settings.max_rank when a Settings is supplied.
    """
    body = text.strip()
    if body.startswith("[") and body.endswith("]"):
        body = body[1:-1]
    cards = []
    for ch in body:
        if ch in " \t,":
            continue
        if ch == "C":
            cards.append(0)
        elif "1" <= ch <= "9":
            rank = int(ch)
            if settings is not None and rank > settings.max_rank:
                raise DeckParseError(
                    f"rank {ch!r} exceeds max rank {settings.max_rank}")
            cards.append(rank)
        else:
            raise DeckParseError(f"invalid character {ch!r} in deck string")
    return tuple(cards)


def format_deck(deck: Deck) -> str:
    """Bracketed deck string, from the cards or their bytes; inverse of parse_deck."""
    return "[" + bytes(deck).translate(CARD_CHARS).decode() + "]"


# ---------------------------------------------------------------------------
# Trick and match execution
# ---------------------------------------------------------------------------


def play_trick(state: GameState) -> TrickResult:
    """Play exactly one trick.

    The leader flips first; ordinary cards alternate between the players
    until someone flips a special of rank r, after which the opponent must
    answer with up to r cards. Each special played inside an answer swaps
    the challenge onto the other player with a fresh count. When an answer
    runs out (r consecutive ordinaries) the challenger wins the pile, which
    goes under the winner's deck in play order (first-played card right
    after the old bottom). A player asked to flip from an empty deck loses
    the trick, and with it the match.
    """
    if not state.playable:
        raise UnplayableStateError("both decks must be nonempty to play a trick")
    decks = [deque(state.deck_a), deque(state.deck_b)]
    status, player, _, pile = _kernels._py_run(decks, _PLAYER_CODE[state.leader], 1)
    winner = _PLAYERS[player]
    next_state = GameState(tuple(decks[0]), tuple(decks[1]), winner)
    return TrickResult(next_state, winner, tuple(pile), status == 0)


def walk(initial: GameState, tricks: int):
    """Yield `initial`, then the state after each of the next `tricks` tricks.

    The walk keeps no states of its own. `tricks` must not run past the
    end of the match (a terminal state is yielded, never played from).
    """
    decks = [deque(initial.deck_a), deque(initial.deck_b)]
    cur = _PLAYER_CODE[initial.leader]
    yield initial
    for _ in range(tricks):
        _, cur, _, _ = _kernels._py_run(decks, cur, 1)
        yield GameState(tuple(decks[0]), tuple(decks[1]), _PLAYERS[cur])


def play_match(initial: GameState, max_tricks: int = DEFAULT_MATCH_TRICKS,
               detect_loops: bool = True) -> MatchOutcome:
    """Run a full match from `initial`.

    The first recurrence of a trick-boundary state yields
    Looped(transient=its first occurrence, period=gap), provided transient +
    period <= max_tricks. Detection runs inside the match kernel with
    Brent's algorithm and keeps O(1) states. With detect_loops=False a loop
    is reported as BudgetExceeded(max_tricks), as play that never looks for
    loops would end it; the match is played the same way.
    """
    if not initial.playable:
        raise UnplayableStateError("initial state must have two nonempty decks")
    if max_tricks < 1:
        raise ValueError("max_tricks must be >= 1")
    status, a, b = _kernels.play_match_loops(
        initial.deck_a, initial.deck_b, _PLAYER_CODE[initial.leader], max_tricks)
    if status == 0:
        return Terminated(_PLAYERS[a], b)
    if status == 1 and detect_loops:
        return Looped(a, b)
    return BudgetExceeded(max_tricks)
