"""Deterministic trick engine for generalized Beggar-My-Neighbour.

Cards carry only a rank: 0 is an ordinary card (written ``C``), ranks 1..9
are special cards that force the opponent to answer with up to that many
cards. Suits never matter for the dynamics and are not modeled. Decks are
plain tuples with index 0 on top; states are immutable values, so every
operation here is pure and safe to share between threads.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Union

from . import _kernels

PLAYER_A = "A"
PLAYER_B = "B"
_PLAYER_CODE = {PLAYER_A: 0, PLAYER_B: 1}

#: Trick budget for single-match play (loop detection on by default).
DEFAULT_MATCH_TRICKS = 1_000_000
#: Trick budget for batch simulation (loop detection off by default).
DEFAULT_BATCH_TRICKS = 100_000

Card = int
Deck = tuple


class DeckParseError(ValueError):
    """Malformed deck string."""


class UnplayableStateError(ValueError):
    """A trick was requested from a state where a deck is already empty."""


def other_player(player: str) -> str:
    return PLAYER_B if player == PLAYER_A else PLAYER_A


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
        """Parse the "N,R" flag syntax, e.g. "40,3"."""
        try:
            n_str, r_str = text.split(",")
            return cls(int(n_str), int(r_str))
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


@dataclass(frozen=True)
class GameState:
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


@dataclass(frozen=True)
class TrickResult:
    """Outcome of a single trick."""

    next_state: GameState
    winner: str
    pile_in_play_order: Deck
    moves: int
    terminal: bool  # loser's deck is empty after the trick


@dataclass(frozen=True)
class Terminated:
    winner: str
    tricks: int


@dataclass(frozen=True)
class Looped:
    transient: int  # tricks before the first state of the cycle
    period: int


@dataclass(frozen=True)
class BudgetExceeded:
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
        elif ch.isdigit() and ch != "0":
            rank = int(ch)
            if settings is not None and rank > settings.max_rank:
                raise DeckParseError(
                    f"rank {ch!r} exceeds max rank {settings.max_rank}")
            cards.append(rank)
        else:
            raise DeckParseError(f"invalid character {ch!r} in deck string")
    return tuple(cards)


def format_deck(deck: Deck) -> str:
    """Bracketed deck string; inverse of parse_deck."""
    return "[" + "".join("C" if c == 0 else str(c) for c in deck) + "]"


def canonical_encoding(state: GameState) -> bytes:
    """Stable injective byte encoding of a state (index key for recurrence).

    Card values are 0..9, so 0xff separates the decks unambiguously.
    """
    return (bytes((_PLAYER_CODE[state.leader],))
            + bytes(state.deck_a) + b"\xff" + bytes(state.deck_b))


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
    decks = {PLAYER_A: deque(state.deck_a), PLAYER_B: deque(state.deck_b)}
    pile: list[int] = []
    current = state.leader
    challenger = current
    pending = 0
    while True:
        deck = decks[current]
        if not deck:
            winner = other_player(current)
            break
        card = deck.popleft()
        pile.append(card)
        if card > 0:
            challenger = current
            pending = card
            current = other_player(current)
        elif pending > 0:
            pending -= 1
            if pending == 0:
                winner = challenger
                break
        else:
            current = other_player(current)
    decks[winner].extend(pile)
    next_state = GameState(tuple(decks[PLAYER_A]), tuple(decks[PLAYER_B]), winner)
    terminal = len(decks[other_player(winner)]) == 0
    return TrickResult(next_state, winner, tuple(pile), len(pile), terminal)


def _trace_states(initial: GameState, max_tricks: int):
    """Play a match as play_match does and keep every state it visits.

    Returns (outcome, states) where states[i] is the state after trick i
    (states[0] is the initial state). The outcome comes from the match
    kernel; play_trick then replays exactly the states it covers. For a
    Looped outcome the repeated state is not appended again; for
    Terminated the final state is included.
    """
    outcome = play_match(initial, max_tricks)
    if isinstance(outcome, Looped):
        tricks = outcome.transient + outcome.period - 1
    elif isinstance(outcome, Terminated):
        tricks = outcome.tricks
    else:
        tricks = outcome.tricks_played
    states = [initial]
    for _ in range(tricks):
        states.append(play_trick(states[-1]).next_state)
    return outcome, states


def play_match(initial: GameState, max_tricks: int = DEFAULT_MATCH_TRICKS,
               detect_loops: bool = True) -> MatchOutcome:
    """Run a full match from `initial`.

    With detect_loops, the first recurrence of a trick-boundary state
    yields Looped(transient=its first occurrence, period=gap), provided
    transient + period <= max_tricks. Detection runs inside the match
    kernel with Brent's algorithm and keeps O(1) states. Without it, the
    match can only end Terminated or BudgetExceeded.
    """
    if not initial.playable:
        raise UnplayableStateError("initial state must have two nonempty decks")
    if max_tricks < 1:
        raise ValueError("max_tricks must be >= 1")
    leader = _PLAYER_CODE[initial.leader]
    if detect_loops:
        status, a, b = _kernels.play_match_loops(
            initial.deck_a, initial.deck_b, leader, max_tricks)
        if status == 1:
            return Looped(a, b)
    else:
        status, a, b = _kernels.play_match_raw(
            initial.deck_a, initial.deck_b, leader, max_tricks)
    if status == 0:
        return Terminated(PLAYER_A if a == 0 else PLAYER_B, b)
    return BudgetExceeded(b)
