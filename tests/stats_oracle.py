"""Reference statistics the batch summaries and the deal checks trust.

`summarize` folds a list of match outcomes one by one into the counts that
`stats.summarize_counts` takes, the way a batch would be summarized if it
kept every outcome; `simulator.run_batch` must give the same summary from
its folded counts. `hypergeometric_pmf` is the textbook law of how many
special cards a deal gives deck A, which the deal-distribution checks
compare with.
"""

from __future__ import annotations

import math
from typing import Iterable

from bmn.engine import PLAYER_A, BudgetExceeded, Looped, MatchOutcome, Terminated
from bmn.stats import DurationSummary, summarize_counts


def hypergeometric_pmf(population: int, successes: int, draws: int, k: int) -> float:
    """P(X = k) for X ~ Hypergeometric(population, successes, draws)."""
    if not 0 <= successes <= population:
        raise ValueError("need 0 <= successes <= population")
    if not 0 <= draws <= population:
        raise ValueError("need 0 <= draws <= population")
    if k < 0 or k > successes or k > draws or draws - k > population - successes:
        return 0.0
    num = math.comb(successes, k) * math.comb(population - successes, draws - k)
    return num / math.comb(population, draws)


def summarize(outcomes: Iterable[MatchOutcome]) -> DurationSummary:
    """Summarize a sequence of MatchOutcome values."""
    histogram: dict[int, int] = {}
    wins_a = wins_b = loops = budget = 0
    for outcome in outcomes:
        if isinstance(outcome, Terminated):
            histogram[outcome.tricks] = histogram.get(outcome.tricks, 0) + 1
            if outcome.winner == PLAYER_A:
                wins_a += 1
            else:
                wins_b += 1
        elif isinstance(outcome, Looped):
            loops += 1
        elif isinstance(outcome, BudgetExceeded):
            budget += 1
        else:
            raise TypeError(f"not a MatchOutcome: {outcome!r}")
    return summarize_counts(histogram, wins_a, wins_b, loops, budget)
