"""Combinatorial counts, duration statistics, and exponential-tail fitting."""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .engine import Settings


class InsufficientDataError(ValueError):
    """Not enough usable histogram bins for a fit."""


def config_count(settings: Settings) -> int:
    """Number of distinct initial deck arrangements, exactly.

    Cards of equal rank are interchangeable, so the count is the multinomial
    N! / ((4!)^R * (N - 4R)!). Values grow past 10^30; everything stays in
    arbitrary-precision integers.
    """
    n, r = settings.n_total, settings.max_rank
    return math.factorial(n) // (math.factorial(4) ** r * math.factorial(n - 4 * r))


class StateSpaceSizes(NamedTuple):
    total: int
    playable: int


def state_space_sizes(settings: Settings) -> StateSpaceSizes:
    """Cardinalities of the full and the playable state space.

    Each arrangement admits N+1 splits into two ordered decks (N-1 of them
    leaving both players with cards), times 2 for who moves next.
    """
    c = config_count(settings)
    n = settings.n_total
    return StateSpaceSizes(total=2 * (n + 1) * c, playable=2 * (n - 1) * c)


# ---------------------------------------------------------------------------
# Duration summaries
# ---------------------------------------------------------------------------


class DurationSummary(NamedTuple):
    """Summary statistics over a batch of match outcomes.

    All numeric statistics cover terminated matches only; looped and
    over-budget matches are counted separately. Mode ties break toward the
    smaller trick count. With no terminated match, min_tricks, max_tricks
    and mode are 0 and the five float statistics are None (written as nan
    by to_text); None, unlike nan, equals itself, so equal batches give
    equal summaries.
    """

    matches: int
    min_tricks: int
    max_tricks: int
    mode: int
    mean: float | None
    std_dev: float | None
    variance_to_mean: float | None
    wins_a_pct: float | None
    wins_b_pct: float | None
    histogram: dict
    loop_count: int = 0
    budget_exceeded_count: int = 0

    def __repr__(self):
        # every field but the histogram, which holds one entry per duration
        return "DurationSummary(" + ", ".join(
            f"{name}={value!r}" for name, value in zip(self._fields, self)
            if name != "histogram") + ")"

    @property
    def terminated(self) -> int:
        return sum(self.histogram.values())

    def to_text(self) -> str:
        """Flat key/value form, one statistic per line."""
        lines = [
            f"matches = {self.matches}",
            f"terminated = {self.terminated}",
            f"loop_count = {self.loop_count}",
            f"budget_exceeded_count = {self.budget_exceeded_count}",
            f"min_tricks = {self.min_tricks}",
            f"max_tricks = {self.max_tricks}",
            f"mode = {self.mode}",
            f"mean = {_float_text(self.mean)}",
            f"std_dev = {_float_text(self.std_dev)}",
            f"variance_to_mean = {_float_text(self.variance_to_mean)}",
            f"wins_a_pct = {_float_text(self.wins_a_pct)}",
            f"wins_b_pct = {_float_text(self.wins_b_pct)}",
        ]
        return "\n".join(lines)


def _float_text(x: float | None) -> str:
    """Full-precision repr of a statistic; an undefined one is nan."""
    return "nan" if x is None else repr(x)


def summarize_counts(histogram: dict, wins_a: int, wins_b: int,
                     loop_count: int = 0, budget_exceeded_count: int = 0) -> DurationSummary:
    """Build a DurationSummary from aggregated counts.

    The moment computations run on exact integer sums, so the result is
    independent of the order matches were aggregated in.
    """
    terminated = sum(histogram.values())
    matches = terminated + loop_count + budget_exceeded_count
    if matches == 0:
        raise ValueError("no outcomes to summarize")
    if terminated == 0:
        return DurationSummary(matches, 0, 0, 0, None, None, None, None, None,
                               dict(histogram), loop_count, budget_exceeded_count)
    sx = sum(n * c for n, c in histogram.items())
    sx2 = sum(n * n * c for n, c in histogram.items())
    mean = sx / terminated
    # exact integer numerator avoids cancellation: var = (t*sx2 - sx^2)/t^2
    var = (terminated * sx2 - sx * sx) / terminated / terminated
    std = math.sqrt(var)
    max_count = max(histogram.values())
    mode = min(n for n, c in histogram.items() if c == max_count)
    wins_total = wins_a + wins_b
    return DurationSummary(
        matches=matches,
        min_tricks=min(histogram),
        max_tricks=max(histogram),
        mode=mode,
        mean=mean,
        std_dev=std,
        variance_to_mean=var / mean,
        wins_a_pct=100.0 * wins_a / wins_total,
        wins_b_pct=100.0 * wins_b / wins_total,
        histogram=dict(sorted(histogram.items())),
        loop_count=loop_count,
        budget_exceeded_count=budget_exceeded_count,
    )


# ---------------------------------------------------------------------------
# Exponential tail
# ---------------------------------------------------------------------------


class ExponentialFit(NamedTuple):
    """Log-linear fit of a duration histogram tail: frequency ~ exp(-lam*n)."""

    lam: float
    fit_lo: int
    fit_hi: int
    r_squared: float
    p_geometric: float  # 1 - exp(-lam)


_FIT_MIN_COUNT = 5


def fit_exponential(histogram: dict, n_lo: int, n_hi: int) -> ExponentialFit:
    """Unweighted least squares on (n, ln frequency) over [n_lo, n_hi].

    Bins with fewer than `_FIT_MIN_COUNT` matches are dropped so the log
    does not amplify pure sampling noise.
    """
    if n_lo >= n_hi:
        raise ValueError("need n_lo < n_hi")
    pts = sorted((n, c) for n, c in histogram.items()
                 if n_lo <= n <= n_hi and c >= _FIT_MIN_COUNT)
    if len(pts) < 2:
        raise InsufficientDataError(
            f"need >= 2 bins with count >= {_FIT_MIN_COUNT} in [{n_lo}, {n_hi}]")
    import numpy as np

    x = np.array([n for n, _ in pts], dtype=float)
    y = np.log([c for _, c in pts])
    slope, intercept = np.polyfit(x, y, 1)
    if slope >= 0:
        raise ValueError("histogram does not decay over the requested range")
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid ** 2)) / ss_tot if ss_tot > 0 else 1.0
    lam = float(-slope)
    return ExponentialFit(lam=lam, fit_lo=n_lo, fit_hi=n_hi, r_squared=r2,
                          p_geometric=1.0 - math.exp(-lam))


def geometric_tail(lam: float, n: int) -> float:
    """P(duration >= n) under the geometric approximation: exp(-lam*(n-1))."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    if n < 1:
        raise ValueError("n must be >= 1")
    return math.exp(-lam * (n - 1))


# ---------------------------------------------------------------------------
# Goodness of fit
# ---------------------------------------------------------------------------


_GOF_MIN_EXPECTED = 5.0


def chi_square_gof(observed: Sequence[int],
                   expected: Sequence[float]) -> tuple[float, int, float]:
    """Chi-square goodness-of-fit with tail pooling.

    `observed` are counts per category, `expected` the matching expected
    counts (same total). Categories are pooled from both ends inward until
    every remaining bin has expected count >= `_GOF_MIN_EXPECTED`. Returns
    (statistic, degrees of freedom, p-value). The p-value comes from scipy,
    which only the `test` extra installs, so this needs `bmn[test]`.
    """
    from scipy.stats import chi2

    obs = [float(o) for o in observed]
    exp = [float(e) for e in expected]
    if len(obs) != len(exp):
        raise ValueError("observed and expected must have equal length")
    lo, hi = 0, len(exp)
    while hi - lo > 1 and exp[lo] < _GOF_MIN_EXPECTED:
        exp[lo + 1] += exp[lo]
        obs[lo + 1] += obs[lo]
        lo += 1
    while hi - lo > 1 and exp[hi - 1] < _GOF_MIN_EXPECTED:
        exp[hi - 2] += exp[hi - 1]
        obs[hi - 2] += obs[hi - 1]
        hi -= 1
    obs = obs[lo:hi]
    exp = exp[lo:hi]
    if len(obs) < 2:
        raise InsufficientDataError("fewer than 2 bins after pooling")
    stat = sum((o - e) ** 2 / e for o, e in zip(obs, exp))
    df = len(obs) - 1
    return stat, df, float(chi2.sf(stat, df))
