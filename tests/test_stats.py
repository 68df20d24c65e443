"""Statistics tests: counts, distributions, summaries, fitting."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from bmn import stats
from bmn.engine import BudgetExceeded, Looped, Settings, Terminated
from stats_oracle import hypergeometric_pmf, summarize


# ---------------------------------------------------------------------------
# Counting
# ---------------------------------------------------------------------------


def test_config_count_orders_of_magnitude():
    c52 = stats.config_count(Settings(52, 4))
    c40 = stats.config_count(Settings(40, 3))
    assert round(math.log10(c52)) == 21
    assert round(math.log10(c40)) == 14
    # adding special ranks grows the count despite the extra structure
    counts = [stats.config_count(Settings(52, r)) for r in range(2, 7)]
    assert counts == sorted(counts)
    assert round(math.log10(counts[-1])) == 30


def test_config_count_degenerate():
    assert stats.config_count(Settings(4, 1)) == 1


def test_config_count_against_binomial_oracle():
    # independent route: place each rank's four suits one rank at a time
    for n, r in [(12, 1), (20, 2), (40, 3), (52, 4)]:
        expected = 1
        remaining = n
        for _ in range(r):
            expected *= math.comb(remaining, 4)
            remaining -= 4
        assert stats.config_count(Settings(n, r)) == expected


@given(st.sampled_from([(12, 1), (24, 2), (28, 3), (40, 3), (52, 4), (52, 6)]))
def test_config_count_factorial_identity(setting):
    n, r = setting
    c = stats.config_count(Settings(n, r))
    assert c * math.factorial(4) ** r * math.factorial(n - 4 * r) == math.factorial(n)


def test_state_space_sizes():
    s = Settings(40, 3)
    sizes = stats.state_space_sizes(s)
    c = stats.config_count(s)
    assert sizes.total == 2 * 41 * c
    assert sizes.playable == 2 * 39 * c
    assert Fraction(sizes.playable, sizes.total) == Fraction(39, 41)
    s52 = Settings(52, 4)
    assert stats.state_space_sizes(s52).total == 106 * stats.config_count(s52)


# ---------------------------------------------------------------------------
# Hypergeometric
# ---------------------------------------------------------------------------


def test_hypergeometric_mean():
    mean = sum(k * hypergeometric_pmf(40, 12, 20, k) for k in range(13))
    assert mean == pytest.approx(6.0, abs=1e-12)


def test_hypergeometric_exact_value():
    oracle = Fraction(math.comb(12, 6) * math.comb(28, 14), math.comb(40, 20))
    assert hypergeometric_pmf(40, 12, 20, 6) == pytest.approx(float(oracle), rel=1e-14)


def test_hypergeometric_out_of_support():
    assert hypergeometric_pmf(40, 12, 20, 13) == 0.0
    assert hypergeometric_pmf(40, 12, 20, -1) == 0.0
    assert hypergeometric_pmf(10, 8, 9, 4) == 0.0  # 9-4 > 10-8


@given(st.integers(2, 60).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, n), st.integers(0, n))))
def test_hypergeometric_sums_to_one(nkn):
    population, successes, draws = nkn
    total = sum(hypergeometric_pmf(population, successes, draws, k)
                for k in range(draws + 1))
    assert total == pytest.approx(1.0, abs=1e-9)


def test_hypergeometric_validates():
    with pytest.raises(ValueError):
        hypergeometric_pmf(10, 11, 5, 1)


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------


def test_summarize_single_match():
    s = summarize([Terminated("A", 5)])
    assert s.mean == 5 and s.std_dev == 0 and s.wins_a_pct == 100.0
    assert s.min_tricks == s.max_tricks == s.mode == 5
    assert s.histogram == {5: 1}


def test_summarize_two_pass_oracle():
    durations = [3, 7, 7, 11, 2, 9, 7, 4]
    outcomes = [Terminated("A" if i % 2 else "B", d) for i, d in enumerate(durations)]
    s = summarize(outcomes)
    mean = sum(durations) / len(durations)
    var = sum((d - mean) ** 2 for d in durations) / len(durations)
    assert s.mean == pytest.approx(mean, rel=1e-14)
    assert s.std_dev == pytest.approx(math.sqrt(var), rel=1e-12)
    assert s.variance_to_mean == pytest.approx(s.std_dev ** 2 / s.mean, rel=1e-12)
    assert s.mode == 7


def test_summarize_counts_loops_and_budget_separately():
    s = summarize([Terminated("A", 3), Looped(1, 2), BudgetExceeded(100),
                         Looped(0, 5)])
    assert s.matches == 4
    assert s.terminated == 1
    assert s.loop_count == 2
    assert s.budget_exceeded_count == 1


def test_summarize_mode_tie_breaks_low():
    s = summarize([Terminated("A", 4), Terminated("B", 2),
                         Terminated("A", 2), Terminated("B", 4)])
    assert s.mode == 2


def test_summarize_empty_is_an_error():
    with pytest.raises(ValueError):
        summarize([])


def test_wins_percentages_sum_to_100():
    s = summarize([Terminated("A", 1), Terminated("B", 2), Terminated("B", 3)])
    assert s.wins_a_pct + s.wins_b_pct == pytest.approx(100.0)


@hyp_settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("AB"), st.integers(1, 50)),
                min_size=1, max_size=40),
       st.randoms(use_true_random=False))
def test_summarize_is_permutation_invariant(pairs, rnd):
    outcomes = [Terminated(w, t) for w, t in pairs]
    shuffled = outcomes.copy()
    rnd.shuffle(shuffled)
    assert summarize(outcomes) == summarize(shuffled)


def test_to_text_one_line_per_statistic():
    s = summarize([Terminated("A", 5), Terminated("B", 9)])
    text = s.to_text()
    lines = text.splitlines()
    assert len(lines) == 12
    assert all(" = " in line for line in lines)
    assert "mean = 7.0" in lines


# ---------------------------------------------------------------------------
# Exponential fit and tail
# ---------------------------------------------------------------------------


def _geometric_histogram(p, n_max, scale=10 ** 9):
    # exact float frequencies: no sampling or rounding noise
    return {n: scale * p * (1 - p) ** (n - 1) for n in range(1, n_max)}


def test_fit_recovers_exact_geometric_rate():
    p = 0.05
    hist = _geometric_histogram(p, 200)
    fit = stats.fit_exponential(hist, 10, 100)
    assert fit.lam == pytest.approx(-math.log(1 - p), rel=1e-10)
    assert fit.p_geometric == pytest.approx(p, rel=1e-9)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-9)


def test_fit_is_scale_invariant():
    hist = _geometric_histogram(0.04, 150)
    doubled = {n: 2 * c for n, c in hist.items()}
    f1 = stats.fit_exponential(hist, 10, 100)
    f2 = stats.fit_exponential(doubled, 10, 100)
    assert f1.lam == pytest.approx(f2.lam, rel=1e-12)


def test_fit_requires_enough_bins():
    with pytest.raises(stats.InsufficientDataError):
        stats.fit_exponential({10: 100, 20: 3}, 5, 50)
    with pytest.raises(ValueError):
        stats.fit_exponential({10: 100, 20: 50}, 50, 5)


def test_fit_drops_sparse_bins():
    hist = _geometric_histogram(0.05, 100, scale=10 ** 6)
    hist[42] = 2  # below the count threshold: ignored, not log-amplified
    fit = stats.fit_exponential(hist, 10, 90)
    assert fit.lam == pytest.approx(-math.log(0.95), rel=1e-6)


def test_geometric_tail_values():
    assert stats.geometric_tail(0.0394, 1) == 1.0
    assert 6.0e-8 <= stats.geometric_tail(0.0394, 420) <= 7.6e-8
    assert stats.geometric_tail(1 / 41.26, 700) == pytest.approx(4.4e-8, rel=0.15)


def test_geometric_tail_validates():
    with pytest.raises(ValueError):
        stats.geometric_tail(0.0, 5)
    with pytest.raises(ValueError):
        stats.geometric_tail(0.1, 0)


# ---------------------------------------------------------------------------
# Chi-square
# ---------------------------------------------------------------------------


def test_chi_square_perfect_fit():
    stat, df, p = stats.chi_square_gof([100, 200, 100], [100.0, 200.0, 100.0])
    assert stat == 0.0 and df == 2 and p == pytest.approx(1.0)


def test_chi_square_pools_sparse_tails():
    observed = [1, 2, 120, 80, 2, 1]
    expected = [0.5, 2.5, 118.0, 82.0, 2.0, 1.0]
    stat, df, p = stats.chi_square_gof(observed, expected)
    assert df < 5  # tails were pooled
    assert 0.0 <= p <= 1.0
