"""Loop-detecting play against the dict-of-states reference detector.

`engine.play_match(detect_loops=True)` runs Brent's algorithm inside the
match kernel, C or Python (a test taking the `kernel` fixture runs on both).
Its outcome must equal the reference's at every trick cap:
Looped(transient, period) iff transient + period <= cap, Terminated iff
the match ends within the cap, BudgetExceeded(cap) otherwise.
`cycles.verify_loop` and `analyzer.trace_match` take their outcome from the
kernel and replay states with `engine.walk`; they must see the same states
the reference keeps, while holding only the loop or the trace records.
"""

import random
import tracemalloc

import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from bmn import _kernels, cli, engine
from bmn.analyzer import record_for, trace_match
from bmn.cycles import NotALoopError, UndecidedError, verify_loop
from bmn.engine import (
    PLAYER_A,
    PLAYER_B,
    BudgetExceeded,
    GameState,
    Looped,
    Terminated,
    play_match,
    play_trick,
    walk,
)
from conftest import (
    BALANCED_12_1,
    BALANCED_28_1,
    BALANCED_28_3,
    BLOCKS,
    GOLDEN_MATCHES,
    INF_40_1,
    INF_52_4,
    NONTERMINATING,
    random_playable_state,
    state,
)
from loop_oracle import dict_play_match, dict_trace_states, other_player

PUBLISHED_LOOPS = ([INF_40_1, INF_52_4, BALANCED_28_1] + BLOCKS + BALANCED_12_1
                   + BALANCED_28_3
                   + [pair for pairs in NONTERMINATING.values() for pair in pairs])


def assert_agrees(s: GameState, caps=(1, 2, 3, 7, 3000)):
    """Same outcome as the reference at `caps`, and around a loop's end."""
    full = dict_play_match(s, max(caps))
    caps = set(caps)
    if isinstance(full, Looped):
        end = full.transient + full.period
        caps |= {c for c in (end - 1, end, end + 1) if c >= 1}
    for cap in sorted(caps):
        assert play_match(s, cap) == dict_play_match(s, cap), (s, cap)
    return full


@hyp_settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.sampled_from([6, 8, 12, 16]),
       st.integers(min_value=1, max_value=3))
def test_random_small_states_agree(seed, max_cards, max_rank):
    # random_playable_state picks either player to lead
    rng = random.Random(seed)
    assert_agrees(random_playable_state(rng, max_cards=max_cards, max_rank=max_rank))


@hyp_settings(max_examples=150, deadline=None)
@given(st.sampled_from(PUBLISHED_LOOPS),
       st.sampled_from([PLAYER_A, PLAYER_B]),
       st.integers(min_value=0, max_value=40))
def test_states_along_published_matches_agree(pair, leader, walk):
    """Start `walk` tricks into a published configuration: a shorter or
    zero transient, and a leader that changes with the trick winner."""
    s = state(*pair, leader=leader)
    for _ in range(walk):
        result = play_trick(s)
        if result.terminal:
            break
        s = result.next_state
    assert_agrees(s)


def test_random_states_include_loops_for_both_leaders(kernel):
    """The random-state generator does reach loops, led by either player."""
    rng = random.Random(2024)
    leaders = set()
    for _ in range(4000):
        s = random_playable_state(rng, max_cards=12, max_rank=1)
        if isinstance(assert_agrees(s, caps=(3000,)), Looped):
            leaders.add(s.leader)
    assert leaders == {PLAYER_A, PLAYER_B}


def _published_loop_cases(kernel):
    """Each published loop led by each player, on one kernel. The ids leave
    the kernel out, so the C and Python tests keep their own names."""
    return [pytest.param(kernel, leader, pair, id=f"{leader}-pair{i}")
            for leader in (PLAYER_A, PLAYER_B)
            for i, pair in enumerate(PUBLISHED_LOOPS)]


@pytest.mark.parametrize(("kernel", "leader", "pair"), _published_loop_cases("c"),
                         indirect=["kernel"])
def test_published_loops_agree_at_every_boundary_cap(kernel, leader, pair):
    assert_agrees(state(*pair, leader=leader), caps=(1, 100_000))


@pytest.mark.parametrize(("kernel", "leader", "pair"), _published_loop_cases("python"),
                         indirect=["kernel"])
def test_published_loops_agree_at_every_boundary_cap_python(kernel, leader, pair):
    assert_agrees(state(*pair, leader=leader), caps=(1, 100_000))


def test_published_loops_give_known_outcomes():
    assert play_match(state(*INF_52_4)) == Looped(transient=4, period=62)
    assert play_match(state(*INF_40_1)) == Looped(transient=1, period=20)
    # Brent sees this loop only after the cap; the cap decides, not the detector
    assert play_match(state(*INF_52_4), 66) == Looped(transient=4, period=62)
    assert play_match(state(*INF_52_4), 65) == dict_play_match(state(*INF_52_4), 65)


FIRST = _kernels._BRENT_FIRST_BLOCK
FIRST_BLOCK_CAPS = (FIRST - 1, FIRST, FIRST + 1, 2 * FIRST, 2 * FIRST + 1)


def _first_block_cases():
    """States decided near the edges of Brent's unwatched first block, each
    led by either player: the states along the published loops' transients
    and their cycles' first 16, and golden matches a few tricks either side
    of each cap from their end."""
    cases = set()
    for pair in PUBLISHED_LOOPS:
        start = state(*pair)
        outcome = dict_play_match(start, 100_000)
        cases.update(walk(start, outcome.transient + min(outcome.period, 16) - 1))
    for _, a, b, _, tricks in GOLDEN_MATCHES:
        for left in {c + d for c in FIRST_BLOCK_CAPS for d in (-1, 0, 1)}:
            *_, s = walk(state(a, b), tricks - left)
            cases.add(s)
    cases |= {GameState(s.deck_a, s.deck_b, other_player(s.leader)) for s in cases}
    return sorted(cases, key=repr)


def test_first_block_edges_agree(kernel):
    loops_from_zero = set()
    ends_at_first = False
    for s in _first_block_cases():
        for cap in FIRST_BLOCK_CAPS:
            expected = dict_play_match(s, cap)
            assert play_match(s, cap) == expected, (s, cap)
            if isinstance(expected, Looped) and expected.transient == 0:
                loops_from_zero.add((s.leader, expected.period <= FIRST))
            if isinstance(expected, Terminated) and expected.tricks == FIRST:
                ends_at_first = True
    # loops the first block holds whole, and loops longer than it, entered
    # at trick 0 with either player leading
    assert loops_from_zero == {(leader, whole) for leader in (PLAYER_A, PLAYER_B)
                               for whole in (True, False)}
    # a match that ends at the first block's last trick, past cap FIRST - 1
    assert ends_at_first


@pytest.mark.parametrize("golden", GOLDEN_MATCHES, ids=lambda g: f"{g[0]}-{g[4]}")
def test_golden_matches_agree(golden):
    _, a, b, _, tricks = golden
    s = state(a, b)
    for cap in (tricks - 1, tricks, 1_000_000):
        assert play_match(s, cap) == dict_play_match(s, cap)


def assert_traces_agree(s: GameState, cap: int):
    """trace_match and verify_loop see the states the reference keeps."""
    outcome, states = dict_trace_states(s, cap)
    records, traced = trace_match(s, cap)
    assert traced == outcome, cap
    assert records == [record_for(i, x) for i, x in enumerate(states)], cap
    if isinstance(outcome, Looped):
        report = verify_loop(s, cap)
        assert (report.transient, report.period) == (outcome.transient, outcome.period)
        assert report.states_in_loop == tuple(states[outcome.transient:]), cap
    else:
        expected = {Terminated: NotALoopError, BudgetExceeded: UndecidedError}
        with pytest.raises(expected[type(outcome)]):
            verify_loop(s, cap)


@pytest.mark.parametrize("pair", PUBLISHED_LOOPS)
@pytest.mark.parametrize("leader", [PLAYER_A, PLAYER_B])
def test_trace_states_agree_on_published_loops(pair, leader):
    s = state(*pair, leader=leader)
    for cap in (1, 5, 66, 100_000):
        assert_traces_agree(s, cap)


@hyp_settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.sampled_from([1, 2, 7, 3000]))
def test_trace_states_agree_on_random_states(seed, cap):
    s = random_playable_state(random.Random(seed), max_cards=12, max_rank=2)
    assert_traces_agree(s, cap)


@pytest.mark.parametrize("golden", GOLDEN_MATCHES, ids=lambda g: f"{g[0]}-{g[4]}")
def test_trace_states_agree_on_golden_matches(golden):
    _, a, b, _, tricks = golden
    s = state(a, b)
    for cap in (tricks - 1, tricks):
        assert_traces_agree(s, cap)


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_loop_detection_holds_constant_memory():
    loop = state(*INF_40_1)
    _, a, b, _, _ = GOLDEN_MATCHES[3]  # 1164 tricks
    long_match = state(a, b)
    bound = 32_000  # a few saved decks; the reference needs ~870 kB here
    assert _peak_bytes(lambda: play_match(loop, max_tricks=10 ** 6)) < bound
    assert _peak_bytes(lambda: play_match(long_match, max_tricks=10 ** 6)) < bound
    assert _peak_bytes(lambda: dict_play_match(long_match, 10 ** 6)) > 4 * bound


def test_trace_match_holds_records_not_states():
    # records alone take about 0.6 MB here; holding every state as well
    # took 1.29 MB
    _, a, b, _, tricks = GOLDEN_MATCHES[3]  # 1164 tricks
    records = []
    assert _peak_bytes(lambda: records.extend(trace_match(state(a, b))[0])) < 900_000
    assert len(records) == tricks + 1


def test_play_trace_streams_its_records(monkeypatch, tmp_path):
    # walk the (52,4) loop for 20k tricks as if the budget ran out there:
    # listing the records first peaked at 10.4 MB, streaming them at 1.8 MB
    # (tuple free lists hold most of that; the peak is flat past 20k tricks)
    tricks = 20_000
    monkeypatch.setattr(engine, "play_match",
                        lambda *args, **kwargs: BudgetExceeded(tricks))
    trace, pos = tmp_path / "trace.csv", tmp_path / "pos.csv"
    a, b = INF_52_4
    argv = ["play", "--setting", "52,4", "--deck-a", a, "--deck-b", b,
            "--trace", str(trace), "--positions", str(pos)]
    assert _peak_bytes(lambda: cli.main(argv)) < 4_000_000
    for path in (trace, pos):
        assert len(path.read_text().splitlines()) == tricks + 2
