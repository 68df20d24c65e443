"""Backward-step tests: predecessor enumeration and balanced search."""

import hashlib
import random
from collections import Counter

import pytest

from bmn import _kernels, backward, cycles
from bmn.backward import BackwardSearchConfig, backward_search, enumerate_predecessors
from bmn.engine import (
    PLAYER_A,
    PLAYER_B,
    GameState,
    Looped,
    Settings,
    format_deck,
    play_match,
    play_trick,
    walk,
)
from conftest import (
    GOLDEN_MATCHES,
    INF_40_1,
    INF_52_4,
    NONTERMINATING,
    random_playable_state,
    state,
)


def test_known_two_predecessor_target():
    # two distinct starts produce the same trick output
    target = state("[CCCCCCC21C]", "[1C]", PLAYER_A)
    found = {(format_deck(c.state.deck_a), format_deck(c.state.deck_b), c.state.leader)
             for c in enumerate_predecessors(target)}
    assert ("[1CCCCCCC2]", "[C1C]", PLAYER_A) in found
    assert ("[C1CCCCCC]", "[2C1C]", PLAYER_A) in found
    assert len(found) >= 2


def test_candidates_forward_simulate_to_target(kernel):
    # the kernels play no trick to confirm a parsed pile: this is the check
    # that each predecessor's trick gives the target, rank-9 specials and
    # decks of up to 40 cards included
    rng = random.Random(23)
    seen = Counter()
    for n_states, max_cards, max_rank in ((150, 20, 3), (400, 80, 9)):
        for _ in range(n_states):
            s = random_playable_state(rng, max_cards=max_cards, max_rank=max_rank)
            result = play_trick(s)
            if result.terminal:
                continue
            for cand in enumerate_predecessors(result.next_state):
                replay = play_trick(cand.state)
                assert replay.next_state == result.next_state
                assert not replay.terminal
                assert len(replay.pile_in_play_order) == cand.pile_length
                pred = cand.state
                seen["rank 9"] += 9 in replay.pile_in_play_order
                seen["over 30 cards"] += max(len(pred.deck_a), len(pred.deck_b)) > 30
    assert min(seen["rank 9"], seen["over 30 cards"]) >= 20, seen


def test_true_predecessor_is_always_enumerated(kernel):
    rng = random.Random(29)
    checked = 0
    while checked < 300:
        s = random_playable_state(rng, max_cards=22, max_rank=4)
        result = play_trick(s)
        if result.terminal:
            continue
        candidates = {c.state for c in enumerate_predecessors(result.next_state)}
        assert s in candidates
        checked += 1


def test_no_predecessors_when_block_filter_rejects():
    # winner's deck ends in two adjacent specials: no trick can output this
    target = state("[C23]", "[C]", PLAYER_A)
    assert enumerate_predecessors(target) == []


def test_no_predecessors_for_tiny_winner_deck():
    target = state("[1]", "[CC]", PLAYER_A)
    assert enumerate_predecessors(target) == []


def test_predecessors_are_deduplicated():
    target = state("[CCCCCCC21C]", "[1C]", PLAYER_A)
    cands = enumerate_predecessors(target)
    keys = {(c.state.deck_a, c.state.deck_b, c.state.leader) for c in cands}
    assert len(keys) == len(cands)


def _arrangements(counts):
    """Every distinct ordering of a multiset of cards, given as {card: count}."""
    if not any(counts.values()):
        yield ()
        return
    for card, count in counts.items():
        if count:
            for tail in _arrangements({**counts, card: count - 1}):
                yield (card,) + tail


def _playable_states(settings):
    """Every playable state of a setting: an arrangement, a split, a leader."""
    counts = {rank: settings.target_count(rank)
              for rank in range(settings.max_rank + 1)}
    for deck in _arrangements(counts):
        for k in range(1, settings.n_total):
            for leader in (PLAYER_A, PLAYER_B):
                yield GameState(deck[:k], deck[k:], leader)


_PREIMAGES = [("12,1", 10_890, 10), ("16,1", 54_600, 14), ("10,2", 56_700, 8)]


# ids: the setting, after the kernel's name on Python
@pytest.mark.parametrize(
    "kernel, setting, n_states, max_in_degree",
    [(kernel, *case) for kernel in ("c", "python") for case in _PREIMAGES],
    indirect=["kernel"],
    ids=[f"{prefix}{setting}-{n}-{degree}" for prefix in ("", "python-")
         for setting, n, degree in _PREIMAGES])
def test_predecessors_are_the_exact_preimage(kernel, setting, n_states, max_in_degree):
    # the whole trick map of a small setting, inverted by brute force
    states = list(_playable_states(Settings.parse(setting)))
    assert len(states) == n_states
    preimage = {}
    for s in states:
        result = play_trick(s)
        if not result.terminal:
            preimage.setdefault(result.next_state, set()).add(s)
    leader_pairs = set()
    for t in states:
        preds = [c.state for c in enumerate_predecessors(t)]
        assert len(set(preds)) == len(preds)
        assert set(preds) == preimage.get(t, set())
        leader_pairs.update((t.leader, p.leader) for p in preds)
    assert max(len(p) for p in preimage.values()) == max_in_degree
    assert leader_pairs == {(w, p) for w in (PLAYER_A, PLAYER_B)
                            for p in (PLAYER_A, PLAYER_B)}


def test_backward_search_depth_zero_echoes_balanced_seeds():
    balanced = state("[CCC11C]", "[1CC1CC]")
    unbalanced = state("[1CC1CC1CC]", "[C1C]")
    config = BackwardSearchConfig(max_depth=0)
    assert backward_search([balanced, unbalanced], config) == [balanced]


def test_backward_search_standardizes_output():
    seed = GameState((1, 0, 0), (0, 1, 0), PLAYER_B)
    config = BackwardSearchConfig(max_depth=0)
    out = backward_search([seed], config)
    assert out == [GameState((0, 1, 0), (1, 0, 0), PLAYER_A)]


def test_backward_search_results_independent_of_seed_order():
    report = cycles.verify_loop(state("[C1C1CC1CC]", "[C1C]"))
    seeds = list(report.states_in_loop)
    config = BackwardSearchConfig(max_depth=1, max_nodes=100_000)
    fwd = backward_search(seeds, config)
    rev = backward_search(seeds[::-1], config)
    assert set(fwd) == set(rev)
    assert len(fwd) > 0


def test_backward_search_respects_stop_on_balanced():
    report = cycles.verify_loop(state("[C1C1CC1CC]", "[C1C]"))
    config = BackwardSearchConfig(max_depth=2, max_nodes=100_000,
                                  stop_on_balanced=True)
    out = backward_search(list(report.states_in_loop), config)
    assert len(out) == 1


def test_backward_search_node_budget_is_a_normal_empty_return():
    target = state("[C23]", "[C]")
    config = BackwardSearchConfig(max_depth=5, max_nodes=2)
    assert backward_search([target], config) == []


def test_discover_walks_levels_and_stops_at_the_node_budget(monkeypatch):
    target = state("[CCCCCCC21C]", "[1C]")
    found = list(backward.discover([target], BackwardSearchConfig(max_depth=3)))
    assert found[0] == (0, target)
    assert [d for d, _ in found] == sorted(d for d, _ in found)
    levels = {}
    for depth, s in found:
        levels.setdefault(depth, set()).add(s)
    assert sorted(levels) == [0, 1, 2, 3]
    for depth in (1, 2, 3):
        for s in levels[depth]:
            assert play_trick(s).next_state in levels[depth - 1]

    # the 14th state is the first predecessor of the 5th, mid-level
    config = BackwardSearchConfig(max_depth=3, max_nodes=14)
    assert list(backward.discover([target], config)) == found[:14]
    # on the Python path no state is expanded after the budget is spent
    monkeypatch.setattr(_kernels, "_ckernel", False)
    expanded = []
    real = _kernels._py_step

    def recording(packed):
        expanded.append(packed)
        return real(packed)

    monkeypatch.setattr(_kernels, "_py_step", recording)
    cut = list(backward.discover([target], config))
    assert cut == found[:14]
    parent = play_trick(cut[-1][1]).next_state
    assert expanded[-1] == _kernels.pack(parent.deck_a, parent.deck_b, parent.leader == PLAYER_B)


def test_discover_keeps_every_seed_even_over_budget():
    seeds = [state(*pair) for pair in (("[1CC]", "[C1C]"), ("[C1C]", "[1CC]"),
                                       ("[CC1]", "[1CC]"))]
    config = BackwardSearchConfig(max_depth=3, max_nodes=2)
    assert list(backward.discover(seeds + seeds, config)) == [(0, s) for s in seeds]


def test_balanced_states_feed_the_52_4_loop():
    # balanced pre-loop states exist within a few backward steps
    report = cycles.verify_loop(state(*INF_52_4))
    config = BackwardSearchConfig(max_depth=4, max_nodes=300_000,
                                  stop_on_balanced=True)
    found = backward_search(list(report.states_in_loop), config)
    assert len(found) == 1
    st = found[0]
    assert len(st.deck_a) == len(st.deck_b) == 26
    outcome = play_match(st)
    assert outcome.period == 62
    assert outcome.transient <= 6


def test_backward_config_validation():
    with pytest.raises(ValueError):
        BackwardSearchConfig(max_depth=-1)
    with pytest.raises(ValueError):
        BackwardSearchConfig(max_depth=1, max_nodes=0)


def _golden_40_3_midpoint():
    """The state halfway through the 420-trick (40,3) golden match (B leads)."""
    _, deck_a, deck_b, _, tricks = GOLDEN_MATCHES[0]
    *_, mid = walk(state(deck_a, deck_b), tricks // 2)
    return [mid]


def _loop_states(deck_a, deck_b):
    return lambda: list(cycles.verify_loop(state(deck_a, deck_b)).states_in_loop)


# (seeds, depth, node budget, states found, sha256 prefix of the dump): the
# breadth-first order as the search gave it before it ran on packed states
_PINNED_SEARCHES = {
    "20,2": (_loop_states(*NONTERMINATING["20,2"][0]), 10**6, 10**6, 78, "05ca61d5f2ade16f"),
    "28,1": (_loop_states(*NONTERMINATING["28,1"][0]), 10**6, 10**6, 874, "a0c6707cd39d27a8"),
    "40,1": (_loop_states(*INF_40_1), 10**6, 10**6, 1262, "c68e357a2caec451"),
    "40,1 table 2": (_loop_states(*NONTERMINATING["40,1"][0]), 10**6, 10**6, 764,
                     "fe3930537bf2003f"),
    "40,3 midpoint": (_golden_40_3_midpoint, 50, 300, 300, "2632372398c3f609"),
}


@pytest.mark.parametrize("search", list(_PINNED_SEARCHES))
def test_discover_order_is_pinned(kernel, search):
    seeds, depth, nodes, n_found, digest = _PINNED_SEARCHES[search]
    lines = [f"{d} {s.leader} {format_deck(s.deck_a)} {format_deck(s.deck_b)}"
             for d, s in backward.discover(seeds(), BackwardSearchConfig(depth, nodes))]
    assert len(lines) == n_found
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16] == digest


def test_balanced_deals_behind_the_20_2_loop(kernel):
    # the cycle state of the (20,2) factory loop; the search exhausts
    # long before its budget
    cycle = state("[CC2C2C1C]", "[2C1CC2C1CC1C]")
    config = BackwardSearchConfig(max_depth=100, max_nodes=100_000)
    assert len(list(backward.discover([cycle], config))) == 189
    found = backward_search([cycle], config)
    assert len(found) == 12
    assert found[0] == state("[CC2C2C1CC2]", "[2C1CC1CC1C]")
    assert play_match(found[0]) == Looped(transient=3, period=11)
    for deal in found:
        assert len(deal.deck_a) == len(deal.deck_b) == 10
        assert deal.leader == PLAYER_A
        outcome = play_match(deal)
        assert isinstance(outcome, Looped) and outcome.period == 11


def _mixed_seeds():
    """Loop states of three published loops of 12, 20 and 40 cards, led by
    either player, each of the first four given twice."""
    seeds = []
    for deck_a, deck_b in (NONTERMINATING["12,1"][0], NONTERMINATING["20,2"][0], INF_40_1):
        seeds += list(cycles.verify_loop(state(deck_a, deck_b)).states_in_loop)[:6]
    return seeds + seeds[:4]


def _golden_40_3_walk():
    """The states of the 420-trick (40,3) golden match before its last
    trick, then each again in reverse: every one is in the backward tree of
    the last, so the search meets each seed again at its depth there."""
    _, deck_a, deck_b, _, tricks = GOLDEN_MATCHES[0]
    states = list(walk(state(deck_a, deck_b), tricks - 1))
    return states + states[::-1]


def _over_1024_cards():
    """A 1025-card state, past the C kernel, among small seeds."""
    big = GameState((0, 3) + (0,) * 18, (0,) * 1000 + (2, 0, 0, 1, 0), PLAYER_B)
    return _mixed_seeds()[:2] + [big]


# (seeds, depth, node budget, stop on balanced)
_SEARCH_CASES = {
    "mixed seeds": (_mixed_seeds, 10**6, 10**6, False),
    "depth 0": (_mixed_seeds, 0, 10**6, False),
    "1 node": (_mixed_seeds, 10**6, 1, False),
    "2 nodes": (lambda: [state("[CCCCCCC21C]", "[1C]")], 10**6, 2, False),
    "14 nodes": (lambda: [state("[CCCCCCC21C]", "[1C]")], 10**6, 14, False),
    "stop on balanced": (_mixed_seeds, 10**6, 10**6, True),
    # 16,951 states, 840 seeds: the C search's arrays, made for 256 states,
    # double and rehash seven times, its states' bytes eight times, and
    # the repeated seeds and the seeds met again are found in the table
    "large": (_golden_40_3_walk, 10**6, 10**6, False),
    "over 1024 cards": (_over_1024_cards, 3, 10**6, False),
}


@pytest.mark.parametrize("case", list(_SEARCH_CASES))
def test_search_matches_the_reference(kernel, case):
    seeds, max_depth, max_nodes, stop = _SEARCH_CASES[case]
    seeds = [_kernels.pack(s.deck_a, s.deck_b, s.leader == PLAYER_B) for s in seeds()]
    got = _kernels.search(seeds, max_depth, max_nodes, stop)
    want = _kernels._py_search(seeds, max_depth, max_nodes, stop)
    assert got[0] == want[0]
    assert [a.tolist() for a in got[1:]] == [a.tolist() for a in want[1:]]
    # what the reference itself must give
    states, offsets, depths, plens = got[0], *(a.tolist() for a in got[1:])
    found = [states[i:j] for i, j in zip(offsets, offsets[1:])]
    distinct = list(dict.fromkeys(seeds))
    assert len(set(found)) == len(found) == len(depths) == len(plens)
    assert found[:len(distinct)] == distinct[:len(found)]
    assert depths == sorted(depths) and depths[-1] <= max_depth
    assert len(found) <= max(max_nodes, len(distinct))
    if max_nodes < 10**6:  # exact at the budget
        assert len(found) == max(max_nodes, len(distinct))
    if case == "mixed seeds":
        assert len(distinct) < len(seeds)
        assert len({(p[0], len(p)) for p in distinct}) == 6  # both leaders, three sizes
    balanced = [packed[1:3] == packed[3:5] for packed in found]
    if stop:
        assert balanced.index(True) == len(found) - 1
    at = {packed: depth for packed, depth in zip(found, depths)}
    for packed, depth, plen in zip(found, depths, plens):
        if depth == 0:
            assert packed in distinct and plen == 0
            continue
        leader, cards_a, cards_b = _kernels.split(packed)
        trick = play_trick(GameState(tuple(cards_a), tuple(cards_b), "AB"[leader]))
        after = trick.next_state
        assert at[_kernels.pack(after.deck_a, after.deck_b, after.leader == PLAYER_B)] == depth - 1
        assert len(trick.pile_in_play_order) == plen
    if case == "large":
        assert len(found) == 16_951
    if case == "over 1024 cards":
        assert max(map(len, found)) > 1024 + _kernels.HEADER.size
