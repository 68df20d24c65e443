"""Backward-step tests: predecessor enumeration and balanced search."""

import hashlib
import random
from collections import Counter

import pytest

from bmn import _kernels, cycles
from bmn.backward import BackwardSearchConfig, backward_search, enumerate_predecessors, search
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
from backward_oracle import discover
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
    found = {(format_deck(p.deck_a), format_deck(p.deck_b), p.leader)
             for p in enumerate_predecessors(target)}
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
            pile_lengths = []
            for pred in enumerate_predecessors(result.next_state):
                replay = play_trick(pred)
                assert replay.next_state == result.next_state
                assert not replay.terminal
                pile_lengths.append(len(replay.pile_in_play_order))
                seen["rank 9"] += 9 in replay.pile_in_play_order
                seen["over 30 cards"] += max(len(pred.deck_a), len(pred.deck_b)) > 30
            # one predecessor per pile length at most, shortest pile first
            assert pile_lengths == sorted(set(pile_lengths))
    assert min(seen["rank 9"], seen["over 30 cards"]) >= 20, seen


def test_true_predecessor_is_always_enumerated(kernel):
    rng = random.Random(29)
    checked = 0
    while checked < 300:
        s = random_playable_state(rng, max_cards=22, max_rank=4)
        result = play_trick(s)
        if result.terminal:
            continue
        assert s in enumerate_predecessors(result.next_state)
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
    preds = enumerate_predecessors(target)
    keys = {(p.deck_a, p.deck_b, p.leader) for p in preds}
    assert len(keys) == len(preds)


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
        preds = enumerate_predecessors(t)
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


def test_backward_search_returns_every_balanced_state():
    report = cycles.verify_loop(state("[C1C1CC1CC]", "[C1C]"))
    seeds = list(report.states_in_loop)
    config = BackwardSearchConfig(max_depth=2, max_nodes=100_000)
    out = backward_search(seeds, config)
    # every balanced state the search discovers, once each, standardized
    # and in discovery order
    balanced = [cycles.standardize(s) for _, s in discover(seeds, config)
                if len(s.deck_a) == len(s.deck_b)]
    assert out == list(dict.fromkeys(balanced))
    assert len(out) == 15
    for deal in out:
        assert deal.leader == PLAYER_A
        outcome = play_match(deal)
        assert isinstance(outcome, Looped) and outcome.period == report.period


def test_backward_search_node_budget_is_a_normal_empty_return():
    target = state("[C23]", "[C]")
    config = BackwardSearchConfig(max_depth=5, max_nodes=2)
    assert backward_search([target], config) == []


def test_discover_walks_levels_and_stops_at_the_node_budget(monkeypatch):
    target = state("[CCCCCCC21C]", "[1C]")
    found = list(discover([target], BackwardSearchConfig(max_depth=3)))
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
    assert list(discover([target], config)) == found[:14]
    # on the Python path no state is expanded after the budget is spent
    monkeypatch.setattr(_kernels, "_ckernel", False)
    expanded = []
    real = _kernels._py_step

    def recording(packed):
        expanded.append(packed)
        return real(packed)

    monkeypatch.setattr(_kernels, "_py_step", recording)
    cut = list(discover([target], config))
    assert cut == found[:14]
    parent = play_trick(cut[-1][1]).next_state
    assert expanded[-1] == _kernels.pack(parent.deck_a, parent.deck_b, parent.leader == PLAYER_B)


def test_discover_keeps_every_seed_even_over_budget():
    seeds = [state(*pair) for pair in (("[1CC]", "[C1C]"), ("[C1C]", "[1CC]"),
                                       ("[CC1]", "[1CC]"))]
    config = BackwardSearchConfig(max_depth=3, max_nodes=2)
    assert list(discover(seeds + seeds, config)) == [(0, s) for s in seeds]


def test_balanced_states_feed_the_52_4_loop():
    # balanced pre-loop states exist within a few backward steps
    report = cycles.verify_loop(state(*INF_52_4))
    config = BackwardSearchConfig(max_depth=4, max_nodes=300_000)
    found = backward_search(list(report.states_in_loop), config)
    assert len(found) == 12
    for st in found:
        assert len(st.deck_a) == len(st.deck_b) == 26
        outcome = play_match(st)
        assert outcome.period == 62
        # at most four tricks from the cycle
        assert outcome.transient <= 4


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
             for d, s in discover(seeds(), BackwardSearchConfig(depth, nodes))]
    assert len(lines) == n_found
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16] == digest


def test_balanced_deals_behind_the_20_2_loop(kernel):
    # the cycle state of the (20,2) factory loop; the search exhausts
    # long before its budget
    cycle = state("[CC2C2C1C]", "[2C1CC2C1CC1C]")
    config = BackwardSearchConfig(max_depth=100, max_nodes=100_000)
    assert len(list(discover([cycle], config))) == 189
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


def _1024_cards():
    """A state of 1024 cards, the most the C kernel holds, led by either
    player: each of its predecessors fills a 1029-byte row."""
    deck = (1, 0) * 256
    return [GameState(deck, deck, PLAYER_A), GameState(deck, deck, PLAYER_B)]


def _over_1024_cards():
    """A 1025-card state, past the C kernel, among small seeds."""
    big = GameState((0, 3) + (0,) * 18, (0,) * 1000 + (2, 0, 0, 1, 0), PLAYER_B)
    return _mixed_seeds()[:2] + [big]


# (seeds, depth, node budget)
_SEARCH_CASES = {
    "mixed seeds": (_mixed_seeds, 10**6, 10**6),
    "depth 0": (_mixed_seeds, 0, 10**6),
    "1 node": (_mixed_seeds, 10**6, 1),
    "2 nodes": (lambda: [state("[CCCCCCC21C]", "[1C]")], 10**6, 2),
    "14 nodes": (lambda: [state("[CCCCCCC21C]", "[1C]")], 10**6, 14),
    # the 62 cycle states of the published (52,4) loop: 2,514 states, twelve
    # of them balanced
    "52,4 loop": (_loop_states(*INF_52_4), 4, 10**6),
    # 16,951 states, 840 seeds: the C search's table, made for 256 states,
    # doubles seven times and its arena of states eight times, the table
    # rebuilt at each, and the repeated seeds and the seeds met again are
    # found in it
    "large": (_golden_40_3_walk, 10**6, 10**6),
    # 2,100 states of the widest rows C takes: each predecessor is written
    # in the whole spare room past the arena's last state, and the arena
    # doubles ten times, the table four
    "1024 cards": (_1024_cards, 10**6, 2100),
    "over 1024 cards": (_over_1024_cards, 3, 10**6),
}


def _checked_search(seeds, max_depth, max_nodes):
    """The search from the packed `seeds`, all of one width, on the kernel
    in use, checked against the reference and against what the reference
    itself must give. Returns the states found, as bytes."""
    got = _kernels.search(seeds, max_depth, max_nodes)
    want = _kernels._py_search(seeds, max_depth, max_nodes)
    width = len(seeds[0])
    assert type(got[0]) is type(want[0]) is bytes
    assert len(got[0]) == len(want[0]) == len(got[1]) * width
    assert got[0] == want[0]
    assert got[1].typecode == want[1].typecode == "q"
    assert got[1].tolist() == want[1].tolist()
    found = [got[0][i:i + width] for i in range(0, len(got[0]), width)]
    depths = got[1].tolist()
    distinct = list(dict.fromkeys(seeds))
    assert len(set(found)) == len(found) == len(depths)
    assert found[:len(distinct)] == distinct[:len(found)]
    assert depths == sorted(depths) and depths[-1] <= max_depth
    assert len(found) <= max(max_nodes, len(distinct))
    if max_nodes < 10**6:  # exact at the budget
        assert len(found) == max(max_nodes, len(distinct))
    # each state found after the seeds is one trick before a state of the
    # level above: the levels run in the order of those states and then
    # by pile length
    index = {packed: i for i, packed in enumerate(found)}
    order = []
    for packed, depth in zip(found, depths):
        if depth == 0:
            assert packed in distinct
            continue
        leader, cards_a, cards_b = _kernels.split(packed)
        trick = play_trick(GameState(tuple(cards_a), tuple(cards_b), "AB"[leader]))
        after = trick.next_state
        parent = index[_kernels.pack(after.deck_a, after.deck_b, after.leader == PLAYER_B)]
        assert depths[parent] == depth - 1
        order.append((parent, len(trick.pile_in_play_order)))
    assert order == sorted(set(order))
    return found


@pytest.mark.parametrize("case", list(_SEARCH_CASES))
def test_search_matches_the_reference(kernel, case, monkeypatch):
    seeds, max_depth, max_nodes = _SEARCH_CASES[case]
    seeds = [_kernels.pack(s.deck_a, s.deck_b, s.leader == PLAYER_B) for s in seeds()]
    # one search per width: a search takes the seeds of one width
    groups = {}
    for packed in seeds:
        groups.setdefault(len(packed), []).append(packed)
    found = [_checked_search(group, max_depth, max_nodes) for group in groups.values()]
    if case == "mixed seeds":
        assert len(set(seeds)) < len(seeds)
        assert len(groups) == 3  # three sizes, three searches
        assert len({(p[0], len(p)) for p in seeds}) == 6  # both leaders in each
    if case == "52,4 loop":
        (found,) = found
        assert len(found) == 2514
        assert sum(packed[1:3] == packed[3:5] for packed in found) == 12
    if case == "large":
        (found,) = found
        assert len(found) == 16_951
    if case == "1024 cards":
        (found,) = found
        assert len(found) == 2100 and len(found[0]) == 1024 + _kernels.HEADER.size
        # the C kernel searches them itself
        fallbacks = []
        monkeypatch.setattr(_kernels, "_py_search", lambda *args: fallbacks.append(args))
        _kernels.search(seeds, max_depth, max_nodes)
        assert len(fallbacks) == (kernel == "python")
    if case == "over 1024 cards":
        assert sorted(groups) == [17, 1025 + _kernels.HEADER.size]


def test_a_search_takes_seeds_of_one_width(kernel, monkeypatch):
    # a trick keeps every card, so the states of one search share a width;
    # seeds of two widths are refused before either kernel runs
    fallbacks = []
    monkeypatch.setattr(_kernels, "_py_search", lambda *args: fallbacks.append(args))
    seeds = [state("[1CC1CC]", "[C1CC1C]"), state("[1CC]", "[C1C]")]
    with pytest.raises(ValueError, match="same number of cards"):
        _kernels.search([_kernels.pack(s.deck_a, s.deck_b, 0) for s in seeds], 1, 10)
    with pytest.raises(ValueError, match="same number of cards"):
        backward_search(seeds, BackwardSearchConfig(max_depth=1))
    assert fallbacks == []


def test_backward_search_from_no_seeds_finds_nothing(kernel):
    assert backward_search([], BackwardSearchConfig(max_depth=3)) == []


def test_backward_search_reads_both_bytes_of_each_deck_length(kernel):
    # 641 against 129 cards (0x281, 0x081) shares its low bytes with 385
    # against 385 (0x181, 0x181) and is not even; 385 against 385 is
    decks = [((0,) * 640 + (1,), (0,) * 129), ((0,) * 129, (0,) * 640 + (1,)),
             ((1,) + (0,) * 384, (0,) * 385)]
    seeds = [GameState(a, b, leader) for a, b in decks for leader in (PLAYER_B, PLAYER_A)]
    found = backward_search(seeds, BackwardSearchConfig(max_depth=0))
    assert found == [GameState((0,) * 385, (1,) + (0,) * 384, PLAYER_A),
                     GameState((1,) + (0,) * 384, (0,) * 385, PLAYER_A)]


def test_backward_search_from_an_odd_card_count_finds_nothing(kernel):
    # no split of 13 cards is even, though the search finds rows whose
    # header gives A 6 cards, half of 13 rounded down
    seeds = [state("[CC1C]", "[2CCCCCC1C]", PLAYER_B)]
    config = BackwardSearchConfig(max_depth=8)
    found = [s for _, s in discover(seeds, config)]
    assert len(found) == 171
    assert sum(len(s.deck_a) == 6 for s in found) == 21
    assert backward_search(seeds, config) == []


def _balanced_row_by_row(states, width):
    """`backward_search`'s list from a search's rows, each row's deck
    lengths read with `_kernels.split`."""
    balanced = {}
    for i in range(0, len(states), width):
        leader, cards_a, cards_b = _kernels.split(states[i:i + width])
        if len(cards_a) == len(cards_b):
            decks = (cards_b, cards_a) if leader else (cards_a, cards_b)
            balanced.setdefault(GameState(*map(tuple, decks), PLAYER_A), None)
    return list(balanced)


def test_backward_search_matches_a_row_by_row_filter_on_1024_cards(kernel):
    # half of 1024 cards is 512, 0x0200: the header's high length byte is not 0
    seeds = _1024_cards()
    config = BackwardSearchConfig(max_depth=10**6, max_nodes=2100)
    states, depths = search(seeds, config)
    want = _balanced_row_by_row(states, len(states) // len(depths))
    assert len(want) == 32
    assert backward_search(seeds, config) == want
