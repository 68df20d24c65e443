"""The three workloads: inputs made from a seed, the package calls that
make up each op, and checks on every result.

Each op has a stable id that names its inputs. Its result is reduced to a
fingerprint string: the stored reference holds one digest per op id, and a
repeated op must reproduce its first fingerprint exactly. Invariants that
need no reference are checked the first time an op id is seen.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import time
from dataclasses import dataclass
from pathlib import Path

from published import (
    CLASSIC_52_4,
    CLASSIC_52_4_LOOP,
    GOLDEN_MATCHES,
    INF_40_1,
    INF_40_1_PERIOD,
    PUBLISHED_LOOPS,
    TABLE_2,
)

LOOP_TRICK_CAP = 100_000
EXHAUSTIVE = 1_000_000  # depth and node limit that no published search reaches
WORKERS = 2             # --workers passed to `bmn simulate`


@dataclass(frozen=True)
class Op:
    id: str
    args: tuple


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:24]


def _state(m, setting, deck_a, deck_b, leader="A"):
    settings = m.engine.Settings.parse(setting)
    return m.engine.GameState(m.engine.parse_deck(deck_a, settings),
                              m.engine.parse_deck(deck_b, settings), leader)


def _fmt_outcome(m, outcome) -> str:
    if isinstance(outcome, m.engine.Terminated):
        return f"terminated {outcome.winner} {outcome.tricks}"
    if isinstance(outcome, m.engine.Looped):
        return f"looped {outcome.transient}+{outcome.period}"
    return f"over budget {outcome.tricks_played}"


def _fmt_state(m, state) -> str:
    return (f"{state.leader} {m.engine.format_deck(state.deck_a)} "
            f"{m.engine.format_deck(state.deck_b)}")


class Workload:
    """One workload: its op list, how an op runs and how its result is checked."""

    name = ""
    why = ""
    min_ops = 0  # ops a run must hold before it may stop

    def ops(self, seed: int, smoke: bool) -> list:
        raise NotImplementedError

    def warmup(self) -> Op:
        """A fixed, cheap op run once per set-up, untimed."""
        raise NotImplementedError

    def run(self, m, op, tr, tmp: Path):
        """The timed call(s) into the package."""
        raise NotImplementedError

    def collect(self, m, op, raw, tmp: Path):
        """Untimed: turn the raw return into a checkable result."""
        return raw

    def fingerprint(self, m, op, result) -> str:
        raise NotImplementedError

    def problems(self, m, op, result) -> list:
        """Invariant violations that need no stored reference."""
        return []

    def matches(self, op, result) -> int:
        """Complete matches this op played."""
        return 1


# ---------------------------------------------------------------------------
# simulate_40_3
# ---------------------------------------------------------------------------


class Simulate(Workload):
    name = "simulate_40_3"
    why = ("bmn simulate on fixed-seed (40,3) batches: the paper's Monte Carlo; "
           "dealing plus raw play, no loop detection, backward or factory")
    batch = 10_000
    batches = 6
    smoke_batch = 2_000

    def ops(self, seed, smoke):
        rng = random.Random(f"{self.name}:{seed}")
        n, size = (1, self.smoke_batch) if smoke else (self.batches, self.batch)
        return [self._op(rng.randrange(2 ** 32), size) for _ in range(n)]

    def warmup(self):
        return self._op(0, 1_000)

    @staticmethod
    def _op(batch_seed, matches):
        return Op(f"simulate 40,3 seed={batch_seed} matches={matches}",
                  (batch_seed, matches))

    def run(self, m, op, tr, tmp):
        batch_seed, matches = op.args
        argv = ["simulate", "--setting", "40,3", "--matches", str(matches),
                "--seed", str(batch_seed), "--workers", str(WORKERS),
                "--fit", "10,100", "--out", str(tmp / "stats.txt"),
                "--hist", str(tmp / "hist.csv")]
        return tr.call("cli", "simulate", m.cli.main, argv)

    def collect(self, m, op, rc, tmp):
        texts = []
        for name in ("stats.txt", "hist.csv"):
            path = tmp / name
            texts.append(path.read_text() if path.exists() else "")
            path.unlink(missing_ok=True)
        return rc, texts[0], texts[1]

    def fingerprint(self, m, op, result):
        rc, stats_text, hist_text = result
        # The header above [summary] echoes flags and the package version,
        # which may change without changing a single result.
        body = stats_text[stats_text.find("[summary]"):]
        return f"rc={rc} stats={digest(body)} hist={digest(hist_text)}"

    def problems(self, m, op, result):
        rc, stats_text, hist_text = result
        if rc != 0:
            return [f"exit code {rc}"]
        values, section = {}, None
        for line in stats_text.splitlines():
            if line.startswith("["):
                section = line.strip("[]")
            elif section and " = " in line:
                key, value = line.split(" = ", 1)
                values[f"{section}.{key}"] = value
        try:
            matches = int(values["summary.matches"])
            terminated = int(values["summary.terminated"])
            looped = int(values["summary.loop_count"])
            over = int(values["summary.budget_exceeded_count"])
            lam = float(values["fit.lambda"])
            rows = hist_text.splitlines()
            hist_total = sum(int(row.split(",")[1]) for row in rows[1:])
        except (KeyError, ValueError, IndexError) as exc:
            return [f"unreadable output: {exc!r}"]
        out = []
        if matches != op.args[1]:
            out.append(f"matches {matches} != {op.args[1]}")
        if terminated + looped + over != matches:
            out.append(f"terminated+looped+over {terminated}+{looped}+{over} != {matches}")
        if not rows or rows[0] != "tricks,count" or hist_total != terminated:
            out.append(f"histogram total {hist_total} != terminated {terminated}")
        if not lam > 0:
            out.append(f"fit lambda {lam}")
        return out

    def matches(self, op, result):
        return op.args[1]


# ---------------------------------------------------------------------------
# factory_small
# ---------------------------------------------------------------------------


class Factory(Workload):
    name = "factory_small"
    why = ("factory.run_factory on a fixed list of (20,2) and (28,1) runs: "
           "loop-detecting play that stores no states; no dealing or batch kernel")
    min_ops = 100
    # (20,2) rng seeds 1..40 with budget 3000, plus three (28,1) runs.
    # Those never complete, so they use the whole budget; at 3000 rounds
    # one takes ~3 s (2-core Xeon, pure-Python backend), too long to
    # repeat a pass three times in a run, so they get 300 rounds.
    FULL = ([((20, 2), s, 3000) for s in range(1, 41)]
            + [((28, 1), s, 300) for s in range(1, 4)])
    SMOKE = [((12, 1), 7, 3000), ((20, 2), 2, 3000), ((28, 1), 1, 100)]

    def ops(self, seed, smoke):
        # The op list is the same for every seed: run time per rng seed is
        # so heavy-tailed (over 120 seeds on a 2-core Xeon with the
        # pure-Python backend: p50 100 ms, p90 650 ms, max 1.6 s) that fresh
        # seeds would swamp any code change. The seed only orders the ops.
        ops = [self._op(*spec) for spec in (self.SMOKE if smoke else self.FULL)]
        if not smoke:
            random.Random(f"{self.name}:{seed}").shuffle(ops)
        return ops

    def warmup(self):
        return self._op((12, 1), 7, 3000)

    @staticmethod
    def _op(setting, rng_seed, budget):
        n, r = setting
        return Op(f"factory {n},{r} rng_seed={rng_seed} budget={budget}",
                  (setting, rng_seed, budget))

    def run(self, m, op, tr, tmp):
        (n, r), rng_seed, budget = op.args
        config = m.factory.FactoryConfig(settings=m.engine.Settings(n, r),
                                         seed_state=m.factory.default_seed_state(),
                                         budget=budget, rng_seed=rng_seed)
        return m.factory.run_factory(config)

    def fingerprint(self, m, op, res):
        fmt = m.engine.format_deck
        if res.success:
            head = (f"complete {fmt(res.complete.deck_a)} {fmt(res.complete.deck_b)} "
                    f"transient={res.report.transient} period={res.report.period}")
        else:
            head = (f"partial score={res.best.score} depth={res.best.depth} "
                    f"{fmt(res.best.deck_a)} {fmt(res.best.deck_b)}")
        return f"{head} rounds={res.rounds_used} tests={res.tests_run}"

    def problems(self, m, op, res):
        (n, r), _, budget = op.args
        settings = m.engine.Settings(n, r)
        out = []
        if not 1 <= res.rounds_used <= budget:
            out.append(f"rounds {res.rounds_used} outside 1..{budget}")
        if res.success:
            score = m.factory.score(res.complete.deck_a, res.complete.deck_b, settings)
            if score != n:
                out.append(f"complete config scores {score}, not {n}")
            replay = m.engine.play_match(res.complete, LOOP_TRICK_CAP)
            want = m.engine.Looped(res.report.transient, res.report.period)
            if replay != want:
                out.append(f"complete config replays to {replay}, report says {want}")
        else:
            if res.best.score >= n:
                out.append(f"partial result scores {res.best.score}")
            replay = m.engine.play_match(res.best.state, LOOP_TRICK_CAP)
            if not isinstance(replay, m.engine.Looped):
                out.append(f"best checkpoint does not loop: {replay}")
        return out

    def matches(self, op, res):
        return res.tests_run


# ---------------------------------------------------------------------------
# loop_analysis
# ---------------------------------------------------------------------------


class LoopAnalysis(Workload):
    name = "loop_analysis"
    why = ("published loops verified, scanned and searched backwards exhaustively, "
           "plus traced (40,3) deals searched backwards: engine keeping every state")
    min_ops = 100
    # A 300-node budget stops most deal searches at the budget, so deal ops
    # cost much the same (p10 11 ms, p90 16 ms on the same box) and fresh
    # deals per seed do not move the percentiles; the published loops hold
    # the heavy searches.
    deals = 80
    cli_every = 4              # every 4th deal lists predecessors through the CLI
    deal_limits = (50, 300)    # backward depth, node budget
    smoke_limits = (50, 100)

    def ops(self, seed, smoke):
        rng = random.Random(f"{self.name}:{seed}")
        loops = TABLE_2[:2] if smoke else PUBLISHED_LOOPS
        n_deals, (depth, nodes) = ((2, self.smoke_limits) if smoke
                                   else (self.deals, self.deal_limits))
        ops = [Op(f"loop {s} {a} {b}", ("loop", s, a, b)) for s, a, b in loops]
        cards = [rank for rank in (1, 2, 3) for _ in range(4)] + [0] * 28
        for i in range(n_deals):
            rng.shuffle(cards)
            deck_a = "".join("C" if c == 0 else str(c) for c in cards[:20])
            deck_b = "".join("C" if c == 0 else str(c) for c in cards[20:])
            via = "cli" if i % self.cli_every == 1 else "api"
            ops.append(Op(f"deal {deck_a} {deck_b} {via} depth={depth} nodes={nodes}",
                          ("deal", deck_a, deck_b, via, depth, nodes)))
        rng.shuffle(ops)
        return ops

    def warmup(self):
        s, a, b = TABLE_2[1]
        return Op(f"loop {s} {a} {b}", ("loop", s, a, b))

    def run(self, m, op, tr, tmp):
        if op.args[0] == "loop":
            _, setting, deck_a, deck_b = op.args
            settings = m.engine.Settings.parse(setting)
            report = m.cycles.verify_loop(_state(m, setting, deck_a, deck_b),
                                          LOOP_TRICK_CAP)
            entries = m.cycles.scan_balanced_entries(report, settings)
            config = m.backward.BackwardSearchConfig(max_depth=EXHAUSTIVE,
                                                     max_nodes=EXHAUSTIVE)
            found = m.backward.backward_search(list(report.states_in_loop), config)
            return report, entries, found
        _, deck_a, deck_b, via, depth, nodes = op.args
        initial = _state(m, "40,3", deck_a, deck_b)
        records, outcome = m.analyzer.trace_match(initial)
        k = (len(records) - 1) // 2
        mid = initial
        with tr.span("engine", "play_trick", count=k):
            for _ in range(k):
                mid = m.engine.play_trick(mid).next_state
        if via == "cli":
            fmt = m.engine.format_deck
            argv = ["backward", "--setting", "40,3", "--deck-a", fmt(mid.deck_a),
                    "--deck-b", fmt(mid.deck_b), "--leader", mid.leader,
                    "--depth", str(depth), "--max-nodes", str(nodes)]
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = tr.call("cli", "backward", m.cli.main, argv)
            found = (rc, out.getvalue())
        else:
            config = m.backward.BackwardSearchConfig(max_depth=depth, max_nodes=nodes)
            found = m.backward.backward_search([mid], config)
        return outcome, len(records), k, mid, found

    def fingerprint(self, m, op, result):
        if op.args[0] == "loop":
            report, entries, found = result
            states = sorted(_fmt_state(m, s) for s in found)
            return (f"transient={report.transient} period={report.period} "
                    f"entries={digest(';'.join(_fmt_state(m, s) for s in entries))} "
                    f"found={len(states)}:{digest(';'.join(states))}")
        outcome, n_records, k, mid, found = result
        if op.args[3] == "cli":
            rc, text = found
            lines = sorted(text.splitlines())
            tail = f"rc={rc} listed={len(lines)}:{digest(';'.join(lines))}"
        else:
            states = sorted(_fmt_state(m, s) for s in found)
            tail = f"found={len(states)}:{digest(';'.join(states))}"
        return (f"{_fmt_outcome(m, outcome)} records={n_records} "
                f"mid@{k}={_fmt_state(m, mid)} {tail}")

    def problems(self, m, op, result):
        return (self._loop_problems(m, op, result) if op.args[0] == "loop"
                else self._deal_problems(m, op, result))

    @staticmethod
    def _loop_problems(m, op, result):
        _, setting, deck_a, deck_b = op.args
        report, entries, found = result
        half = m.engine.Settings.parse(setting).half
        out = []
        if op.args[1:] == CLASSIC_52_4 and (report.transient, report.period) != CLASSIC_52_4_LOOP:
            out.append(f"52,4 classic gives {report.transient}+{report.period}")
        if op.args[1:] == INF_40_1 and report.period != INF_40_1_PERIOD:
            out.append(f"40,1 loop has period {report.period}")
        for s in entries:
            if len(s.deck_a) != half or len(s.deck_b) != half or s.leader != "A":
                out.append(f"scan entry not balanced and led by A: {_fmt_state(m, s)}")
        for s in found:
            if len(s.deck_a) != len(s.deck_b) or s.leader != "A":
                out.append(f"found state not balanced and led by A: {_fmt_state(m, s)}")
            elif not isinstance(m.engine.play_match(s, LOOP_TRICK_CAP), m.engine.Looped):
                out.append(f"found state does not loop: {_fmt_state(m, s)}")
        return out

    @staticmethod
    def _deal_problems(m, op, result):
        outcome, n_records, k, mid, found = result
        out = []
        remaining = None
        if isinstance(outcome, m.engine.Terminated):
            if n_records != outcome.tricks + 1:
                out.append(f"{n_records} trace records for {outcome.tricks} tricks")
            remaining = outcome.tricks - k
            replay = m.engine.play_match(mid, LOOP_TRICK_CAP)
            if replay != m.engine.Terminated(outcome.winner, remaining):
                out.append(f"mid-match state replays to {replay}")
        if op.args[3] == "cli":
            rc, text = found
            if rc != 0:
                return out + [f"backward exit code {rc}"]
            listed = set()
            for line in text.splitlines():
                try:
                    leader, deck_a, deck_b = (f.split("=", 1)[1] for f in line.split())
                    listed.add(_state(m, "40,3", deck_a, deck_b, leader))
                except ValueError:
                    return out + [f"unreadable listing line {line!r}"]
            for s in listed:
                step = m.engine.play_trick(s)
                if step.terminal or (step.next_state != mid and step.next_state not in listed):
                    out.append(f"listed state is no predecessor: {_fmt_state(m, s)}")
            return out
        for s in found:
            if len(s.deck_a) != len(s.deck_b) or s.leader != "A":
                out.append(f"found state not balanced and led by A: {_fmt_state(m, s)}")
            elif remaining is not None:
                replay = m.engine.play_match(s, LOOP_TRICK_CAP)
                if not (isinstance(replay, m.engine.Terminated) and replay.tricks >= remaining):
                    out.append(f"found state {_fmt_state(m, s)} replays to {replay}")
        return out


WORKLOADS = {w.name: w for w in (Simulate(), Factory(), LoopAnalysis())}


# ---------------------------------------------------------------------------
# Layer micro-benchmarks, run untraced after every traced pass
# ---------------------------------------------------------------------------


MICRO_DEALS = 2_000


class Micro(Workload):
    """Deal, raw-play and loop-check rates on fixed inputs, as one checked
    op so its results are verified like workload ops. run() returns
    ({rate name: (work, seconds)}, fingerprint, problems)."""

    name = "micro"

    def ops(self, seed, smoke):
        micro_seed = random.Random(f"{self.name}:{seed}").randrange(2 ** 32)
        return [Op(f"micro 40,3 seed={micro_seed} deals={MICRO_DEALS}", (micro_seed,))]

    def run(self, m, op, tr, tmp):
        return _microbench(m, op.args[0])

    def fingerprint(self, m, op, result):
        return result[1]

    def problems(self, m, op, result):
        return result[2]


def _microbench(m, seed: int):
    E = m.engine
    config = m.simulator.SimConfig(settings=E.Settings(40, 3), matches=1, seed=seed)
    t0 = time.perf_counter()
    deals = [m.simulator.match_state(config, i) for i in range(MICRO_DEALS)]
    t_deal = time.perf_counter() - t0

    t0 = time.perf_counter()
    raw = [E.play_match(d, E.DEFAULT_BATCH_TRICKS, detect_loops=False) for d in deals]
    t_raw = time.perf_counter() - t0

    golden = [_state(m, s, a, b) for s, a, b, _, _ in GOLDEN_MATCHES]
    golden += [_state(m, *CLASSIC_52_4), _state(m, *INF_40_1)]
    t0 = time.perf_counter()
    checked = [E.play_match(s, LOOP_TRICK_CAP, detect_loops=True) for s in golden]
    t_loop = time.perf_counter() - t0

    problems = []
    full = sorted([r for r in (1, 2, 3) for _ in range(4)] + [0] * 28)
    if any(sorted(d.deck_a + d.deck_b) != full or len(d.deck_a) != 20 for d in deals):
        problems.append("a deal is not an even split of the (40,3) deck")
    raw_tricks = 0
    for outcome in raw:
        if isinstance(outcome, E.Terminated):
            raw_tricks += outcome.tricks
        else:
            problems.append(f"raw play of a (40,3) deal gave {outcome}")
    for outcome, (_, _, _, winner, tricks) in zip(checked, GOLDEN_MATCHES):
        if outcome != E.Terminated(winner, tricks):
            problems.append(f"golden match gave {outcome}, want {winner} {tricks}")
    classic, inf40 = checked[-2:]
    if classic != E.Looped(*CLASSIC_52_4_LOOP):
        problems.append(f"52,4 classic gave {classic}")
    if not isinstance(inf40, E.Looped) or inf40.period != INF_40_1_PERIOD:
        problems.append(f"40,1 loop gave {inf40}")
    loop_tricks = sum(o.tricks if isinstance(o, E.Terminated) else
                      o.transient + o.period if isinstance(o, E.Looped) else
                      o.tricks_played for o in checked)

    fingerprint = (f"deals={digest(';'.join(_fmt_state(m, d) for d in deals))} "
                   f"raw={digest(','.join(_fmt_outcome(m, o) for o in raw))}")
    work = {"simulator.deal_per_s": (MICRO_DEALS, t_deal),
            "kernels.raw_tricks_per_s": (raw_tricks, t_raw),
            "engine.loopcheck_tricks_per_s": (loop_tricks, t_loop)}
    return work, fingerprint, problems
