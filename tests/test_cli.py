"""CLI tests: run the real entry point in a subprocess."""

import os
import stat
import subprocess
import sys

import pytest

from bmn import _kernels, backward, cli
from bmn.engine import format_deck
from conftest import BALANCED_12_1, GOLDEN_MATCHES, INF_52_4, state

PLAY_420 = GOLDEN_MATCHES[0]


def run_cli(*args, cwd=None, env=None):
    return subprocess.run([sys.executable, "-m", "bmn", *args],
                          capture_output=True, text=True, cwd=cwd, env=env)


def test_help_and_version():
    assert run_cli("--help").returncode == 0
    out = run_cli("--version")
    assert out.returncode == 0
    assert out.stdout.strip() == "0.1.0"


def test_unknown_command_exits_1():
    assert run_cli("frobnicate").returncode == 1


def test_parser_is_built_once():
    # callers running `cli.main` many times in one process build it once;
    # a parse leaves nothing behind for the next one
    assert cli.build_parser() is cli.build_parser()
    decks = ["backward", "--setting", "12,2", "--deck-a", "[1C]", "--deck-b", "[C]"]
    assert cli.build_parser().parse_args([*decks, "--depth", "3"]).depth == 3
    assert cli.build_parser().parse_args(decks).depth == 1


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_closed_stdout_exits_141_without_an_error_line(unbuffered):
    # as in `bmn backward ... | head -1`: the reader is gone before the
    # output, which is written as printed or, buffered, when it is flushed
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered)
    proc = subprocess.Popen([sys.executable, "-m", "bmn", "backward", "--setting", "12,2",
                             "--deck-a", "[CCCCCCC21C]", "--deck-b", "[1C]", "--depth", "6"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == cli.BROKEN_PIPE == 141
    assert err == ""


# ---------------------------------------------------------------------------
# play
# ---------------------------------------------------------------------------


def test_play_golden_match():
    _, a, b, winner, tricks = PLAY_420
    out = run_cli("play", "--setting", "40,3", "--deck-a", a, "--deck-b", b)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == f"Terminated winner={winner} tricks={tricks}"


def test_play_reports_loop():
    a, b = INF_52_4
    out = run_cli("play", "--setting", "52,4", "--deck-a", a, "--deck-b", b)
    assert out.returncode == 0
    assert out.stdout.strip() == "Looped transient=4 period=62"


def test_play_names_the_bad_character():
    out = run_cli("play", "--setting", "12,1", "--deck-a", "[1CX]",
                  "--deck-b", "[C1C]")
    assert out.returncode == 1
    assert "'X'" in out.stderr


def test_play_rejects_partial_composition_by_default():
    out = run_cli("play", "--setting", "12,1", "--deck-a", "[1CC]",
                  "--deck-b", "[C1C]")
    assert out.returncode == 1
    assert "--allow-partial" in out.stderr
    ok = run_cli("play", "--setting", "12,1", "--deck-a", "[1CC]",
                 "--deck-b", "[C1C]", "--allow-partial")
    assert ok.returncode == 0
    assert ok.stdout.strip() == "Looped transient=1 period=2"


def test_play_writes_trace_files(tmp_path):
    _, a, b, _, tricks = PLAY_420
    trace = tmp_path / "trace.csv"
    pos = tmp_path / "pos.csv"
    out = run_cli("play", "--setting", "40,3", "--deck-a", a, "--deck-b", b,
                  "--trace", str(trace), "--positions", str(pos))
    assert out.returncode == 0
    lines = trace.read_text().splitlines()
    assert lines[0] == ("trick,size_a,size_b,specials_a,specials_b,"
                        "sep_a,sep_b,entropy_a,entropy_b")
    assert len(lines) == tricks + 2  # header + trick 0 + each trick
    assert pos.read_text().splitlines()[0] == "trick,positions_a,positions_b"


def test_play_unwritable_output_paths_exit_1(tmp_path):
    _, a, b, _, _ = PLAY_420
    base = ("play", "--setting", "40,3", "--deck-a", a, "--deck-b", b)
    missing_dir = tmp_path / "no" / "such" / "dir"
    out = run_cli(*base, "--trace", str(missing_dir / "t.csv"))
    assert out.returncode == 1
    assert out.stderr.startswith("error: ") and "Traceback" not in out.stderr
    assert "t.csv" in out.stderr
    out = run_cli(*base, "--trace", str(tmp_path / "t.csv"),
                  "--positions", str(missing_dir / "p.csv"))
    assert out.returncode == 1
    assert out.stderr.startswith("error: ") and "Traceback" not in out.stderr
    assert "p.csv" in out.stderr
    # the trace file opened first is not left behind
    assert list(tmp_path.iterdir()) == []


def test_play_positions_without_trace_exits_1(tmp_path):
    _, a, b, _, _ = PLAY_420
    pos = tmp_path / "p.csv"
    out = run_cli("play", "--setting", "40,3", "--deck-a", a, "--deck-b", b,
                  "--positions", str(pos))
    assert out.returncode == 1
    assert out.stderr.startswith("error: ") and "--trace" in out.stderr
    assert not pos.exists()


def _unplayable(*args, **kwargs):
    raise AssertionError("played before its outputs were opened")


@pytest.mark.parametrize("bad", ["--trace", "--positions"])
def test_play_opens_outputs_before_playing(monkeypatch, capsys, tmp_path, bad):
    monkeypatch.setattr(cli.engine, "play_match", _unplayable)
    _, a, b, _, _ = PLAY_420
    paths = {"--trace": tmp_path / "t.csv", "--positions": tmp_path / "p.csv"}
    paths[bad] = tmp_path / "missing" / "x.csv"
    rc = cli.main(["play", "--setting", "40,3", "--deck-a", a, "--deck-b", b,
                   "--trace", str(paths["--trace"]),
                   "--positions", str(paths["--positions"])])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("bad", ["--out", "--hist"])
def test_simulate_opens_outputs_before_playing(monkeypatch, capsys, tmp_path, bad):
    monkeypatch.setattr(cli.simulator, "run_batch", _unplayable)
    paths = {"--out": tmp_path / "s.txt", "--hist": tmp_path / "h.csv"}
    paths[bad] = tmp_path / "missing" / "x.csv"
    rc = cli.main(["simulate", "--setting", "40,3", "--matches", "20000",
                   "--out", str(paths["--out"]), "--hist", str(paths["--hist"])])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []


def test_failed_work_leaves_no_output(monkeypatch, tmp_path):
    def failing(config):
        raise ValueError("the batch failed")

    monkeypatch.setattr(cli.simulator, "run_batch", failing)
    rc = cli.main(["simulate", "--setting", "12,1", "--matches", "10",
                   "--out", str(tmp_path / "s.txt"), "--hist", str(tmp_path / "h.csv")])
    assert rc == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("error", [ValueError("the batch failed"), KeyboardInterrupt()],
                         ids=["error", "interrupt"])
def test_failed_work_keeps_an_earlier_output(monkeypatch, tmp_path, error):
    def failing(config):
        raise error

    monkeypatch.setattr(cli.simulator, "run_batch", failing)
    out = tmp_path / "s.txt"
    out.write_text("earlier results\n")
    args = ["simulate", "--setting", "12,1", "--matches", "10", "--out", str(out)]
    if isinstance(error, KeyboardInterrupt):
        with pytest.raises(KeyboardInterrupt):
            cli.main(args)
    else:
        assert cli.main(args) == 1
    assert out.read_text() == "earlier results\n"
    assert list(tmp_path.iterdir()) == [out]


def test_error_in_a_worker_thread_exits_1(monkeypatch, capsys, tmp_path):
    # two cores, so that both ranges play on worker threads and the kernel
    # refuses the budget there
    monkeypatch.setattr(cli.simulator.os, "cpu_count", lambda: 2)
    out = tmp_path / "s.txt"
    out.write_text("earlier results\n")
    rc = cli.main(["simulate", "--setting", "40,3", "--matches", "10", "--workers", "2",
                   "--max-tricks", "2147483648", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert out.read_text() == "earlier results\n"
    assert list(tmp_path.iterdir()) == [out]


def _out_of_memory(message):
    def kernel(*args, **kwargs):
        raise MemoryError(*message)
    return kernel


@pytest.mark.parametrize("argv, kernel, message", [
    # numpy names the size of the result arrays it cannot allocate
    (["simulate", "--setting", "12,1", "--matches", "1000000000000"], "simulate_batch",
     ("Unable to allocate 3.64 TiB for an array",)),
    (["simulate", "--setting", "12,1", "--matches", "10"], "simulate_batch", ()),
    (["backward", "--setting", "12,1", "--deck-a", "[CC1C]", "--deck-b", "[C1C]"], "search",
     ("no memory for the backward search",)),
], ids=["simulate", "no-message", "backward"])
def test_out_of_memory_exits_1(monkeypatch, capsys, argv, kernel, message):
    # the kernel raises as a failed allocation does; no large one is made
    monkeypatch.setattr(_kernels, kernel, _out_of_memory(message))
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"error: {message[0] if message else 'out of memory'}\n"


def test_rewritten_output_keeps_its_mode(tmp_path):
    out = tmp_path / "s.txt"
    out.write_text("earlier results\n")
    out.chmod(0o640)
    assert cli.main(["simulate", "--setting", "12,1", "--matches", "10",
                     "--out", str(out)]) == 0
    assert out.read_text().startswith("# bmn stats v3\n")
    assert stat.S_IMODE(out.stat().st_mode) == 0o640
    assert list(tmp_path.iterdir()) == [out]


def test_outputs_that_are_not_regular_files_are_not_removed(capsys, tmp_path):
    # a pipe stands in for a device such as /dev/null: it is written to as
    # it is and stays when the work fails (here: the positions path)
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    reader = os.open(pipe, os.O_RDONLY | os.O_NONBLOCK)  # lets the writer open it
    try:
        _, a, b, _, _ = PLAY_420
        rc = cli.main(["play", "--setting", "40,3", "--deck-a", a, "--deck-b", b,
                       "--trace", str(pipe),
                       "--positions", str(tmp_path / "missing" / "p.csv")])
    finally:
        os.close(reader)
    assert rc == 1
    assert "p.csv" in capsys.readouterr().err
    assert stat.S_ISFIFO(os.lstat(pipe).st_mode)
    assert list(tmp_path.iterdir()) == [pipe]


def test_simulate_writes_to_a_device(capsys):
    assert cli.main(["simulate", "--setting", "12,1", "--matches", "10",
                     "--out", os.devnull]) == 0
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
    assert capsys.readouterr().out == ""


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_outputs_are_byte_identical(tmp_path):
    args = ("simulate", "--setting", "12,1", "--matches", "300", "--seed", "7")
    f1, h1 = tmp_path / "s1.txt", tmp_path / "h1.csv"
    assert run_cli(*args, "--out", str(f1), "--hist", str(h1)).returncode == 0
    # runs with other worker counts write the same bytes
    for workers in ("2", "3"):
        f2, h2 = tmp_path / f"s{workers}.txt", tmp_path / f"h{workers}.csv"
        assert run_cli(*args, "--workers", workers,
                       "--out", str(f2), "--hist", str(h2)).returncode == 0
        assert f1.read_bytes() == f2.read_bytes()
        assert h1.read_bytes() == h2.read_bytes()
    text = f1.read_text()
    assert text.startswith("# bmn stats v3\n")
    assert "detect_loops" not in text
    assert "setting = 12,1" in text and "seed = 7" in text
    assert "[summary]" in text
    assert h1.read_text().splitlines()[0] == "tricks,count"


def test_simulate_with_fit(tmp_path):
    out_file = tmp_path / "stats.txt"
    out = run_cli("simulate", "--setting", "28,3", "--matches", "30000",
                  "--seed", "3", "--fit", "8,60", "--out", str(out_file))
    assert out.returncode == 0, out.stderr
    text = out_file.read_text()
    assert "[fit]" in text and "lambda = " in text


def test_simulate_bad_fit_flag():
    out = run_cli("simulate", "--setting", "12,1", "--matches", "10",
                  "--fit", "ten,100")
    assert out.returncode == 1


@pytest.mark.parametrize("fit", ["abc", "100,10", "10,10"])
def test_simulate_checks_fit_before_playing(monkeypatch, capsys, fit):
    def played(config):
        raise AssertionError("the batch was played")

    monkeypatch.setattr(cli.simulator, "run_batch", played)
    rc = cli.main(["simulate", "--setting", "40,3", "--matches", "20000",
                   "--fit", fit])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")


# ---------------------------------------------------------------------------
# loops
# ---------------------------------------------------------------------------


def test_loops_verify_published_configuration():
    out = run_cli("loops", "verify", "--setting", "12,1",
                  "--deck-a", "[C1C1CC1CC]", "--deck-b", "[C1C]")
    assert out.returncode == 0
    lines = out.stdout.splitlines()
    assert lines[0] == "transient = 2"
    assert lines[1] == "period = 16"


def test_loops_scan_lists_balanced_entries():
    out = run_cli("loops", "scan", "--setting", "12,1",
                  "--deck-a", "[C1C1CC1CC]", "--deck-b", "[C1C]")
    assert out.returncode == 0
    got = set(out.stdout.splitlines())
    assert got == {
        f"deck_a={a} deck_b={b}" for a, b in (BALANCED_12_1[1], BALANCED_12_1[2])
    }


def test_loops_verify_terminating_decks_exit_2():
    _, a, b, _, tricks = PLAY_420
    out = run_cli("loops", "verify", "--setting", "40,3",
                  "--deck-a", a, "--deck-b", b)
    assert out.returncode == 2
    assert f"match terminated after {tricks} tricks" in out.stderr


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------


def test_backward_lists_known_predecessors():
    out = run_cli("backward", "--setting", "12,2", "--deck-a", "[CCCCCCC21C]",
                  "--deck-b", "[1C]", "--leader", "A")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert "leader=A deck_a=[1CCCCCCC2] deck_b=[C1C]" in lines
    assert "leader=A deck_a=[C1CCCCCC] deck_b=[2C1C]" in lines


def test_backward_depth_zero_find_balanced_echoes_seed():
    a, b = BALANCED_12_1[0]
    out = run_cli("backward", "--setting", "12,1", "--deck-a", a,
                  "--deck-b", b, "--depth", "0", "--find-balanced")
    assert out.returncode == 0
    assert out.stdout.strip() == f"leader=A deck_a={a} deck_b={b}"


@pytest.mark.parametrize("deck_a, deck_b, mode", [
    ("[]", "[1CC]", ()), ("[1CC]", "[]", ("--find-balanced",))])
def test_backward_rejects_an_empty_deck(deck_a, deck_b, mode):
    out = run_cli("backward", "--setting", "12,1", "--deck-a", deck_a,
                  "--deck-b", deck_b, *mode)
    assert out.returncode == 1
    assert out.stdout == ""
    assert out.stderr == "error: both decks must be nonempty\n"


@pytest.mark.parametrize("mode", [(), ("--find-balanced",)], ids=["list", "find-balanced"])
def test_backward_rejects_a_deck_past_65535_cards(mode):
    # a packed state holds each deck's length in 16 bits
    out = run_cli("backward", "--setting", "12,1", "--deck-a", "[" + "C" * 70_000 + "1]",
                  "--deck-b", "[1C]", *mode)
    assert out.returncode == 1
    assert out.stdout == ""
    assert out.stderr == "error: a packed state holds decks of at most 65,535 cards\n"


@pytest.mark.parametrize("args", [
    ("backward", "--setting", "12,2", "--deck-a", "[CCCCCCC21C]", "--deck-b", "[1C]",
     "--depth", "4"),
    ("backward", "--setting", "12,1", "--deck-a", "[CCCC1C]", "--deck-b", "[11CC1C]",
     "--leader", "B", "--depth", "2", "--find-balanced"),
    ("loops", "scan", "--setting", "12,1", "--deck-a", "[C1C1CC1CC]", "--deck-b", "[C1C]"),
], ids=["listing", "find-balanced", "scan"])
def test_state_sets_do_not_depend_on_the_hash_seed(args):
    # state sets are keyed by GameState, whose hash covers the leader
    # string, and string hashes change with PYTHONHASHSEED
    outs = [run_cli(*args, env={**os.environ, "PYTHONHASHSEED": seed})
            for seed in ("0", "1")]
    assert all(out.returncode == 0 for out in outs)
    assert len(outs[0].stdout.splitlines()) > 1
    assert outs[0].stdout == outs[1].stdout


def _reference_listing(target, depth, max_nodes):
    """Listing lines of a level-by-level predecessor walk that stops adding
    states once `max_nodes` (the target included) are known."""
    seen = {target}
    frontier, lines = [target], []
    for _ in range(depth):
        nxt = []
        for s in frontier:
            for pred in backward.enumerate_predecessors(s):
                if pred in seen or len(seen) >= max_nodes:
                    continue
                seen.add(pred)
                nxt.append(pred)
                lines.append(f"leader={pred.leader} deck_a={format_deck(pred.deck_a)} "
                             f"deck_b={format_deck(pred.deck_b)}")
        frontier = nxt
    return lines


@pytest.mark.parametrize("max_nodes", [1, 2, 10, 47, 1_000_000])
def test_backward_listing_lines_and_node_budget(capsys, max_nodes):
    a, b = "[CCCCCCC21C]", "[1C]"
    full = _reference_listing(state(a, b), 3, 1_000_000)
    assert len(full) == 46
    rc = cli.main(["backward", "--setting", "12,2", "--deck-a", a, "--deck-b", b,
                   "--depth", "3", "--max-nodes", str(max_nodes)])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == _reference_listing(state(a, b), 3, max_nodes)
    # the budget counts the target, so N nodes list N - 1 states
    assert lines == full[:max_nodes - 1]


@pytest.mark.parametrize("mode", [(), ("--find-balanced",)], ids=["list", "find-balanced"])
@pytest.mark.parametrize("flag,value,name", [("--depth", "-3", "max_depth"),
                                             ("--max-nodes", "0", "max_nodes")])
def test_backward_rejects_bad_limits_in_both_modes(mode, flag, value, name):
    a, b = BALANCED_12_1[0]
    out = run_cli("backward", "--setting", "12,1", "--deck-a", a, "--deck-b", b,
                  flag, value, *mode)
    assert out.returncode == 1
    assert out.stdout == ""
    assert out.stderr.startswith("error: ") and name in out.stderr


# ---------------------------------------------------------------------------
# factory
# ---------------------------------------------------------------------------


def test_factory_finds_complete_12_1(tmp_path):
    findings = tmp_path / "findings.txt"
    out = run_cli("factory", "--setting", "12,1", "--budget", "100000",
                  "--rng-seed", "7", "--out", str(findings))
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("complete setting=12,1 ")
    line = findings.read_text().strip()
    assert line.startswith("setting=12,1 deck_a=")
    assert "period=" in line


def test_factory_opens_out_before_searching(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(cli.factory, "run_factory", _unplayable)
    rc = cli.main(["factory", "--setting", "28,1", "--budget", "2000",
                   "--out", str(tmp_path / "missing" / "f.txt")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []


def test_factory_partial_result_leaves_an_empty_findings_file(tmp_path):
    findings = tmp_path / "findings.txt"
    out = run_cli("factory", "--setting", "12,1", "--budget", "1",
                  "--rng-seed", "4", "--out", str(findings))
    assert out.returncode == 0
    assert out.stdout.startswith("partial ")
    assert findings.read_text() == ""


def test_factory_findings_reproducible(tmp_path):
    f1, f2 = tmp_path / "a.txt", tmp_path / "b.txt"
    for f in (f1, f2):
        out = run_cli("factory", "--setting", "12,1", "--budget", "100000",
                      "--rng-seed", "7", "--out", str(f))
        assert out.returncode == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_factory_budget_one_reports_seed_as_best_partial():
    out = run_cli("factory", "--setting", "12,1", "--budget", "1",
                  "--rng-seed", "4")
    assert out.returncode == 0
    assert out.stdout.startswith("partial score=6/12 depth=0 "
                                 "deck_a=[1CC] deck_b=[C1C]")


def test_factory_seed_decks_file(tmp_path):
    seeds = tmp_path / "seeds.txt"
    seeds.write_text("# seed configurations\n[1CC] [C1C]\n")
    out = run_cli("factory", "--setting", "24,1", "--budget", "30000",
                  "--rng-seed", "11", "--seed-decks", str(seeds))
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("complete setting=24,1 ")


def test_factory_missing_seed_decks_file_exits_1(tmp_path):
    missing = tmp_path / "absent.txt"
    out = run_cli("factory", "--setting", "12,1", "--budget", "10",
                  "--seed-decks", str(missing))
    assert out.returncode == 1
    assert out.stderr.startswith("error: ") and "Traceback" not in out.stderr
    assert "absent.txt" in out.stderr


@pytest.mark.parametrize("bad_line", ["[1CC]", "[1CC] [C1C] [C]", "[1CC] [C1X]", "[] [1C]"])
def test_factory_malformed_seed_line_names_file_and_line(tmp_path, bad_line):
    seeds = tmp_path / "seeds.txt"
    seeds.write_text(f"# seeds\n[1CC] [C1C]\n\n{bad_line}\n")
    out = run_cli("factory", "--setting", "12,1", "--budget", "10",
                  "--seed-decks", str(seeds))
    assert out.returncode == 1
    assert out.stderr.startswith(f"error: {seeds}:4: ")
    assert "unpack" not in out.stderr and "Traceback" not in out.stderr


# past the C kernel's limits: 2000 cards and a trick cap from _C_MAX_TRICKS
# on play in Python; a budget past int64 is cut to _C_MAX_TRICKS rounds
@pytest.mark.parametrize("args, line", [
    (("--setting", "2000,1", "--budget", "3"),
     "partial score=10/2000 depth=2 deck_a=[C1CC1CC] deck_b=[C1C] rounds=3"),
    (("--setting", "20,2", "--budget", "10", "--trick-cap", "99999999999999999999"),
     "partial score=13/20 depth=4 deck_a=[CCC1CC1CC] deck_b=[C11C] rounds=10"),
    (("--setting", "12,1", "--budget", "100000000000000000000", "--rng-seed", "1"),
     "complete setting=12,1 deck_a=[1CC1CC] deck_b=[C1CC1C] transient=1 period=2 rounds=3"),
], ids=["2000-cards", "trick-cap", "budget"])
def test_factory_past_the_c_kernel_limits(capsys, kernel, args, line):
    assert cli.main(["factory", *args]) == 0
    assert capsys.readouterr().out == line + "\n"


def test_factory_rejects_a_trick_cap_below_one():
    out = run_cli("factory", "--setting", "12,1", "--budget", "10", "--trick-cap", "0")
    assert (out.returncode, out.stdout) == (1, "")
    assert out.stderr == "error: nontermination_trick_cap must be >= 1\n"


def test_factory_rejects_an_empty_seed_deck():
    out = run_cli("factory", "--setting", "12,1", "--budget", "10",
                  "--seed-deck-a", "[]", "--seed-deck-b", "[1C]")
    assert (out.returncode, out.stdout) == (1, "")
    assert out.stderr == "error: both decks must be nonempty\n"
