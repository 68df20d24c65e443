"""Self-tests of the benchmark. Run: python3 -m pytest -q perfbench"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from clock import Clock  # noqa: E402
from tracing import NullTracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def scratch():
    with run._scratch_dir() as path:
        yield path


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_spec_names_the_workloads():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run_prints_every_metric(workload, trace):
    done = _bench("--workload", workload, "--seconds", "0", "--trace", str(trace),
                  "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    specs = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {s["name"] for s in specs}
    for s in specs:
        metric = result["metrics"][s["name"]]
        assert metric["unit"] == s["unit"]
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])
        if not trace:
            assert metric["value"] > 0, s["name"]


def test_reference_covers_the_committed_seed():
    reference = run._reference()
    for name, w in workloads.WORKLOADS.items():
        for smoke in (False, True):
            ids = {op.id for op in w.ops(run.COMMITTED_SEED, smoke)}
            assert ids <= set(reference[name]), name


def test_corrupted_reference_raises_error_rate(scratch):
    sys.path.insert(0, str(run.SRC))
    m = run.load_package()
    for name, w in workloads.WORKLOADS.items():
        ops = w.ops(run.COMMITTED_SEED, smoke=True)
        reference = run._reference()
        good = run.Checker(m, reference)
        run.run_pass(m, w, ops, NullTracer(), scratch, good, Clock())
        assert good.failed == 0, name

        reference[name][ops[0].id] = "0" * 24
        bad = run.Checker(m, reference)
        run.run_pass(m, w, ops, NullTracer(), scratch, bad, Clock())
        assert bad.failed / bad.attempted > 0, name


def test_fails_without_the_package(scratch):
    bare = scratch / "bare"
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = _bench("--workload", "simulate_40_3", "--seconds", "1", "--trace", "0",
                  cwd=bare)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
