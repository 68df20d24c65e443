"""Fixed-seed benchmark for the bmn package.

One run measures one workload in this process and prints, as its last
stdout line, a JSON object with the keys correct, attempted, failed and
metrics (end-to-end metrics untraced, per-layer metrics with --trace 1):

    python3 perfbench/run.py --workload simulate_40_3 [--seed N]
                             [--seconds S] [--trace 0|1] [--smoke]

Repeat every workload (or the one named) K times, seeds N..N+K-1, plus
one traced run; print median and quartiles per metric, name every spread
wider than its bound, and optionally save the record:

    python3 perfbench/run.py --repeat K [--workload NAME] [--seed N]
                             [--seconds S] [--out FILE]

Compare two saved records (flags differing environments):

    python3 perfbench/run.py --compare OLD.json NEW.json

Re-record the reference results for the committed seed:

    python3 perfbench/run.py --record-reference

The package is imported from src/ of the checkout this file sits in; run
from a tree without it, the benchmark fails instead of measuring anything.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

T_START = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
SPEC = ROOT / "BENCHMARK.json"

from clock import CAL_REF_S, Clock  # noqa: E402
from tracing import NullTracer, Tracer, layer_metrics  # noqa: E402
from workloads import WORKERS, WORKLOADS, Micro, digest  # noqa: E402

COMMITTED_SEED = 1
MODULES = ("engine", "_kernels", "_rng", "simulator", "stats", "analyzer",
           "cycles", "backward", "factory", "cli")
SETUPS = 5          # set-ups per run; setup_s is their median
MIN_PASSES = 3      # untraced passes per run, for a median pass time
MIN_TRACED = 2      # traced and untraced passes each in a traced run
HARD_STOP_S = 120   # stop measuring here whatever the minimums say
ENV_COMPARED = ("nproc", "cpu", "python", "numpy", "scipy", "backend", "workers")


# ---------------------------------------------------------------------------
# Set-up and environment
# ---------------------------------------------------------------------------


def load_package():
    """Import (or re-import) every bmn module from SRC."""
    for name in [n for n in sys.modules if n == "bmn" or n.startswith("bmn.")]:
        del sys.modules[name]
    m = SimpleNamespace(**{name: importlib.import_module(f"bmn.{name}")
                           for name in MODULES})
    if not Path(m.engine.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: bmn was imported from {m.engine.__file__}, not {SRC}")
    return m


def _version(dist):
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_rev():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _src_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "bmn").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(m) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "backend": m._kernels.backend(),
        "workers": WORKERS,
        "git_rev": _git_rev(),
        "src_sha256": _src_digest(),
    }


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


# ---------------------------------------------------------------------------
# Running and checking ops
# ---------------------------------------------------------------------------


class Checker:
    """Counts ops and the ones whose result is wrong."""

    def __init__(self, m, reference: dict):
        self.m = m
        self.reference = reference
        self.first = {}  # (workload, op id) -> (fingerprint, ok)
        self.attempted = 0
        self.failed = 0

    def check(self, workload, op, result, error=None):
        self.attempted += 1
        key = (workload.name, op.id)
        if error is not None:
            problems = [f"raised {error!r}"]
        else:
            try:
                problems = self._problems(workload, op, result, key)
            except Exception as exc:  # a check that crashes marks the op wrong
                problems = [f"check raised {exc!r}"]
        if problems:
            self.failed += 1
            print(f"FAIL {workload.name} [{op.id}]: " + "; ".join(problems[:3]),
                  file=sys.stderr)

    def _problems(self, workload, op, result, key):
        fp = workload.fingerprint(self.m, op, result)
        if key in self.first:
            first, ok = self.first[key]
            if fp != first:
                return [f"differs from its first run: {fp} vs {first}"]
            return [] if ok else ["failed on its first run"]
        problems = list(workload.problems(self.m, op, result))
        want = self.reference.get(workload.name, {}).get(op.id)
        if want is not None and want != digest(fp):
            problems.append(f"differs from the reference: {fp}")
        self.first[key] = (fp, not problems)
        return problems


def run_pass(m, workload, ops, tr, tmp, checker, clock, traced=False):
    """Run ops once; returns (calibrated seconds per op, raw seconds per op,
    matches played)."""
    spans, results = [], []
    with tr.patched(m) if traced else contextlib.nullcontext():
        for op in ops:
            clock.tick()
            t0 = time.perf_counter()
            try:
                raw, error = workload.run(m, op, tr, tmp), None
            except Exception as exc:
                raw, error = None, exc
            spans.append((t0, time.perf_counter()))
            results.append((op, None if error else workload.collect(m, op, raw, tmp), error))
    clock.calibrate()
    matches = 0
    for op, result, error in results:
        checker.check(workload, op, result, error)
        if error is None:
            matches += workload.matches(op, result)
    raw = [t1 - t0 for t0, t1 in spans]
    return [dt * clock.factor(t0, t1) for dt, (t0, t1) in zip(raw, spans)], raw, matches


def set_up(workload, seed, smoke, tmp, clock):
    """SETUPS times: fresh import, input generation, one warm-up op.
    Returns the package, the ops and the median calibrated set-up time."""
    spans, t0 = [], T_START
    for _ in range(SETUPS):
        m = load_package()
        ops = workload.ops(seed, smoke)
        warm = workload.warmup()
        workload.collect(m, warm, workload.run(m, warm, NullTracer(), tmp), tmp)
        spans.append((t0, time.perf_counter()))
        clock.calibrate(2)
        t0 = time.perf_counter()
    return m, ops, statistics.median((b - a) * clock.factor(a, b) for a, b in spans)


def _run_passes(n_ops, seconds, min_passes, min_ops, each_pass):
    """Repeat passes until the time, pass and op minimums are all met."""
    start = time.perf_counter()
    passes = 0
    while True:
        each_pass()
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_STOP_S or (elapsed >= seconds and passes >= min_passes
                                      and passes * n_ops >= min_ops):
            return passes


def _error_rate(checker):
    return (f"error_rate={checker.failed / max(checker.attempted, 1):g} "
            f"({checker.failed}/{checker.attempted})")


def _pass_and_ops(samples: dict):
    """Pass time and per-op latencies from calibrated samples per op id.

    Each op counts at its median over the run's passes: calibration leaves
    about 10 % noise on a single op run, and a pass sum or a percentile
    over single runs would carry that noise into every figure."""
    per_op = [statistics.median(times) for times in samples.values()]
    return sum(per_op), per_op


def measure(workload, seed, seconds, smoke, tmp, reference):
    clock = Clock()
    m, ops, setup_s = set_up(workload, seed, smoke, tmp, clock)
    print(json.dumps({"env": environment(m)}), flush=True)
    checker = Checker(m, reference)
    null = NullTracer()
    samples = {op.id: [] for op in ops}
    raw_pass_s, matches = [], []

    def one_pass():
        lat, raw, played = run_pass(m, workload, ops, null, tmp, checker, clock)
        for op, dt in zip(ops, lat):
            samples[op.id].append(dt)
        raw_pass_s.append(sum(raw))
        matches.append(played)

    passes = _run_passes(len(ops), seconds, MIN_PASSES,
                         0 if smoke else workload.min_ops, one_pass)
    wall, per_op = _pass_and_ops(samples)
    deciles = statistics.quantiles(per_op, n=10) if len(per_op) > 1 else per_op * 9
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "matches_per_s": (statistics.median(matches) / wall, "1/s"),
        "op_p50_ms": (1000 * statistics.median(per_op), "ms"),
        "op_p90_ms": (1000 * deciles[8], "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    speed = statistics.median(clock.took) / CAL_REF_S
    print(f"# {workload.name} seed={seed}: {passes} passes of {len(per_op)} distinct ops, "
          f"ops={passes * len(ops)}, raw median pass {statistics.median(raw_pass_s):.4f} s "
          f"at {speed:.2f}x the reference calibration time, {_error_rate(checker)}",
          flush=True)
    return checker, metrics


def measure_traced(workload, seed, seconds, smoke, tmp, reference):
    """Alternate untraced and traced passes; each traced pass also runs
    the smoke ops of every workload, so every layer is measured on every
    workload, then the untraced micro-benchmarks."""
    clock = Clock()
    m, ops, _ = set_up(workload, seed, smoke, tmp, clock)
    print(json.dumps({"env": environment(m)}), flush=True)
    checker = Checker(m, reference)
    null, tr = NullTracer(), Tracer()
    probes = [(w, w.ops(seed, smoke=True)) for w in WORKLOADS.values()]
    micro = Micro()
    micro_ops = micro.ops(seed, smoke=True)
    plain_s = {op.id: [] for op in ops}
    traced_s = {op.id: [] for op in ops}
    rates = {}

    def one_pass():
        for tracer, samples in ((null, plain_s), (tr, traced_s)):
            lat = run_pass(m, workload, ops, tracer, tmp, checker, clock,
                           traced=tracer is tr)[0]
            for op, dt in zip(ops, lat):
                samples[op.id].append(dt)
        for w, probe_ops in probes:
            run_pass(m, w, probe_ops, tr, tmp, checker, clock, traced=True)
        for op in micro_ops:
            result = micro.run(m, op, null, tmp)
            checker.check(micro, op, result)
            for name, (count, secs) in result[0].items():
                rates[name] = max(rates.get(name, 0.0), count / secs if secs else 0.0)

    passes = _run_passes(len(ops), seconds, MIN_TRACED, 0, one_pass)
    values = layer_metrics(tr, passes, rates,
                           _pass_and_ops(traced_s)[0] - _pass_and_ops(plain_s)[0])
    spec = {e["name"]: e["unit"] for e in _spec()["per_layer"]}
    metrics = {name: (values[name], spec[name]) for name in spec}
    print(f"# {workload.name} seed={seed} traced: {passes} traced and untraced passes, "
          f"overhead {values['trace.overhead_s']:+.3f} s per pass, {_error_rate(checker)}",
          flush=True)
    return checker, metrics


def _spec():
    with open(SPEC) as fh:
        return json.load(fh)


def _reference():
    if not REFERENCE.exists():
        return {}
    with open(REFERENCE) as fh:
        return json.load(fh)["ops"]


def _use_src() -> bool:
    """Put SRC first on the import path; False if it holds no package."""
    if not (SRC / "bmn" / "__init__.py").is_file():
        print(f"error: no bmn package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    return True


@contextlib.contextmanager
def _scratch_dir():
    """A private directory inside the checkout for files the CLI writes."""
    tmp = ROOT / ".perfbench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        yield tmp
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            tmp.parent.rmdir()


def single_run(args) -> int:
    if not _use_src():
        return 2
    fn = measure_traced if args.trace else measure
    with _scratch_dir() as tmp:
        checker, metrics = fn(WORKLOADS[args.workload], args.seed, args.seconds,
                              args.smoke, tmp, _reference())
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


# ---------------------------------------------------------------------------
# Reference, repeat and compare modes
# ---------------------------------------------------------------------------


def record_reference() -> int:
    if not _use_src():
        return 2
    m = load_package()
    ops_ref = {}
    with _scratch_dir() as tmp:
        for w in list(WORKLOADS.values()) + [Micro()]:
            entries = ops_ref.setdefault(w.name, {})
            for smoke in (False, True):
                for op in w.ops(COMMITTED_SEED, smoke):
                    result = w.collect(m, op, w.run(m, op, NullTracer(), tmp), tmp)
                    problems = w.problems(m, op, result)
                    if problems:
                        print(f"error: {w.name} [{op.id}]: {problems}", file=sys.stderr)
                        return 1
                    entries[op.id] = digest(w.fingerprint(m, op, result))
    with open(REFERENCE, "w") as fh:
        json.dump({"seed": COMMITTED_SEED, "env": environment(m), "ops": ops_ref},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {sum(len(v) for v in ops_ref.values())} reference digests to {REFERENCE}")
    return 0


def _invoke(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}: {done.stderr[-2000:]}")
    env = next((json.loads(line)["env"] for line in lines if line.startswith('{"env"')), None)
    return env, json.loads(lines[-1])


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _env_diff(a, b):
    return {k: (a.get(k), b.get(k)) for k in ENV_COMPARED if a.get(k) != b.get(k)}


def repeat(k, seed, seconds, out, names) -> int:
    spec = _spec()
    bounds = {e["name"]: e.get("bound") for e in spec["end_to_end"]}
    record = {"seconds": seconds, "first_seed": seed, "repeats": k, "env": None,
              "workloads": {}}
    status = 0
    for name in names:
        runs, envs = [], []
        for i in range(k):
            env, result = _invoke(name, seed + i, seconds, 0)
            envs.append(env)
            runs.append(result)
            print(f"{name} seed={seed + i}: " + " ".join(
                f"{m}={v['value']:.6g}" for m, v in result["metrics"].items()), flush=True)
        env, traced = _invoke(name, seed, seconds, 1)
        envs.append(env)
        record["env"] = record["env"] or envs[0]
        for other in envs[1:]:
            if _env_diff(envs[0], other):
                print(f"WARNING {name}: environment differs between runs: "
                      f"{_env_diff(envs[0], other)}")
        summary = {}
        print(f"\n{name}: {k} runs, seconds={seconds}")
        print(f"  {'metric':<16}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>7}")
        for metric in bounds:
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, med, q3 = _quartiles(values)
            spread = (q3 - q1) / med if med else float("inf")
            flag = spread > bounds[metric]
            summary[metric] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                               "bound": bounds[metric], "exceeds": flag,
                               "values": values}
            print(f"  {metric:<16}{med:>12.6g}{q1:>12.6g}{q3:>12.6g}{spread:>9.3f}"
                  f"{bounds[metric]:>7}" + ("  SPREAD EXCEEDS BOUND" if flag else ""))
        errors = sum(r["failed"] for r in runs + [traced])
        attempted = sum(r["attempted"] for r in runs + [traced])
        if errors or not all(r["correct"] for r in runs + [traced]):
            status = 1
        overhead = traced["metrics"]["trace.overhead_s"]["value"]
        print(f"  error_rate={errors / attempted:g} ({errors}/{attempted}); tracing "
              f"overhead {overhead:+.4f} s per pass (untraced wall_s median "
              f"{summary['wall_s']['median']:.4f} s)")
        print("  per-layer (traced run): " + " ".join(
            f"{m}={v['value']:.6g}" for m, v in traced["metrics"].items()))
        record["workloads"][name] = {"summary": summary, "runs": runs,
                                     "traced": traced, "envs": envs}
    if out:
        with open(out, "w") as fh:
            json.dump(record, fh, indent=1)
        print(f"\nwrote {out}")
    return status


def compare(path_a, path_b) -> int:
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    diff = _env_diff(a["env"] or {}, b["env"] or {})
    if diff:
        print(f"WARNING: the records come from different environments: {diff}")
    bounds = {e["name"]: e for e in _spec()["end_to_end"]}
    worse_count = 0
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        print(f"{name}:")
        for metric, spec in bounds.items():
            sa = a["workloads"][name]["summary"][metric]
            sb = b["workloads"][name]["summary"][metric]
            change = (sb["median"] - sa["median"]) / sa["median"]
            worse = change if spec["better"] == "lower" else -change
            verdict = ""
            if worse > spec["bound"]:
                verdict = "  WORSE THAN BOUND"
                worse_count += 1
            elif abs(change) <= max(sa["spread"], sb["spread"]):
                verdict = "  within spread"
            print(f"  {metric:<16}{sa['median']:>12.6g} -> {sb['median']:<12.6g}"
                  f"{100 * change:+7.1f}%  bound {spec['bound']}{verdict}")
    return 1 if worse_count or diff else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=COMMITTED_SEED)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for self-tests; not for comparisons")
    ap.add_argument("--repeat", type=int, metavar="K")
    ap.add_argument("--out", help="with --repeat: write the record here")
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args(argv)
    if args.seconds is None:
        args.seconds = _spec()["run_seconds"]
    if args.compare:
        return compare(*args.compare)
    if args.record_reference:
        return record_reference()
    if args.repeat:
        return repeat(args.repeat, args.seed, args.seconds, args.out,
                      [args.workload] if args.workload else list(WORKLOADS))
    if not args.workload:
        ap.error("give --workload, --repeat, --compare or --record-reference")
    return single_run(args)


if __name__ == "__main__":
    sys.exit(main())
