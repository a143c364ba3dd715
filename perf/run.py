"""Run the repository benchmark and print every metric with its unit.

Usage (from the repository root)::

    python perf/run.py --workload storm --seed 0 --seconds 20
    python perf/run.py --workload verify --trace --out perf-out
    python perf/run.py --seed 0            # every workload, one process each

A run makes one full pass over its workload's operations, repeats
whatever still fits in ``--seconds``, and reports the end-to-end metrics
of ``BENCHMARK.json``; ``--trace`` instead runs one plain pass and one
profiled pass and reports the per-layer metrics.  The last line of
standard output is one JSON object: ``{"correct", "attempted", "failed",
"metrics"}``.  Every time is in reference-host seconds (see
``calib.py``).  With ``--out`` the full run record (and, traced, a
Chrome trace) is written there.

The exit status is 0 for a correct run and 1 when an output check
failed (the JSON line is still printed).  When the benchmark cannot run
-- no source tree, an operation that raised -- it exits non-zero
without printing the JSON line.
"""

from __future__ import annotations

import argparse
import cProfile
import functools
import gc
import json
import os
import pathlib
import pstats
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from typing import Any, Dict, List, Optional

PERF = pathlib.Path(__file__).resolve().parent
ROOT = PERF.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
#: scratch space for result caches, inside the checkout and git-ignored
TMP_ROOT = ROOT / ".perf_tmp"
RUN_SCHEMA = "repro-perf-run/1"

#: fresh processes whose set-up time is measured, per run
SETUP_REPS = 5
#: warm re-serves: at most this many, in chunks, for about this long
WARM_MAX = 200
WARM_CHUNK = 10
WARM_BUDGET_S = 2.0


def load_spec() -> Dict[str, Any]:
    return json.loads(SPEC_PATH.read_text())


def parse_args(argv: List[str], spec: Dict[str, Any]) -> argparse.Namespace:
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names, help="default: all of them")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1)
    )
    parser.add_argument("--out", type=pathlib.Path, help="directory for run JSON")
    parser.add_argument(
        "--smoke", action="store_true", help="tiny machines, for the tests"
    )
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


class Tally:
    """Operations attempted and failed, with what went wrong."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def record(self, problems: List[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def fail(self, problems: List[str]) -> None:
        """Output checks that judge operations already counted."""
        self.failed += len(problems)
        self.problems.extend(problems)


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------
def run_pass(ops, normalizer, spans, lane, tally, profiler=None, fits=None):
    """Run the operations once each, a calibration sample after each one.

    Operations for which ``fits(op)`` is false are skipped.  Returns
    ``{op key: Timed}``; an operation that raised has ``None`` as its
    result and counts as failed.
    """
    spans.lane = lane
    timed = {}
    for op in ops:
        if fits is not None and not fits(op):
            continue
        problems: List[str] = []

        def call(op=op, problems=problems):
            with spans.span("op", op=op.key):
                if profiler is not None:
                    profiler.enable()
                try:
                    return op.run(spans)
                except Exception as exc:  # one failed op must not end the run
                    problems.append(f"{op.key}: {type(exc).__name__}: {exc}")
                    return None
                finally:
                    if profiler is not None:
                        profiler.disable()

        timed[op.key] = normalizer.time(call)
        tally.record(problems)
        # Collect the operation's cyclic garbage now, so the next one
        # neither pays for it nor stacks its own peak memory on top.
        gc.collect()
    return timed


def compare_outputs(first: Dict[str, Any], timed, label: str) -> List[str]:
    """Every repetition of an operation must produce the same output."""
    return [
        f"{key}: {label} output differs from the first pass"
        for key, t in timed.items()
        if t.result is not None
        and first.get(key) is not None
        and t.result != first[key]
    ]


def measure(workload, seconds, normalizer, spans, tally):
    """One full pass, then repetitions of whatever still fits in ``seconds``.

    Later passes take the operations with the fewest repetitions first
    and, among those, the slowest: an expensive operation weighs most in
    the total, so it gets the time that is left before cheap ones
    collect a third sample.

    Returns the operations, each one's repetitions (:class:`Timed`), the
    first repetition's outputs, and the timeline: ``[op key, raw seconds,
    index of the calibration sample taken right after]`` in run order.
    """
    ops = workload.ops()
    deadline = time.perf_counter() + seconds
    reps: Dict[str, List[Any]] = defaultdict(list)
    outputs: Dict[str, Any] = {}
    timeline: List[List[Any]] = []

    def slowest(op) -> float:
        return max(t.raw_s for t in reps[op.key])

    def fits(op) -> bool:
        return time.perf_counter() + slowest(op) <= deadline

    first_sample = len(normalizer.samples)
    timed = run_pass(ops, normalizer, spans, 0, tally)
    while timed:
        tally.fail(compare_outputs(outputs, timed, "repeated"))
        for index, (key, t) in enumerate(timed.items(), start=first_sample):
            outputs.setdefault(key, t.result)
            t.result = None  # keep one output per operation, not one per rep
            reps[key].append(t)
            timeline.append([key, t.raw_s, index])
        first_sample = len(normalizer.samples)
        order = sorted(ops, key=lambda op: (len(reps[op.key]), -slowest(op)))
        timed = run_pass(order, normalizer, spans, 0, tally, fits=fits)
    return ops, reps, outputs, timeline


def setup_times(args, normalizer) -> List[Any]:
    """Setting the workload up in each of a few fresh processes, timed."""
    command = [
        sys.executable,
        str(PERF / "run.py"),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--setup-only",
    ] + (["--smoke"] if args.smoke else [])
    env = dict(os.environ, PYTHONHASHSEED="0")
    times = []
    for _ in range(SETUP_REPS):
        timed = normalizer.time(
            functools.partial(
                subprocess.run,
                command,
                cwd=ROOT,
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                text=True,
            )
        )
        if timed.result.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{timed.result.stderr}")
        times.append(timed)
    return times


def warm_batches(workload, outputs, normalizer, spans, tally) -> List[float]:
    """Normalized seconds of each re-serve of the batch without simulating."""
    spans.lane = 2
    times: List[float] = []
    start = time.perf_counter()
    while len(times) < WARM_MAX and (
        not times or time.perf_counter() - start < WARM_BUDGET_S
    ):
        served, seconds = normalizer.time_each(
            range(WARM_CHUNK), lambda _: workload.warm_batch(spans)
        )
        for answer in served:
            tally.record(workload.check_warm(answer, outputs))
        times.extend(seconds)
    return times


# ----------------------------------------------------------------------
# The two kinds of run
# ----------------------------------------------------------------------
def end_to_end(args, workload, normalizer, spans, tally, record):
    from calib import combine

    setups = setup_times(args, normalizer)
    ops, reps, outputs, timeline = measure(
        workload, args.seconds, normalizer, spans, tally
    )
    if any(outputs.get(op.key) is None for op in ops):
        raise RuntimeError("an operation failed: " + "; ".join(tally.problems))
    tally.fail(workload.check(outputs))
    tally.record(workload.fill_cache(outputs, spans))
    warm = warm_batches(workload, outputs, normalizer, spans, tally)
    factor = normalizer.run_factor()
    record.update(
        timeline=timeline,
        warm_norm_s=warm,
        simulated=workload.layer_metrics(outputs),
    )
    return {
        "wall_s": sum(combine(reps[op.key], factor) for op in ops),
        "warm_batch_ms": statistics.median(warm) * 1e3,
        "setup_s": combine(setups, factor),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "model_accuracy": workload.model_accuracy(outputs),
    }


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def traced(args, workload, normalizer, spans, tally, record):
    """A plain pass for the span timings, then a profiled pass for the
    host ledger; both must produce the same outputs."""
    from ledger import host_ledger

    ops = workload.ops()
    plain = run_pass(ops, normalizer, spans, 0, tally)
    outputs = {key: t.result for key, t in plain.items()}
    if any(v is None for v in outputs.values()):
        raise RuntimeError("an operation failed: " + "; ".join(tally.problems))
    tally.fail(workload.check(outputs))
    tally.record(normalizer.time(lambda: workload.fill_cache(outputs, spans)).result)

    profiler = cProfile.Profile()
    profiled = run_pass(ops, normalizer, spans, 1, tally, profiler=profiler)
    tally.fail(compare_outputs(outputs, profiled, "profiled"))
    factor = normalizer.run_factor()

    def span_s(name: str) -> float:
        return factor * sum(spans.durations(name, 0))

    def span_ms(name: str) -> float:
        return factor * _mean(spans.durations(name, 0)) * 1e3

    def per_s(count: float, name: str) -> float:
        seconds = span_s(name)
        return count / seconds if seconds else 0.0

    metrics = workload.layer_metrics(outputs)
    record["simulated"] = dict(metrics)
    metrics.update(
        {
            "engine.run_s": span_s("engine.run"),
            "engine.events_per_s": per_s(
                metrics.get("engine.events", 0), "engine.run"
            ),
            "harness.system_build_ms": span_ms("harness.System"),
            "harness.cache_key_ms": span_ms("harness.cache.key"),
            "harness.cache_put_ms": span_ms("harness.cache.put"),
            "harness.cache_get_ms": span_ms("harness.cache.get"),
            "workloads.build_ms": span_ms("workloads.build"),
            "workloads.verify_ms": span_ms("workloads.verify"),
            "check.cell_s": span_ms("check.run_job") / 1e3,
            "check.schedules_per_s": per_s(
                metrics.get("check.schedules", 0), "check.run_job"
            ),
            "predict.fit_s": span_s("predict.fit"),
            "trace.overhead": sum(t.raw_s for t in profiled.values())
            / sum(t.raw_s for t in plain.values()),
            "calib.spread": normalizer.spread(),
        }
    )
    queries = outputs.get("predict.queries")
    if queries is not None:
        micros = [s * factor * 1e6 for s in queries.latencies_s]
        centiles = statistics.quantiles(micros, n=100)
        metrics["predict.query_us_p50"] = centiles[49]
        metrics["predict.query_us_p99"] = centiles[98]
    metrics.update(host_ledger(pstats.Stats(profiler).stats))
    return metrics


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def select(
    spec_metrics: List[Dict[str, Any]], values: Dict[str, float], fill: bool
) -> Dict[str, Dict[str, Any]]:
    """The declared metrics, by name, with their units.

    End-to-end metrics must all have been measured.  Per-layer metrics a
    workload does not exercise (the checker's, on a storm) read 0.
    """
    declared = {m["name"]: m["unit"] for m in spec_metrics}
    unknown = sorted(set(values) - set(declared))
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {unknown}")
    missing = sorted(set(declared) - set(values))
    if missing and not fill:
        raise KeyError(f"metrics not measured: {missing}")
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in declared.items()
    }


def print_result(result: Dict[str, Any], label: str) -> None:
    for name, metric in result["metrics"].items():
        print(f"{label}{name:<34} {metric['value']:>16.6g} {metric['unit']}")
    for problem in result.get("problems", []):
        print(f"FAILED: {problem}")


def run_one(args, spec) -> int:
    import suite
    from calib import Normalizer
    from ledger import Spans

    TMP_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=TMP_ROOT) as tmp:
        workload = suite.make_workload(args.workload, args.seed, args.smoke)
        workload.setup(pathlib.Path(tmp))
        if args.setup_only:
            return 0
        normalizer = Normalizer()
        spans = Spans()
        tally = Tally()
        record: Dict[str, Any] = {}
        if args.trace:
            values = traced(args, workload, normalizer, spans, tally, record)
            metrics = select(spec["per_layer"], values, fill=True)
        else:
            values = end_to_end(args, workload, normalizer, spans, tally, record)
            metrics = select(spec["end_to_end"], values, fill=False)
    try:
        TMP_ROOT.rmdir()  # only when no other run is using it
    except OSError:
        pass
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    if args.out is not None:
        write_record(args, result, record, tally, normalizer, spans)
    print_result(dict(result, problems=tally.problems), "")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def write_record(args, result, record, tally, normalizer, spans) -> None:
    args.out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}" + ("-trace" if args.trace else "")
    document = dict(
        result,
        schema=RUN_SCHEMA,
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        smoke=args.smoke,
        problems=tally.problems,
        calibration={"ref_s": normalizer.ref_s, "samples": normalizer.samples},
        **record,
    )
    (args.out / f"{stem}.json").write_text(json.dumps(document, indent=1) + "\n")
    if args.trace:
        trace = spans.chrome({0: "plain pass", 1: "profiled pass"})
        trace["otherData"] = {"workload": args.workload, "seed": args.seed}
        (args.out / f"{stem}.trace.json").write_text(json.dumps(trace) + "\n")


def run_all(argv: List[str], spec) -> int:
    """Each workload in its own fresh process; one combined JSON line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    env = dict(os.environ, PYTHONHASHSEED="0")
    status = 0
    for workload in spec["workloads"]:
        name = workload["name"]
        proc = subprocess.run(
            [sys.executable, str(PERF / "run.py"), "--workload", name] + argv,
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            print(proc.stdout, end="")
            return 2
        print_result(result, f"{name}.")
        status = max(status, proc.returncode)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return status


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not (ROOT / "src" / "repro").is_dir() or not SPEC_PATH.exists():
        print(f"no repro source tree under {ROOT}", file=sys.stderr)
        return 2
    spec = load_spec()
    args = parse_args(argv, spec)
    if args.workload is None:
        return run_all(argv, spec)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # One fresh, hash-stable interpreter per workload.
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, str(PERF / "run.py")] + argv, env)
    sys.path.insert(0, str(ROOT / "src"))
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
