"""Tests for the benchmark under ``perf/``.

Run from the repository root with ``python -m pytest perf -q``.  The
smoke runs shrink every machine to a few processors and the checker to
one schedule per cell, so the whole file takes about a minute.
"""

import json
import os
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

PERF = pathlib.Path(__file__).resolve().parents[1]
ROOT = PERF.parent
sys.path[:0] = [str(PERF), str(ROOT / "src")]

import calib  # noqa: E402
import compare  # noqa: E402
import ledger  # noqa: E402
import suite  # noqa: E402

from repro.engine.stats import Histogram  # noqa: E402
from repro.harness.signature import WorkloadSignature  # noqa: E402
from repro.predict.benches import ArtifactSpec  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def bench(out: pathlib.Path, workload: str, trace: int, cwd=ROOT):
    return subprocess.run(
        [
            sys.executable,
            str(pathlib.Path(cwd) / "perf" / "run.py"),
            "--workload", workload,
            "--seed", "0",
            "--seconds", "1",
            "--smoke",
            "--trace", str(trace),
            "--out", str(out),
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """One untraced and one traced smoke run of every workload."""
    out = tmp_path_factory.mktemp("perf-out")
    results = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = bench(out, workload, trace)
            assert proc.returncode == 0, proc.stdout + proc.stderr
            stem = f"{workload}-seed0" + ("-trace" if trace else "")
            results[workload, trace] = {
                "line": json.loads(proc.stdout.strip().splitlines()[-1]),
                "record": out / f"{stem}.json",
                "trace": out / f"{stem}.trace.json",
            }
    return results


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["paths"] == ["perf"]
    assert SPEC["command"][1].startswith("perf/")
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [w["name"] for w in SPEC["workloads"]]
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"}
        assert "\n" not in w["why"] and len(w["why"]) <= 200
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        names.append(m["name"])
        assert UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for workload in WORKLOADS:
        assert suite.make_workload(workload, 0, smoke=True).ops()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_declared_metric(runs, workload):
    for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        line = runs[workload, trace]["line"]
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        assert {n: m["unit"] for n, m in line["metrics"].items()} == {
            m["name"]: m["unit"] for m in declared
        }
    for metric in runs[workload, 0]["line"]["metrics"].values():
        assert metric["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_and_untraced_runs_simulate_the_same(runs, workload):
    plain = json.loads(runs[workload, 0]["record"].read_text())
    traced = json.loads(runs[workload, 1]["record"].read_text())
    assert plain["simulated"] == traced["simulated"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_host_shares_sum_to_one(runs, workload):
    metrics = runs[workload, 1]["line"]["metrics"]
    shares = [m["value"] for n, m in metrics.items() if n.endswith(".host_share")]
    assert len(shares) == len(ledger.LAYERS) + 1
    assert sum(shares) == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_records_and_trace_validate(runs, workload):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    checks = [
        (runs[workload, 0]["record"], PERF / "schema" / "run.schema.json"),
        (runs[workload, 1]["record"], PERF / "schema" / "run.schema.json"),
        (runs[workload, 1]["trace"], ROOT / "tests/schemas/chrome_trace.schema.json"),
    ]
    for document, schema in checks:
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "validate", str(document),
             "--schema", str(schema)],
            cwd=ROOT, env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr


def test_fails_without_a_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        PERF, tmp_path / "perf", ignore=shutil.ignore_patterns("__pycache__")
    )
    proc = bench(tmp_path / "out", "storm", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_seed_drives_the_inputs():
    assert suite.think_cycles(0) == suite.BASE_THINK
    assert suite.query_pool(3) == suite.query_pool(3)
    assert suite.query_pool(3) != suite.query_pool(4)
    a, b = suite.make_workload("splash", 0), suite.make_workload("splash", 5)
    assert [s.describe() for s in a.specs] != [s.describe() for s in b.specs]


def test_heldout_fit_never_sees_the_ladder(monkeypatch, tmp_path):
    # Even if the ladder joined the calibration artifacts, the split holds,
    # and the shipped calibration file is never read.
    def refuse(path):
        raise AssertionError(f"read {path}")

    artifacts = dict(suite.ARTIFACTS)
    artifacts["lock_ladder"] = ArtifactSpec(
        suite.LADDER_SUMMARY,
        lambda cell: WorkloadSignature.micro_lock(
            cell["key"][1], cell["key"][0], cell["key"][2], 4, 60
        ),
    )
    monkeypatch.setattr(suite, "ARTIFACTS", artifacts)
    monkeypatch.setattr(suite, "load_calibration", refuse)
    workload = suite.make_workload("verify", 0, smoke=True)
    workload.setup(tmp_path)
    assert workload.train and len(workload.ladder) == 48
    assert not any(suite.is_ladder(c.artifact) for c in workload.train)
    assert "lock_ladder" not in workload.fitted_from


# ----------------------------------------------------------------------
# Units
# ----------------------------------------------------------------------
def test_normalizer_arithmetic():
    clock = iter([0.0, 2.0, 10.0, 13.0, 20.0, 20.5, 21.0, 22.0, 23.0, 23.5]).__next__
    samples = iter([0.04, 0.02, 0.05, 0.08]).__next__
    norm = calib.Normalizer(ref_s=0.01, clock=clock, sample=samples)
    timed = norm.time(lambda: "done")
    assert (timed.result, timed.raw_s) == ("done", 2.0)
    assert timed.norm_s == pytest.approx(2.0 * 0.01 / 0.03)
    assert norm.time(lambda: None).raw_s == 3.0
    # A burst is scaled by the samples on either side of it (0.05, 0.08).
    results, seconds = norm.time_each([1, 2], lambda x: x * 10)
    assert results == [10, 20]
    assert seconds == pytest.approx([0.5 * 0.01 / 0.065, 1.0 * 0.01 / 0.065])
    assert norm.samples == [0.04, 0.02, 0.05, 0.08]
    # Lower quartile of [0.02, 0.04, 0.05, 0.08] by the exclusive method.
    assert norm.run_factor() == pytest.approx(0.01 / 0.025)
    assert norm.spread() > 0


def test_combine_takes_the_geometric_mean_of_both_scales():
    reps = [calib.Timed(None, 2.0, 0.5), calib.Timed(None, 3.0, 0.2)]
    # neighbours: median(1.0, 0.6) = 0.8; run: fastest 2.0 * 0.4 = 0.8
    assert calib.combine(reps, 0.4) == pytest.approx(0.8)
    assert calib.combine(reps[:1], 2.0) == pytest.approx((1.0 * 4.0) ** 0.5)


def test_normalizer_rejects_a_non_positive_sample():
    with pytest.raises(ValueError):
        calib.Normalizer(sample=lambda: 0.0)


@pytest.mark.parametrize(
    "base, new, better, expected",
    [
        ([10, 10.1, 9.9, 10, 10], [8, 8.1, 7.9, 8, 8], "lower", "improved"),
        ([10, 10.1, 9.9, 10, 10], [12, 12.1, 11.9, 12, 12], "lower", "regressed"),
        ([10, 10.1, 9.9, 10, 10], [10.2, 10, 9.9, 10.1, 10], "lower", "unchanged"),
        ([10, 14, 7, 12, 9], [10, 13, 8, 11, 9], "lower", "unresolved"),
        ([10, 10.1, 9.9, 10, 10], [8, 8.1, 7.9, 8, 8], "higher", "regressed"),
        ([10, 14, 7, 12, 9], [20, 21, 22, 23, 24], "higher", "improved"),
    ],
)
def test_compare_labels(base, new, better, expected):
    pairs = list(zip(base, new))
    assert compare.label(base, new, better, 0.1, pairs) == expected


def test_compare_reads_run_records(tmp_path):
    for side, value in (("a", 1.0), ("b", 1.5)):
        (tmp_path / side).mkdir()
        for seed in range(3):
            record = {
                "schema": compare.RUN_SCHEMA,
                "workload": "storm",
                "seed": seed,
                "metrics": {"wall_s": {"value": value + seed / 100, "unit": "s"}},
            }
            (tmp_path / side / f"{seed}.json").write_text(json.dumps(record))
    base, units = compare.load_runs(tmp_path / "a")
    new, _ = compare.load_runs(tmp_path / "b")
    rows, bad = compare.compare(base, new, units, SPEC)
    assert bad == 1 and rows[0][-1] == "regressed"


def test_merged_percentile_matches_a_single_histogram():
    left, right, whole = Histogram("a"), Histogram("b"), Histogram("c")
    for i, sample in enumerate([0, 3, 7, 12, 40, 41, 90, 300, 301, 5000]):
        (left if i % 2 else right).add(sample)
        whole.add(sample)
    digests = [left.summary(), right.summary()]
    for fraction in (0.5, 0.9, 0.99):
        assert ledger.merged_percentile(digests, fraction) == whole.percentile(
            fraction
        )


def test_fold_profile_charges_outside_code_to_its_callers():
    engine = ("/x/src/repro/engine/simulator.py", 1, "run")
    cache = ("/x/src/repro/harness/cache.py", 3, "put")
    bench = ("/x/perf/run.py", 5, "main")
    builtin = ("~", 0, "<built-in method builtins.sorted>")
    encode = ("/usr/lib/python3.11/json/encoder.py", 10, "encode")
    loop_a = ("/usr/lib/python3.11/a.py", 1, "f")
    loop_b = ("/usr/lib/python3.11/b.py", 1, "g")
    stats = {
        engine: (1, 1, 0.5, 1.0, {}),
        cache: (3, 3, 0.1, 0.5, {}),
        bench: (1, 1, 0.2, 0.5, {}),
        builtin: (2, 2, 0.3, 0.3, {engine: (1, 1, 0.2, 0.2), bench: (1, 1, 0.1, 0.1)}),
        encode: (1, 1, 0.4, 0.4, {cache: (1, 1, 0.4, 0.4)}),
        loop_a: (1, 1, 0.05, 0.1, {loop_b: (1, 1, 0.05, 0.1)}),
        loop_b: (1, 1, 0.05, 0.1, {loop_a: (1, 1, 0.05, 0.1)}),
    }
    self_s, calls = ledger.fold_profile(stats)
    assert self_s["engine"] == pytest.approx(0.7)
    assert self_s["harness"] == pytest.approx(0.5)
    assert self_s["other"] == pytest.approx(0.4)
    assert calls["engine"] == 1 and calls["harness"] == 3
    shares = ledger.host_ledger(stats)
    assert sum(v for k, v in shares.items() if k.endswith(".host_share")) == (
        pytest.approx(1.0)
    )


def test_layer_of_maps_files_to_packages():
    assert ledger.layer_of("/a/src/repro/engine/event.py") == "engine"
    assert ledger.layer_of("/a/src/repro/cli.py") is None
    assert ledger.layer_of("/a/perf/run.py") is None
    assert ledger.layer_of("~") is None
