"""Served results share their counter-name strings, and hold less memory.

:func:`repro.harness.cache.result_from_dict` interns the counter names
it decodes, :func:`repro.harness.runner.run_cells` those of results
simulated in worker processes, and
:class:`~repro.engine.stats.StatsRegistry` each name it registers, so
every result in the process, served or simulated, holds one string
object per name.  The reference decode below is the one it replaced: a
per-entry copy of every name.
"""

import dataclasses
import gc
import tracemalloc

import pytest

import repro.harness.cache as cache_module
from repro.harness.cache import ResultCache
from repro.harness.experiment import RunResult
from repro.harness.runner import app_cell, run_cells
from repro.telemetry.manifest import RunManifest

#: two cheap 32-processor Table 3 cells whose counter names overlap
CELLS = (("barnes", "iqolb"), ("water-nsq", "qolb"))
GRIDS = 10


def rekeyed_result_from_dict(data):
    """The decode without interning: each entry's own copy of each name."""
    return RunResult(
        workload=data["workload"],
        primitive=data["primitive"],
        n_processors=data["n_processors"],
        cycles=data["cycles"],
        bus_transactions=data["bus_transactions"],
        stats={str(k): v for k, v in data["stats"].items()},
        wall_time_s=data.get("wall_time_s", 0.0),
        histograms=data.get("histograms") or {},
        manifest=RunManifest.from_dict(data.get("manifest")),
    )


@pytest.fixture(scope="module")
def warm(tmp_path_factory):
    """A cache holding both cells, and their freshly simulated results."""
    cache = ResultCache(tmp_path_factory.mktemp("cache"))
    specs = [app_cell(app, primitive, 32) for app, primitive in CELLS]
    simulated, stats = run_cells(specs, cache=cache)
    assert stats.executed == len(specs)
    return cache, specs, simulated


def test_served_and_simulated_results_share_every_counter_name(warm):
    cache, specs, simulated = warm
    served, stats = run_cells(specs, cache=cache)
    assert stats.cache_hits == len(specs)
    first, second = (served[spec.key].stats for spec in specs)
    assert len(first.keys() & second.keys()) > 100
    names = {}
    for spec in specs:
        assert served[spec.key] == simulated[spec.key]
        for result in (simulated[spec.key], served[spec.key]):
            for name in result.stats:
                assert names.setdefault(name, name) is name, name


def _retained(cache, specs):
    """Bytes that ten served grids of ``specs`` keep alive."""
    run_cells(specs, cache=cache)
    gc.collect()
    tracemalloc.start()
    try:
        grids = [run_cells(specs, cache=cache)[0] for _ in range(GRIDS)]
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(grids) == GRIDS
    return retained


def test_served_grids_retain_under_sixty_percent_of_the_rekeyed_decode(
    warm, monkeypatch
):
    cache, specs, _ = warm
    shared = _retained(cache, specs)
    monkeypatch.setattr(cache_module, "result_from_dict", rekeyed_result_from_dict)
    rekeyed = _retained(cache, specs)
    assert shared < 0.6 * rekeyed, (
        f"{shared / 2**20:.2f} MiB shared vs {rekeyed / 2**20:.2f} MiB rekeyed"
    )


def test_results_from_worker_processes_share_every_counter_name():
    """A worker's result arrives through pickle with its own copy of
    every counter name; the runner shares them with the process's."""
    specs = [app_cell(app, primitive, 8) for app, primitive in CELLS]
    grid, _ = run_cells(specs, n_jobs=2)
    first, second = (grid[spec.key].stats for spec in specs)
    names = {name: name for name in first}
    common = [name for name in second if name in names]
    assert len(common) > 100
    assert all(names[name] is name for name in common)


def test_manifest_decode_reads_its_field_names_once(monkeypatch):
    """``RunManifest.from_dict`` keeps one set of field names per class;
    a decoded manifest, unknown keys dropped, equals the original."""
    manifest = RunManifest(
        config_hash="abc",
        version="1",
        seed=7,
        signature={"n": 4},
        events_fired=10,
        events_skipped=2,
        host={"python": "3"},
    )
    data = dict(manifest.to_dict(), retired_field=1)
    assert RunManifest.from_dict(data) == manifest

    def no_fields(cls):
        raise AssertionError("field names read again")

    monkeypatch.setattr(dataclasses, "fields", no_fields)
    assert RunManifest.from_dict(data) == manifest
    assert RunManifest.from_dict(None) is None
