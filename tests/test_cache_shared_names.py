"""Served results share their counter-name strings, and hold less memory.

:func:`repro.harness.cache.result_from_dict` interns the counter names
it decodes, and :class:`~repro.engine.stats.StatsRegistry` interns each
name it registers, so every result in the process, served or simulated,
holds one string object per name.  The reference decode below is the
one it replaced: a per-entry copy of every name.
"""

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
