"""Tests for the parallel runner and the content-addressed result cache."""

import dataclasses
import functools
import json

from repro.core.registry import get_primitive
from repro.harness.cache import ResultCache
from repro.harness.config import SystemConfig
from repro.harness.experiment import table3, table3_cells
from repro.harness.runner import CellSpec, FactorySpec, app_cell, run_cells
from repro.harness.sweep import sweep
from repro.telemetry.manifest import stable_hash
from repro.workloads.micro import NullCriticalSection

#: Picklable factory: partial of a module-level class, lock_kind positional.
fast_factory = functools.partial(
    NullCriticalSection, acquires_per_proc=4, think_cycles=30
)

#: Shrunk raytrace model: total_work must divide n_procs x phases.
FAST_MODEL = {"total_work": 64, "local_compute": 200, "serial_compute": 500}


def make_spec(primitive="iqolb", n=2, verify=True, factory=fast_factory, **config):
    return CellSpec(
        key=(primitive, n),
        primitive=primitive,
        config=SystemConfig(n_processors=n, **config),
        workload=FactorySpec(factory, get_primitive(primitive).lock_kind),
        verify=verify,
    )


class TestRunner:
    def test_parallel_equals_serial_cell_for_cell(self):
        serial = sweep(fast_factory, ["tts", "iqolb"], [2, 4], n_jobs=1)
        parallel = sweep(fast_factory, ["tts", "iqolb"], [2, 4], n_jobs=2)
        assert serial.grid.keys() == parallel.grid.keys()
        for key in serial.grid:
            assert serial.grid[key] == parallel.grid[key], key
        assert parallel.runner_stats.executed == 4
        assert parallel.runner_stats.cache_hits == 0

    def test_unpicklable_factory_falls_back_to_serial(self):
        lambda_sweep = sweep(
            lambda lk: NullCriticalSection(lk, acquires_per_proc=3),
            ["tts"],
            [2],
            n_jobs=4,
        )
        assert lambda_sweep.cell("tts", 2).cycles > 0

    def test_wall_time_recorded_but_not_compared(self):
        grid, _ = run_cells([make_spec()])
        result = grid[("iqolb", 2)]
        assert result.wall_time_s > 0
        grid2, _ = run_cells([make_spec()])
        assert grid2[("iqolb", 2)] == result

    def test_table3_parallel_matches_serial(self):
        serial, _ = table3(
            4, ["raytrace"], n_jobs=1, model_overrides=FAST_MODEL
        )
        parallel, stats = table3(
            4, ["raytrace"], n_jobs=2, model_overrides=FAST_MODEL
        )
        assert stats.total == 4 and stats.executed == 4
        assert serial == parallel

    def test_app_cell_is_the_table3_cell(self):
        cells = table3_cells(8, ["raytrace", "barnes"], FAST_MODEL)
        for cell in cells:
            app, label = cell.key
            primitive = "tts" if label == "uni" else label
            built = app_cell(
                app,
                primitive,
                cell.config.n_processors,
                model_overrides=FAST_MODEL,
            )
            assert dataclasses.replace(built, key=cell.key) == cell
            assert built.config.policy == get_primitive(primitive).policy

    def test_empty_batch(self):
        grid, stats = run_cells([])
        assert grid == {} and stats.total == 0


class TestCache:
    def test_hit_returns_identical_result(self, tmp_path):
        cache = ResultCache(tmp_path)
        first = sweep(fast_factory, ["tts", "iqolb"], [2], cache=cache)
        assert first.runner_stats.executed == 2
        assert first.runner_stats.cache_hits == 0

        again = sweep(
            fast_factory, ["tts", "iqolb"], [2], cache=ResultCache(tmp_path)
        )
        assert again.runner_stats.executed == 0
        assert again.runner_stats.cache_hits == 2
        for key in first.grid:
            hit, miss = again.grid[key], first.grid[key]
            assert hit == miss
            assert hit.stats == miss.stats
            assert hit.wall_time_s == miss.wall_time_s
            assert hit.manifest.signature == miss.manifest.signature
            assert hit.manifest.signature["primitive"] == key[0]

    def test_each_cell_is_keyed_once(self, tmp_path):
        """A missed cell's key serves both the lookup and the store."""

        class CountingCache(ResultCache):
            keyed = 0

            def key(self, description):
                self.keyed += 1
                return super().key(description)

        cache = CountingCache(tmp_path)
        first = sweep(fast_factory, ["tts", "iqolb"], [2], cache=cache)
        assert first.runner_stats.executed == 2 and cache.keyed == 2
        again = sweep(fast_factory, ["tts", "iqolb"], [2], cache=cache)
        assert again.runner_stats.cache_hits == 2 and cache.keyed == 4

    def test_key_changes_with_config_field(self):
        cache = ResultCache()
        base = make_spec()
        slow = make_spec()
        slow.config = slow.config.with_(xbar_line_cycles=200)
        assert cache.key(base.describe()) != cache.key(slow.describe())

    def test_key_changes_with_workload_params(self):
        cache = ResultCache()
        other_factory = functools.partial(
            NullCriticalSection, acquires_per_proc=9, think_cycles=30
        )
        assert cache.key(make_spec().describe()) != cache.key(
            make_spec(factory=other_factory).describe()
        )

    def test_key_changes_with_primitive_and_verify(self):
        cache = ResultCache()
        assert cache.key(make_spec("tts").describe()) != cache.key(
            make_spec("iqolb").describe()
        )
        assert cache.key(make_spec(verify=True).describe()) != cache.key(
            make_spec(verify=False).describe()
        )

    def test_policy_comes_from_the_primitive(self):
        """Leaving out ``policy=`` keeps the key a cell built with the
        primitive's policy had, so existing cache entries stay valid."""
        cache = ResultCache()
        for primitive in ("tts", "iqolb", "qolb", "mcs"):
            implicit = make_spec(primitive)
            explicit = make_spec(
                primitive, policy=get_primitive(primitive).policy
            )
            assert implicit.config.policy == get_primitive(primitive).policy
            assert cache.key(implicit.describe()) == cache.key(
                explicit.describe()
            )

    def test_conflicting_policy_is_replaced(self):
        spec = make_spec("iqolb", policy="baseline")
        assert spec.config.policy == "iqolb"
        assert spec == make_spec("iqolb")

    def test_key_changes_with_package_version(self, tmp_path):
        description = make_spec().describe()
        v1 = ResultCache(tmp_path, version="1.0.0")
        v2 = ResultCache(tmp_path, version="2.0.0")
        assert v1.key(description) != v2.key(description)

    def test_entry_from_another_version_is_a_miss(self, tmp_path):
        """A release that changes stored results (e.g. event counts at
        equal cycles) must not be served an older release's entries."""
        old = ResultCache(tmp_path, version="1.1.0")
        sweep(fast_factory, ["tts"], [2], cache=old)
        assert list(tmp_path.glob("*/*.json"))
        current = ResultCache(tmp_path)
        assert current.version != "1.1.0"
        rerun = sweep(fast_factory, ["tts"], [2], cache=current)
        assert rerun.runner_stats.executed == 1
        assert rerun.runner_stats.cache_hits == 0
        assert current.misses == 1 and current.hits == 0

    def test_corrupted_entries_discarded_not_crashed(self, tmp_path):
        cache = ResultCache(tmp_path)
        sweep(fast_factory, ["tts"], [2], cache=cache)
        (entry,) = tmp_path.glob("*/*.json")

        for garbage in ["", "{not json", json.dumps({"schema": 999})]:
            entry.write_text(garbage)
            fresh = ResultCache(tmp_path)
            rerun = sweep(fast_factory, ["tts"], [2], cache=fresh)
            assert rerun.runner_stats.executed == 1
            assert rerun.runner_stats.cache_hits == 0
            assert rerun.cell("tts", 2).cycles > 0

    def test_get_on_missing_key_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("0" * 64) is None
        assert cache.misses == 1 and cache.hits == 0

    def test_stable_hash_is_stable(self):
        payload = {"config": SystemConfig(n_processors=4), "x": [1, 2.5, None]}
        assert stable_hash(payload) == stable_hash(payload)
        assert stable_hash(payload) != stable_hash({"x": 1})


class TestTable3Cached:
    def test_second_invocation_runs_zero_simulations(self, tmp_path):
        cache = ResultCache(tmp_path)
        rows, stats = table3(
            4, ["raytrace"], cache=cache, model_overrides=FAST_MODEL
        )
        assert stats.executed == 4 and stats.cache_hits == 0

        rows2, stats2 = table3(
            4,
            ["raytrace"],
            cache=ResultCache(tmp_path),
            model_overrides=FAST_MODEL,
        )
        assert stats2.executed == 0 and stats2.cache_hits == 4
        assert rows2 == rows

    def test_model_overrides_change_the_key(self, tmp_path):
        cache = ResultCache(tmp_path)
        table3(4, ["raytrace"], cache=cache, model_overrides=FAST_MODEL)
        smaller = dict(FAST_MODEL, total_work=32)
        _, stats = table3(
            4, ["raytrace"], cache=cache, model_overrides=smaller
        )
        assert stats.executed == 4 and stats.cache_hits == 0
