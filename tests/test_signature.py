"""The shared WorkloadSignature: one description of what a cell runs.

``repro run``, the sweep layer and ``repro predict`` all describe cells
through :class:`~repro.harness.signature.WorkloadSignature`; these tests
pin the extraction rules (micro workloads, synthetic apps, unknown
shapes) and the serialization contract.
"""

from __future__ import annotations

from repro.harness.config import SystemConfig
from repro.harness.runner import AppSpec, CellSpec, FactorySpec, app_cell
from repro.harness.signature import (
    KIND_APP,
    KIND_LOCK,
    KIND_RMW,
    WorkloadSignature,
)
from repro.workloads.micro import (
    CollocatedCriticalSection,
    ContendedCounter,
    NullCriticalSection,
)
from repro.workloads.splash import APP_MODELS


def config(n=16, fabric="bus"):
    return SystemConfig(n_processors=n, interconnect=fabric)


class TestFromWorkload:
    def test_null_cs(self):
        workload = NullCriticalSection(
            lock_kind="tts", acquires_per_proc=6, think_cycles=60
        )
        sig = WorkloadSignature.from_workload(workload, config(32), "iqolb")
        assert sig.kind == KIND_LOCK
        assert sig.workload == "null-cs"
        assert sig.primitive == "iqolb"
        assert sig.n_processors == 32
        assert sig.total_ops == 32 * 6
        assert (sig.cs_reads, sig.cs_writes) == (1, 1)
        assert sig.cs_accesses == 2
        assert sig.local_compute == 60
        assert not sig.collocated

    def test_collocated_cs(self):
        workload = CollocatedCriticalSection(
            lock_kind="qolb", acquires_per_proc=4, think_cycles=10,
            data_words=4,
        )
        sig = WorkloadSignature.from_workload(workload, config(8), "qolb")
        assert sig.kind == KIND_LOCK
        assert sig.collocated
        assert sig.cs_reads == 4

    def test_contended_counter(self):
        workload = ContendedCounter(increments_per_proc=30, think_cycles=40)
        sig = WorkloadSignature.from_workload(
            workload, config(16, "directory"), "delayed"
        )
        assert sig.kind == KIND_RMW
        assert sig.fabric == "directory"
        assert sig.total_ops == 480

    def test_unknown_shape_returns_none(self):
        sig = WorkloadSignature.from_workload(object(), config(), "tts")
        assert sig is None


class TestAppSignatures:
    def test_from_app_model_matches_table2(self):
        model = APP_MODELS["ocean"]
        sig = WorkloadSignature.from_app_model(
            model, primitive="tts", fabric="bus", n_processors=32
        )
        assert sig.kind == KIND_APP
        assert sig.workload == "ocean"
        assert sig.total_ops == model.total_work
        assert sig.n_locks == model.n_locks
        assert sig.hot_lock_fraction == model.hot_lock_fraction
        assert sig.phases == model.phases
        assert sig.serial_compute == model.serial_compute

    def test_app_signature_helper_matches_run_app_inputs(self):
        sig = app_cell("radiosity", "iqolb", 16, "directory").signature()
        assert sig.kind == KIND_APP
        assert sig.primitive == "iqolb"
        assert sig.fabric == "directory"
        assert sig.n_processors == 16


class TestSpecsAndSerialization:
    def test_cellspec_signature_uses_shared_extraction(self):
        spec = CellSpec(
            key=("tts", 8),
            primitive="tts",
            config=config(8),
            workload=FactorySpec(
                lambda lock_kind: NullCriticalSection(
                    lock_kind=lock_kind, acquires_per_proc=3, think_cycles=5
                ),
                "tts",
            ),
        )
        sig = spec.signature()
        assert sig == WorkloadSignature.micro_lock(
            "tts", fabric="bus", n_processors=8, acquires_per_proc=3,
            think_cycles=5,
        )

    def test_appspec_signature(self):
        spec = CellSpec(
            key=("barnes", "qolb"),
            primitive="qolb",
            config=config(32),
            workload=AppSpec("barnes", "qolb"),
        )
        sig = spec.signature()
        assert sig.kind == KIND_APP
        assert sig.workload == "barnes"

    def test_dict_roundtrip(self):
        sig = WorkloadSignature.micro_lock("iqolb", n_processors=64)
        assert WorkloadSignature.from_dict(sig.to_dict()) == sig

    def test_from_dict_ignores_unknown_fields(self):
        data = WorkloadSignature.micro_lock("tts").to_dict()
        data["future_field"] = "whatever"
        assert WorkloadSignature.from_dict(data).primitive == "tts"

    def test_with_override(self):
        sig = WorkloadSignature.micro_lock("tts", n_processors=16)
        wider = sig.with_(n_processors=128)
        assert wider.n_processors == 128
        assert wider.primitive == sig.primitive
