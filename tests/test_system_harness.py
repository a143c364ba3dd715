"""Tests for the system builder, config and memory layout."""

from collections import deque

import pytest

from repro import System, SystemConfig
from repro.cpu.ops import Read, Write
from repro.core.registry import policy_class, policy_names
from repro.harness.config import table1_rows
from repro.harness.layout import MemoryLayout
from repro.mem.address import AddressMap


class TestSystemConfig:
    def test_defaults_match_table1(self):
        config = SystemConfig()
        assert config.n_processors == 32
        assert config.line_bytes == 64
        assert config.bus_max_outstanding == 117

    def test_with_override(self):
        config = SystemConfig().with_(n_processors=4, policy="iqolb")
        assert config.n_processors == 4
        assert config.policy == "iqolb"
        assert SystemConfig().n_processors == 32  # original untouched

    @pytest.mark.parametrize("procs", [0, -2])
    def test_machine_without_processors_rejected(self, procs):
        with pytest.raises(ValueError, match="n_processors"):
            SystemConfig(n_processors=procs)
        with pytest.raises(ValueError, match="n_processors"):
            SystemConfig().with_(n_processors=procs)

    def test_policy_kwargs_only_for_deferral_schemes(self):
        assert SystemConfig(policy="baseline", timeout_cycles=99).policy_kwargs() == {}
        assert SystemConfig(policy="iqolb", timeout_cycles=99).policy_kwargs() == {
            "timeout_cycles": 99
        }

    @pytest.mark.parametrize("policy", policy_names())
    def test_timeout_override_reaches_every_timed_policy(self, policy):
        """Every policy with a timeout of its own honours the override
        (``iqolb+gen`` used to drop it); the others take none."""
        default = policy_class(policy).timeout_cycles
        system = System(
            SystemConfig(n_processors=2, policy=policy, timeout_cycles=123)
        )
        expected = None if default is None else 123
        for controller in system.controllers:
            assert controller.policy.timeout_cycles == expected

    def test_table1_rows_reflect_config(self):
        rows = table1_rows(SystemConfig(l2_size_bytes=1024 * 1024))
        text = " ".join(str(cell) for row in rows for cell in row)
        assert "1024-KB" in text


class TestSystemBuilder:
    def test_builds_requested_processor_count(self):
        system = System(SystemConfig(n_processors=5))
        assert len(system.processors) == 5
        assert len(system.controllers) == 5

    def test_each_controller_gets_own_policy(self):
        system = System(SystemConfig(n_processors=3, policy="iqolb"))
        policies = {id(c.policy) for c in system.controllers}
        assert len(policies) == 3

    def test_run_without_programs_raises(self):
        system = System(SystemConfig(n_processors=1))
        with pytest.raises(RuntimeError):
            system.run()

    def test_double_load_rejected(self):
        system = System(SystemConfig(n_processors=1))
        system.load_program(0, iter([]))
        with pytest.raises(ValueError):
            system.load_program(0, iter([]))

    def test_partial_load_runs_loaded_only(self):
        system = System(SystemConfig(n_processors=4))
        addr = system.layout.alloc_line()

        def program():
            yield Write(addr, 1)

        system.load_program(2, program())
        system.run()
        assert system.read_word(addr) == 1

    def test_read_word_sees_dirty_cache_data(self):
        system = System(SystemConfig(n_processors=1))
        addr = system.layout.alloc_line()

        def program():
            yield Write(addr, 123)

        system.load_program(0, program())
        system.run()
        assert system.memory.read_word(addr) == 0  # still dirty in cache
        assert system.read_word(addr) == 123

    def test_write_word_initialises_memory(self):
        system = System(SystemConfig(n_processors=1))
        addr = system.layout.alloc_line()
        system.write_word(addr, 7)
        seen = []

        def program():
            seen.append((yield Read(addr)))

        system.load_program(0, program())
        system.run()
        assert seen == [7]

    def test_totals_aggregate_across_nodes(self):
        system = System(SystemConfig(n_processors=2))
        a = system.layout.alloc_line()
        b = system.layout.alloc_line()

        def program(addr):
            yield Read(addr)

        system.load_program(0, program(a))
        system.load_program(1, program(b))
        system.run()
        assert system.total("misses") == 2


class TestStuckStateDigest:
    """The runaway diagnostic names every kind of per-line state."""

    def test_lent_and_pushed_lines_listed(self):
        system = System(SystemConfig(n_processors=4, policy="iqolb+gen"))
        controller = system.controllers[1]
        assert controller.describe_state() == ""
        controller.on_loan[0x1C0] = 3
        controller.forwarded[0x200] = 2
        controller.forwarded[0x180] = 0
        assert controller.describe_state() == (
            "P1: lent 0x1c0 to P3; pushed 0x180 to P0; pushed 0x200 to P2"
        )

    def test_quiescent_bus_still_reported(self):
        system = System(SystemConfig(n_processors=2))
        assert system._describe_stuck_state() == (
            "all cache controllers quiescent\n"
            "bus: blocked lines []; 0 parked; 0 outstanding"
        )

    def test_bus_blocked_lines_parked_and_outstanding(self):
        system = System(SystemConfig(n_processors=2))
        system.controllers[0].on_loan[0x100] = 1
        bus = system.bus
        bus._line_blocked.update({0x140: 7, 0x100: 3})
        bus._line_wait[0x140] = deque(["txn a", "txn b"])
        bus._line_wait[0x100] = deque(["txn c"])
        bus._outstanding = 2
        assert system._describe_stuck_state().splitlines() == [
            "P0: lent 0x100 to P1",
            "bus: blocked lines [0x100 by txn 3, 0x140 by txn 7]; "
            "3 parked; 2 outstanding",
        ]

    def test_directory_fabric_adds_no_bus_line(self):
        system = System(SystemConfig(n_processors=2, interconnect="directory"))
        assert system._describe_stuck_state() == "all cache controllers quiescent"


class TestMemoryLayout:
    def make(self):
        return MemoryLayout(AddressMap(64), base=0x10000)

    def test_alloc_line_is_aligned_and_exclusive(self):
        layout = self.make()
        layout.alloc_array(1)  # leaves the next free word mid-line
        line = layout.alloc_line()
        assert line % 64 == 0
        next_one = layout.alloc_line()
        assert next_one == line + 64

    def test_words_in_line_share_a_line(self):
        layout = self.make()
        words = layout.alloc_words_in_line(4)
        amap = AddressMap(64)
        assert len({amap.line_addr(w) for w in words}) == 1

    def test_words_in_line_capacity_check(self):
        layout = self.make()
        with pytest.raises(ValueError):
            layout.alloc_words_in_line(17)

    def test_alloc_lines_do_not_false_share(self):
        layout = self.make()
        amap = AddressMap(64)
        addrs = [layout.alloc_line() for _ in range(5)]
        assert len({amap.line_addr(a) for a in addrs}) == 5

    def test_alloc_array_dense(self):
        layout = self.make()
        arr = layout.alloc_array(6)
        assert [b - a for a, b in zip(arr, arr[1:])] == [4] * 5

    def test_unaligned_base_rejected(self):
        with pytest.raises(ValueError):
            MemoryLayout(AddressMap(64), base=0x10004)
