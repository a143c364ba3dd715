"""Unit tests for the lock predictor and held-lock table (paper §3.4)."""

from hypothesis import given, strategies as st

from repro.core.predictor import (
    DISABLE_THRESHOLD,
    HELD_CAPACITY,
    MIN_SAMPLES,
    PREDICTOR_CAPACITY,
    HeldLockTable,
    LockPredictor,
)
from repro.mem.address import AddressMap


class TestLockPredictor:
    def test_unknown_pc_is_not_a_lock(self):
        assert not LockPredictor().predict_lock(0x400)

    def test_training(self):
        predictor = LockPredictor()
        predictor.train_lock(0x400)
        assert predictor.predict_lock(0x400)
        assert not predictor.predict_lock(0x404)

    def test_capacity_eviction(self):
        predictor = LockPredictor()
        for pc in range(PREDICTOR_CAPACITY):
            predictor.train_lock(pc)
        predictor.train_lock(0)  # touch pc=0: pc=1 is now the LRU entry
        predictor.train_lock(PREDICTOR_CAPACITY)  # evicts pc=1
        assert not predictor.predict_lock(1)
        assert predictor.predict_lock(0)
        assert predictor.predict_lock(PREDICTOR_CAPACITY)
        assert predictor.stats()["entries"] == PREDICTOR_CAPACITY

    def test_pathological_disable(self):
        predictor = LockPredictor()
        predictor.train_lock(0x400)  # 1 correct
        for _ in range(MIN_SAMPLES - 2):
            predictor.record_misprediction(0x400)
        # one outcome short of MIN_SAMPLES: still on, however inaccurate
        assert predictor.predict_lock(0x400)
        predictor.record_misprediction(0x400)
        assert 1 / MIN_SAMPLES < DISABLE_THRESHOLD
        assert not predictor.predict_lock(0x400)
        assert predictor.stats()["disabled"] == 1

    def test_accurate_entries_stay_enabled(self):
        predictor = LockPredictor()
        predictor.train_lock(0x400)
        for _ in range(10):
            predictor.record_correct(0x400)
        predictor.record_misprediction(0x400)
        assert predictor.predict_lock(0x400)

    def test_misprediction_of_unknown_pc_is_noop(self):
        predictor = LockPredictor()
        predictor.record_misprediction(0x999)  # must not raise
        assert predictor.stats()["entries"] == 0

    def test_stats(self):
        predictor = LockPredictor()
        predictor.train_lock(1)
        stats = predictor.stats()
        assert stats == {"entries": 1, "lock_entries": 1, "disabled": 0}


def make_table():
    return HeldLockTable(AddressMap(64))


class TestHeldLockTable:
    def test_insert_and_release(self):
        table = make_table()
        table.insert(0x100, pc=7, now=0)
        entry = table.release(0x100)
        assert entry is not None and entry.pc == 7
        assert table.release(0x100) is None

    def test_release_other_word_misses(self):
        """Writes to collocated words must not look like releases."""
        table = make_table()
        table.insert(0x100, pc=7, now=0)
        assert table.release(0x104) is None  # same line, different word
        assert table.release(0x100) is not None

    def test_two_locks_one_line(self):
        table = make_table()
        table.insert(0x100, pc=1, now=0)
        table.insert(0x104, pc=2, now=1)
        table.release(0x100)
        assert table.lookup_line(0x100).addr == 0x104  # 0x104 still held
        table.release(0x104)
        assert table.lookup_line(0x100) is None

    def test_capacity_discards_oldest(self):
        table = make_table()
        for i in range(HELD_CAPACITY):
            assert table.insert(0x100 + 0x40 * i, pc=i, now=i) is None
        discarded = table.insert(0x1000, pc=99, now=99)
        assert discarded is not None and discarded.addr == 0x100
        assert table.release(0x100) is None
        assert len(table) == HELD_CAPACITY

    def test_reinsert_same_addr_replaces(self):
        table = make_table()
        table.insert(0x100, pc=1, now=0)
        table.insert(0x100, pc=2, now=5)
        assert len(table) == 1
        assert table.release(0x100).pc == 2

    def test_lookup_line(self):
        table = make_table()
        assert table.lookup_line(0x100) is None
        table.insert(0x108, pc=9, now=0)
        entry = table.lookup_line(0x100)
        assert entry is not None and entry.pc == 9
        assert table.lookup_line(0x140) is None
        table.release(0x108)
        assert table.lookup_line(0x100) is None

    def test_timed_out_flag_defaults_false(self):
        table = make_table()
        table.insert(0x100, pc=1, now=0)
        assert table.lookup_line(0x100).timed_out is False

    @given(st.lists(st.integers(min_value=0, max_value=30), max_size=40))
    def test_lookup_line_agrees_with_held_entries(self, word_indices):
        """lookup_line finds a held entry in exactly the held lines."""
        table = make_table()
        amap = AddressMap(64)
        for i, w in enumerate(word_indices):
            addr = w * 4
            if i % 3 == 2:
                table.release(addr)
            else:
                table.insert(addr, pc=i, now=i)
            held_lines = {
                amap.line_addr(e.addr) for e in table._by_addr.values()
            }
            for line in {amap.line_addr(w * 4) for w in word_indices}:
                entry = table.lookup_line(line)
                if line in held_lines:
                    assert entry is not None
                    assert amap.line_addr(entry.addr) == line
                else:
                    assert entry is None
