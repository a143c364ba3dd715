"""Unit tests for the set-associative cache array."""

import gc
import tracemalloc

from hypothesis import given, settings, strategies as st
import pytest

from repro import System, SystemConfig
from repro.mem.cache import CacheArray
from repro.mem.line import CacheLine, State


def line_at(addr, state=State.SHARED):
    return CacheLine(addr, state, [0] * 16)


class TestConstruction:
    def test_from_size(self):
        array = CacheArray.from_size(64 * 1024, 2, 64)
        assert array.n_sets == 512
        assert array.assoc == 2

    def test_rejects_non_power_of_two_sets(self):
        with pytest.raises(ValueError):
            CacheArray(3, 2, 64)

    def test_rejects_bad_assoc(self):
        with pytest.raises(ValueError):
            CacheArray(4, 0, 64)


class TestLookupInsert:
    def test_miss_returns_none(self):
        array = CacheArray(4, 2, 64)
        assert array.lookup(0x100) is None

    def test_insert_then_hit(self):
        array = CacheArray(4, 2, 64)
        line = line_at(0x100)
        array.insert(line)
        assert array.lookup(0x100) is line

    def test_insert_replaces_same_address(self):
        array = CacheArray(4, 2, 64)
        array.insert(line_at(0x100))
        newer = line_at(0x100, State.MODIFIED)
        array.insert(newer)
        assert array.lookup(0x100) is newer
        assert array.resident_count() == 1

    def test_full_set_insert_raises(self):
        array = CacheArray(1, 2, 64)
        array.insert(line_at(0x000))
        array.insert(line_at(0x040))
        with pytest.raises(RuntimeError):
            array.insert(line_at(0x080))

    def test_force_insert_overflows(self):
        array = CacheArray(1, 2, 64)
        array.insert(line_at(0x000))
        array.insert(line_at(0x040))
        array.insert(line_at(0x080), force=True)
        assert array.resident_count() == 3

    def test_remove(self):
        array = CacheArray(4, 2, 64)
        array.insert(line_at(0x100))
        removed = array.remove(0x100)
        assert removed is not None
        assert array.lookup(0x100) is None
        assert array.remove(0x100) is None


class TestVictims:
    def test_needs_eviction(self):
        array = CacheArray(1, 2, 64)
        array.insert(line_at(0x000))
        assert not array.needs_eviction(0x040)
        array.insert(line_at(0x040))
        assert array.needs_eviction(0x080)
        assert not array.needs_eviction(0x000)  # already resident

    def test_lru_victim(self):
        array = CacheArray(1, 2, 64)
        array.insert(line_at(0x000))
        array.insert(line_at(0x040))
        array.lookup(0x000)  # touch -> 0x040 becomes LRU
        victim = array.select_victim(0x080)
        assert victim.addr == 0x040

    def test_pinned_lines_never_victims(self):
        array = CacheArray(1, 2, 64)
        pinned = line_at(0x000)
        pinned.pinned = True
        array.insert(pinned)
        other = line_at(0x040)
        array.insert(other)
        assert array.select_victim(0x080) is other

    def test_all_pinned_returns_none(self):
        array = CacheArray(1, 2, 64)
        for addr in (0x000, 0x040):
            line = line_at(addr)
            line.pinned = True
            array.insert(line)
        assert array.select_victim(0x080) is None

    def test_untouched_lookup_does_not_promote(self):
        array = CacheArray(1, 2, 64)
        array.insert(line_at(0x000))
        array.insert(line_at(0x040))
        array.lookup(0x000, touch=False)
        victim = array.select_victim(0x080)
        assert victim.addr == 0x000  # still LRU despite the peek


class TestLruModel:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=60))
    def test_matches_reference_lru(self, accesses):
        """Single-set array behaves exactly like a textbook LRU list."""
        assoc = 4
        array = CacheArray(1, assoc, 64)
        model = []  # most recent last
        for index in accesses:
            addr = index * 64
            hit = array.lookup(addr) is not None
            assert hit == (addr in model)
            if hit:
                model.remove(addr)
            else:
                if len(model) >= assoc:
                    victim = array.select_victim(addr)
                    assert victim.addr == model[0]
                    array.remove(victim.addr)
                    model.pop(0)
                array.insert(line_at(addr))
            model.append(addr)
            assert array.resident_count() == len(model)


class EagerCacheArray:
    """The reference: one dict per set, all allocated up front, every
    operation on the target set's dict."""

    def __init__(self, n_sets, assoc, line_bytes):
        self.n_sets = n_sets
        self.assoc = assoc
        self.line_bytes = line_bytes
        self.sets = [{} for _ in range(n_sets)]
        self.tick = 0

    def bucket(self, addr):
        return self.sets[(addr // self.line_bytes) & (self.n_sets - 1)]

    def lookup(self, addr, touch=True):
        line = self.bucket(addr).get(addr)
        if line is not None and touch:
            self.tick += 1
            line.last_used = self.tick
        return line

    def touch(self, addr, times):
        self.tick += times
        self.bucket(addr)[addr].last_used = self.tick

    def insert(self, line, force=False):
        bucket = self.bucket(line.addr)
        if line.addr not in bucket and len(bucket) >= self.assoc and not force:
            raise RuntimeError("full")
        self.tick += 1
        line.last_used = self.tick
        bucket[line.addr] = line

    def remove(self, addr):
        return self.bucket(addr).pop(addr, None)

    def needs_eviction(self, addr):
        bucket = self.bucket(addr)
        return addr not in bucket and len(bucket) >= self.assoc

    def select_victim(self, addr):
        if not self.needs_eviction(addr):
            return None
        bucket = self.bucket(addr)
        candidates = [line for line in bucket.values() if not line.pinned]
        if not candidates:
            return None
        return min(candidates, key=lambda line: line.last_used)

    def lines(self):
        for bucket in self.sets:
            yield from bucket.values()


def _frame(line):
    if line is None:
        return None
    return line.addr, line.state, line.last_used, line.pinned


OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["insert", "force", "lookup", "peek", "touch", "remove",
             "victim", "pin"]
        ),
        st.integers(min_value=0, max_value=23),
    ),
    min_size=1,
    max_size=80,
)


class TestAgainstEagerSets:
    @settings(max_examples=60, deadline=None)
    @given(OPS)
    def test_matches_eager_per_set_reference(self, ops):
        """Random lookups, inserts (plain and forced), removes, touches,
        pins and victim choices over 4 sets x 2 ways leave the lazily
        built array and the eager reference indistinguishable: the same
        lines, LRU stamps, victims and set-index order of ``lines()``."""
        array = CacheArray(4, 2, 64)
        reference = EagerCacheArray(4, 2, 64)
        for op, index in ops:
            addr = index * 64
            if op in ("insert", "force"):
                force = op == "force"
                outcomes = []
                for target in (array, reference):
                    try:
                        target.insert(line_at(addr), force=force)
                        outcomes.append("ok")
                    except RuntimeError:
                        outcomes.append("full")
                assert outcomes[0] == outcomes[1]
            elif op in ("lookup", "peek"):
                touch = op == "lookup"
                assert _frame(array.lookup(addr, touch=touch)) == _frame(
                    reference.lookup(addr, touch=touch)
                )
            elif op == "touch":
                if reference.lookup(addr, touch=False) is not None:
                    array.touch(addr, index % 3 + 1)
                    reference.touch(addr, index % 3 + 1)
            elif op == "remove":
                assert _frame(array.remove(addr)) == _frame(
                    reference.remove(addr)
                )
            elif op == "victim":
                assert array.needs_eviction(addr) == reference.needs_eviction(
                    addr
                )
                assert _frame(array.select_victim(addr)) == _frame(
                    reference.select_victim(addr)
                )
            else:  # pin: flip the pinned flag of a resident line in both
                mine = array.lookup(addr, touch=False)
                theirs = reference.lookup(addr, touch=False)
                if mine is not None:
                    mine.pinned = theirs.pinned = not mine.pinned
            assert list(map(_frame, array.lines())) == list(
                map(_frame, reference.lines())
            )
            assert array.resident_count() == len(list(reference.lines()))

    def test_no_set_exists_before_its_first_insert(self):
        array = CacheArray.from_size(512 * 1024, 4, 64)
        assert array._sets == {}
        array.insert(line_at(0x1040))
        assert list(array._sets) == [array._set_index(0x1040)]
        array.remove(0x1040)
        assert array.lookup(0x1040) is None
        assert array.resident_count() == 0


def test_fresh_64p_system_retains_under_one_mib():
    """A fresh 64-processor bus system keeps its caches' sets unbuilt:
    what it retains is per-node objects, not 2,560 empty set dicts per
    node (11.6 MiB when every set was allocated up front; ~0.22 MiB
    with sets made on first insert)."""
    config = SystemConfig(n_processors=64, interconnect="bus")
    System(config)  # first build: imports and module-level caches
    gc.collect()
    tracemalloc.start()
    try:
        system = System(config)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert system.config.n_processors == 64
    assert retained < 1024 * 1024, f"{retained / 2**20:.2f} MiB retained"
