"""Tests for the fairness measurement module."""

import pytest

from repro.harness.fairness import (
    Acquisition,
    count_fifo_inversions,
    jain_index,
    measure_lock_fairness,
)


class TestMetrics:
    def test_fifo_order_has_no_inversions(self):
        acqs = [
            Acquisition(0, arrival=0, grant=10),
            Acquisition(1, arrival=5, grant=20),
            Acquisition(2, arrival=8, grant=30),
        ]
        assert count_fifo_inversions(acqs) == 0

    def test_inversion_counted(self):
        acqs = [
            Acquisition(0, arrival=0, grant=30),   # waited longest, granted last
            Acquisition(1, arrival=5, grant=10),   # overtook 0
            Acquisition(2, arrival=8, grant=20),   # overtook 0
        ]
        assert count_fifo_inversions(acqs) == 2

    def test_jain_index_perfectly_fair(self):
        assert jain_index({0: 100, 1: 100, 2: 100}) == pytest.approx(1.0)

    def test_jain_index_unfair(self):
        skewed = jain_index({0: 1000, 1: 1, 2: 1, 3: 1})
        assert skewed < 0.5

    def test_jain_index_handles_zero_waits(self):
        assert 0 < jain_index({0: 0, 1: 0}) <= 1.0

    def test_acquisition_wait(self):
        assert Acquisition(0, arrival=3, grant=17).wait == 14


class TestMeasurement:
    def test_queue_primitive_is_fifo(self):
        report = measure_lock_fairness("qolb", n_processors=4,
                                       acquires_per_proc=8)
        assert report.acquisitions == 32
        assert report.fifo_inversions == 0
        assert report.jain_index > 0.95

    def test_tts_disperses_waits(self):
        tts = measure_lock_fairness("tts", n_processors=4, acquires_per_proc=8)
        qolb = measure_lock_fairness("qolb", n_processors=4, acquires_per_proc=8)
        assert tts.max_wait > qolb.max_wait

    @pytest.mark.parametrize(
        "primitive, mean_wait, max_wait, wait_cv, inversions, jain",
        [
            pytest.param("iqolb", "829", 4174, "0.60", 82, "0.994", id="iqolb"),
            pytest.param("mcs", "1303", 1924, "0.09", 0, "0.999", id="mcs"),
        ],
    )
    def test_reproduces_committed_table(
        self, primitive, mean_wait, max_wait, wait_cv, inversions, jain
    ):
        """The ``results/fairness.txt`` rows, at the bench's settings."""
        report = measure_lock_fairness(
            primitive, n_processors=8, acquires_per_proc=15, think_cycles=60
        )
        assert report.row() == (
            primitive, 120, mean_wait, max_wait, wait_cv, inversions, jain
        )

    def test_mutual_exclusion_enforced(self):
        # the workload's verify raises if the run corrupted the token
        report = measure_lock_fairness("iqolb", n_processors=3,
                                       acquires_per_proc=5)
        assert report.acquisitions == 15
