"""Exact percentiles and the "at least ten beyond" tail rule."""

import pytest

from perfbench import stats


def test_nearest_rank_percentiles_on_a_known_array():
    samples = [float(value) for value in range(1, 11)]  # 1..10
    assert stats.percentile(samples, 50.0) == 5.0
    assert stats.percentile(samples, 90.0) == 9.0
    assert stats.percentile(samples, 91.0) == 10.0
    assert stats.percentile(samples, 100.0) == 10.0
    assert stats.percentile(samples, 1.0) == 1.0


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        stats.percentile([], 50.0)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 0.0)


def test_beyond_counts_samples_above_the_rank():
    assert stats.beyond(100, 90.0) == 10
    assert stats.beyond(1000, 99.0) == 10
    assert stats.beyond(999, 99.0) == 9
    assert stats.beyond(20, 50.0) == 10


@pytest.mark.parametrize(
    ("count", "expected"),
    [(20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0),
     (10_000, 99.9), (99_999, 99.9), (100_000, 99.99)],
)
def test_tail_takes_the_highest_percentile_with_ten_beyond(count, expected):
    samples = [float(value) for value in range(count)]
    tail = stats.tail(samples)
    assert tail.percentile == expected
    assert tail.samples == count
    assert tail.value == stats.percentile(samples, expected)
    assert sum(1 for value in samples if value > tail.value) >= stats.MIN_BEYOND


def test_tail_value_on_a_small_known_array():
    samples = [float(value) for value in range(1, 101)]  # 1..100
    tail = stats.tail(samples)
    assert (tail.percentile, tail.value) == (90.0, 90.0)


def test_tail_needs_twenty_samples():
    with pytest.raises(ValueError):
        stats.tail([1.0] * 19)


def test_tail_percentile_follows_the_sample_count_alone():
    assert stats.tail_percentile(1157) == 99.0
    assert stats.tail_percentile(150) == 90.0
    assert stats.tail_percentile(20) == 50.0
    with pytest.raises(ValueError):
        stats.tail_percentile(19)
