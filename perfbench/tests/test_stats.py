import random

import pytest

import stats


@pytest.mark.parametrize("percentile, fewest", [
    (50.0, 20), (75.0, 40), (90.0, 100), (95.0, 200), (99.0, 1000),
])
def test_min_samples_leaves_ten_beyond(percentile, fewest):
    assert stats.min_samples(percentile) == fewest
    assert stats.beyond_count(fewest, percentile) == stats.TAIL_MIN_BEYOND
    assert stats.beyond_count(fewest - 1, percentile) < stats.TAIL_MIN_BEYOND


def test_tail_value_has_exactly_the_counted_samples_above_it():
    rng = random.Random(5)
    latencies = [rng.expovariate(1.0) for _ in range(5000)]
    value, beyond = stats.tail(latencies, 99.0)
    assert beyond == 50
    assert sum(x > value for x in latencies) == beyond


def test_tail_on_known_values():
    # 1..100 ms: p90 leaves 10 samples (91..100) above the value 90
    assert stats.tail(list(range(100, 0, -1)), 90.0) == (90, 10)
    # 1..250 ms: p95 leaves floor(12.5) = 12 samples above the value 238
    assert stats.tail(list(range(1, 251)), 95.0) == (238, 12)


def test_tail_refuses_fewer_than_ten_beyond():
    with pytest.raises(ValueError):
        stats.tail([1.0] * 199, 95.0)


def test_spread_is_interquartile_distance_over_median():
    assert stats.spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) == pytest.approx(
        (8.25 - 2.75) / 5.5)
