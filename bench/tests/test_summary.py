import statistics

import pytest

import summary


def test_percentile_is_nearest_rank():
    ordered = list(range(1, 101))
    assert summary.percentile(ordered, 0.50) == 50
    assert summary.percentile(ordered, 0.99) == 99
    assert summary.percentile(ordered, 1.0) == 100
    assert summary.percentile([4.0], 0.99) == 4.0
    with pytest.raises(ValueError):
        summary.percentile([], 0.5)


def test_percentiles_are_taken_over_all_segments_pooled():
    fast, slow = [1.0] * 98, [100.0] * 2
    ordered = summary.pooled([fast, slow])
    assert ordered == sorted(fast + slow)
    # Pooled p99 sees the slow segment's tail; a median of per-segment
    # p99s (1.0 and 100.0) would not be a percentile of anything.
    assert summary.percentile(ordered, 0.99) == 100.0
    assert summary.percentile(ordered, 0.50) == 1.0


def test_highest_supported_percentile_keeps_ten_samples_beyond():
    assert summary.highest_supported(10) is None
    assert summary.highest_supported(1000) == pytest.approx(0.99)
    top = summary.highest_supported(48000)
    ordered = list(range(48000))
    assert len(ordered) - 1 - ordered.index(summary.percentile(ordered, top)) \
        == summary.SAMPLES_BEYOND


def test_quartiles_follow_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0, 3.5, 8.0, 7.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert statistics.median(values) == q2
    assert summary.quartiles(values) == (q1, q2, q3)
    assert summary.quartiles([2.0]) == (2.0, 2.0, 2.0)


def test_largest_relative_gap_is_between_the_extremes():
    assert summary.largest_relative_gap([100.0, 104.0, 110.0]) == \
        pytest.approx(0.10)
    assert summary.largest_relative_gap([5.0, 5.0]) == 0.0


def test_by_wave_takes_the_median_across_segments_wave_by_wave():
    # A burst hits wave 0 of one segment and wave 1 of another: neither
    # moves the result, though two of the three segments were hit.
    assert summary.by_wave([[1.0, 9.0], [7.0, 2.0], [1.2, 2.2]]) == [1.2, 2.2]


def test_weather_is_the_mean_spin_inside_the_windows():
    import host
    spin = [(0.5, 9.0), (1.0, 1.0), (1.5, 3.0), (2.5, 9.0), (3.0, 2.0)]
    windows = [(1.0, 2.0), (3.0, 4.0)]
    assert host.weather(spin, windows) == \
        pytest.approx(2.0 / host.SPIN_REFERENCE_MS)
    with pytest.raises(RuntimeError):
        host.weather(spin, [(5.0, 6.0)])
