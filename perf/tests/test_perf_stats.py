"""Percentiles, the ten-samples-beyond rule, segment medians, spreads."""

import statistics

import pytest

from perf import stats


def test_percentile_interpolates_between_ranks():
    values = [10.0, 20.0, 30.0, 40.0, 50.0]
    assert stats.percentile(values, 0) == 10.0
    assert stats.percentile(values, 50) == 30.0
    assert stats.percentile(values, 100) == 50.0
    assert stats.percentile(values, 90) == pytest.approx(46.0)
    assert stats.percentile([3.0, 1.0, 2.0], 50) == 2.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_ten_samples_beyond_rule():
    assert stats.samples_beyond(200, 95) == 10 and stats.supported(200, 95)
    assert stats.samples_beyond(181, 95) == 9 and not stats.supported(181, 95)
    assert stats.supported(20, 50) and not stats.supported(19, 50)
    assert not stats.supported(500, 99) and stats.supported(1001, 99)


def stamped(values_by_segment):
    """Samples spread evenly over [0, 5): segment i holds values_by_segment[i]."""
    out = []
    for index, values in enumerate(values_by_segment):
        for offset, value in enumerate(values):
            out.append((index + (offset + 0.5) / len(values), value))
    return out


def test_segment_median_ignores_one_disturbed_segment():
    quiet = [10.0] * 30
    samples = stamped([quiet, quiet, [90.0] * 30, quiet, quiet])
    assert stats.segment_median(samples, 0.0, 5.0, statistics.median) == 10.0
    pooled = statistics.fmean(v for _, v in samples)
    assert stats.segment_median(samples, 0.0, 5.0, statistics.fmean) == 10.0 < pooled


def test_segment_median_pools_when_a_segment_is_too_thin():
    samples = stamped([[1.0] * 30, [2.0] * 30, [3.0] * 5, [4.0] * 30, [5.0] * 30])
    # The third segment has 5 samples: no median with 10 beyond it.
    assert stats.segment_median(samples, 0.0, 5.0, statistics.fmean) == pytest.approx(
        statistics.fmean(v for _, v in samples)
    )
    # Enough for a median per segment, not for a p95 per segment.
    rich = stamped([[float(i)] * 40 for i in range(5)])
    assert stats.segment_median(rich, 0.0, 5.0, statistics.median, q=50) == 2.0
    p95 = lambda part: stats.percentile(part, 95)  # noqa: E731
    assert stats.segment_median(rich, 0.0, 5.0, p95, q=95) == p95([v for _, v in rich])


def test_segments_clamp_the_edges():
    parts = stats.segments([(-1.0, 1.0), (0.0, 2.0), (4.99, 3.0), (5.0, 4.0), (9.0, 5.0)], 0.0, 5.0)
    assert parts[0] == [1.0, 2.0] and parts[-1] == [3.0, 4.0, 5.0]


def test_relative_spread_is_iqr_over_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.relative_spread(values) == pytest.approx((q3 - q1) / statistics.median(values))
    assert stats.relative_spread([5.0]) == 0.0


def test_worsening_follows_the_metric_direction():
    assert stats.worsening(100.0, 110.0, "lower") == pytest.approx(0.10)
    assert stats.worsening(100.0, 110.0, "higher") == pytest.approx(-0.10)
    assert stats.worsening(100.0, 90.0, "higher") == pytest.approx(0.10)
