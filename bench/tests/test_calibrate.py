"""Percentile and calibration arithmetic."""

import statistics

import pytest

from bench.calibrate import (REF_KERNEL_S, SpeedTrack, iqr_ratio, kernel,
                             percentile, speed_factor)


def test_percentile_interpolates():
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentile(values, 0.0) == 1.0
    assert percentile(values, 1.0) == 4.0
    assert percentile(values, 0.5) == 2.5
    assert percentile(list(range(101)), 0.95) == 95
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_speed_factor_brings_a_time_to_reference_speed():
    # The box runs the kernel in twice the reference time: it is half
    # as fast, so a raw 10 ms is 5 ms at reference speed.
    factor = speed_factor([2 * REF_KERNEL_S] * 5)
    assert factor == pytest.approx(0.5)
    assert 0.010 * factor == pytest.approx(0.005)
    # Throughput scales the other way.
    assert 1000 / factor == pytest.approx(2000)
    # The median ignores one wild sample.
    assert speed_factor([REF_KERNEL_S] * 4 + [1.0]) == pytest.approx(1.0)


def test_speed_track_uses_the_samples_around_an_instant():
    track = SpeedTrack()
    for when in range(10):                  # fast for 10 s ...
        track.add(float(when), REF_KERNEL_S)
    for when in range(10, 20):              # ... then half speed
        track.add(float(when), 2 * REF_KERNEL_S)
    assert track.factor_over(2.5, 2.6) == pytest.approx(1.0)
    assert track.factor_over(1.0, 5.0) == pytest.approx(1.0)
    assert track.factor_over(25.0, 26.0) == pytest.approx(0.5)
    assert 0.5 <= track.overall() <= 1.0


def test_median_scales_latencies_and_mean_scales_throughput():
    # Nine quiet samples and one long stall around the interval.
    track = SpeedTrack()
    for when in range(9):
        track.add(float(when), REF_KERNEL_S)
    track.add(9.0, 11 * REF_KERNEL_S)
    assert track.factor_over(4.0, 5.0) == pytest.approx(1.0)
    assert track.factor_over(4.0, 5.0, statistics.fmean) \
        == pytest.approx(0.5)


def test_iqr_ratio():
    assert iqr_ratio([5.0]) == 0.0
    assert iqr_ratio([10.0] * 8) == 0.0
    assert iqr_ratio([8.0, 9.0, 10.0, 11.0, 12.0]) == pytest.approx(0.3)


def test_kernel_takes_measurable_time():
    assert 0.0002 < kernel() < 0.5
