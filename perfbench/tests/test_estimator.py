"""The estimator recovers the quiet time from laps with slow episodes."""

import random
import statistics

import pytest

import estimator

BLOCKS = 120
QUIET_S = 0.080


def synthetic_laps(count, seed, runs=2, run_length=20, factor=1.5):
    """Laps of identical work in which a third of each lap's blocks, in
    ``runs`` separate runs of ``run_length``, take ``factor`` times as long;
    the runs fall at random places; every block has 1 % jitter."""
    rng = random.Random(seed)
    laps = []
    for _ in range(count):
        slow = set()
        while len(slow) < runs * run_length:
            start = rng.randrange(BLOCKS - run_length + 1)
            episode = range(start, start + run_length)
            if not slow.intersection(episode):
                slow.update(episode)
        laps.append([
            QUIET_S * (factor if block in slow else 1.0) * rng.uniform(0.99, 1.01)
            for block in range(BLOCKS)
        ])
    return laps


def errors(count):
    quiet = BLOCKS * QUIET_S
    out = []
    for seed in range(20):
        laps = synthetic_laps(count, seed)
        # What the estimator is up against: every lap is a sixth slower.
        assert min(sum(lap) for lap in laps) > quiet * 1.15
        out.append(abs(estimator.quiet_seconds(laps) / quiet - 1.0))
    return out


def test_six_laps_recover_the_quiet_time_within_one_percent():
    found = errors(6)
    assert statistics.median(found) < 0.01
    # An episode reaches the result only where it hits a block in five of
    # the six laps; with random placement that is 2 % of the blocks.
    assert max(found) < 0.03


def test_four_laps_the_size_the_time_cap_allows_are_less_robust():
    found = errors(4)          # three of four laps must be slow at a block
    assert statistics.median(found) < 0.07
    assert max(found) < 0.12


def test_lower_quartile_index():
    assert estimator.lower_quartile([3, 1, 2]) == 1               # fastest of three
    assert estimator.lower_quartile([4, 1, 3, 2]) == 2            # second of four
    assert estimator.lower_quartile([6, 5, 4, 3, 2, 1]) == 2      # second of six
    assert estimator.lower_quartile([8, 7, 6, 5, 4, 3, 2, 1]) == 3


def test_intervals_start_at_the_lap_start():
    assert estimator.intervals(10.0, [10.5, 11.5, 13.0]) == [0.5, 1.0, 1.5]


def test_percentile_and_samples_beyond():
    values = list(range(1, 21))
    assert estimator.percentile(values, 50) == 10
    assert estimator.percentile(values, 80) == 16
    assert estimator.samples_beyond(20, 50) == 10
    assert estimator.samples_beyond(20, 80) == 4


def test_laps_of_unequal_length_are_refused():
    with pytest.raises(ValueError):
        estimator.quiet_seconds([[1.0, 1.0], [1.0]])
