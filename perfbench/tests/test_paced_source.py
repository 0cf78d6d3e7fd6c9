"""The paced source releases on schedule and reports how late it ran."""

from harness import PacedSource


class FakeTime:
    def __init__(self):
        self.now = 100.0
        self.slept = []

    def clock(self):
        return self.now

    def sleep(self, seconds):
        self.slept.append(seconds)
        self.now += seconds


def source(slots, period=0.5):
    fake = FakeTime()
    return PacedSource(slots, period, clock=fake.clock, sleep=fake.sleep), fake


def test_releases_each_slot_when_it_is_due():
    paced, fake = source([["a", "b"], ["c", "d"], ["e"]])
    assert paced.pull(8) == ["a", "b"] and fake.now == 100.0      # slot 0 due at once
    assert paced.pull(8) == ["c", "d"] and fake.now == 100.5      # blocked until due
    assert paced.pull(8) == ["e"] and fake.now == 101.0
    assert paced.late == [0.0, 0.0, 0.0]
    assert paced.exhausted
    assert paced.pull(8) == []


def test_reports_lateness_and_never_merges_slots():
    paced, fake = source([["a"], ["b"], ["c"]])
    paced.pull(8)
    fake.now += 1.3                       # the node stalls past two due times
    assert paced.pull(8) == ["b"]         # one slot per call, however late
    assert paced.pull(8) == ["c"]
    assert [round(late, 6) for late in paced.late] == [0.0, 0.8, 0.3]
    assert fake.slept == []               # a late source never waits
    assert [paced.due(i) for i in range(3)] == [100.0, 100.5, 101.0]


def test_a_small_pull_leaves_the_rest_of_the_slot():
    paced, _fake = source([["a", "b", "c"], ["d"]])
    assert paced.pull(2) == ["a", "b"]
    assert not paced.exhausted
    assert paced.pull(2) == ["c"]
    assert paced.pull(2) == ["d"]
    assert paced.exhausted
