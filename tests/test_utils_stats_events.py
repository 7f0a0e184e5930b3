"""Unit tests for repro.utils.stats and repro.utils.events."""

from repro.core.mbm.fifo import CaptureFifo
from repro.utils.events import EventHook
from repro.utils.stats import StatSet


class _Owner:
    """A component counting ``hits`` in a plain attribute."""

    def __init__(self):
        self._hits = 0
        self.stats = StatSet("owner", self, "_hits")


class TestStatSet:
    def test_unset_counter_reads_zero(self):
        stats = StatSet("s")
        assert stats.get("nothing") == 0

    def test_add_default_increment(self):
        stats = StatSet("s")
        stats.add("hits")
        stats.add("hits")
        assert stats.get("hits") == 2

    def test_add_amount(self):
        stats = StatSet("s")
        stats.add("bytes", 512)
        assert stats.get("bytes") == 512

    def test_snapshot_is_a_copy(self):
        stats = StatSet("s")
        stats.add("x")
        snap = stats.snapshot()
        stats.add("x")
        assert snap["x"] == 1

    def test_iteration_sorted(self):
        stats = StatSet("s")
        stats.add("b")
        stats.add("a")
        assert [k for k, _ in stats] == ["a", "b"]


class TestOwnerCounters:
    def test_reads_the_live_attribute_without_changing_it(self):
        owner = _Owner()
        owner._hits += 3
        assert owner.stats.get("hits") == 3
        assert owner.stats.snapshot() == {"hits": 3}
        assert list(owner.stats) == [("hits", 3)]
        assert owner._hits == 3

    def test_zero_owner_counter_is_absent_from_snapshot(self):
        owner = _Owner()
        assert owner.stats.snapshot() == {}
        assert list(owner.stats) == []
        assert owner.stats.get("hits") == 0

    def test_add_to_an_owned_key_sums_both(self):
        owner = _Owner()
        owner._hits += 2
        owner.stats.add("hits", 5)
        assert owner.stats.get("hits") == 7
        assert owner.stats.snapshot() == {"hits": 7}

    def test_fifo_max_depth_stays_the_high_water_mark(self):
        fifo = CaptureFifo(depth=8)
        for index in range(3):
            fifo.push(index, None)
        fifo.pop()
        fifo.pop()
        assert fifo.stats.get("max_depth") == 3
        fifo.push(9, None)
        assert fifo.stats.get("max_depth") == 3
        assert fifo.stats.snapshot()["max_depth"] == 3
        assert fifo.stats.get("max_depth") == 3


class TestEventHook:
    def test_fire_reaches_subscribers_in_order(self):
        hook = EventHook("h")
        seen = []
        hook.subscribe(lambda v: seen.append(("a", v)))
        hook.subscribe(lambda v: seen.append(("b", v)))
        hook.fire(7)
        assert seen == [("a", 7), ("b", 7)]

    def test_len_counts_subscribers(self):
        hook = EventHook("h")
        hook.subscribe(lambda: None)
        assert len(hook) == 1
