"""Unit tests for repro.utils.stats and repro.utils.events."""

from repro.utils.events import EventHook
from repro.utils.stats import StatSet


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
