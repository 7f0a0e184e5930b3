"""Unit tests for the interrupt controller."""

import pytest

from repro.errors import ConfigurationError
from repro.hw.interrupt import InterruptController


@pytest.fixture
def gic():
    return InterruptController()


class TestRegistration:
    def test_unregistered_line_rejected(self, gic):
        with pytest.raises(ConfigurationError):
            gic.raise_irq(5)

    def test_double_registration_rejected(self, gic):
        gic.register(1, lambda irq: None)
        with pytest.raises(ConfigurationError):
            gic.register(1, lambda irq: None)


class TestDispatch:
    def test_unmasked_irq_dispatches_immediately(self, gic):
        fired = []
        gic.register(1, fired.append)
        gic.raise_irq(1)
        assert fired == [1]

    def test_reentrant_raise_defers_until_handler_returns(self, gic):
        """An IRQ raised from inside its own handler runs after it."""
        depth = {"value": 0, "max": 0, "count": 0}

        def handler(irq):
            depth["value"] += 1
            depth["max"] = max(depth["max"], depth["value"])
            depth["count"] += 1
            if depth["count"] == 1:
                gic.raise_irq(irq)  # re-raise from inside service
            depth["value"] -= 1

        gic.register(2, handler)
        gic.raise_irq(2)
        assert depth["count"] == 2
        assert depth["max"] == 1  # never nested

    def test_stats(self, gic):
        gic.register(1, lambda irq: None)
        gic.raise_irq(1)
        gic.raise_irq(1)
        assert gic.stats.get("raised") == 2
        assert gic.stats.get("dispatched") == 2
