"""Placeholder for the deleted macro-op memoizer.

This module exists only because ``benchmarks/e2e/traced.py`` imports and
wraps ``MacroOpEngine.run_repeated``.  The next change to the benchmark
harness drops that wrap and then deletes this module.  Nothing in
``src/`` calls it: LMbench loops run plainly.
"""


class MacroOpEngine:
    def run_repeated(self, *args, **kwargs):
        raise RuntimeError("the macro-op memoizer has been removed")
