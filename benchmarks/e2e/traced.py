"""Run one ``python -m repro`` command with per-layer spans recorded.

    python traced.py SPANS.jsonl COMMAND [ARGS...]

Wraps each layer's public entry points by class or module attribute, in
this process only, then calls ``repro.cli.main([COMMAND, ARGS...])``.
The wrappers read only ``time.perf_counter`` and never the simulated
clock, so stdout stays byte-identical to an untraced run; ``run.py``
checks it against the goldens.

Spans stay in memory and are written as JSON lines when the command
returns: first ``{"counts": {...}}``, then one
``{"name", "start", "end", "parent", "trace"}`` record per span.  Span 0
is the root and covers the process from the first line of this script.
``parent`` is the index of the enclosing span.  ``trace`` is the cell
label (``table1:hypernel:lmbench``) or the fuzz example (``fuzz:3``)
the span ran under.
"""

import time

_T0 = time.perf_counter()

import contextlib  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import sys  # noqa: E402


class Tracer:
    """Nested ``perf_counter`` spans plus plain counters, kept in memory."""

    def __init__(self, start: float):
        self.spans = [["trace.root", start, start, -1, None]]
        self.stack = [0]
        self.counts = {}
        self.trace = None

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block."""
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    def _open(self, name):
        record = [name, 0.0, 0.0, self.stack[-1], self.trace]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        return record

    def _close(self, record):
        record[2] = time.perf_counter()
        self.stack.pop()

    def wrap(self, owner, attr, name, trace_of=None, keep_trace=False,
             after=None):
        """Record a span around every call of ``owner.attr``.

        ``name`` is a string or a function of the call's arguments.
        ``trace_of`` gives the trace ID the call (and, with
        ``keep_trace``, everything after it) runs under.  ``after`` sees
        the result and the arguments, for counters.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            saved = self.trace
            if trace_of is not None:
                self.trace = trace_of(*args, **kwargs)
            record = self._open(
                name if isinstance(name, str) else name(*args, **kwargs))
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(record)
                if trace_of is not None and not keep_trace:
                    self.trace = saved
            if after is not None:
                after(result, *args, **kwargs)
            return result

        setattr(owner, attr, wrapper)

    def count(self, owner, attr, key):
        """Count calls of ``owner.attr`` without a span (hot paths)."""
        original = getattr(owner, attr)
        counts = self.counts
        counts[key] = 0

        @functools.wraps(original)
        def counted(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        setattr(owner, attr, counted)

    def bump(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def next_example(self, *args, **kwargs):
        """Trace ID of the fuzz example a snapshot restore starts."""
        self.bump("fuzz.examples")
        return f"fuzz:{self.counts['fuzz.examples'] - 1}"

    def write(self, path):
        self.spans[0][2] = time.perf_counter()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"counts": self.counts}) + "\n")
            for name, start, end, parent, trace in self.spans:
                handle.write(json.dumps({"name": name, "start": start,
                                         "end": end, "parent": parent,
                                         "trace": trace}) + "\n")


def _slug(text: str) -> str:
    return re.sub(r"[^a-z0-9]+", "_", text.lower()).strip("_")


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark reports on."""
    from repro.analysis import figures, monitoring, report, tables
    from repro.core import hypercalls
    from repro.core.hypersec import Hypersec
    from repro.hw.bus import MemoryBus
    from repro.hypervisor.kvm import KvmHypervisor
    from repro.kernel.kernel import Kernel
    from repro.security.fuzz import machine
    from repro.tools.macroops import MacroOpEngine
    from repro.tools.runner import CellCache
    from repro.workloads.apps import ApplicationWorkload
    from repro.workloads.lmbench import LmbenchSuite
    import repro.obs
    import repro.state

    wrap = tracer.wrap
    label = lambda cell, *rest: cell.label()  # noqa: E731
    for module in (tables, figures, monitoring):
        wrap(module, "run_cells", "runner.run_cells")
        wrap(module, "execute_cell", "runner.execute_cell", trace_of=label)
    wrap(tables, "merge_table1", "analysis.merge")
    wrap(figures, "merge_figure6", "analysis.merge")
    wrap(monitoring, "merge_table2", "analysis.merge")
    wrap(report, "generate_report", "report.generate")
    wrap(CellCache, "lookup", "runner.cache_lookup",
         after=lambda hit, *a: tracer.bump("runner.cache_hits",
                                           hit is not None))
    wrap(CellCache, "store", "runner.cache_store")

    wrap(Kernel, "boot", "boot.kernel")
    wrap(Hypersec, "protect", "boot.protect")
    wrap(KvmHypervisor, "prepopulate", "boot.kvm_prepopulate")
    wrap(repro.state, "restore_system", "state.restore")

    wrap(LmbenchSuite, "run_op",
         lambda suite, op, *a, **k: "lmbench." + _slug(op))
    wrap(ApplicationWorkload, "run",
         lambda app, *a, **k: "apps." + _slug(app.name))
    wrap(MacroOpEngine, "run_repeated", "macroops.run_repeated")

    names = hypercalls.NAMES
    wrap(Hypersec, "handle_hvc",
         lambda sec, cpu, func, *a, **k: "hypersec.hvc."
         + names.get(func, "unknown"),
         after=lambda verdict, *a: tracer.bump(
             "hypersec.hvc_denied", verdict == hypercalls.HVC_DENIED))
    wrap(Hypersec, "handle_trapped_msr", "hypersec.msr")
    wrap(Hypersec, "audit", "hypersec.audit")
    tracer.count(MemoryBus, "peek", "hw.bus_peek")

    wrap(repro.obs, "collect_metrics", "obs.collect_metrics")

    wrap(machine, "run_fuzz", "fuzz.run")
    wrap(machine, "boot_snapshot", "fuzz.boot_snapshot")
    wrap(machine, "restore_from_snapshot", "state.restore",
         trace_of=tracer.next_example, keep_trace=True)
    wrap(machine, "apply_op", "fuzz.apply_op")
    wrap(machine, "differential_audit", "fuzz.differential")


def main(argv) -> int:
    if len(argv) < 2:
        print("usage: traced.py SPANS.jsonl COMMAND [ARGS...]",
              file=sys.stderr)
        return 2
    tracer = Tracer(_T0)
    with tracer.span("cli.import"):
        from repro.cli import main as cli_main
    with tracer.span("trace.install"):
        install(tracer)
    try:
        return cli_main(argv[1:])
    finally:
        tracer.write(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
