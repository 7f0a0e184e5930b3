#!/usr/bin/env python3
"""Quickstart: build a Hypernel-protected machine and watch it work.

Builds the full stack — simulated Juno-like platform, Linux-like kernel,
Hypersec at EL2, the MBM on the memory bus, and a credential-integrity
monitor — then:

1. runs a small benign workload (no alerts),
2. performs a legitimate setuid (announced: no alerts),
3. simulates a kernel exploit writing the cred directly (alert!).

Run:  python examples/quickstart.py
"""

from repro import (
    CredIntegrityMonitor,
    PlatformConfig,
    build_hypernel,
)
from repro.kernel.objects import CRED
from repro.obs import collect_metrics


def main() -> None:
    print("=== Hypernel quickstart ===\n")
    system = build_hypernel(
        platform_config=PlatformConfig(
            dram_bytes=128 * 1024 * 1024, secure_bytes=16 * 1024 * 1024
        ),
        monitors=[CredIntegrityMonitor()],
    )
    kernel = system.kernel
    print(f"built {system.name!r}: Hypersec at EL2, MBM on the bus,")
    print(f"  TVM trapping: {system.cpu.regs.tvm_enabled}")
    print(f"  nested paging: {system.cpu.regs.stage2_enabled}  <- the point\n")

    init = system.spawn_init()
    monitor = system.monitor_by_name("cred_monitor")
    print(f"init spawned (pid {init.pid}); its cred's sensitive words are")
    print(f"  now monitored at word granularity "
          f"({system.hypersec.monitored_word_count()} words registered)\n")

    # 1. Benign kernel activity.
    kernel.vfs.mkdir_p("/home/user")
    kernel.sys.creat(init, "/home/user/notes.txt")
    handle = kernel.sys.open(init, "/home/user/notes.txt")
    kernel.sys.write(init, handle, 4096)
    kernel.sys.close(init, handle)
    child = kernel.sys.fork(init)
    kernel.procs.context_switch(child)
    kernel.sys.exit(child)
    kernel.procs.context_switch(init)
    kernel.sys.wait(init)
    print(f"benign workload done: {monitor.event_count} MBM events seen, "
          f"{len(monitor.alerts)} alerts")

    # 2. A legitimate, announced credential change.
    kernel.sys.setuid(init, 1000)
    print(f"setuid(1000) done:    {monitor.event_count} events, "
          f"{len(monitor.alerts)} alerts (announced update)")

    # 3. The exploit: an arbitrary kernel write sets euid back to root.
    euid_kva = kernel.linear_map.kva(
        init.cred_pa + CRED.field("euid").byte_offset
    )
    kernel.cpu.write(euid_kva, 0)
    print(f"exploit write done:   {monitor.event_count} events, "
          f"{len(monitor.alerts)} alerts")
    for alert in monitor.alerts:
        print(f"  ALERT: {alert.reason} at {alert.addr:#x} "
              f"(observed {alert.observed}, expected {alert.expected})")

    metrics = collect_metrics(system)
    print("\nsystem counters:", {
        "cycles": metrics.sim_cycles,
        "hypercalls": metrics.counter("cpu", "hvc"),
        "trapped_msr": metrics.counter("cpu", "trapped_msr"),
        "mbm_events": int(metrics.gauges["events_detected"]),
    })
    assert monitor.alerts, "the exploit should have been detected"
    print("\nOK: the unauthorized credential change was detected.")


if __name__ == "__main__":
    main()
