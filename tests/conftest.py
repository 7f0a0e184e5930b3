"""Shared fixtures: small, fast system configurations."""

import pytest

from repro.config import PlatformConfig
from repro.core.hypernel import build_hypernel, build_kvm_guest, build_native
from repro.kernel.kernel import KernelConfig
from repro.security import CredIntegrityMonitor, DentryIntegrityMonitor


def small_platform_config() -> PlatformConfig:
    return PlatformConfig(
        dram_bytes=64 * 1024 * 1024,
        secure_bytes=8 * 1024 * 1024,
    )


@pytest.fixture
def selftest_kind(monkeypatch):
    """Register the ``selftest`` cell kind (``tests.helpers``) with the
    runner for one test.

    Pool workers see the registration because they start by ``fork``,
    the default start method on Linux, and so inherit this process's
    ``KIND_EXECUTORS``; a ``spawn``ed worker would not.
    """
    from repro.tools import runner

    monkeypatch.setitem(runner.KIND_EXECUTORS, "selftest",
                        "tests.helpers:execute_selftest_cell")


@pytest.fixture
def pool_sizes(monkeypatch):
    """The worker count of every pool the runner builds, in order."""
    from repro.tools import runner

    pools = []
    real_factory = runner._default_executor_factory
    monkeypatch.setattr(runner, "_default_executor_factory",
                        lambda jobs: pools.append(jobs) or real_factory(jobs))
    return pools


@pytest.fixture
def platform_config():
    return small_platform_config()


@pytest.fixture
def native_system():
    return build_native(platform_config=small_platform_config())


@pytest.fixture
def native_page_system():
    """Native kernel with the 4 KB linear map (for ATRA-style PTE work)."""
    return build_native(
        platform_config=small_platform_config(),
        kernel_config=KernelConfig(linear_map_mode="page"),
    )


@pytest.fixture
def kvm_system():
    return build_kvm_guest(platform_config=small_platform_config())


@pytest.fixture
def hypernel_system():
    """Hypernel with Hypersec only (the paper's 7.1 configuration)."""
    return build_hypernel(
        platform_config=small_platform_config(), with_mbm=False
    )


@pytest.fixture
def monitored_system():
    """Hypernel with MBM + the two word-granularity monitors (7.2)."""
    return build_hypernel(
        platform_config=small_platform_config(),
        monitors=[CredIntegrityMonitor(), DentryIntegrityMonitor()],
    )
