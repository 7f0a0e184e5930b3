"""Slab allocator for fixed-size kernel objects.

Objects are carved out of whole pages obtained from the page allocator,
as in Linux's SLUB: a ``cred`` slab page holds many cred objects, which
is exactly why page-granularity write monitoring of such objects is so
noisy and why the MBM's word granularity pays off (paper sections 1 and
7.2).

Allocation/free events are published on the kernel's object hooks so
security applications can register/unregister monitored regions, which
models the paper's "hooks inserted into the kernel code" (section 5.3).
"""

from __future__ import annotations

from typing import Dict, List, Set, TYPE_CHECKING

from repro.config import PAGE_BYTES
from repro.errors import AllocationError
from repro.kernel.objects import ObjectLayout
from repro.utils.stats import StatSet

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel


class SlabCache:
    """A cache of equally sized objects of one :class:`ObjectLayout`."""

    def __init__(self, kernel: "Kernel", layout: ObjectLayout):
        if layout.size_bytes > PAGE_BYTES:
            raise AllocationError(f"{layout.name} objects exceed a page")
        self.kernel = kernel
        self.layout = layout
        self.objects_per_page = PAGE_BYTES // layout.size_bytes
        self._free: List[int] = []
        self._live: Set[int] = set()
        self.pages: Set[int] = set()
        self.stats = StatSet(f"slab.{layout.name}")

    def _grow(self) -> None:
        page = self.kernel.alloc_page(f"slab.{self.layout.name}")
        self.pages.add(page)
        self.stats.add("pages")
        for index in range(self.objects_per_page):
            self._free.append(page + index * self.layout.size_bytes)

    def alloc(self) -> int:
        """Allocate one object; fires the kernel's ``object_alloc`` hook
        *before* returning so monitors see the initialization writes."""
        if not self._free:
            self._grow()
        paddr = self._free.pop()
        self._live.add(paddr)
        self.stats.add("allocs")
        self.kernel.cpu.compute(self.kernel.op_costs.slab_alloc)
        self.kernel.object_alloc.fire(self.layout, paddr)
        return paddr

    def free(self, paddr: int) -> None:
        """Free one object; fires the ``object_free`` hook first."""
        if paddr not in self._live:
            raise AllocationError(
                f"freeing {self.layout.name} object not live at {paddr:#x}"
            )
        self.kernel.object_free.fire(self.layout, paddr)
        self._live.remove(paddr)
        self._free.append(paddr)
        self.stats.add("frees")
        self.kernel.cpu.compute(self.kernel.op_costs.slab_free)

    @property
    def live_objects(self) -> int:
        return len(self._live)


class SlabRegistry:
    """All slab caches of a kernel, keyed by layout name."""

    def __init__(self, kernel: "Kernel"):
        self._kernel = kernel
        self._caches: Dict[str, SlabCache] = {}

    def cache(self, layout: ObjectLayout) -> SlabCache:
        if layout.name not in self._caches:
            self._caches[layout.name] = SlabCache(self._kernel, layout)
        return self._caches[layout.name]

    def __getitem__(self, name: str) -> SlabCache:
        return self._caches[name]

    def __contains__(self, name: str) -> bool:
        return name in self._caches
