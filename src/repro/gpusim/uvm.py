"""Unified Virtual Memory (UVM) simulation: pages, faults, migration, prefetch.

NVIDIA's UVM exposes a single address space shared by CPU and GPU; pages
migrate on demand when the GPU faults on a non-resident address, and the pool
can be *oversubscribed* — the managed footprint may exceed device capacity, in
which case resident pages must be evicted to make room.  Section V-C of the
paper builds a UVM prefetching tool on top of PASTA and compares object-level
and tensor-level prefetch granularities under no oversubscription (Figure 11)
and 3x oversubscription (Figure 12).

This module provides the substrate those experiments run on:

* a page-granular residency map over managed allocations,
* a fault-driven migration path with per-fault latency plus transfer time,
* a batched prefetch path (``cudaMemPrefetchAsync``-like) that skips fault
  handling and partially overlaps with compute,
* an LRU eviction policy with optional pinning (``cudaMemAdvise``), and
* counters for faults, migrations, evictions and thrashing that tools consume.

Timing constants follow published UVM measurements in spirit (tens of
microseconds per fault group, PCIe-bound transfers); tests assert relative
behaviour, not absolute times.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.errors import UvmError
from repro.gpusim.device import GpuDevice, MiB

#: UVM migrates data in 2 MiB blocks on modern GPUs; the paper's hotness tool
#: also uses 2 MB blocks (Figure 13), so this is the page granularity.
UVM_PAGE_BYTES = 2 * MiB


@dataclass(frozen=True)
class UvmConfig:
    """Timing and policy constants of the UVM model."""

    page_bytes: int = UVM_PAGE_BYTES
    #: Fixed cost of servicing one GPU page-fault group (driver round trip).
    fault_latency_ns: float = 25_000.0
    #: Fraction of prefetch transfer time hidden behind compute.  Prefetches
    #: are issued ahead of the kernel on a separate stream, so most of their
    #: transfer overlaps with useful work — as long as device memory is not
    #: under pressure.
    prefetch_overlap: float = 0.85
    #: Overlap achieved when a prefetch has to evict resident pages to make
    #: room: the prefetch stream then contends with eviction write-backs and
    #: demand migrations, so very little of it hides behind compute.  This is
    #: the mechanism behind the object-level prefetch slowdown in Figure 12.
    prefetch_overlap_under_pressure: float = 0.2
    #: Fraction of eviction write-back time hidden behind compute.
    eviction_overlap: float = 0.5
    #: Probability-like fraction of evicted-and-refaulted pages that are dirty
    #: and must be written back before reuse.
    dirty_fraction: float = 0.5


@dataclass
class UvmStats:
    """Counters accumulated by the UVM manager."""

    page_faults: int = 0
    pages_migrated_on_fault: int = 0
    pages_prefetched: int = 0
    pages_evicted: int = 0
    refaults: int = 0
    fault_time_ns: float = 0.0
    migration_time_ns: float = 0.0
    prefetch_time_ns: float = 0.0
    eviction_time_ns: float = 0.0

    def snapshot(self) -> dict[str, float]:
        """Plain-dict copy for reports."""
        return {
            "page_faults": self.page_faults,
            "pages_migrated_on_fault": self.pages_migrated_on_fault,
            "pages_prefetched": self.pages_prefetched,
            "pages_evicted": self.pages_evicted,
            "refaults": self.refaults,
            "fault_time_ns": self.fault_time_ns,
            "migration_time_ns": self.migration_time_ns,
            "prefetch_time_ns": self.prefetch_time_ns,
            "eviction_time_ns": self.eviction_time_ns,
        }


@dataclass
class ManagedRegion:
    """One managed allocation registered with the UVM manager."""

    address: int
    size: int
    label: str = ""

    @property
    def end(self) -> int:
        """One past the last address of the region."""
        return self.address + self.size

    def contains(self, address: int) -> bool:
        """True if ``address`` lies inside the region."""
        return self.address <= address < self.end


class UvmManager:
    """Page-granular residency manager for one device's managed memory."""

    def __init__(
        self,
        device: GpuDevice,
        device_capacity_bytes: Optional[int] = None,
        config: Optional[UvmConfig] = None,
    ) -> None:
        self.device = device
        self.config = config or UvmConfig()
        #: Device bytes available for managed pages.  The paper limits this to
        #: control the oversubscription factor; tests do the same.
        self.device_capacity_bytes = (
            device.usable_memory_bytes if device_capacity_bytes is None else int(device_capacity_bytes)
        )
        if self.device_capacity_bytes <= 0:
            raise UvmError("device capacity for managed memory must be positive")
        self._regions: list[ManagedRegion] = []
        #: page id -> True, ordered by recency (LRU at the front).
        self._resident: "OrderedDict[int, bool]" = OrderedDict()
        self._pinned: set[int] = set()
        self._ever_evicted: set[int] = set()
        self.stats = UvmStats()

    # ------------------------------------------------------------------ #
    # region registration
    # ------------------------------------------------------------------ #
    def register_region(self, address: int, size: int, label: str = "") -> ManagedRegion:
        """Register a managed allocation so its pages can fault/migrate."""
        if size <= 0:
            raise UvmError("managed region size must be positive")
        region = ManagedRegion(address=address, size=size, label=label)
        self._regions.append(region)
        return region

    def unregister_region(self, region: ManagedRegion) -> None:
        """Remove a region and drop residency of its pages."""
        try:
            self._regions.remove(region)
        except ValueError:
            raise UvmError("region was not registered") from None
        for page in self._pages_in_range(region.address, region.size):
            self._resident.pop(page, None)
            self._pinned.discard(page)

    @property
    def managed_bytes(self) -> int:
        """Total bytes of registered managed memory."""
        return sum(r.size for r in self._regions)

    def is_managed_address(self, address: int) -> bool:
        """True if ``address`` falls inside any registered managed region."""
        return any(region.contains(address) for region in self._regions)

    @property
    def oversubscription_factor(self) -> float:
        """Managed footprint divided by device capacity."""
        if self.device_capacity_bytes == 0:
            return float("inf")
        return self.managed_bytes / self.device_capacity_bytes

    # ------------------------------------------------------------------ #
    # page helpers
    # ------------------------------------------------------------------ #
    def page_id(self, address: int) -> int:
        """Page index containing ``address``."""
        return address // self.config.page_bytes

    def _pages_in_range(self, address: int, size: int) -> range:
        if size <= 0:
            return range(0)
        first = self.page_id(address)
        last = self.page_id(address + size - 1)
        return range(first, last + 1)

    @property
    def resident_pages(self) -> int:
        """Number of pages currently resident on the device."""
        return len(self._resident)

    @property
    def capacity_pages(self) -> int:
        """How many managed pages fit on the device at once."""
        return max(1, self.device_capacity_bytes // self.config.page_bytes)

    def is_resident(self, address: int) -> bool:
        """True if the page containing ``address`` is resident on the device."""
        return self.page_id(address) in self._resident

    def _transfer_ns(self, nbytes: float) -> float:
        bandwidth = self.device.spec.pcie_bandwidth_gbs * 1e9
        return nbytes / bandwidth * 1e9

    # ------------------------------------------------------------------ #
    # residency transitions
    # ------------------------------------------------------------------ #
    def _make_room(self, pages_needed: int) -> float:
        """Evict LRU pages until ``pages_needed`` fit; returns eviction time."""
        eviction_ns = 0.0
        while self.resident_pages + pages_needed > self.capacity_pages:
            victim = self._pop_lru_victim()
            if victim is None:
                # Everything resident is pinned; the new pages simply cannot
                # all fit, so stop evicting and let the caller thrash.
                break
            self._ever_evicted.add(victim)
            self.stats.pages_evicted += 1
            writeback = self.config.page_bytes * self.config.dirty_fraction
            eviction_ns += self._transfer_ns(writeback) * (1.0 - self.config.eviction_overlap)
        self.stats.eviction_time_ns += eviction_ns
        return eviction_ns

    def _pop_lru_victim(self) -> Optional[int]:
        for page in self._resident:
            if page not in self._pinned:
                del self._resident[page]
                return page
        return None

    def _enforce_capacity(self) -> float:
        """Evict LRU pages until residency fits the device again.

        Needed when a single access or prefetch range is larger than the
        device's managed capacity: the pages stream through the device, and
        only the most recently touched ones stay resident.
        """
        eviction_ns = 0.0
        while self.resident_pages > self.capacity_pages:
            victim = self._pop_lru_victim()
            if victim is None:
                break
            self._ever_evicted.add(victim)
            self.stats.pages_evicted += 1
            writeback = self.config.page_bytes * self.config.dirty_fraction
            eviction_ns += self._transfer_ns(writeback) * (1.0 - self.config.eviction_overlap)
        self.stats.eviction_time_ns += eviction_ns
        return eviction_ns

    def _touch(self, page: int) -> None:
        self._resident.pop(page, None)
        self._resident[page] = True

    # ------------------------------------------------------------------ #
    # public operations
    # ------------------------------------------------------------------ #
    def access_range(self, address: int, size: int) -> float:
        """Simulate the GPU touching ``[address, address+size)`` during a kernel.

        Non-resident pages fault and migrate on demand; faults on previously
        evicted pages are counted as *refaults* (the thrashing signal).
        Returns the time in nanoseconds this access charges to the kernel's
        critical path.
        """
        pages = list(self._pages_in_range(address, size))
        if not pages:
            return 0.0
        missing = [p for p in pages if p not in self._resident]
        elapsed = 0.0
        if missing:
            elapsed += self._make_room(len(missing))
            # Faults are serviced in groups (the driver coalesces neighbouring
            # faults); charge one latency per group of up to 16 pages.
            groups = (len(missing) + 15) // 16
            fault_ns = groups * self.config.fault_latency_ns
            migrate_ns = self._transfer_ns(len(missing) * self.config.page_bytes)
            self.stats.page_faults += groups
            self.stats.pages_migrated_on_fault += len(missing)
            self.stats.refaults += sum(1 for p in missing if p in self._ever_evicted)
            self.stats.fault_time_ns += fault_ns
            self.stats.migration_time_ns += migrate_ns
            elapsed += fault_ns + migrate_ns
            for page in missing:
                self._resident[page] = True
        for page in pages:
            self._touch(page)
        elapsed += self._enforce_capacity()
        return elapsed

    def prefetch_range(self, address: int, size: int) -> float:
        """Simulate ``cudaMemPrefetchAsync`` over ``[address, address+size)``.

        Returns the non-overlapped time charged to the critical path.  Already
        resident pages cost nothing.
        """
        pages = [p for p in self._pages_in_range(address, size) if p not in self._resident]
        if not pages:
            return 0.0
        evicted_before = self.stats.pages_evicted
        elapsed = self._make_room(len(pages))
        under_pressure = self.stats.pages_evicted > evicted_before
        overlap = (
            self.config.prefetch_overlap_under_pressure
            if under_pressure
            else self.config.prefetch_overlap
        )
        transfer_ns = self._transfer_ns(len(pages) * self.config.page_bytes)
        visible_ns = transfer_ns * (1.0 - overlap)
        self.stats.pages_prefetched += len(pages)
        self.stats.prefetch_time_ns += visible_ns
        for page in pages:
            self._resident[page] = True
            self._touch(page)
        return elapsed + visible_ns + self._enforce_capacity()

    def advise_pin(self, address: int, size: int) -> None:
        """Pin pages on the device (``cudaMemAdvise`` preferred-location style)."""
        for page in self._pages_in_range(address, size):
            self._pinned.add(page)

    def advise_unpin(self, address: int, size: int) -> None:
        """Remove the pin hint from pages."""
        for page in self._pages_in_range(address, size):
            self._pinned.discard(page)

    def evict_range(self, address: int, size: int) -> float:
        """Proactively evict pages (the pre-eviction half of a prefetch policy)."""
        elapsed = 0.0
        for page in self._pages_in_range(address, size):
            if page in self._resident and page not in self._pinned:
                del self._resident[page]
                self._ever_evicted.add(page)
                self.stats.pages_evicted += 1
                writeback = self.config.page_bytes * self.config.dirty_fraction
                cost = self._transfer_ns(writeback) * (1.0 - self.config.eviction_overlap)
                self.stats.eviction_time_ns += cost
                elapsed += cost
        return elapsed

    def reset_residency(self) -> None:
        """Drop all residency and statistics (used between experiment runs)."""
        self._resident.clear()
        self._pinned.clear()
        self._ever_evicted.clear()
        self.stats = UvmStats()

    def resident_bytes(self) -> int:
        """Bytes of managed memory currently resident on the device."""
        return self.resident_pages * self.config.page_bytes

    def pages_for_ranges(self, ranges: Iterable[tuple[int, int]]) -> set[int]:
        """Distinct page ids covering all ``(address, size)`` ranges."""
        pages: set[int] = set()
        for address, size in ranges:
            pages.update(self._pages_in_range(address, size))
        return pages
