"""Simulated flat physical address space with tagged memory.

One byte store per address, one validity tag per 16-byte granule, and a
region table that routes MMIO ranges to device models. Every access costs
virtual nanoseconds on the space's clock. The space is also the only
source of tagged root capabilities: :class:`RootAuthority` is created
together with the space and is meant to be handed to the kernel module
and nobody else.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass
from typing import Optional, Protocol

from .capability import (
    LOAD_CAP_MASK,
    READ_MASK,
    STORE_CAP_MASK,
    WRITE_MASK,
    CapFault,
    Capability,
    FaultKind,
    Perm,
    check_access,
    null_capability,
)

GRANULE = 16  # bytes covered by one capability tag

DATA_WIDTHS = (1, 2, 4, 8)


class MmioDevice(Protocol):
    def mmio_read(self, space: "PhysSpace", offset: int, width: int) -> int: ...

    def mmio_write(self, space: "PhysSpace", offset: int, width: int, value: int) -> None: ...


@dataclass
class AccessCostTable:
    """Virtual-time charges, in nanoseconds. Only defaults live here; every
    field is overridable from the CLI."""

    ram_access_ns: float = 10.0
    mmio_access_ns: float = 250.0
    copy_per_byte_ns: float = 0.25
    # One kernel entry or exit: 450 cycles at a 2.5 GHz clock.
    syscall_ns: float = 180.0


@dataclass
class Region:
    base: int
    length: int
    device: Optional[MmioDevice] = None  # None -> plain RAM
    name: str = ""

    @property
    def top(self) -> int:
        return self.base + self.length

    @property
    def is_ram(self) -> bool:
        return self.device is None


class PhysSpace:
    """Flat simulated physical memory, single-owner, serialized access."""

    def __init__(self, size: int, costs: Optional[AccessCostTable] = None):
        self.size = size
        # An anonymous mapping: the OS zero-fills pages only as they are
        # touched, and a space's memory never passes through the malloc heap,
        # so building and dropping a machine costs the same every time
        # instead of depending on when the heap last gave memory back.
        self.data = mmap.mmap(-1, size)
        self.tags = bytearray((size + GRANULE - 1) // GRANULE)
        self.regions: list[Region] = []
        self._last_region: Optional[Region] = None  # region_for's last answer
        self.clock: float = 0.0
        self.costs = costs or AccessCostTable()
        # Full capability values per tagged granule; exact bounds do not
        # fit in 16 bytes, so the granule bytes carry only cursor+base.
        self._cap_shadow: dict[int, Capability] = {}

    @classmethod
    def create(cls, size: int, costs: Optional[AccessCostTable] = None
               ) -> tuple["PhysSpace", "RootAuthority"]:
        """Build a space plus the one handle that can mint root capabilities."""
        space = cls(size, costs)
        return space, RootAuthority(space)

    # -- layout ----------------------------------------------------------

    def add_region(self, base: int, length: int, device: Optional[MmioDevice] = None,
                   name: str = "") -> Region:
        if base < 0 or base + length > self.size:
            raise ValueError(f"region [{base:#x},{base + length:#x}) outside space")
        for r in self.regions:
            if base < r.top and r.base < base + length:
                raise ValueError(f"region overlaps existing {r.name or hex(r.base)}")
        region = Region(base, length, device, name)
        self.regions.append(region)
        self.regions.sort(key=lambda r: r.base)
        return region

    def region_for(self, addr: int, width: int) -> Region:
        # Accesses cluster (mostly RAM, now and then the BAR), so the region
        # found last time answers most lookups without a scan.
        r = self._last_region
        if r is not None and r.base <= addr and addr + width <= r.base + r.length:
            return r
        for r in self.regions:
            if r.base <= addr and addr + width <= r.base + r.length:
                self._last_region = r
                return r
        raise ValueError(f"access [{addr:#x},{addr + width:#x}) maps to no single region")

    # -- clock -----------------------------------------------------------

    def advance(self, ns: float) -> None:
        if ns < 0:
            raise ValueError("clock cannot run backwards")
        self.clock += ns

    def advance_to(self, t: float) -> None:
        if t > self.clock:
            self.clock = t

    # -- tag bookkeeping ---------------------------------------------------

    def _clear_tags(self, addr: int, width: int) -> None:
        # Only cap_store sets a tag, and it always records a shadow, so with
        # no shadows every tag is already clear.
        if not self._cap_shadow:
            return
        first = addr // GRANULE
        end = (addr + width - 1) // GRANULE + 1
        self.tags[first:end] = bytes(end - first)

    # -- checked data access ----------------------------------------------

    def load(self, cap: Capability, width: int) -> int:
        if width not in DATA_WIDTHS:
            raise CapFault(FaultKind.ALIGNMENT_FAULT, cap.cursor, f"bad access width {width}")
        check_access(cap, width, READ_MASK)
        cursor = cap.cursor
        region = self.region_for(cursor, width)
        device = region.device
        if device is None:
            self.advance(self.costs.ram_access_ns)
            return int.from_bytes(self.data[cursor:cursor + width], "little")
        self.advance(self.costs.mmio_access_ns)
        return device.mmio_read(self, cursor - region.base, width)

    def store(self, cap: Capability, width: int, value: int) -> None:
        if width not in DATA_WIDTHS:
            raise CapFault(FaultKind.ALIGNMENT_FAULT, cap.cursor, f"bad access width {width}")
        check_access(cap, width, WRITE_MASK)
        cursor = cap.cursor
        region = self.region_for(cursor, width)
        device = region.device
        if device is None:
            self.advance(self.costs.ram_access_ns)
            self.data[cursor:cursor + width] = value.to_bytes(width, "little")
            self._clear_tags(cursor, width)
        else:
            self.advance(self.costs.mmio_access_ns)
            device.mmio_write(self, cursor - region.base, width, value)

    # -- bulk data copies (RAM only) ----------------------------------------

    def load_bytes(self, cap: Capability, count: int) -> bytes:
        check_access(cap, count, READ_MASK)
        region = self.region_for(cap.cursor, max(count, 1))
        if not region.is_ram:
            raise ValueError("bulk loads are RAM-only")
        self.advance(self.costs.copy_per_byte_ns * count)
        return bytes(self.data[cap.cursor:cap.cursor + count])

    def store_bytes(self, cap: Capability, payload: bytes) -> None:
        count = len(payload)
        check_access(cap, count, WRITE_MASK)
        region = self.region_for(cap.cursor, max(count, 1))
        if not region.is_ram:
            raise ValueError("bulk stores are RAM-only")
        self.advance(self.costs.copy_per_byte_ns * count)
        self.data[cap.cursor:cap.cursor + count] = payload
        if count:
            self._clear_tags(cap.cursor, count)

    # -- capability-sized access --------------------------------------------

    def cap_store(self, cap: Capability, value: Capability) -> None:
        if cap.cursor % GRANULE != 0:
            raise CapFault(FaultKind.ALIGNMENT_FAULT, cap.cursor,
                           "capability store needs 16-byte alignment")
        check_access(cap, GRANULE, STORE_CAP_MASK)
        region = self.region_for(cap.cursor, GRANULE)
        if not region.is_ram:
            raise ValueError("capability stores are RAM-only")
        self.advance(self.costs.ram_access_ns)
        g = cap.cursor // GRANULE
        self.data[cap.cursor:cap.cursor + 8] = (value.cursor % (1 << 64)).to_bytes(8, "little")
        self.data[cap.cursor + 8:cap.cursor + 16] = (value.base % (1 << 64)).to_bytes(8, "little")
        self._cap_shadow[g] = value
        self.tags[g] = 1 if value.tag else 0

    def cap_load(self, cap: Capability) -> Capability:
        if cap.cursor % GRANULE != 0:
            raise CapFault(FaultKind.ALIGNMENT_FAULT, cap.cursor,
                           "capability load needs 16-byte alignment")
        check_access(cap, GRANULE, LOAD_CAP_MASK)
        region = self.region_for(cap.cursor, GRANULE)
        if not region.is_ram:
            raise ValueError("capability loads are RAM-only")
        self.advance(self.costs.ram_access_ns)
        g = cap.cursor // GRANULE
        shadow = self._cap_shadow.get(g)
        if shadow is None:
            return null_capability(int.from_bytes(self.data[cap.cursor:cap.cursor + 8], "little"))
        tag = bool(self.tags[g]) and shadow.tag
        return Capability(shadow.base, shadow.length, shadow.cursor, shadow.perms, tag,
                          shadow.otype)

    # -- device-side DMA (no capability in the loop; the device is hardware) --

    def dma_read(self, addr: int, count: int) -> bytes:
        region = self.region_for(addr, max(count, 1))
        if not region.is_ram:
            raise ValueError("DMA targets RAM")
        return bytes(self.data[addr:addr + count])

    def dma_write(self, addr: int, payload: bytes) -> None:
        region = self.region_for(addr, max(len(payload), 1))
        if not region.is_ram:
            raise ValueError("DMA targets RAM")
        self.data[addr:addr + len(payload)] = payload
        if payload:
            self._clear_tags(addr, len(payload))


class RootAuthority:
    """The tag mint. Handed to the kernel module at machine construction;
    every tagged capability in the system descends from one of its roots."""

    def __init__(self, space: PhysSpace):
        self._space = space

    def issue_root(self, base: int, length: int, perms: Perm) -> Capability:
        # Zero-length roots are legal (every dereference through them faults)
        # but must still point into exactly one region.
        self._space.region_for(base, max(length, 1))
        return Capability(base, length, base, perms, True)
