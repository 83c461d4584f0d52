"""Simulated flat physical address space with tagged memory.

One byte store per address, one validity tag per 16-byte granule, and a
map of one RAM region and one device region, whose range routes to its
device model. Every access costs virtual nanoseconds on the space's clock.
The space is also the only source of tagged root capabilities:
:class:`RootAuthority` is created together with the space and is meant to
be handed to the kernel module and nobody else.
"""

from __future__ import annotations

import math
import mmap
import struct
from dataclasses import dataclass, fields
from operator import index as _integer
from typing import NoReturn, Optional, Protocol

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

# Per data width, a precompiled little-endian word codec. `store` also
# takes the first value too large for the word.
_CODECS = {width: struct.Struct(f"<{code}") for width, code in zip(DATA_WIDTHS, "BHIQ")}
_UNPACK = {width: codec.unpack_from for width, codec in _CODECS.items()}
_PACK = {width: (codec.pack_into, 1 << 8 * width) for width, codec in _CODECS.items()}


def _unmapped(addr: int, width: int) -> ValueError:
    return ValueError(f"access [{addr:#x},{addr + width:#x}) maps to no single region")


class MmioDevice(Protocol):
    def mmio_read(self, space: "PhysSpace", offset: int, width: int) -> int: ...

    def mmio_write(self, space: "PhysSpace", offset: int, width: int, value: int) -> None: ...


@dataclass(frozen=True)
class AccessCostTable:
    """Virtual-time charges, in nanoseconds. Only defaults live here; every
    field is overridable from the CLI. Frozen, because a space checks its
    table once, when it is built, and then charges it without a check."""

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


class PhysSpace:
    """Flat simulated physical memory, single-owner, serialized access. Its
    map is one RAM and one device region, whose bounds every access tests."""

    def __init__(self, size: int, costs: Optional[AccessCostTable] = None):
        self.size = size
        # An anonymous mapping: the OS zero-fills pages only as they are
        # touched, and a space's memory never passes through the malloc heap,
        # so building and dropping a machine costs the same every time
        # instead of depending on when the heap last gave memory back.
        self.data = mmap.mmap(-1, size)
        self.tags = bytearray((size + GRANULE - 1) // GRANULE)
        # Set by add_region alone. An absent region's [0, -1) holds no range.
        self.ram_region: Optional[Region] = None
        self.device_region: Optional[Region] = None
        self._ram_lo, self._ram_hi = 0, -1
        self._dev_lo, self._dev_hi = 0, -1
        self.clock: float = 0.0
        self.costs = costs or AccessCostTable()
        # The accessors add costs to the clock directly, past advance's check.
        for f in fields(self.costs):
            value = getattr(self.costs, f.name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{f.name} must be a finite non-negative number,"
                                 f" got {value!r}")
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
        """Add the space's one RAM region (`device` None) or its one device
        region; any other region is refused with ValueError, unrecorded."""
        ram = device is None
        if (self.ram_region if ram else self.device_region) is not None:
            raise ValueError(f"space already has a {'RAM' if ram else 'device'} region")
        if base < 0 or base + length > self.size:
            raise ValueError(f"region [{base:#x},{base + length:#x}) outside space")
        for r in (self.ram_region, self.device_region):
            if r is not None and base < r.top and r.base < base + length:
                raise ValueError(f"region overlaps existing {r.name or hex(r.base)}")
        region = Region(base, length, device, name)
        if ram:
            self.ram_region, self._ram_lo, self._ram_hi = region, base, region.top
        else:
            self.device_region, self._dev_lo, self._dev_hi = region, base, region.top
        return region

    def region_for(self, addr: int, width: int) -> Region:
        """The region holding [addr, addr + width): RAM first, so an empty range
        at the seam of RAM and the device is RAM, as a RAM-only access needs."""
        if self._ram_lo <= addr and addr + width <= self._ram_hi:
            return self.ram_region
        if self._dev_lo <= addr and addr + width <= self._dev_hi:
            return self.device_region
        raise _unmapped(addr, width)

    def _refuse(self, addr: int, count: int, refusal: str) -> NoReturn:
        """Refuse a RAM-only range outside RAM: as region_for does, else with `refusal`."""
        self.region_for(addr, count)
        raise ValueError(refusal)

    # -- clock -----------------------------------------------------------

    def advance(self, ns: float) -> None:
        if ns < 0:
            raise ValueError("clock cannot run backwards")
        self.clock += ns

    def advance_to(self, t: float) -> None:
        if t > self.clock:
            self.clock = t

    # -- tag bookkeeping ---------------------------------------------------

    # Only cap_store sets a tag, and it always records a shadow, so with no
    # shadows every tag is already clear: callers skip this call then.
    def _clear_tags(self, addr: int, width: int) -> None:
        first = addr // GRANULE
        end = (addr + width - 1) // GRANULE + 1
        self.tags[first:end] = bytes(end - first)

    # -- checked data access ----------------------------------------------
    # `offset` is CHERI's immediate offset (see check_access): load and
    # store touch cap.cursor + offset without deriving a new capability.

    def load(self, cap: Capability, width: int, offset: int = 0) -> int:
        addr = cap.cursor + offset
        unpack = _UNPACK.get(width)
        if unpack is None:
            raise CapFault(FaultKind.ALIGNMENT_FAULT, addr, f"bad access width {width}")
        check_access(cap, width, READ_MASK, offset)
        if self._ram_lo <= addr and addr + width <= self._ram_hi:
            self.clock += self.costs.ram_access_ns
            return unpack(self.data, addr)[0]
        if self._dev_lo <= addr and addr + width <= self._dev_hi:
            self.clock += self.costs.mmio_access_ns
            return self.device_region.device.mmio_read(self, addr - self._dev_lo, width)
        raise _unmapped(addr, width)

    def store(self, cap: Capability, width: int, value: int, offset: int = 0) -> None:
        """Store `value`, which must be an integer that fits the word:
        0 <= value < 2**(8*width).

        After the capability check and before any charge, RAM write or
        device call, a value that is not an integer (what ``operator.index``
        refuses) is refused with TypeError, and one outside that range with
        ValueError. A bool is stored as the int it equals."""
        addr = cap.cursor + offset
        word = _PACK.get(width)
        if word is None:
            raise CapFault(FaultKind.ALIGNMENT_FAULT, addr, f"bad access width {width}")
        check_access(cap, width, WRITE_MASK, offset)
        value = _integer(value)
        pack, end = word
        if not 0 <= value < end:
            raise ValueError(f"value {value:#x} does not fit {width} bytes")
        if self._ram_lo <= addr and addr + width <= self._ram_hi:
            pack(self.data, addr, value)
            self.clock += self.costs.ram_access_ns
            if self._cap_shadow:
                self._clear_tags(addr, width)
        elif self._dev_lo <= addr and addr + width <= self._dev_hi:
            self.clock += self.costs.mmio_access_ns
            self.device_region.device.mmio_write(self, addr - self._dev_lo, width, value)
        else:
            raise _unmapped(addr, width)

    def store_words(self, cap: Capability, width: int, payload: bytes, offset: int = 0) -> None:
        """Store `payload` as consecutive little-endian `width`-byte RAM words
        from cap.cursor + offset: the `store` of each word, made as one write.

        A bad width, then a payload that is not whole words, is refused before
        any check. Every word then passes `check_access` before any byte is
        written or charged, so a run faults as its first faulting word's
        `store` would, with no effect; a run that is not RAM is refused as
        `store_bytes` refuses one. The clock gains `ram_access_ns` once per
        word, in word order. An empty payload is no access at all."""
        addr = cap.cursor + offset
        if width not in _PACK:
            raise CapFault(FaultKind.ALIGNMENT_FAULT, addr, f"bad access width {width}")
        count = len(payload)
        if count % width:
            raise ValueError(f"{count} bytes are not whole {width}-byte words")
        if not count:
            return
        for at in range(offset, offset + count, width):
            check_access(cap, width, WRITE_MASK, at)
        if addr < self._ram_lo or addr + count > self._ram_hi:
            self._refuse(addr, count, "bulk stores are RAM-only")
        clock, ram_ns = self.clock, self.costs.ram_access_ns
        for _ in range(count // width):
            clock += ram_ns
        self.clock = clock
        self.data[addr:addr + count] = payload
        if self._cap_shadow:
            self._clear_tags(addr, count)

    # -- bulk data copies (RAM only) ----------------------------------------

    def load_bytes(self, cap: Capability, count: int) -> bytes:
        check_access(cap, count, READ_MASK)
        addr = cap.cursor
        if addr < self._ram_lo or addr + count > self._ram_hi:
            self._refuse(addr, count, "bulk loads are RAM-only")
        self.clock += self.costs.copy_per_byte_ns * count  # check_access refused count < 0
        return self.data[addr:addr + count]

    def store_bytes(self, cap: Capability, payload: bytes) -> None:
        count = len(payload)
        check_access(cap, count, WRITE_MASK)
        addr = cap.cursor
        if addr < self._ram_lo or addr + count > self._ram_hi:
            self._refuse(addr, count, "bulk stores are RAM-only")
        self.clock += self.costs.copy_per_byte_ns * count
        self.data[addr:addr + count] = payload
        if count and self._cap_shadow:
            self._clear_tags(addr, count)

    # -- capability-sized access --------------------------------------------

    def cap_store(self, cap: Capability, value: Capability) -> None:
        if cap.cursor % GRANULE != 0:
            raise CapFault(FaultKind.ALIGNMENT_FAULT, cap.cursor,
                           "capability store needs 16-byte alignment")
        check_access(cap, GRANULE, STORE_CAP_MASK)
        addr = cap.cursor
        if addr < self._ram_lo or addr + GRANULE > self._ram_hi:
            self._refuse(addr, GRANULE, "capability stores are RAM-only")
        self.clock += self.costs.ram_access_ns
        g = addr // GRANULE
        self.data[addr:addr + 8] = (value.cursor % (1 << 64)).to_bytes(8, "little")
        self.data[addr + 8:addr + 16] = (value.base % (1 << 64)).to_bytes(8, "little")
        self._cap_shadow[g] = value
        self.tags[g] = 1 if value.tag else 0

    def cap_load(self, cap: Capability) -> Capability:
        if cap.cursor % GRANULE != 0:
            raise CapFault(FaultKind.ALIGNMENT_FAULT, cap.cursor,
                           "capability load needs 16-byte alignment")
        check_access(cap, GRANULE, LOAD_CAP_MASK)
        addr = cap.cursor
        if addr < self._ram_lo or addr + GRANULE > self._ram_hi:
            self._refuse(addr, GRANULE, "capability loads are RAM-only")
        self.clock += self.costs.ram_access_ns
        g = addr // GRANULE
        if self.tags[g]:
            return self._cap_shadow[g]
        return null_capability(int.from_bytes(self.data[addr:addr + 8], "little"))

    # -- device-side DMA (no capability in the loop; the device is hardware) --

    def dma_read(self, addr: int, count: int) -> bytes:
        if count < 0:
            raise ValueError(f"DMA of {count} bytes")
        if addr < self._ram_lo or addr + count > self._ram_hi:
            self._refuse(addr, count, "DMA targets RAM")
        return self.data[addr:addr + count]

    def dma_write(self, addr: int, payload: bytes) -> None:
        count = len(payload)
        if addr < self._ram_lo or addr + count > self._ram_hi:
            self._refuse(addr, count, "DMA targets RAM")
        self.data[addr:addr + count] = payload
        if count and self._cap_shadow:
            self._clear_tags(addr, count)


class RootAuthority:
    """The tag mint. Handed to the kernel module at machine construction;
    every tagged capability in the system descends from one of its roots."""

    def __init__(self, space: PhysSpace):
        self._space = space

    def issue_root(self, base: int, length: int, perms: Perm) -> Capability:
        # Zero-length roots are legal (every dereference through them faults)
        # but must still lie in one region, as an empty copy must.
        self._space.region_for(base, length)
        return Capability(base, length, base, perms, True)
