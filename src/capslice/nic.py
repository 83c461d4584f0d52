"""e1000e-style NIC model: register file, legacy descriptor rings, DMA.

The device is driven purely through MMIO dispatch from the physical
space (capability checks have already happened by the time a register
handler runs) and touches RAM only at addresses read from descriptor
address fields. Frames travel over a :class:`FrameLink` with propagation
delay plus per-byte serialization time.

`REGISTERS` is the one statement of the register map, after the public
Intel 8254x map, so the shipped manifest stays honest to a real part.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Callable, Optional

from .physmem import PhysSpace

# Each register the device decodes, by name: its BAR offset (each is 4 bytes
# wide) and its role, as the Intel 8254x Family Software Developer's Manual has them.
REGISTERS = {
    "CTRL": (0x0000, "control"),
    "STATUS": (0x0008, "status"),
    "ICR": (0x00C0, "interrupt"),
    "IMS": (0x00D0, "interrupt"),
    "RCTL": (0x0100, "enable"),
    "TCTL": (0x0400, "enable"),
    "RDBAL": (0x2800, "dma_target"),
    "RDBAH": (0x2804, "dma_target"),
    "RDLEN": (0x2808, "dma_target"),
    "RDH": (0x2810, "ring_position"),
    "RDT": (0x2818, "doorbell"),
    "TDBAL": (0x3800, "dma_target"),
    "TDBAH": (0x3804, "dma_target"),
    "TDLEN": (0x3808, "dma_target"),
    "TDH": (0x3810, "ring_position"),
    "TDT": (0x3818, "doorbell"),
}
# Hot paths index by these plain ints; they follow the rows in order.
(REG_CTRL, REG_STATUS, REG_ICR, REG_IMS, REG_RCTL, REG_TCTL,
 REG_RDBAL, REG_RDBAH, REG_RDLEN, REG_RDH, REG_RDT,
 REG_TDBAL, REG_TDBAH, REG_TDLEN, REG_TDH, REG_TDT) = (off for off, _ in REGISTERS.values())

DEVICE_NAME = "e1000e"  # the name a BAR manifest's `device` line must give
BAR_LENGTH = 0x20000  # 128 KiB aperture, far past the last register

STATUS_FD = 0x01      # full duplex
STATUS_LU = 0x02      # link up
TCTL_EN = 0x02
RCTL_EN = 0x02

DESC_SIZE = 16
BUF_SIZE = 2048       # bytes per descriptor buffer
DESC_DD = 0x01        # descriptor done, set by device only
DESC_ERR = 0x02       # model's error mark for unusable TX descriptors

# A legacy descriptor as the device reads it: the buffer address at 0, the
# length, bytes 10..11 (TX: CSO and CMD; RX: checksum) and the status byte.
# The device writes back only the status on TX, and length, bytes 10..11 and
# status on RX.
DESC_LENGTH = 8
DESC_CMD = 11
DESC_STATUS = 12
_TX_DESC = struct.Struct("<QH2xB")       # address, length, status
_RX_DESC = struct.Struct("<Q2x2sB")      # address, bytes 10..11, status
_RX_WRITEBACK = struct.Struct("<H2sB")   # length, bytes 10..11, status

TX_CMD_EOP = 0x01
TX_CMD_IFCS = 0x02
TX_CMD_RS = 0x08

# The one frame limit, from the driver's ring engine through the device to the link.
MAX_LINK_FRAME = 1518

# The roles only the kernel may hold. Through a register of any of them a driver
# could repoint the rings' DMA, move or stop a ring, or change interrupt state.
KERNEL_ROLES = ("interrupt", "enable", "dma_target", "ring_position")
PRIVILEGED = tuple(off for off, role in REGISTERS.values() if role in KERNEL_ROLES)

# Software writes every register but STATUS, which reports the link, and the
# interrupt registers: ICR drops a write, and IMS keeps only the bits set in it.
_WRITABLE = frozenset(off for off, role in REGISTERS.values()
                      if role not in ("status", "interrupt"))


class FrameLink:
    """Reliable, ordered, point-to-point cable between two NICs.

    A frame's arrival time is send time + propagation delay + serialization
    time for the frame. The link keeps no frames: each one goes straight to
    `on_transmit`, which schedules its delivery.
    """

    def __init__(self, delay_ns: float = 1000.0, wire_ns_per_byte: float = 8.0):
        # A negative charge would deliver a frame before it was sent.
        for name, value in (("delay_ns", delay_ns), ("wire_ns_per_byte", wire_ns_per_byte)):
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be a finite non-negative number, got {value!r}")
        self.delay_ns = delay_ns
        self.wire_ns_per_byte = wire_ns_per_byte
        self._attached = 0
        # Harness hook: called as (dst_endpoint, arrival_time, frame).
        self.on_transmit: Optional[Callable[[int, float, bytes], None]] = None

    def attach(self) -> int:
        if self._attached >= 2:
            raise ValueError("link already has two endpoints")
        self._attached += 1
        return self._attached - 1

    def transmit(self, src_endpoint: int, frame: bytes, now: float) -> float:
        if len(frame) > MAX_LINK_FRAME:
            raise ValueError(f"frame of {len(frame)} bytes exceeds link maximum")
        arrival = now + self.delay_ns + self.wire_ns_per_byte * len(frame)
        if self.on_transmit is not None:
            self.on_transmit(1 - src_endpoint, arrival, frame)
        return arrival

    def pending(self, endpoint: int) -> int:
        """Frames held for `endpoint`: always 0, since the link holds none.
        Kept because the benchmark's traced run reports it."""
        return 0


@dataclass
class NicCounters:
    tx_frames: int = 0
    rx_frames: int = 0
    rx_dropped: int = 0
    mmio_reads: int = 0
    mmio_writes: int = 0


class NicModel:
    """One e1000e-flavored device instance, registered as an MMIO region."""

    def __init__(self):
        self.regs: dict[int, int] = {off: 0 for off in _WRITABLE}
        self.regs[REG_IMS] = 0
        self.counters = NicCounters()
        self.link: Optional[FrameLink] = None
        self.link_endpoint = -1

    def connect(self, link: FrameLink) -> None:
        self.link = link
        self.link_endpoint = link.attach()

    # -- MMIO dispatch ------------------------------------------------------

    def mmio_read(self, space: PhysSpace, offset: int, width: int) -> int:
        self.counters.mmio_reads += 1
        if width != 4 or offset % 4 != 0:
            return 0  # device swallows odd accesses
        if offset == REG_STATUS:
            status = STATUS_FD
            if self.link is not None:
                status |= STATUS_LU
            return status
        # ICR writes are dropped, so it reads 0: interrupts are not modeled.
        return self.regs.get(offset, 0)

    def mmio_write(self, space: PhysSpace, offset: int, width: int, value: int) -> None:
        self.counters.mmio_writes += 1
        if width != 4 or offset % 4 != 0:
            return
        # `PhysSpace.store` refuses a value wider than the store, so it fits.
        if offset == REG_IMS:
            self.regs[REG_IMS] |= value
            return
        if offset in _WRITABLE:
            self.regs[offset] = value
            if offset == REG_TDT:
                self.process_tx(space)

    # -- rings ----------------------------------------------------------------

    def process_tx(self, space: PhysSpace) -> None:
        """Consume descriptors from head to tail, emitting frames on the link.

        Charges copy_per_byte_ns per transmitted byte to the space clock
        (the DMA read happens synchronously with the tail write).
        """
        regs = self.regs
        base = (regs[REG_TDBAH] << 32) | regs[REG_TDBAL]
        count = regs[REG_TDLEN] // DESC_SIZE
        if not regs[REG_TCTL] & TCTL_EN or count == 0:
            return
        head = regs[REG_TDH] % count
        tail = regs[REG_TDT] % count
        while head != tail:
            desc = base + head * DESC_SIZE
            addr, length, status = _TX_DESC.unpack_from(space.dma_read(desc, DESC_SIZE))
            if length == 0 or length > MAX_LINK_FRAME:
                status |= DESC_DD | DESC_ERR  # unusable; skip but complete it
            else:
                frame = space.dma_read(addr, length)
                space.advance(space.costs.copy_per_byte_ns * length)
                if self.link is not None:
                    self.link.transmit(self.link_endpoint, frame, space.clock)
                self.counters.tx_frames += 1
                status |= DESC_DD
            space.dma_write(desc + DESC_STATUS, bytes((status,)))
            head = (head + 1) % count
        regs[REG_TDH] = head

    def deliver_frame(self, space: PhysSpace, frame: bytes) -> bool:
        """Device-side receive: DMA the frame into the next free descriptor.

        Runs at frame arrival time and charges no CPU clock; the device
        works in parallel with the processors.
        """
        regs = self.regs
        base = (regs[REG_RDBAH] << 32) | regs[REG_RDBAL]
        count = regs[REG_RDLEN] // DESC_SIZE
        # too long for the link, receiver disabled, or no ring
        if len(frame) > MAX_LINK_FRAME or not regs[REG_RCTL] & RCTL_EN or count == 0:
            self.counters.rx_dropped += 1
            return False
        head = regs[REG_RDH] % count
        tail = regs[REG_RDT] % count
        if head == tail:
            self.counters.rx_dropped += 1  # no free descriptors
            return False
        desc = base + head * DESC_SIZE
        addr, keep, status = _RX_DESC.unpack_from(space.dma_read(desc, DESC_SIZE))
        space.dma_write(addr, frame)
        writeback = _RX_WRITEBACK.pack(len(frame), keep, status | DESC_DD)
        space.dma_write(desc + DESC_LENGTH, writeback)
        regs[REG_RDH] = (head + 1) % count
        self.counters.rx_frames += 1
        return True
