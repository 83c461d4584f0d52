"""e1000e-style NIC model: register file, legacy descriptor rings, DMA.

The device is driven purely through MMIO dispatch from the physical
space (capability checks have already happened by the time a register
handler runs) and touches RAM only at addresses read from descriptor
address fields. Frames travel over a :class:`FrameLink` with propagation
delay plus per-byte serialization time.

Register offsets beyond CTRL/STATUS/IMS/TDT follow the public Intel
8254x map so the shipped manifest stays honest to a real part.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .physmem import PhysSpace

# Register offsets (byte offsets into the BAR).
REG_CTRL = 0x0000
REG_STATUS = 0x0008
REG_ICR = 0x00C0
REG_IMS = 0x00D0
REG_RCTL = 0x0100
REG_TCTL = 0x0400
REG_RDBAL = 0x2800
REG_RDBAH = 0x2804
REG_RDLEN = 0x2808
REG_RDH = 0x2810
REG_RDT = 0x2818
REG_TDBAL = 0x3800
REG_TDBAH = 0x3804
REG_TDLEN = 0x3808
REG_TDH = 0x3810
REG_TDT = 0x3818

BAR_LENGTH = 0x20000  # 128 KiB aperture; largest register offset is 0x3818

STATUS_FD = 0x01      # full duplex
STATUS_LU = 0x02      # link up
TCTL_EN = 0x02
RCTL_EN = 0x02

DESC_SIZE = 16
BUF_SIZE = 2048       # bytes per descriptor buffer; longer frames are refused
DESC_DD = 0x01        # descriptor done, set by device only
DESC_ERR = 0x02       # model's error mark for unusable TX descriptors

TX_CMD_EOP = 0x01
TX_CMD_IFCS = 0x02
TX_CMD_RS = 0x08

MAX_LINK_FRAME = 1518

# Kernel-only registers, 4 bytes each. Through any of them a driver could
# repoint the rings' DMA, move or stop a ring, or change interrupt state.
PRIVILEGED = (
    REG_ICR, REG_IMS, REG_RCTL, REG_TCTL,
    REG_RDBAL, REG_RDBAH, REG_RDLEN, REG_RDH,
    REG_TDBAL, REG_TDBAH, REG_TDLEN, REG_TDH,
)

_WRITABLE = {
    REG_CTRL, REG_RCTL, REG_TCTL,
    REG_RDBAL, REG_RDBAH, REG_RDLEN, REG_RDH, REG_RDT,
    REG_TDBAL, REG_TDBAH, REG_TDLEN, REG_TDH, REG_TDT,
}


class FrameLink:
    """Reliable, ordered, point-to-point cable between two NICs.

    A frame's arrival time is send time + propagation delay + serialization
    time for the frame. The link keeps no frames: each one goes straight to
    `on_transmit`, which schedules its delivery.
    """

    def __init__(self, delay_ns: float = 1000.0, wire_ns_per_byte: float = 8.0):
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
        if offset == REG_ICR:
            return 0  # interrupts are not modeled; reading clears nothing
        if offset == REG_IMS:
            return self.regs[REG_IMS]
        return self.regs.get(offset, 0)

    def mmio_write(self, space: PhysSpace, offset: int, width: int, value: int) -> None:
        self.counters.mmio_writes += 1
        if width != 4 or offset % 4 != 0:
            return
        value &= 0xFFFFFFFF
        if offset == REG_STATUS or offset == REG_ICR:
            return  # read-only at device level
        if offset == REG_IMS:
            self.regs[REG_IMS] |= value
            return
        if offset in _WRITABLE:
            self.regs[offset] = value
            if offset == REG_TDT:
                self.process_tx(space)

    # -- rings ----------------------------------------------------------------

    def _ring(self, base_lo: int, base_hi: int, len_reg: int) -> tuple[int, int]:
        base = (self.regs[base_hi] << 32) | self.regs[base_lo]
        count = self.regs[len_reg] // DESC_SIZE
        return base, count

    def tx_ring(self) -> tuple[int, int]:
        return self._ring(REG_TDBAL, REG_TDBAH, REG_TDLEN)

    def rx_ring(self) -> tuple[int, int]:
        return self._ring(REG_RDBAL, REG_RDBAH, REG_RDLEN)

    def process_tx(self, space: PhysSpace) -> int:
        """Consume descriptors from head to tail, emitting frames on the link.

        Charges copy_per_byte_ns per transmitted byte to the space clock
        (the DMA read happens synchronously with the tail write).
        """
        if not (self.regs[REG_TCTL] & TCTL_EN):
            return 0
        base, count = self.tx_ring()
        if count == 0:
            return 0
        head = self.regs[REG_TDH] % count
        tail = self.regs[REG_TDT] % count
        emitted = 0
        while head != tail:
            desc = base + head * DESC_SIZE
            raw = space.dma_read(desc, DESC_SIZE)
            addr = int.from_bytes(raw[0:8], "little")
            length = int.from_bytes(raw[8:10], "little")
            status = raw[12]
            if length == 0 or length > BUF_SIZE:
                status |= DESC_DD | DESC_ERR  # unusable; skip but complete it
            else:
                frame = space.dma_read(addr, length)
                space.advance(space.costs.copy_per_byte_ns * length)
                if self.link is not None:
                    self.link.transmit(self.link_endpoint, frame, space.clock)
                self.counters.tx_frames += 1
                status |= DESC_DD
            space.dma_write(desc + 12, bytes([status]))
            head = (head + 1) % count
            emitted += 1
        self.regs[REG_TDH] = head
        return emitted

    def deliver_frame(self, space: PhysSpace, frame: bytes) -> bool:
        """Device-side receive: DMA the frame into the next free descriptor.

        Runs at frame arrival time and charges no CPU clock; the device
        works in parallel with the processors.
        """
        if len(frame) > BUF_SIZE:
            self.counters.rx_dropped += 1
            return False
        if not (self.regs[REG_RCTL] & RCTL_EN):
            self.counters.rx_dropped += 1
            return False
        base, count = self.rx_ring()
        if count == 0:
            self.counters.rx_dropped += 1
            return False
        head = self.regs[REG_RDH] % count
        tail = self.regs[REG_RDT] % count
        if head == tail:
            self.counters.rx_dropped += 1  # no free descriptors
            return False
        desc = base + head * DESC_SIZE
        raw = space.dma_read(desc, DESC_SIZE)
        addr = int.from_bytes(raw[0:8], "little")
        space.dma_write(addr, frame)
        # length, the untouched bytes 10..11, and the status with DD
        space.dma_write(desc + 8, len(frame).to_bytes(2, "little") + raw[10:12]
                        + bytes((raw[12] | DESC_DD,)))
        self.regs[REG_RDH] = (head + 1) % count
        self.counters.rx_frames += 1
        return True
