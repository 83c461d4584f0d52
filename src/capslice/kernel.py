"""The trusted side: device interface and e1000e kernel stub.

The kernel owns the root capabilities. Userspace gets exactly three
things from it: a sealed attach token, a slice table carved per the
registered manifests, and one privileged ioctl for rewriting descriptor
buffer addresses. Everything else is denied, and denials provably touch
neither the device nor DMA memory.

The descriptor-ring engine `Rings` is the one data plane under two
control paths: the bypass driver runs it over its slices, and the
socket-style send/recv path here (the kernel-mediated baseline, not part
of the token-gated interface) runs it over the kernel roots, adding only
the crossing and copy charges.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

from . import slicer
from .capability import (
    CapFault,
    Capability,
    Perm,
    PERM_RW,
    derive_bounds,
    make_otype_authority,
    restrict_perms,
    seal,
    unseal,
    with_cursor,
)
from .manifest import Manifest, PermClass, Repeat, SliceEntry, expand
from .nic import (
    BAR_LENGTH,
    BUF_SIZE,
    DESC_DD,
    DESC_SIZE,
    PRIVILEGED,
    RCTL_EN,
    REG_RCTL,
    REG_RDBAH,
    REG_RDBAL,
    REG_RDH,
    REG_RDLEN,
    REG_RDT,
    REG_TCTL,
    REG_TDBAH,
    REG_TDBAL,
    REG_TDH,
    REG_TDLEN,
    REG_TDT,
    TCTL_EN,
    TX_CMD_EOP,
    TX_CMD_IFCS,
    TX_CMD_RS,
)
from .physmem import PhysSpace, RootAuthority

_INTERFACE_AUTHORITY = make_otype_authority(slicer.INTERFACE_OTYPE)

RING_SIZE = 64

# Fixed layout of one device's DMA region.
DMA_TX_RING = 0x0000
DMA_RX_RING = 0x1000
DMA_TX_BUFS = 0x2000
DMA_RX_BUFS = DMA_TX_BUFS + RING_SIZE * BUF_SIZE
DMA_LENGTH = DMA_RX_BUFS + RING_SIZE * BUF_SIZE  # 0x42000

# The userspace entries a DMA manifest must have, and no others: each
# descriptor's bytes 8..15 (never its address word) and one slice per buffer.
DMA_USER_ENTRIES = frozenset(
    SliceEntry(name, offset, size, PermClass.RW, Repeat(RING_SIZE, stride))
    for name, offset, size, stride in (
        ("TXD_META", DMA_TX_RING + 8, 8, DESC_SIZE),
        ("RXD_META", DMA_RX_RING + 8, 8, DESC_SIZE),
        ("TXBUF", DMA_TX_BUFS, BUF_SIZE, BUF_SIZE),
        ("RXBUF", DMA_RX_BUFS, BUF_SIZE, BUF_SIZE)))


class ErrCode(Enum):
    DENIED = "denied"
    BUSY = "busy"
    NO_SUCH_DEVICE = "no such device"
    BAD_ARGUMENT = "bad argument"


class ApiError(Exception):
    """The only error type that crosses the kernel API boundary; raw
    capability faults never escape."""

    def __init__(self, code: ErrCode, detail: str = ""):
        super().__init__(f"{code.value}: {detail}" if detail else code.value)
        self.code = code


@dataclass
class DmaLayout:
    base: int

    @property
    def tx_ring(self) -> int:
        return self.base + DMA_TX_RING

    @property
    def rx_ring(self) -> int:
        return self.base + DMA_RX_RING

    def tx_buf(self, k: int) -> int:
        return self.base + DMA_TX_BUFS + k * BUF_SIZE

    def rx_buf(self, k: int) -> int:
        return self.base + DMA_RX_BUFS + k * BUF_SIZE

    @property
    def bufs_base(self) -> int:
        return self.base + DMA_TX_BUFS

    @property
    def bufs_end(self) -> int:
        return self.base + DMA_LENGTH


@dataclass(eq=False, repr=False)
class Rings:
    """TX/RX descriptor-ring engine over the capabilities it is given: one
    per buffer, one per TDT/RDT register, and one per descriptor's bytes
    8..15 with its cursor on the length field. The cmd and status bytes are
    addressed from that cursor, so slices (cursor at base) and capabilities
    derived from a kernel root work alike."""

    space: PhysSpace
    tx_meta: list[Capability]
    tx_bufs: list[Capability]
    rx_meta: list[Capability]
    rx_bufs: list[Capability]
    tdt: Capability
    rdt: Capability
    tx_tail: int = 0  # the oldest in-flight descriptor is tx_tail - tx_inflight
    tx_inflight: int = 0
    rx_head: int = 0  # RDT stays one behind, since head == tail means empty

    def send(self, frame: bytes) -> None:
        """Copy the frame into the next free transmit buffer, fill the
        descriptor, and write the tail register."""
        if len(frame) > BUF_SIZE:
            raise ApiError(ErrCode.BAD_ARGUMENT, f"frame of {len(frame)} bytes")
        space = self.space
        # TDH is kernel-only, so occupancy is tracked by polling the oldest
        # in-flight descriptor for the DD bit the device sets on completion.
        while self.tx_inflight > 0:
            meta = self.tx_meta[(self.tx_tail - self.tx_inflight) % RING_SIZE]
            if not space.load(with_cursor(meta, meta.cursor + 4), 1) & DESC_DD:
                break
            self.tx_inflight -= 1
        if self.tx_inflight == RING_SIZE:
            raise ApiError(ErrCode.BUSY, "transmit ring full")
        k = self.tx_tail
        space.store_bytes(self.tx_bufs[k], frame)
        meta = self.tx_meta[k]
        space.store(meta, 2, len(frame))
        space.store(with_cursor(meta, meta.cursor + 4), 1, 0)  # clear DD
        space.store(with_cursor(meta, meta.cursor + 3), 1,
                    TX_CMD_EOP | TX_CMD_IFCS | TX_CMD_RS)
        self.tx_inflight += 1
        self.tx_tail = (k + 1) % RING_SIZE
        space.store(self.tdt, 4, self.tx_tail)

    def recv(self, enter: Optional[Callable[[], None]] = None,
             copy_out: Optional[Callable[[int], None]] = None) -> list[bytes]:
        """Drain every completed RX descriptor; one RDT write at the end. A
        kernel caller charges each frame: `enter()` before reading it and
        `copy_out(length)` after."""
        space = self.space
        frames: list[bytes] = []
        while True:
            meta = self.rx_meta[self.rx_head]
            status_cap = with_cursor(meta, meta.cursor + 4)
            status = space.load(status_cap, 1)
            if not status & DESC_DD:
                break
            if enter is not None:
                enter()
            length = space.load(meta, 2)
            frames.append(space.load_bytes(self.rx_bufs[self.rx_head], length))
            if copy_out is not None:
                copy_out(length)
            space.store(status_cap, 1, status & ~DESC_DD)
            self.rx_head = (self.rx_head + 1) % RING_SIZE
        if frames:
            space.store(self.rdt, 4, (self.rx_head - 1) % RING_SIZE)
        return frames


@dataclass
class AttachRecord:
    process_id: int
    device: str
    mapped: bool = False


@dataclass
class DeviceState:
    bar_base: int
    bar_manifest: Manifest
    dma_manifest: Manifest
    mmio_root: Capability
    dma_root: Capability
    dma: DmaLayout
    rings: Optional[Rings] = None  # the socket path's; built by its first call


class Kernel:
    """Interface + stub for one machine. Holds the root authority."""

    def __init__(self, space: PhysSpace, authority: RootAuthority,
                 priv_base: int, priv_length: int):
        self.space = space
        self._authority = authority
        self._priv_root = authority.issue_root(
            priv_base, priv_length,
            Perm.READ | Perm.WRITE | Perm.LOAD_CAP | Perm.STORE_CAP)
        self._alloc_next = priv_base
        self._alloc_end = priv_base + priv_length
        self._devices: dict[str, DeviceState] = {}
        self._records: dict[int, AttachRecord] = {}
        self._device_ids: dict[str, int] = {}
        self.invocations = 0

    # -- kernel-private allocator ---------------------------------------------

    def _alloc(self, size: int, align: int = 16) -> int:
        addr = (self._alloc_next + align - 1) // align * align
        if addr + size > self._alloc_end:
            raise ApiError(ErrCode.BUSY, "kernel memory exhausted")
        self._alloc_next = addr + size
        return addr

    def _priv_at(self, addr: int) -> Capability:
        return with_cursor(self._priv_root, addr)

    # -- stub: probe/attach ------------------------------------------------

    def stub_attach(self, name: str, bar_base: int,
                    bar_manifest: Manifest, dma_manifest: Manifest) -> None:
        """Bring the device up: allocate DMA memory, program and preload the
        rings, enable TX/RX, and register the manifests with the interface.

        A manifest that would hand userspace a kernel-only register byte or a
        descriptor address word, or that does not match the DMA layout, is
        refused before anything is issued."""
        if name in self._devices:
            raise ApiError(ErrCode.BUSY, f"{name} already attached")
        if bar_manifest.bar_length > BAR_LENGTH:
            raise ApiError(ErrCode.BAD_ARGUMENT,
                           f"BAR manifest covers {bar_manifest.bar_length:#x},"
                           f" the BAR is {BAR_LENGTH:#x}")
        if dma_manifest.bar_length != DMA_LENGTH:
            raise ApiError(ErrCode.BAD_ARGUMENT,
                           f"DMA manifest covers {dma_manifest.bar_length:#x},"
                           f" layout needs {DMA_LENGTH:#x}")
        for r in expand(bar_manifest):
            for off in PRIVILEGED:
                if r.offset < off + 4 and off < r.offset + r.size:
                    raise ApiError(ErrCode.BAD_ARGUMENT,
                                   f"BAR manifest grants {r.name}, which covers the"
                                   f" kernel-only register at {off:#x}")
        user = {e for e in dma_manifest.entries if e.perm is not PermClass.KERNEL}
        if user != DMA_USER_ENTRIES:
            names = sorted({e.name for e in user ^ DMA_USER_ENTRIES})
            raise ApiError(ErrCode.BAD_ARGUMENT,
                           f"DMA manifest entries {', '.join(names)} do not match the DMA layout")

        mmio_root = self._authority.issue_root(bar_base, bar_manifest.bar_length, PERM_RW)
        dma_base = self._alloc(DMA_LENGTH, align=16)
        dma_root = self._authority.issue_root(dma_base, DMA_LENGTH, PERM_RW)
        dma = DmaLayout(dma_base)

        def reg(off: int, val: int) -> None:
            self.space.store(with_cursor(mmio_root, bar_base + off), 4, val)

        ring_bytes = RING_SIZE * DESC_SIZE
        reg(REG_TDBAL, dma.tx_ring & 0xFFFFFFFF)
        reg(REG_TDBAH, dma.tx_ring >> 32)
        reg(REG_TDLEN, ring_bytes)
        reg(REG_TDH, 0)
        reg(REG_TDT, 0)
        reg(REG_RDBAL, dma.rx_ring & 0xFFFFFFFF)
        reg(REG_RDBAH, dma.rx_ring >> 32)
        reg(REG_RDLEN, ring_bytes)
        reg(REG_RDH, 0)

        # Preprogram every descriptor to its paired buffer so the data
        # path never needs the kernel to fix addresses.
        for k in range(RING_SIZE):
            self.space.store(with_cursor(dma_root, dma.tx_ring + k * DESC_SIZE), 8, dma.tx_buf(k))
            self.space.store(with_cursor(dma_root, dma.tx_ring + k * DESC_SIZE + 8), 8, 0)
            self.space.store(with_cursor(dma_root, dma.rx_ring + k * DESC_SIZE), 8, dma.rx_buf(k))
            self.space.store(with_cursor(dma_root, dma.rx_ring + k * DESC_SIZE + 8), 8, 0)

        reg(REG_TCTL, TCTL_EN)
        reg(REG_RCTL, RCTL_EN)
        # Hand the device all but one RX descriptor (head == tail means empty).
        reg(REG_RDT, RING_SIZE - 1)

        self._device_ids[name] = len(self._device_ids) + 1
        self._devices[name] = DeviceState(
            bar_base=bar_base,
            bar_manifest=bar_manifest, dma_manifest=dma_manifest,
            mmio_root=mmio_root, dma_root=dma_root, dma=dma)

    def device(self, name: str) -> DeviceState:
        try:
            return self._devices[name]
        except KeyError:
            raise ApiError(ErrCode.NO_SUCH_DEVICE, name) from None

    # -- interface: token-gated entry points ---------------------------------

    def attach(self, process_id: int, device: str = "e1000e") -> Capability:
        """Mint a sealed attach token bound to {process, device}."""
        self.invocations += 1
        if device not in self._devices:
            raise ApiError(ErrCode.NO_SUCH_DEVICE, device)
        rec_addr = self._alloc(16, align=16)
        self.space.store(self._priv_at(rec_addr), 8, process_id)
        self.space.store(self._priv_at(rec_addr + 8), 8, self._device_ids[device])
        record_cap = restrict_perms(
            derive_bounds(self._priv_root, rec_addr, 16), Perm.READ)
        self._records[rec_addr] = AttachRecord(process_id, device)
        return seal(record_cap, _INTERFACE_AUTHORITY)

    def _verify_token(self, token: Capability) -> AttachRecord:
        try:
            opened = unseal(token, _INTERFACE_AUTHORITY)
        except CapFault as fault:
            raise ApiError(ErrCode.DENIED, f"bad token ({fault.kind.name})") from None
        record = self._records.get(opened.base)
        if record is None:
            raise ApiError(ErrCode.DENIED, "token matches no attach record")
        # Cross-check the in-memory record through the token's own capability.
        pid = self.space.load(with_cursor(opened, opened.base), 8)
        dev_id = self.space.load(with_cursor(opened, opened.base + 8), 8)
        if pid != record.process_id or dev_id != self._device_ids[record.device]:
            raise ApiError(ErrCode.DENIED, "attach record corrupted")
        return record

    def map_mmio(self, token: Capability) -> slicer.SliceTable:
        """Slice the register BAR and the DMA region for the token's holder.

        Exactly one mapping per attach; the unsealed roots never leave the
        kernel.
        """
        self.invocations += 1
        record = self._verify_token(token)
        if record.mapped:
            raise ApiError(ErrCode.DENIED, "already mapped once for this attach")
        dev = self._devices[record.device]
        regs_table = slicer.slice(dev.mmio_root, dev.bar_manifest)
        dma_table = slicer.slice(dev.dma_root, dev.dma_manifest)
        record.mapped = True
        return slicer.SliceTable(
            slices=regs_table.slices + dma_table.slices,
            sealed_root=regs_table.sealed_root,
            sealed_dma_root=dma_table.sealed_root)

    def ioctl_set_desc_addr(self, token: Capability, queue: str, index: int,
                            buf: Capability) -> None:
        """Privileged write of a descriptor's address field.

        The buffer capability must be tagged, unsealed, readable, and lie
        entirely inside the caller's DMA buffer region; anything else is
        denied with the descriptor untouched.
        """
        self.invocations += 1
        record = self._verify_token(token)
        dev = self._devices[record.device]
        if queue not in ("tx", "rx"):
            raise ApiError(ErrCode.BAD_ARGUMENT, f"queue {queue!r}")
        if not 0 <= index < RING_SIZE:
            raise ApiError(ErrCode.BAD_ARGUMENT, f"descriptor index {index}")
        if not buf.tag:
            raise ApiError(ErrCode.DENIED, "buffer capability is untagged")
        if buf.sealed:
            raise ApiError(ErrCode.DENIED, "buffer capability is sealed")
        if not buf.has(Perm.READ):
            raise ApiError(ErrCode.DENIED, "buffer capability lacks READ")
        if not (dev.dma.bufs_base <= buf.base and buf.top <= dev.dma.bufs_end):
            raise ApiError(ErrCode.DENIED, "buffer outside the DMA buffer region")
        ring = dev.dma.tx_ring if queue == "tx" else dev.dma.rx_ring
        self.space.store(with_cursor(dev.dma_root, ring + index * DESC_SIZE), 8, buf.base)

    # -- mediated (socket-style) path; the baseline, not token-gated ---------

    def _charge_syscall_pair(self) -> None:
        self.space.advance(2 * self.space.costs.syscall_ns)

    def _charge_copy(self, count: int) -> None:
        self.space.advance(self.space.costs.copy_per_byte_ns * count)

    def _rings(self, device: str) -> Rings:
        # Built by the first socket call, so that bring-up does none of this work.
        dev = self.device(device)
        if dev.rings is None:
            dma, root, ks = dev.dma, dev.dma_root, range(RING_SIZE)
            dev.rings = Rings(
                self.space,
                [with_cursor(root, dma.tx_ring + k * DESC_SIZE + 8) for k in ks],
                [with_cursor(root, dma.tx_buf(k)) for k in ks],
                [with_cursor(root, dma.rx_ring + k * DESC_SIZE + 8) for k in ks],
                [with_cursor(root, dma.rx_buf(k)) for k in ks],
                with_cursor(dev.mmio_root, dev.bar_base + REG_TDT),
                with_cursor(dev.mmio_root, dev.bar_base + REG_RDT))
        return dev.rings

    def socket_send(self, device: str, frame: bytes) -> None:
        """Kernel-mediated transmit: two ring crossings plus one extra
        user-to-kernel payload copy, then the same ring engine the bypass
        driver runs, over the kernel roots."""
        self.invocations += 1
        rings = self._rings(device)
        if len(frame) > BUF_SIZE:  # refused at entry, before any charge
            raise ApiError(ErrCode.BAD_ARGUMENT, f"frame of {len(frame)} bytes")
        self._charge_syscall_pair()
        self._charge_copy(len(frame))
        rings.send(frame)

    def socket_recv(self, device: str) -> list[bytes]:
        """Kernel-mediated receive: drain completed RX descriptors.

        One datagram costs one receive call, so each returned payload is
        charged its own kernel entry/exit pair plus the extra
        kernel-to-user copy; an empty drain still pays for the call that
        found nothing.
        """
        self.invocations += 1
        frames = self._rings(device).recv(self._charge_syscall_pair, self._charge_copy)
        if not frames:
            self._charge_syscall_pair()
        return frames
