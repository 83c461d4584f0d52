"""The trusted side: device interface and e1000e kernel stub.

A kernel is built with its one e1000e, and no call takes a device name:
the BAR manifest's `device` line names the device, and bring-up refuses
any name but `nic.DEVICE_NAME`.

The kernel owns the root capabilities, and its device is two of them: an
MMIO root over the BAR and a DMA root over the region bring-up allocates.
Every device address is a root's base plus a fixed offset. Userspace gets
exactly three things from it: a sealed attach token, a slice table carved
per the BAR manifest and the kernel's own DMA carving, and one privileged
ioctl for rewriting descriptor buffer addresses. Everything else is
denied, and denials provably touch neither the device nor DMA memory.

The descriptor-ring engine `Rings` is the one data plane under two
control paths: the bypass driver runs it over its slices, and the
socket-style send/recv path here (the kernel-mediated baseline, not part
of the token-gated interface) runs it over the kernel's own carving of the
DMA region, adding only the crossing and copy charges.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from . import nic, slicer
from .capability import (
    READ_MASK,
    WRITE_MASK,
    CapFault,
    Capability,
    Perm,
    PERM_RW,
    check_access,
    derive_bounds,
    make_otype_authority,
    restrict_perms,
    seal,
    unseal,
    with_cursor,
)
from .manifest import Manifest, PermClass, Repeat, SliceEntry, expand, validate
from .nic import (
    BAR_LENGTH,
    BUF_SIZE,
    DESC_CMD,
    DESC_DD,
    DESC_LENGTH,
    DESC_SIZE,
    DESC_STATUS,
    DEVICE_NAME,
    MAX_LINK_FRAME,
    RCTL_EN,
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

_DEVICE_ID = 1  # the attach record's second word: the kernel's one device

# Offsets of a descriptor's cmd and status bytes from its length field.
_CMD = DESC_CMD - DESC_LENGTH
_STATUS = DESC_STATUS - DESC_LENGTH

# The descriptor format fixes the DMA carving, so the kernel owns it rather
# than a policy file: each descriptor's bytes from its length field on (never
# its address word) and one slice per buffer.
DMA_MANIFEST = Manifest("e1000e-dma", DMA_LENGTH, tuple(
    SliceEntry(name, offset, size, PermClass.RW, Repeat(RING_SIZE, stride))
    for name, offset, size, stride in (
        ("TXD_META", DMA_TX_RING + DESC_LENGTH, DESC_SIZE - DESC_LENGTH, DESC_SIZE),
        ("RXD_META", DMA_RX_RING + DESC_LENGTH, DESC_SIZE - DESC_LENGTH, DESC_SIZE),
        ("TXBUF", DMA_TX_BUFS, BUF_SIZE, BUF_SIZE),
        ("RXBUF", DMA_RX_BUFS, BUF_SIZE, BUF_SIZE))))


@functools.lru_cache(maxsize=16)
def _carve_dma(dma_root: Capability) -> slicer.SliceTable:
    """`DMA_MANIFEST`'s carving of `dma_root`, computed once per root value.

    The carving is a pure function of two immutable values, the root and the
    constant manifest, and every kernel allocates its DMA region first, so
    equal roots recur on every build. A miss runs `slicer.slice` with every
    check; a hit returns the immutable table an equal root produced. A
    faulting root is not cached, so it faults on every call."""
    return slicer.slice(dma_root, DMA_MANIFEST)


_DESC_WORDS = DESC_SIZE // 8
_pack_ring = struct.Struct(f"<{RING_SIZE * _DESC_WORDS}Q").pack


def _ring_image(bufs: int) -> bytes:
    """A descriptor ring as bring-up preloads it, in 8-byte words:
    descriptor k holds the address of buffer k, `BUF_SIZE` bytes each from
    `bufs`, and zeroes from its length field on."""
    words = [0] * (RING_SIZE * _DESC_WORDS)
    words[::_DESC_WORDS] = range(bufs, bufs + RING_SIZE * BUF_SIZE, BUF_SIZE)
    return _pack_ring(*words)


class ErrCode(Enum):
    DENIED = "denied"
    BUSY = "busy"
    BAD_ARGUMENT = "bad argument"


class ApiError(Exception):
    """The only error type that crosses the kernel API boundary; raw
    capability faults never escape."""

    def __init__(self, code: ErrCode, detail: str = ""):
        super().__init__(f"{code.value}: {detail}" if detail else code.value)
        self.code = code
        self.detail = detail

    def __reduce__(self):
        # `args` holds only the message; rebuild from the code and detail.
        return type(self), (self.code, self.detail)


def _refuse_unsendable(frame: bytes) -> None:
    """The device sends 1 to `MAX_LINK_FRAME` bytes; refuse any other frame."""
    if not 0 < len(frame) <= MAX_LINK_FRAME:
        raise ApiError(ErrCode.BAD_ARGUMENT, f"frame of {len(frame)} bytes")


@dataclass(eq=False, repr=False)
class Rings:
    """TX/RX descriptor-ring engine over the capabilities it is given: one
    per buffer, one per TDT/RDT register, and one per descriptor's bytes
    8..15 with its cursor on the length field. The cmd and status bytes are
    addressed by immediate offset from that cursor."""

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

    @classmethod
    def over(cls, space: PhysSpace, table: slicer.SliceTable, index: dict[str, int],
             tdt: Capability, rdt: Capability) -> Rings:
        """The engine over the slices `DMA_MANIFEST` carves in `table`, found
        through `index` (the table's `index_map()`), and the given TDT/RDT
        capabilities."""
        last = RING_SIZE - 1

        def row(name: str) -> list[Capability]:
            # Expansion emits an entry's repeats as one contiguous run.
            first = index[f"{name}[0]"]
            run = table.slices[first:first + RING_SIZE]
            if len(run) != RING_SIZE or run[last][0] != f"{name}[{last}]":
                raise KeyError(f"{name}[{last}]")
            return [cap for _, cap in run]

        return cls(space, row("TXD_META"), row("TXBUF"), row("RXD_META"), row("RXBUF"),
                   tdt, rdt)

    def send(self, frame: bytes) -> None:
        """Copy the frame into the next free transmit buffer, fill the
        descriptor, and write the tail register."""
        _refuse_unsendable(frame)
        space = self.space
        load, store = space.load, space.store
        # TDH is kernel-only, so occupancy is tracked by polling the oldest
        # in-flight descriptor for the DD bit the device sets on completion.
        while self.tx_inflight > 0:
            meta = self.tx_meta[(self.tx_tail - self.tx_inflight) % RING_SIZE]
            if not load(meta, 1, _STATUS) & DESC_DD:
                break
            self.tx_inflight -= 1
        if self.tx_inflight == RING_SIZE:
            raise ApiError(ErrCode.BUSY, "transmit ring full")
        k = self.tx_tail
        space.store_bytes(self.tx_bufs[k], frame)
        meta = self.tx_meta[k]
        store(meta, 2, len(frame))
        store(meta, 1, 0, _STATUS)  # clear DD
        store(meta, 1, TX_CMD_EOP | TX_CMD_IFCS | TX_CMD_RS, _CMD)
        self.tx_inflight += 1
        self.tx_tail = (k + 1) % RING_SIZE
        store(self.tdt, 4, self.tx_tail)

    def recv(self) -> list[bytes]:
        """Drain every completed RX descriptor; one RDT write at the end."""
        space = self.space
        load, store = space.load, space.store
        frames: list[bytes] = []
        while True:
            meta = self.rx_meta[self.rx_head]
            status = load(meta, 1, _STATUS)
            if not status & DESC_DD:
                break
            length = load(meta, 2)
            frames.append(space.load_bytes(self.rx_bufs[self.rx_head], length))
            store(meta, 1, status & ~DESC_DD, _STATUS)
            self.rx_head = (self.rx_head + 1) % RING_SIZE
        if frames:
            store(self.rdt, 4, (self.rx_head - 1) % RING_SIZE)
        return frames


def device_truth_violations(bar_manifest: Manifest) -> list[str]:
    """The one admission rule: every reason the kernel refuses a BAR manifest,
    `validate()`'s problems alone if it has any. It must then name the device
    (`nic.DEVICE_NAME`), fit the BAR, grant no byte of a kernel-only register
    (`nic.PRIVILEGED`), give a register name of `nic.REGISTERS` only to one
    entry at that register's offset, and grant each `doorbell` row, the
    registers the bypass driver rings, read-write with 4+ bytes.

    The verdict is a pure function of the frozen manifest's value, so it is
    remembered per value, and each call gets a fresh list. A value not seen
    before is checked in full; a manifest that cannot be hashed (its entries
    a list, say) is checked in full on every call."""
    try:
        return list(_admission(bar_manifest))
    except TypeError:
        # Raised by hashing the key, before `_admission` runs. A TypeError
        # from the rule itself is raised again here.
        return _violations(bar_manifest)


@functools.lru_cache(maxsize=16)
def _admission(bar_manifest: Manifest) -> tuple[str, ...]:
    return tuple(_violations(bar_manifest))


def _violations(bar_manifest: Manifest) -> list[str]:
    problems = validate(bar_manifest)
    if problems:
        return problems
    if bar_manifest.device_name != DEVICE_NAME:
        problems.append(f"BAR manifest is for device {bar_manifest.device_name!r},"
                        f" the device is {DEVICE_NAME!r}")
    if bar_manifest.bar_length > BAR_LENGTH:
        problems.append(f"BAR manifest covers {bar_manifest.bar_length:#x},"
                        f" the BAR is {BAR_LENGTH:#x}")
    granted = {}
    for r in expand(bar_manifest):
        granted[r.name] = r
        for off in nic.PRIVILEGED:
            if r.offset < off + 4 and off < r.offset + r.size:
                problems.append(f"BAR manifest grants {r.name}, which covers the"
                                f" kernel-only register at {off:#x}")
    # A device register's name means that register: one entry, at its offset.
    for e in bar_manifest.entries:
        row = nic.REGISTERS.get(e.name)
        if row and (e.offset != row[0] or e.repeat is not None and e.repeat.count > 1):
            problems.append(f"BAR manifest's {e.name} is not the device's {e.name},"
                            f" one register at {row[0]:#x}")
    # So a range named as a doorbell sits at its register. The last row goes
    # first: bring-up reports the first problem, TDT's for a manifest with neither.
    for name, (off, role) in reversed(nic.REGISTERS.items()):
        r = granted.get(name)  # the last, as in the slice table's `index_map()`
        if role == "doorbell" and (r is None or r.size < 4 or r.perm is not PermClass.RW):
            problems.append(f"BAR manifest grants no read-write {name} of 4+ bytes at {off:#x}")
    return problems


@dataclass
class AttachRecord:
    process_id: int
    mapped: bool = False


class Kernel:
    """Interface + stub for one machine's RAM region (its private memory) and
    device region (the BAR of its one device). Holds the root authority.

    The device is its two roots: `mmio_root` over the whole BAR and
    `dma_root` over its DMA region, both issued by bring-up together with
    the `bar_manifest` it accepted. Every register, ring and buffer address
    is derived from a root's base and the `nic.REG_*`/`DMA_*` offsets."""

    bar_manifest: Manifest
    mmio_root: Capability
    dma_root: Capability

    def __init__(self, space: PhysSpace, authority: RootAuthority, bar_manifest: Manifest):
        self.space = space
        self._authority = authority
        ram = space.ram_region
        self._priv_root = authority.issue_root(
            ram.base, ram.length, Perm.READ | Perm.WRITE | Perm.LOAD_CAP | Perm.STORE_CAP)
        self._alloc_next, self._alloc_end = ram.base, ram.top
        self._records: dict[int, AttachRecord] = {}
        self.invocations = 0
        self._socket_rings: Optional[Rings] = None  # built by the first socket call
        self.stub_attach(bar_manifest)

    # -- kernel-private allocator ---------------------------------------------

    def _alloc(self, size: int) -> int:
        addr = (self._alloc_next + 15) // 16 * 16
        if addr + size > self._alloc_end:
            raise ApiError(ErrCode.BUSY, "kernel memory exhausted")
        self._alloc_next = addr + size
        return addr

    def _priv_at(self, addr: int) -> Capability:
        return with_cursor(self._priv_root, addr)

    # -- stub: probe/attach ------------------------------------------------

    def stub_attach(self, bar_manifest: Manifest) -> None:
        """Bring the device up: allocate DMA memory, program and preload the
        rings, enable TX/RX, and register the BAR manifest with the interface.
        The constructor calls it; a second call is refused as busy.

        A BAR manifest with any `device_truth_violations` is refused before
        anything is issued. The DMA region is carved by `DMA_MANIFEST`."""
        if hasattr(self, "mmio_root"):
            raise ApiError(ErrCode.BUSY, f"{DEVICE_NAME} already attached")
        problems = device_truth_violations(bar_manifest)
        if problems:
            raise ApiError(ErrCode.BAD_ARGUMENT, problems[0])

        # The stub programs the whole device, so its root spans the BAR, not
        # just the part the manifest describes.
        mmio_root = self._authority.issue_root(self.space.device_region.base, BAR_LENGTH, PERM_RW)
        dma_base = self._alloc(DMA_LENGTH)
        dma_root = self._authority.issue_root(dma_base, DMA_LENGTH, PERM_RW)
        tx_ring, rx_ring = dma_base + DMA_TX_RING, dma_base + DMA_RX_RING

        # Each root's cursor sits at its base, so register and descriptor
        # offsets are immediate offsets from it.
        store = self.space.store

        def reg(off: int, val: int) -> None:
            store(mmio_root, 4, val, off)

        ring_bytes = RING_SIZE * DESC_SIZE
        reg(nic.REG_TDBAL, tx_ring & 0xFFFFFFFF)
        reg(nic.REG_TDBAH, tx_ring >> 32)
        reg(nic.REG_TDLEN, ring_bytes)
        reg(nic.REG_TDH, 0)
        reg(nic.REG_TDT, 0)
        reg(nic.REG_RDBAL, rx_ring & 0xFFFFFFFF)
        reg(nic.REG_RDBAH, rx_ring >> 32)
        reg(nic.REG_RDLEN, ring_bytes)
        reg(nic.REG_RDH, 0)

        # Preprogram every descriptor to its paired buffer so the data
        # path never needs the kernel to fix addresses: one checked 8-byte
        # store per word of each ring, made as one run.
        self.space.store_words(dma_root, 8, _ring_image(dma_base + DMA_TX_BUFS), DMA_TX_RING)
        self.space.store_words(dma_root, 8, _ring_image(dma_base + DMA_RX_BUFS), DMA_RX_RING)

        reg(nic.REG_TCTL, TCTL_EN)
        reg(nic.REG_RCTL, RCTL_EN)
        # Hand the device all but one RX descriptor (head == tail means empty).
        reg(nic.REG_RDT, RING_SIZE - 1)

        self.bar_manifest, self.mmio_root, self.dma_root = bar_manifest, mmio_root, dma_root

    # -- interface: token-gated entry points ---------------------------------

    def attach(self, process_id: int) -> Capability:
        """Mint a sealed attach token bound to {process, device}."""
        self.invocations += 1
        rec_addr = self._alloc(16)
        self.space.store(self._priv_at(rec_addr), 8, process_id)
        self.space.store(self._priv_at(rec_addr + 8), 8, _DEVICE_ID)
        record_cap = restrict_perms(
            derive_bounds(self._priv_root, rec_addr, 16), Perm.READ)
        self._records[rec_addr] = AttachRecord(process_id)
        return seal(record_cap, _INTERFACE_AUTHORITY)

    def _verify_token(self, token: Capability) -> AttachRecord:
        try:
            opened = unseal(token, _INTERFACE_AUTHORITY)
        except CapFault as fault:
            raise ApiError(ErrCode.DENIED, f"bad token ({fault.kind.name})") from None
        record = self._records.get(opened.base)
        if record is None:
            raise ApiError(ErrCode.DENIED, "token matches no attach record")
        # Cross-check the in-memory record through the token's own capability,
        # whose cursor is the record's base.
        pid = self.space.load(opened, 8)
        dev_id = self.space.load(opened, 8, 8)
        if pid != record.process_id or dev_id != _DEVICE_ID:
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
        regs_table = slicer.slice(self.mmio_root, self.bar_manifest)
        dma_table = _carve_dma(self.dma_root)
        record.mapped = True
        return slicer.SliceTable(
            slices=regs_table.slices + dma_table.slices,
            sealed_root=regs_table.sealed_root,
            sealed_dma_root=dma_table.sealed_root)

    def ioctl_set_desc_addr(self, token: Capability, queue: str, index: int,
                            buf: Capability) -> None:
        """Privileged write of a descriptor's address field.

        The buffer capability must pass one `check_access` over the
        `BUF_SIZE` bytes the NIC may DMA from its base, needing READ, and
        WRITE too for an RX descriptor (the NIC writes received frames into
        it), and must lie entirely inside the caller's DMA buffer region;
        anything else is denied with the descriptor untouched.
        """
        self.invocations += 1
        self._verify_token(token)
        if queue not in ("tx", "rx"):
            raise ApiError(ErrCode.BAD_ARGUMENT, f"queue {queue!r}")
        if not 0 <= index < RING_SIZE:
            raise ApiError(ErrCode.BAD_ARGUMENT, f"descriptor index {index}")
        need = READ_MASK if queue == "tx" else READ_MASK | WRITE_MASK
        try:
            check_access(buf, BUF_SIZE, need, buf.base - buf.cursor)
        except CapFault as fault:
            raise ApiError(ErrCode.DENIED, f"buffer capability: {fault}") from None
        dma_root = self.dma_root
        if not (dma_root.base + DMA_TX_BUFS <= buf.base and buf.top <= dma_root.top):
            raise ApiError(ErrCode.DENIED, "buffer outside the DMA buffer region")
        ring = DMA_TX_RING if queue == "tx" else DMA_RX_RING
        self.space.store(dma_root, 8, buf.base, ring + index * DESC_SIZE)

    # -- mediated (socket-style) path; the baseline, not token-gated ---------

    def _charge_syscall_pair(self) -> None:
        self.space.advance(2 * self.space.costs.syscall_ns)

    def _charge_copy(self, count: int) -> None:
        self.space.advance(self.space.costs.copy_per_byte_ns * count)

    def _rings(self) -> Rings:
        # Built by the first socket call, so that bring-up does none of this work.
        if self._socket_rings is None:
            table = _carve_dma(self.dma_root)
            mmio_root = self.mmio_root
            self._socket_rings = Rings.over(
                self.space, table, table.index_map(),
                with_cursor(mmio_root, mmio_root.base + nic.REG_TDT),
                with_cursor(mmio_root, mmio_root.base + nic.REG_RDT))
        return self._socket_rings

    def socket_send(self, frame: bytes) -> None:
        """Kernel-mediated transmit: two ring crossings plus one extra
        user-to-kernel payload copy, then the same ring engine the bypass
        driver runs, over the kernel's own slices."""
        self.invocations += 1
        rings = self._rings()
        _refuse_unsendable(frame)  # at entry, before any charge
        self._charge_syscall_pair()
        self._charge_copy(len(frame))
        rings.send(frame)

    def socket_recv(self) -> list[bytes]:
        """Kernel-mediated receive: drain completed RX descriptors.

        One datagram costs one receive call, so after the drain each
        returned payload is charged its own kernel entry/exit pair plus the
        extra kernel-to-user copy; an empty drain still pays for the call
        that found nothing.
        """
        self.invocations += 1
        frames = self._rings().recv()
        for frame in frames:
            self._charge_syscall_pair()
            self._charge_copy(len(frame))
        if not frames:
            self._charge_syscall_pair()
        return frames
