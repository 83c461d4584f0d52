"""Userspace-style poll-mode driver for the sliced e1000e.

The bypass path (`send` / `poll_recv`) works purely through the slice
table: descriptor-tail slices for ring bookkeeping, per-buffer slices for
payload copies, and the TDT/RDT register slices to poke the device. No
kernel call ever happens on this path.

The mediated path (`mediated_send` / `mediated_recv`) has identical
observable behavior but routes through the kernel's socket-style
interface, paying the ring-crossing and extra-copy costs.
"""

from __future__ import annotations

from typing import Optional

from .capability import Capability, with_cursor
from .kernel import ApiError, ErrCode, Kernel, RING_SIZE, BUF_SIZE
from .nic import DESC_DD, TX_CMD_EOP, TX_CMD_IFCS, TX_CMD_RS
from .physmem import PhysSpace
from .slicer import SliceTable


class Driver:
    def __init__(self, space: PhysSpace, table: Optional[SliceTable] = None,
                 kernel: Optional[Kernel] = None, device: str = "e1000e"):
        self.space = space
        self.kernel = kernel
        self.device = device
        self.table = table

        self.tx_tail_shadow = 0
        self._tx_oldest = 0
        self._tx_inflight = 0
        self.rx_head_shadow = 0
        self.rx_tail_shadow = RING_SIZE - 1

        if table is not None:
            index = table.index_map()

            def row(name: str) -> list[Capability]:
                return [table[index[f"{name}[{k}]"]] for k in range(RING_SIZE)]

            self._tdt = table[index["TDT"]]
            self._rdt = table[index["RDT"]]
            self._txd = row("TXD_META")
            self._rxd = row("RXD_META")
            self._txbuf = row("TXBUF")
            self._rxbuf = row("RXBUF")

    # -- bypass data path -----------------------------------------------------

    def _retire_tx(self) -> None:
        # The device sets DD when a descriptor completes; TDH itself is
        # kernel-only, so ring occupancy is tracked by polling the oldest
        # in-flight descriptor.
        while self._tx_inflight > 0:
            meta = self._txd[self._tx_oldest]
            status = self.space.load(with_cursor(meta, meta.base + 4), 1)
            if not status & DESC_DD:
                break
            self._tx_inflight -= 1
            self._tx_oldest = (self._tx_oldest + 1) % RING_SIZE

    def send(self, frame: bytes) -> None:
        """Copy the frame into the next free transmit buffer, fill the
        descriptor tail, and write the tail register."""
        if len(frame) > BUF_SIZE:
            raise ApiError(ErrCode.BAD_ARGUMENT, f"frame of {len(frame)} bytes")
        self._retire_tx()
        if self._tx_inflight == RING_SIZE:
            raise ApiError(ErrCode.BUSY, "transmit ring full")
        k = self.tx_tail_shadow
        self.space.store_bytes(self._txbuf[k], frame)
        meta = self._txd[k]  # descriptor bytes 8..15; a slice's cursor is its base
        self.space.store(meta, 2, len(frame))
        self.space.store(with_cursor(meta, meta.base + 4), 1, 0)  # clear DD
        self.space.store(with_cursor(meta, meta.base + 3), 1,
                         TX_CMD_EOP | TX_CMD_IFCS | TX_CMD_RS)
        self._tx_inflight += 1
        self.tx_tail_shadow = (k + 1) % RING_SIZE
        self.space.store(self._tdt, 4, self.tx_tail_shadow)

    def poll_recv(self) -> list[bytes]:
        """Drain every completed RX descriptor; one RDT write at the end."""
        frames: list[bytes] = []
        while True:
            meta = self._rxd[self.rx_head_shadow]
            status = self.space.load(with_cursor(meta, meta.base + 4), 1)
            if not status & DESC_DD:
                break
            length = self.space.load(meta, 2)
            frames.append(self.space.load_bytes(self._rxbuf[self.rx_head_shadow], length))
            self.space.store(with_cursor(meta, meta.base + 4), 1, status & ~DESC_DD)
            self.rx_head_shadow = (self.rx_head_shadow + 1) % RING_SIZE
            self.rx_tail_shadow = (self.rx_tail_shadow + 1) % RING_SIZE
        if frames:
            self.space.store(self._rdt, 4, self.rx_tail_shadow)
        return frames

    # -- kernel-mediated path ---------------------------------------------------

    def mediated_send(self, frame: bytes) -> None:
        self.kernel.socket_send(self.device, frame)

    def mediated_recv(self) -> list[bytes]:
        return self.kernel.socket_recv(self.device)
