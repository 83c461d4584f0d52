"""Userspace-style poll-mode driver for the sliced e1000e.

The bypass path (`send` / `poll_recv`) runs the ring engine,
`kernel.Rings`, purely over the slice table: descriptor-tail slices,
per-buffer slices, and the TDT/RDT register slices. No kernel call ever
happens on this path.

The mediated path (`mediated_send` / `mediated_recv`) routes through the
kernel's socket-style interface, which runs the same engine over the
kernel roots and pays the ring-crossing and extra-copy costs.
"""

from __future__ import annotations

from typing import Optional

from .capability import Capability
from .kernel import Kernel, RING_SIZE, Rings
from .physmem import PhysSpace
from .slicer import SliceTable


class Driver:
    def __init__(self, space: PhysSpace, table: Optional[SliceTable] = None,
                 kernel: Optional[Kernel] = None):
        self.space = space
        self.kernel = kernel
        self.rings: Optional[Rings] = None

        if table is not None:
            index = table.index_map()

            def row(name: str) -> list[Capability]:
                return [table[index[f"{name}[{k}]"]] for k in range(RING_SIZE)]

            self.rings = Rings(space, row("TXD_META"), row("TXBUF"),
                               row("RXD_META"), row("RXBUF"),
                               table[index["TDT"]], table[index["RDT"]])

    # -- bypass data path -----------------------------------------------------

    def send(self, frame: bytes) -> None:
        self.rings.send(frame)

    def poll_recv(self) -> list[bytes]:
        return self.rings.recv()

    # -- kernel-mediated path ---------------------------------------------------

    def mediated_send(self, frame: bytes) -> None:
        self.kernel.socket_send("e1000e", frame)

    def mediated_recv(self) -> list[bytes]:
        return self.kernel.socket_recv("e1000e")
