"""Userspace-style poll-mode driver for the sliced e1000e.

The bypass path (`send` / `poll_recv`) runs the ring engine,
`kernel.Rings`, purely over the slice table: descriptor-tail slices,
per-buffer slices, and the TDT/RDT register slices. No kernel call ever
happens on this path. A table without a writable TDT or RDT slice cannot
drive the rings and is refused with `ApiError(BAD_ARGUMENT)`.

The mediated path (`mediated_send` / `mediated_recv`) routes through the
kernel's socket-style interface, which runs the same engine over the
kernel roots and pays the ring-crossing and extra-copy costs.
"""

from __future__ import annotations

from typing import Optional

from .capability import WRITE_MASK, Capability
from .kernel import ApiError, ErrCode, Kernel, Rings
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

            def tail(name: str) -> Capability:
                # The kernel carves the DMA slices; the BAR manifest may leave
                # out the tail registers or withhold their write permission.
                i = index.get(name)
                if i is None or not table[i].has(WRITE_MASK):
                    raise ApiError(ErrCode.BAD_ARGUMENT, f"slice table grants no writable {name}")
                return table[i]

            self.rings = Rings.over(space, table, index, tail("TDT"), tail("RDT"))

    # -- bypass data path -----------------------------------------------------

    def send(self, frame: bytes) -> None:
        self.rings.send(frame)

    def poll_recv(self) -> list[bytes]:
        return self.rings.recv()

    # -- kernel-mediated path ---------------------------------------------------

    def mediated_send(self, frame: bytes) -> None:
        self.kernel.socket_send(frame)

    def mediated_recv(self) -> list[bytes]:
        return self.kernel.socket_recv()
