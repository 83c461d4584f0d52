"""The attack catalog, against a live machine.

A hostile driver process holds real slices to a real (simulated) NIC and
tries everything: offsetting into privileged registers, rewriting DMA
pointers, forging tokens. Every attempt dies at the capability check or
at the kernel's token gate.

Run:  python3 demos/03_isolation_attacks.py
"""

from capslice import ApiError, CapFault, Capability, Perm
from capslice.capability import with_cursor
from capslice.harness import SUT_ENDPOINT, build_machine
from capslice.kernel import DESC_SIZE, DMA_TX_RING
from capslice.nic import FrameLink
from capslice import slicer

m = build_machine("victim", "bypass", SUT_ENDPOINT, link=FrameLink())
print(f"machine up: {len(m.table)} slices mapped,"
      f" device at {m.kernel.mmio_root.base:#x}\n")


def attempt(label, thunk):
    try:
        thunk()
        print(f"  !! {label}: SUCCEEDED (this would be a security hole)")
    except CapFault as fault:
        print(f"  ok {label}: CapFault {fault.kind.name} at {fault.address:#x}")
    except ApiError as err:
        print(f"  ok {label}: kernel says {err}")


print("attack 1: offset from the writable CTRL register to the interrupt mask")
ctrl = m.table.by_name("CTRL")
attempt("*(ctrl + 0xD0) = 42",
        lambda: m.space.store(with_cursor(ctrl, ctrl.base + 0xD0), 4, 42))

print("\nattack 2: write the read-only STATUS register")
status = m.table.by_name("STATUS")
attempt("*status = 0", lambda: m.space.store(status, 4, 0))

print("\nattack 3: repoint a transmit descriptor somewhere tasty")
target = m.kernel.dma_root.base + DMA_TX_RING + 5 * DESC_SIZE  # descriptor 5's address word
meta5 = m.table.by_name("TXD_META[5]")
attempt("descriptor addr via meta slice",
        lambda: m.space.store(with_cursor(meta5, target), 8, 0x40))
attempt("descriptor addr via buffer slice",
        lambda: m.space.store(with_cursor(m.table.by_name("TXBUF[5]"), target), 8, 0x40))

print("\nattack 4: forge an attach token from raw bits")
forged = Capability(base=0x40, length=16, cursor=0x40, perms=Perm.READ,
                    tag=False, otype=slicer.INTERFACE_OTYPE)
attempt("map_mmio(forged bits)", lambda: m.kernel.map_mmio(forged))

print("\nattack 5: replay the sealed aperture root as an attach token")
attempt("map_mmio(sealed aperture root)",
        lambda: m.kernel.map_mmio(m.table.sealed_root))

print("\nattack 6: hand the privileged ioctl a capability outside the DMA buffers")
alien = Capability(base=0x80, length=2048, cursor=0x80, perms=Perm.READ, tag=True)
attempt("ioctl_set_desc_addr(.., kernel RAM cap)",
        lambda: m.kernel.ioctl_set_desc_addr(m.token, "tx", 0, alien))

print("\nattack 7: dereference the attach token itself")
attempt("*token", lambda: m.space.load(m.token, 8))

print("\nall attacks contained; device state never moved.")
