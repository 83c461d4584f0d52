import random
from dataclasses import replace

import pytest
from conftest import capture

from capslice import slicer
from capslice.capability import (
    Capability,
    CapFault,
    FaultKind,
    PERM_RW,
    Perm,
    make_otype_authority,
    seal,
    unseal,
    with_cursor,
)
from capslice.harness import BAR_BASE, SUT_ENDPOINT, build_machine
from capslice.kernel import (
    ApiError,
    BUF_SIZE,
    DESC_SIZE,
    DMA_LENGTH,
    ErrCode,
    RING_SIZE,
)
from capslice.manifest import PermClass
from capslice.nic import (
    PRIVILEGED,
    FrameLink,
    REG_RDT,
    REG_STATUS,
    REG_TCTL,
    REG_TDH,
    REG_TDT,
    STATUS_LU,
)


def rig(mode="bypass"):
    m = build_machine("kern", mode, SUT_ENDPOINT, link=FrameLink())
    return m, m.kernel.device("e1000e")


def mmio_read(m, dev, offset):
    return m.space.load(with_cursor(dev.mmio_root, dev.bar_base + offset), 4)


def desc_addr(m, ring, index):
    return int.from_bytes(m.space.dma_read(ring + index * DESC_SIZE, 8), "little")


def dma_snapshot(m, dev):
    return bytes(m.space.data[dev.dma.base:dev.dma.base + DMA_LENGTH])


# -- stub bring-up -----------------------------------------------------------

def test_stub_attach_brings_link_up():
    m, dev = rig()
    assert mmio_read(m, dev, REG_STATUS) & STATUS_LU


def test_stub_preprograms_descriptors_to_paired_buffers():
    m, dev = rig()
    for k in range(RING_SIZE):
        assert desc_addr(m, dev.dma.rx_ring, k) == dev.dma.rx_buf(k)
        assert desc_addr(m, dev.dma.tx_ring, k) == dev.dma.tx_buf(k)


def test_stub_initial_ring_registers():
    m, dev = rig()
    assert mmio_read(m, dev, REG_TDT) == 0
    assert mmio_read(m, dev, REG_TDH) == 0
    assert mmio_read(m, dev, REG_RDT) == RING_SIZE - 1


def test_double_attach_is_error():
    m, dev = rig()
    with pytest.raises(ApiError) as err:
        m.kernel.stub_attach("e1000e", BAR_BASE, dev.bar_manifest, dev.dma_manifest)
    assert err.value.code is ErrCode.BUSY


def test_stub_refuses_any_grant_of_a_privileged_register():
    m, dev = rig()
    shipped = dev.bar_manifest
    kernel_only = [e for e in shipped.entries if e.perm is PermClass.KERNEL]
    assert sorted(e.offset for e in kernel_only) == sorted(PRIVILEGED)
    for e in kernel_only:
        for perm in (PermClass.RO, PermClass.RW):
            entries = tuple(replace(x, perm=perm) if x is e else x for x in shipped.entries)
            with pytest.raises(ApiError) as err:
                m.kernel.stub_attach("probe", BAR_BASE, replace(shipped, entries=entries),
                                     dev.dma_manifest)
            assert err.value.code is ErrCode.BAD_ARGUMENT and e.name in str(err.value)
    with pytest.raises(ApiError):
        m.kernel.device("probe")


# -- attach tokens ---------------------------------------------------------------

def test_attach_token_is_sealed_and_recoverable():
    m, _ = rig()
    token = m.kernel.attach(4242)
    assert token.sealed and token.otype == slicer.INTERFACE_OTYPE
    # the interface authority recovers {process, device}
    opened = unseal(token, make_otype_authority(slicer.INTERFACE_OTYPE))
    assert m.space.load(with_cursor(opened, opened.base), 8) == 4242


def test_attach_unknown_device():
    m, _ = rig()
    with pytest.raises(ApiError) as err:
        m.kernel.attach(1, device="virtio")
    assert err.value.code is ErrCode.NO_SUCH_DEVICE


def test_two_attaches_mint_distinct_tokens():
    m, _ = rig()
    t1, t2 = m.kernel.attach(1), m.kernel.attach(2)
    assert t1.base != t2.base


def test_token_cannot_be_dereferenced_by_holder():
    m, _ = rig()
    token = m.kernel.attach(7)
    with pytest.raises(CapFault) as err:
        m.space.load(token, 8)
    assert err.value.kind is FaultKind.SEAL_VIOLATION


# -- map_mmio ------------------------------------------------------------------

def test_map_mmio_returns_register_and_ring_slices():
    m, _ = rig()
    token = m.kernel.attach(7)
    table = m.kernel.map_mmio(token)
    names = table.names()
    assert {"CTRL", "STATUS", "TDT", "RDT"} <= set(names)
    assert "IMS" not in names
    assert "TXD_META[0]" in names and "RXBUF[63]" in names
    assert table.sealed_root.sealed and table.sealed_dma_root.sealed


def test_map_mmio_single_mapping_rule():
    m, _ = rig()
    token = m.kernel.attach(7)
    m.kernel.map_mmio(token)
    with pytest.raises(ApiError) as err:
        m.kernel.map_mmio(token)
    assert err.value.code is ErrCode.DENIED


def test_map_mmio_denies_forged_and_mistyped_tokens():
    m, dev = rig()
    writes_before = m.nic.counters.mmio_writes
    ram_before = dma_snapshot(m, dev)

    forged = Capability(base=0x40, length=16, cursor=0x40, perms=Perm.READ,
                        tag=False, otype=slicer.INTERFACE_OTYPE)
    with pytest.raises(ApiError) as err:
        m.kernel.map_mmio(forged)
    assert err.value.code is ErrCode.DENIED

    # sealed under the slicer's otype, not the interface's
    token = m.kernel.attach(3)
    table = m.kernel.map_mmio(token)
    with pytest.raises(ApiError) as err:
        m.kernel.map_mmio(table.sealed_root)
    assert err.value.code is ErrCode.DENIED

    # plain unsealed capability
    with pytest.raises(ApiError) as err:
        m.kernel.map_mmio(dev.dma_root)
    assert err.value.code is ErrCode.DENIED

    assert m.nic.counters.mmio_writes == writes_before
    assert dma_snapshot(m, dev) == ram_before


def test_returned_capabilities_are_sealed_or_strict_subranges():
    m, dev = rig()
    token = m.kernel.attach(7)
    table = m.kernel.map_mmio(token)
    roots = {(dev.mmio_root.base, dev.mmio_root.length),
             (dev.dma_root.base, dev.dma_root.length)}
    for name, cap in table:
        assert not (cap.base, cap.length) in roots or cap.sealed, name
    for sealed in (table.sealed_root, table.sealed_dma_root, token):
        assert sealed.sealed


# -- the privileged ioctl -----------------------------------------------------

def test_ioctl_updates_descriptor_address():
    m, dev = rig()
    token = m.kernel.attach(7)
    table = m.kernel.map_mmio(token)
    buf5 = table.by_name("TXBUF[5]")
    m.kernel.ioctl_set_desc_addr(token, "tx", 0, buf5)
    assert desc_addr(m, dev.dma.tx_ring, 0) == buf5.base


def test_ioctl_rejects_untagged_disguised_integer():
    m, dev = rig()
    token = m.kernel.attach(7)
    fake = Capability(base=dev.dma.bufs_base, length=64, cursor=dev.dma.bufs_base,
                      perms=Perm.READ, tag=False)
    before = desc_addr(m, dev.dma.tx_ring, 0)
    with pytest.raises(ApiError) as err:
        m.kernel.ioctl_set_desc_addr(token, "tx", 0, fake)
    assert err.value.code is ErrCode.DENIED
    assert desc_addr(m, dev.dma.tx_ring, 0) == before


def test_ioctl_rejects_capability_outside_buffer_region():
    m, dev = rig()
    token = m.kernel.attach(7)
    table = m.kernel.map_mmio(token)
    # tagged, readable, but bounds a descriptor ring, not a buffer
    ring_cap = table.by_name("TXD_META[3]")
    before = desc_addr(m, dev.dma.tx_ring, 3)
    with pytest.raises(ApiError) as err:
        m.kernel.ioctl_set_desc_addr(token, "tx", 3, ring_cap)
    assert err.value.code is ErrCode.DENIED
    assert desc_addr(m, dev.dma.tx_ring, 3) == before


def test_ioctl_rejects_kernel_ram_capability():
    m, dev = rig()
    token = m.kernel.attach(7)
    alien = Capability(base=0x40, length=2048, cursor=0x40, perms=PERM_RW, tag=True)
    with pytest.raises(ApiError) as err:
        m.kernel.ioctl_set_desc_addr(token, "rx", 1, alien)
    assert err.value.code is ErrCode.DENIED


def test_ioctl_argument_validation():
    m, dev = rig()
    token = m.kernel.attach(7)
    table = m.kernel.map_mmio(token)
    buf = table.by_name("TXBUF[0]")
    with pytest.raises(ApiError) as err:
        m.kernel.ioctl_set_desc_addr(token, "txx", 0, buf)
    assert err.value.code is ErrCode.BAD_ARGUMENT
    with pytest.raises(ApiError) as err:
        m.kernel.ioctl_set_desc_addr(token, "tx", RING_SIZE, buf)
    assert err.value.code is ErrCode.BAD_ARGUMENT


def test_ioctl_requires_valid_token():
    m, dev = rig()
    buf = Capability(base=dev.dma.bufs_base, length=64, cursor=dev.dma.bufs_base,
                     perms=Perm.READ, tag=True)
    with pytest.raises(ApiError) as err:
        m.kernel.ioctl_set_desc_addr(dev.dma_root, "tx", 0, buf)
    assert err.value.code is ErrCode.DENIED


def test_containment_across_hostile_ioctl_storm():
    m, dev = rig()
    token = m.kernel.attach(7)
    table = m.kernel.map_mmio(token)
    rng = random.Random(1337)
    candidates = [table.by_name(f"TXBUF[{k}]") for k in range(RING_SIZE)]
    for _ in range(300):
        roll = rng.random()
        try:
            if roll < 0.4:
                m.kernel.ioctl_set_desc_addr(token, rng.choice(["tx", "rx"]),
                                             rng.randrange(RING_SIZE),
                                             rng.choice(candidates))
            elif roll < 0.7:
                hostile = Capability(base=rng.randrange(0, 0x90000), length=128,
                                     cursor=0, perms=PERM_RW, tag=True)
                m.kernel.ioctl_set_desc_addr(token, "tx",
                                             rng.randrange(RING_SIZE), hostile)
            else:
                fake = Capability(base=dev.dma.bufs_base, length=8, cursor=0,
                                  perms=PERM_RW, tag=False)
                m.kernel.ioctl_set_desc_addr(token, "rx",
                                             rng.randrange(RING_SIZE), fake)
        except ApiError:
            pass
        for k in range(RING_SIZE):
            for ring in (dev.dma.tx_ring, dev.dma.rx_ring):
                addr = desc_addr(m, ring, k)
                assert dev.dma.bufs_base <= addr < dev.dma.bufs_end


# -- mediated socket path ---------------------------------------------------------

def test_socket_path_echoes_bytes():
    link = FrameLink(delay_ns=10.0, wire_ns_per_byte=0.0)
    a = build_machine("a", "mediated", SUT_ENDPOINT, link=link)
    b = build_machine("b", "mediated", SUT_ENDPOINT, link=link)
    got = capture(link)
    frame = bytes(range(64))
    a.kernel.socket_send("e1000e", frame)
    for _, f in got[1]:
        b.nic.deliver_frame(b.space, f)
    assert b.kernel.socket_recv("e1000e") == [frame]
    assert b.kernel.socket_recv("e1000e") == []


def test_socket_send_charges_syscalls_and_extra_copy():
    m, dev = rig("mediated")
    frame = bytes(200)
    t0 = m.space.clock
    m.kernel.socket_send("e1000e", frame)
    elapsed = m.space.clock - t0
    costs = m.space.costs
    # entry+exit, the user->kernel copy, the buffer copy, the device DMA
    # copy, three descriptor stores, and the tail register write
    expected = (2 * costs.syscall_ns + 3 * 200 * costs.copy_per_byte_ns
                + 3 * costs.ram_access_ns + costs.mmio_access_ns)
    assert elapsed == pytest.approx(expected)


def test_socket_send_busy_when_ring_stalls():
    m, dev = rig("mediated")
    # freeze the transmitter so completions never arrive
    m.space.store(with_cursor(dev.mmio_root, dev.bar_base + REG_TCTL), 4, 0)
    for _ in range(RING_SIZE):
        m.kernel.socket_send("e1000e", b"x" * 32)
    with pytest.raises(ApiError) as err:
        m.kernel.socket_send("e1000e", b"x" * 32)
    assert err.value.code is ErrCode.BUSY


def test_kernel_invocation_counter():
    m, _ = rig()
    base = m.kernel.invocations
    token = m.kernel.attach(1)
    try:
        m.kernel.map_mmio(token)
    except ApiError:
        pass
    assert m.kernel.invocations == base + 2
