import random

import pytest
from conftest import capture

from capslice import nic as nicmod
from capslice.capability import PERM_RW, with_cursor
from capslice.harness import BAR_BASE, SUT_ENDPOINT, build_machine
from capslice.nic import (
    DESC_DD,
    DESC_ERR,
    DESC_SIZE,
    FrameLink,
    NicModel,
    REG_IMS,
    REG_RDH,
    REG_STATUS,
    REG_TDH,
    REG_TDT,
    STATUS_LU,
)


def rig():
    """Machine with kernel-side handles for poking rings directly."""
    link = FrameLink(delay_ns=100.0, wire_ns_per_byte=0.0)
    m = build_machine("dev", "bypass", SUT_ENDPOINT, link=link)
    dev = m.kernel.device("e1000e")
    return m, dev, capture(link)


def wr_desc(m, dev, ring_addr, index, buf_addr, length, status=0):
    base = ring_addr + index * DESC_SIZE
    m.space.dma_write(base, buf_addr.to_bytes(8, "little"))
    m.space.dma_write(base + 8, length.to_bytes(2, "little"))
    m.space.dma_write(base + 12, bytes([status]))


def rd_status(m, ring_addr, index):
    return m.space.dma_read(ring_addr + index * DESC_SIZE + 12, 1)[0]


def mmio(m, dev, offset, value=None):
    cap = with_cursor(dev.mmio_root, dev.bar_base + offset)
    if value is None:
        return m.space.load(cap, 4)
    m.space.store(cap, 4, value)


def test_tdt_write_emits_frame_and_sets_dd():
    m, dev, got = rig()
    payload = bytes(range(60))
    m.space.dma_write(dev.dma.tx_buf(0), payload)
    wr_desc(m, dev, dev.dma.tx_ring, 0, dev.dma.tx_buf(0), len(payload))
    mmio(m, dev, REG_TDT, 1)
    assert m.nic.counters.tx_frames == 1
    assert [f for _, f in got[1]] == [payload]
    assert rd_status(m, dev.dma.tx_ring, 0) & DESC_DD
    assert mmio(m, dev, REG_TDH) == 1


def test_status_is_readonly_and_reflects_link():
    m, dev, _ = rig()
    before = mmio(m, dev, REG_STATUS)
    assert before & STATUS_LU
    mmio(m, dev, REG_STATUS, 0xFFFF)
    assert mmio(m, dev, REG_STATUS) == before


def test_unknown_offset_reads_zero():
    m, dev, _ = rig()
    assert mmio(m, dev, 0x5000) == 0
    mmio(m, dev, 0x5000, 123)  # swallowed
    assert mmio(m, dev, 0x5000) == 0


def test_unlinked_nic_reports_link_down():
    model = NicModel()
    space = None  # mmio_read does not touch the space
    assert not model.mmio_read(space, REG_STATUS, 4) & STATUS_LU


def test_ims_write_ors_bits():
    m, dev, _ = rig()
    mmio(m, dev, REG_IMS, 0x5)
    mmio(m, dev, REG_IMS, 0x2)
    assert mmio(m, dev, REG_IMS) == 0x7


def test_process_tx_three_ready_descriptors():
    m, dev, got = rig()
    for k in range(3):
        m.space.dma_write(dev.dma.tx_buf(k), bytes([k]) * 32)
        wr_desc(m, dev, dev.dma.tx_ring, k, dev.dma.tx_buf(k), 32)
    mmio(m, dev, REG_TDT, 3)
    assert m.nic.counters.tx_frames == 3
    assert mmio(m, dev, REG_TDH) == 3
    assert [f[0] for _, f in got[1]] == [0, 1, 2]


def test_process_tx_empty_ring_is_noop():
    m, dev, got = rig()
    frames_before = m.nic.counters.tx_frames
    m.nic.process_tx(m.space)
    assert m.nic.counters.tx_frames == frames_before
    assert got[1] == []


def test_process_tx_wraparound():
    # expected service order for head=63, tail=1 is [63, 0]: modular walk
    expected = [(63 + i) % 64 for i in range((1 - 63) % 64)]
    assert expected == [63, 0]
    m, dev, got = rig()
    m.nic.regs[REG_TDH] = 63
    for k in (63, 0):
        m.space.dma_write(dev.dma.tx_buf(k), bytes([k]) * 16)
        wr_desc(m, dev, dev.dma.tx_ring, k, dev.dma.tx_buf(k), 16)
    mmio(m, dev, REG_TDT, 1)
    assert [f[0] for _, f in got[1]] == [63, 0]
    assert mmio(m, dev, REG_TDH) == 1


def test_bad_length_descriptor_skipped_with_error():
    m, dev, got = rig()
    wr_desc(m, dev, dev.dma.tx_ring, 0, dev.dma.tx_buf(0), 0)        # zero length
    wr_desc(m, dev, dev.dma.tx_ring, 1, dev.dma.tx_buf(1), 4000)    # too long
    mmio(m, dev, REG_TDT, 2)
    assert m.nic.counters.tx_frames == 0
    assert got[1] == []
    for k in (0, 1):
        status = rd_status(m, dev.dma.tx_ring, k)
        assert status & DESC_DD and status & DESC_ERR
    assert mmio(m, dev, REG_TDH) == 2  # ring does not wedge


def test_deliver_frame_fills_descriptor():
    m, dev, _ = rig()
    desc = dev.dma.rx_ring
    m.space.dma_write(desc + 10, b"\xa5\x5a")  # bytes the device must not touch
    frame = bytes(range(60))
    assert m.nic.deliver_frame(m.space, frame)
    assert m.space.dma_read(dev.dma.rx_buf(0), 60) == frame
    assert int.from_bytes(m.space.dma_read(desc + 8, 2), "little") == 60
    assert m.space.dma_read(desc + 10, 2) == b"\xa5\x5a"
    assert rd_status(m, dev.dma.rx_ring, 0) & DESC_DD
    assert mmio(m, dev, REG_RDH) == 1


def test_deliver_back_to_back_fifo():
    m, dev, _ = rig()
    m.nic.deliver_frame(m.space, b"\x01" * 20)
    m.nic.deliver_frame(m.space, b"\x02" * 20)
    assert m.space.dma_read(dev.dma.rx_buf(0), 1) == b"\x01"
    assert m.space.dma_read(dev.dma.rx_buf(1), 1) == b"\x02"
    assert mmio(m, dev, REG_RDH) == 2


def test_deliver_ring_full_drops():
    m, dev, _ = rig()
    for _ in range(63):
        assert m.nic.deliver_frame(m.space, b"x" * 10)
    head_before = mmio(m, dev, REG_RDH)
    assert not m.nic.deliver_frame(m.space, b"x" * 10)  # 64th: head == tail
    assert m.nic.counters.rx_dropped == 1
    assert mmio(m, dev, REG_RDH) == head_before


def test_oversize_frame_dropped():
    m, dev, _ = rig()
    assert not m.nic.deliver_frame(m.space, bytes(2049))
    assert m.nic.counters.rx_dropped == 1
    assert m.nic.counters.rx_frames == 0


def test_mmio_access_counters():
    m, dev, _ = rig()
    reads, writes = m.nic.counters.mmio_reads, m.nic.counters.mmio_writes
    mmio(m, dev, REG_STATUS)
    mmio(m, dev, REG_TDT, 0)
    assert m.nic.counters.mmio_reads == reads + 1
    assert m.nic.counters.mmio_writes == writes + 1


def test_frame_conservation_over_random_traffic():
    # tx(sender) == rx(receiver) + dropped(receiver) on a reliable link
    link = FrameLink(delay_ns=0.0, wire_ns_per_byte=0.0)
    a = build_machine("a", "bypass", SUT_ENDPOINT, link=link)
    b = build_machine("b", "bypass", SUT_ENDPOINT, link=link)
    got = capture(link)
    rng = random.Random(99)
    dev_a = a.kernel.device("e1000e")
    sent = 0
    for _ in range(300):
        if rng.random() < 0.7:
            k = sent % 64
            payload = rng.randbytes(rng.randrange(1, 256))
            a.space.dma_write(dev_a.dma.tx_buf(k), payload)
            wr_desc(a, dev_a, dev_a.dma.tx_ring, k, dev_a.dma.tx_buf(k), len(payload))
            mmio(a, dev_a, REG_TDT, (k + 1) % 64)
            sent += 1
        else:
            for _, frame in got[1]:
                b.nic.deliver_frame(b.space, frame)
            got[1].clear()
    for _, frame in got[1]:
        b.nic.deliver_frame(b.space, frame)
    assert a.nic.counters.tx_frames == sent
    assert sent == b.nic.counters.rx_frames + b.nic.counters.rx_dropped


def test_link_delay_and_serialization():
    link = FrameLink(delay_ns=1000.0, wire_ns_per_byte=8.0)
    got = capture(link)
    src = link.attach()
    arrival = link.transmit(src, bytes(100), now=50.0)
    assert arrival == 50.0 + 1000.0 + 800.0
    assert got == ([], [(arrival, bytes(100))])


def test_link_rejects_jumbo_frames():
    link = FrameLink()
    src = link.attach()
    with pytest.raises(ValueError):
        link.transmit(src, bytes(1519), now=0.0)
