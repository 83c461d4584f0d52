import random
import struct

import pytest
from conftest import capture

from capslice import nic as nicmod
from capslice.capability import PERM_RW, with_cursor
from capslice.harness import BAR_BASE, SUT_ENDPOINT, build_machine
from capslice.kernel import BUF_SIZE, DMA_RX_BUFS, DMA_RX_RING, DMA_TX_BUFS, DMA_TX_RING
from capslice.nic import (
    DESC_CMD,
    DESC_DD,
    DESC_ERR,
    DESC_LENGTH,
    DESC_SIZE,
    DESC_STATUS,
    FrameLink,
    MAX_LINK_FRAME,
    NicModel,
    REG_CTRL,
    REG_ICR,
    REG_IMS,
    REG_RDH,
    REG_STATUS,
    REG_TDH,
    REG_TDT,
    STATUS_LU,
    TX_CMD_EOP,
    TX_CMD_IFCS,
    TX_CMD_RS,
)


def rig():
    """Machine with kernel-side handles for poking rings directly."""
    link = FrameLink(delay_ns=100.0, wire_ns_per_byte=0.0)
    m = build_machine("dev", "bypass", SUT_ENDPOINT, link=link)
    return m, m.kernel, capture(link)


def tx_ring(kern):
    return kern.dma_root.base + DMA_TX_RING


def rx_ring(kern):
    return kern.dma_root.base + DMA_RX_RING


def tx_buf(kern, k):
    return kern.dma_root.base + DMA_TX_BUFS + k * BUF_SIZE


def rx_buf(kern, k):
    return kern.dma_root.base + DMA_RX_BUFS + k * BUF_SIZE


def wr_desc(m, kern, ring_addr, index, buf_addr, length, status=0):
    base = ring_addr + index * DESC_SIZE
    m.space.dma_write(base, buf_addr.to_bytes(8, "little"))
    m.space.dma_write(base + 8, length.to_bytes(2, "little"))
    m.space.dma_write(base + 12, bytes([status]))


def rd_status(m, ring_addr, index):
    return m.space.dma_read(ring_addr + index * DESC_SIZE + 12, 1)[0]


def mmio(m, kern, offset, value=None):
    cap = with_cursor(kern.mmio_root, kern.mmio_root.base + offset)
    if value is None:
        return m.space.load(cap, 4)
    m.space.store(cap, 4, value)


def test_tdt_write_emits_frame_and_sets_dd():
    m, kern, got = rig()
    payload = bytes(range(60))
    m.space.dma_write(tx_buf(kern, 0), payload)
    wr_desc(m, kern, tx_ring(kern), 0, tx_buf(kern, 0), len(payload))
    mmio(m, kern, REG_TDT, 1)
    assert m.nic.counters.tx_frames == 1
    assert [f for _, f in got[1]] == [payload]
    assert rd_status(m, tx_ring(kern), 0) & DESC_DD
    assert mmio(m, kern, REG_TDH) == 1


def test_status_is_readonly_and_reflects_link():
    m, kern, _ = rig()
    before = mmio(m, kern, REG_STATUS)
    assert before & STATUS_LU
    mmio(m, kern, REG_STATUS, 0xFFFF)
    assert mmio(m, kern, REG_STATUS) == before


def test_unknown_offset_reads_zero():
    m, kern, _ = rig()
    assert mmio(m, kern, 0x5000) == 0
    mmio(m, kern, 0x5000, 123)  # swallowed
    assert mmio(m, kern, 0x5000) == 0
    # ICR drops writes too, since interrupts are not modeled.
    mmio(m, kern, REG_ICR, 0xFFFFFFFF)
    assert mmio(m, kern, REG_ICR) == 0


def test_unlinked_nic_reports_link_down():
    model = NicModel()
    space = None  # mmio_read does not touch the space
    assert not model.mmio_read(space, REG_STATUS, 4) & STATUS_LU


def test_ims_write_ors_bits():
    m, kern, _ = rig()
    mmio(m, kern, REG_IMS, 0x5)
    mmio(m, kern, REG_IMS, 0x2)
    assert mmio(m, kern, REG_IMS) == 0x7


def test_process_tx_three_ready_descriptors():
    m, kern, got = rig()
    for k in range(3):
        m.space.dma_write(tx_buf(kern, k), bytes([k]) * 32)
        wr_desc(m, kern, tx_ring(kern), k, tx_buf(kern, k), 32)
    mmio(m, kern, REG_TDT, 3)
    assert m.nic.counters.tx_frames == 3
    assert mmio(m, kern, REG_TDH) == 3
    assert [f[0] for _, f in got[1]] == [0, 1, 2]


def test_process_tx_empty_ring_is_noop():
    m, kern, got = rig()
    frames_before = m.nic.counters.tx_frames
    m.nic.process_tx(m.space)
    assert m.nic.counters.tx_frames == frames_before
    assert got[1] == []


def test_process_tx_wraparound():
    # expected service order for head=63, tail=1 is [63, 0]: modular walk
    expected = [(63 + i) % 64 for i in range((1 - 63) % 64)]
    assert expected == [63, 0]
    m, kern, got = rig()
    m.nic.regs[REG_TDH] = 63
    for k in (63, 0):
        m.space.dma_write(tx_buf(kern, k), bytes([k]) * 16)
        wr_desc(m, kern, tx_ring(kern), k, tx_buf(kern, k), 16)
    mmio(m, kern, REG_TDT, 1)
    assert [f[0] for _, f in got[1]] == [63, 0]
    assert mmio(m, kern, REG_TDH) == 1


def test_bad_length_descriptor_skipped_with_error():
    m, kern, got = rig()
    wr_desc(m, kern, tx_ring(kern), 0, tx_buf(kern, 0), 0)        # zero length
    wr_desc(m, kern, tx_ring(kern), 1, tx_buf(kern, 1), 4000)    # longer than a buffer
    # fits the buffer, but is longer than the link carries
    wr_desc(m, kern, tx_ring(kern), 2, tx_buf(kern, 2), MAX_LINK_FRAME + 1)
    mmio(m, kern, REG_TDT, 3)
    assert m.nic.counters.tx_frames == 0
    assert got[1] == []
    for k in (0, 1, 2):
        status = rd_status(m, tx_ring(kern), k)
        assert status & DESC_DD and status & DESC_ERR
    assert mmio(m, kern, REG_TDH) == 3  # ring does not wedge


# Bytes 10..11 and 13..15 of a legacy TX descriptor: CSO, CMD, CSS and the
# two special bytes. The device reads none of them and writes none back.
TX_EXTRA = {10: 0x5A, 11: 0xB3, 13: 0x11, 14: 0x22, 15: 0x33}


def wr_desc_with_extra(m, ring_addr, index, buf_addr, length):
    raw = bytearray(buf_addr.to_bytes(8, "little") + length.to_bytes(2, "little") + bytes(6))
    for at, value in TX_EXTRA.items():
        raw[at] = value
    m.space.dma_write(ring_addr + index * DESC_SIZE, bytes(raw))
    return bytes(raw)


@pytest.mark.parametrize("length,status", [(60, DESC_DD), (0, DESC_DD | DESC_ERR)])
def test_tx_completion_writes_only_the_status_byte(length, status):
    m, kern, got = rig()
    payload = bytes(range(60))
    m.space.dma_write(tx_buf(kern, 0), payload)
    before = wr_desc_with_extra(m, tx_ring(kern), 0, tx_buf(kern, 0), length)
    mmio(m, kern, REG_TDT, 1)
    # the offload bytes change nothing about the frame sent
    assert [f for _, f in got[1]] == ([payload] if length else [])
    after = m.space.dma_read(tx_ring(kern), DESC_SIZE)
    assert after[12] == status
    assert after[:12] + after[13:] == before[:12] + before[13:]


def test_rx_delivery_keeps_bytes_the_device_does_not_own():
    m, kern, _ = rig()
    desc = rx_ring(kern)
    before = m.space.dma_read(desc, DESC_SIZE)
    m.space.dma_write(desc + 10, b"\xa5\x5a")
    m.space.dma_write(desc + 13, b"\x01\x02\x03")
    assert m.nic.deliver_frame(m.space, bytes(60))
    after = m.space.dma_read(desc, DESC_SIZE)
    assert after[:8] == before[:8]  # the buffer address
    assert int.from_bytes(after[8:10], "little") == 60
    assert after[10:12] == b"\xa5\x5a"
    assert after[12] == DESC_DD
    assert after[13:] == b"\x01\x02\x03"


def test_deliver_frame_fills_descriptor():
    m, kern, _ = rig()
    desc = rx_ring(kern)
    m.space.dma_write(desc + 10, b"\xa5\x5a")  # bytes the device must not touch
    frame = bytes(range(60))
    assert m.nic.deliver_frame(m.space, frame)
    assert m.space.dma_read(rx_buf(kern, 0), 60) == frame
    assert int.from_bytes(m.space.dma_read(desc + 8, 2), "little") == 60
    assert m.space.dma_read(desc + 10, 2) == b"\xa5\x5a"
    assert rd_status(m, rx_ring(kern), 0) & DESC_DD
    assert mmio(m, kern, REG_RDH) == 1


def test_named_descriptor_offsets_match_the_device_structs():
    # TX: the ring engine fills the fields the device's descriptor struct reads.
    m, kern, got = rig()
    frame = bytes(range(60))
    kern._rings().send(frame)
    assert [f for _, f in got[1]] == [frame]
    desc = m.space.dma_read(tx_ring(kern), DESC_SIZE)
    addr, length, status = nicmod._TX_DESC.unpack_from(desc)
    assert (addr, length) == (tx_buf(kern, 0), len(frame)) and status & DESC_DD
    cmd = TX_CMD_EOP | TX_CMD_IFCS | TX_CMD_RS
    assert desc[DESC_CMD] == cmd
    # The legacy TX layout: address, length, CSO, CMD, status, CSS, special.
    assert desc == struct.pack("<QHBBBBH", addr, length, 0, cmd, DESC_DD, 0, 0)
    # RX: the device's write-back lands on the fields the ring engine reads.
    assert m.nic.deliver_frame(m.space, frame[:42])
    desc = m.space.dma_read(rx_ring(kern), DESC_SIZE)
    assert int.from_bytes(desc[DESC_LENGTH:DESC_LENGTH + 2], "little") == 42
    assert desc[DESC_STATUS] == DESC_DD
    assert kern._rings().recv() == [frame[:42]]


def test_deliver_back_to_back_fifo():
    m, kern, _ = rig()
    m.nic.deliver_frame(m.space, b"\x01" * 20)
    m.nic.deliver_frame(m.space, b"\x02" * 20)
    assert m.space.dma_read(rx_buf(kern, 0), 1) == b"\x01"
    assert m.space.dma_read(rx_buf(kern, 1), 1) == b"\x02"
    assert mmio(m, kern, REG_RDH) == 2


def test_deliver_ring_full_drops():
    m, kern, _ = rig()
    for _ in range(63):
        assert m.nic.deliver_frame(m.space, b"x" * 10)
    head_before = mmio(m, kern, REG_RDH)
    assert not m.nic.deliver_frame(m.space, b"x" * 10)  # 64th: head == tail
    assert m.nic.counters.rx_dropped == 1
    assert mmio(m, kern, REG_RDH) == head_before


def test_oversize_frame_dropped():
    m, kern, _ = rig()
    # longer than a buffer, then longer than the link carries
    for dropped, size in enumerate((2049, MAX_LINK_FRAME + 1), start=1):
        assert not m.nic.deliver_frame(m.space, bytes(size))
        assert m.nic.counters.rx_dropped == dropped
    assert m.nic.counters.rx_frames == 0
    assert mmio(m, kern, REG_RDH) == 0


def test_mmio_access_counters():
    m, kern, _ = rig()
    reads, writes = m.nic.counters.mmio_reads, m.nic.counters.mmio_writes
    mmio(m, kern, REG_STATUS)
    mmio(m, kern, REG_TDT, 0)
    assert m.nic.counters.mmio_reads == reads + 1
    assert m.nic.counters.mmio_writes == writes + 1


def test_register_store_wider_than_32_bits_never_reaches_the_device():
    m, kern, _ = rig()
    mmio(m, kern, REG_CTRL, 0xFFFFFFFF)
    writes, clock = m.nic.counters.mmio_writes, m.space.clock
    for value in ((1 << 32) + 5, -1):
        with pytest.raises(ValueError):
            mmio(m, kern, REG_CTRL, value)
    assert (m.nic.counters.mmio_writes, m.space.clock) == (writes, clock)
    assert mmio(m, kern, REG_CTRL) == 0xFFFFFFFF


def test_frame_conservation_over_random_traffic():
    # tx(sender) == rx(receiver) + dropped(receiver) on a reliable link
    link = FrameLink(delay_ns=0.0, wire_ns_per_byte=0.0)
    a = build_machine("a", "bypass", SUT_ENDPOINT, link=link)
    b = build_machine("b", "bypass", SUT_ENDPOINT, link=link)
    got = capture(link)
    rng = random.Random(99)
    kern_a = a.kernel
    sent = 0
    for _ in range(300):
        if rng.random() < 0.7:
            k = sent % 64
            payload = rng.randbytes(rng.randrange(1, 256))
            a.space.dma_write(tx_buf(kern_a, k), payload)
            wr_desc(a, kern_a, tx_ring(kern_a), k, tx_buf(kern_a, k), len(payload))
            mmio(a, kern_a, REG_TDT, (k + 1) % 64)
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
