import random

import pytest
from conftest import capture

from capslice.capability import CapFault, FaultKind, with_cursor
from capslice.harness import (
    PEER_ENDPOINT,
    SUT_ENDPOINT,
    build_machine,
    manifest_reach_oracle,
)
from capslice.kernel import ApiError, ErrCode, RING_SIZE
from capslice.netstack import encode_udp
from capslice.nic import BAR_LENGTH, FrameLink, REG_TCTL, REG_TDT
from capslice.physmem import AccessCostTable
from capslice.slicer import AUDIT_READ, AUDIT_WRITE, audit_reachability


def pair(mode="bypass", costs=None):
    link = FrameLink(delay_ns=10.0, wire_ns_per_byte=0.0)
    sut = build_machine("sut", mode, SUT_ENDPOINT, costs=costs, link=link)
    peer = build_machine("peer", "bypass", PEER_ENDPOINT, costs=costs, link=link)
    return sut, peer, capture(link)


def pump(got, endpoint, machine):
    frames = [f for _, f in got[endpoint]]
    got[endpoint].clear()
    for f in frames:
        machine.nic.deliver_frame(machine.space, f)
    return frames


def test_send_emits_one_frame():
    sut, peer, got = pair()
    frame = encode_udp(SUT_ENDPOINT, PEER_ENDPOINT, b"hello")
    before = sut.nic.counters.tx_frames
    sut.driver.send(frame)
    assert sut.nic.counters.tx_frames == before + 1
    assert [f for _, f in got[1]] == [frame]


def test_send_cannot_touch_descriptor_address_words():
    sut, _, _ = pair()
    meta = sut.table.by_name("TXD_META[0]")
    with pytest.raises(CapFault) as err:
        sut.space.store(with_cursor(meta, meta.base - 8), 8, 0xDEAD)
    assert err.value.kind is FaultKind.BOUNDS_VIOLATION


def test_sixty_fifth_send_without_completions_is_busy():
    sut, _, _ = pair()
    dev = sut.kernel.device("e1000e")
    # freeze the transmitter: descriptors are accepted but never complete
    sut.space.store(with_cursor(dev.mmio_root, dev.bar_base + REG_TCTL), 4, 0)
    frame = encode_udp(SUT_ENDPOINT, PEER_ENDPOINT, b"x")
    for _ in range(RING_SIZE):
        sut.driver.send(frame)
    with pytest.raises(ApiError) as err:
        sut.driver.send(frame)
    assert err.value.code is ErrCode.BUSY


def test_poll_recv_returns_delivered_frames_in_order():
    sut, peer, got = pair()
    frames = [encode_udp(PEER_ENDPOINT, SUT_ENDPOINT, bytes([k]) * 30)
              for k in range(3)]
    for f in frames:
        peer.driver.send(f)
    pump(got, 0, sut)
    assert sut.driver.poll_recv() == frames


def test_poll_recv_idle_makes_no_mmio_writes():
    sut, _, _ = pair()
    writes = sut.nic.counters.mmio_writes
    assert sut.driver.poll_recv() == []
    assert sut.nic.counters.mmio_writes == writes


@pytest.mark.parametrize("mode", ["bypass", "mediated"])
def test_shadow_tail_matches_device_register(mode):
    sut, peer, link = pair(mode)
    send = sut.driver.send if mode == "bypass" else sut.driver.mediated_send
    frame = encode_udp(SUT_ENDPOINT, PEER_ENDPOINT, b"abc")
    for _ in range(5):
        send(frame)
    dev = sut.kernel.device("e1000e")
    rings = sut.driver.rings if mode == "bypass" else dev.rings
    tdt = sut.space.load(with_cursor(dev.mmio_root, dev.bar_base + REG_TDT), 4)
    assert tdt == rings.tx_tail == 5


def test_ring_wraparound_end_to_end():
    sut, peer, got = pair()
    frame = encode_udp(PEER_ENDPOINT, SUT_ENDPOINT, b"spin")
    received = 0
    for _ in range(150):  # more than two trips around the 64-entry rings
        peer.driver.send(frame)
        pump(got, 0, sut)
        received += len(sut.driver.poll_recv())
    assert received == 150
    assert sut.nic.counters.rx_dropped == 0


def test_bypass_path_never_calls_kernel():
    sut, peer, got = pair()
    calls = sut.kernel.invocations
    frame = encode_udp(PEER_ENDPOINT, SUT_ENDPOINT, b"quiet")
    for _ in range(20):
        peer.driver.send(frame)
        pump(got, 0, sut)
        for f in sut.driver.poll_recv():
            sut.driver.send(f)
    assert sut.kernel.invocations == calls


def test_mediated_and_bypass_move_identical_bytes():
    frame = encode_udp(SUT_ENDPOINT, PEER_ENDPOINT, bytes(range(200)))
    sut_b, _, got_b = pair("bypass")
    sut_b.driver.send(frame)
    ((_, sent_bypass),) = got_b[1]

    sut_m, _, got_m = pair("mediated")
    sut_m.driver.mediated_send(frame)
    ((_, sent_mediated),) = got_m[1]
    assert sent_bypass == sent_mediated == frame


def test_mediated_send_costs_more_than_bypass():
    frame = encode_udp(SUT_ENDPOINT, PEER_ENDPOINT, bytes(512))
    sut_b, _, _ = pair("bypass")
    t0 = sut_b.space.clock
    sut_b.driver.send(frame)
    bypass_cost = sut_b.space.clock - t0

    sut_m, _, _ = pair("mediated")
    t0 = sut_m.space.clock
    sut_m.driver.mediated_send(frame)
    mediated_cost = sut_m.space.clock - t0
    delta = mediated_cost - bypass_cost
    costs = sut_m.space.costs
    assert delta == pytest.approx(2 * costs.syscall_ns
                                  + len(frame) * costs.copy_per_byte_ns)


def test_cost_degeneracy_when_kernel_is_free():
    costs = AccessCostTable(syscall_ns=0.0, copy_per_byte_ns=0.0)
    frame = encode_udp(SUT_ENDPOINT, PEER_ENDPOINT, bytes(300))
    sut_b, _, _ = pair("bypass", costs=costs)
    t0 = sut_b.space.clock
    sut_b.driver.send(frame)
    bypass_cost = sut_b.space.clock - t0

    sut_m, _, _ = pair("mediated", costs=costs)
    t0 = sut_m.space.clock
    sut_m.driver.mediated_send(frame)
    assert sut_m.space.clock - t0 == pytest.approx(bypass_cost)


def test_authority_confinement_under_random_driving():
    # every access that reaches the device must be inside the audited map
    sut, peer, got = pair()
    audit = audit_reachability(sut.table, BAR_LENGTH)

    hits: list[tuple[int, int, int]] = []  # (BAR offset, width, audit bit)
    nic = sut.nic
    read, write = nic.mmio_read, nic.mmio_write

    def recording_read(space, offset, width):
        hits.append((offset, width, AUDIT_READ))
        return read(space, offset, width)

    def recording_write(space, offset, width, value):
        hits.append((offset, width, AUDIT_WRITE))
        write(space, offset, width, value)

    nic.mmio_read, nic.mmio_write = recording_read, recording_write
    rng = random.Random(17)
    frame = encode_udp(SUT_ENDPOINT, PEER_ENDPOINT, b"drive")
    for _ in range(200):
        roll = rng.random()
        try:
            if roll < 0.45:
                sut.driver.send(frame)
            elif roll < 0.9:
                pump(got, 0, sut)
                sut.driver.poll_recv()
            else:
                name, cap = sut.table.slices[rng.randrange(len(sut.table))]
                sut.space.store(with_cursor(cap, rng.randrange(0x120000)), 4, 0)
        except CapFault:
            pass
    assert hits, "driver made no register accesses?"
    for offset, width, bit in hits:
        for b in range(offset, offset + width):
            assert audit[b] & bit
