"""Acceptance suite: eight exit criteria, each printed pass/fail.

Run with `pytest tests/test_acceptance.py -v -s` for the per-criterion
lines. Tolerances and runtime budgets are pinned here, not configurable.
"""

import random
import time

import pytest
from conftest import capture

from capslice import slicer
from capslice.capability import (
    CapFault,
    Capability,
    FaultKind,
    PERM_RW,
    Perm,
    derive_bounds,
    restrict_perms,
    with_cursor,
)
from capslice.harness import (
    EchoServer,
    EventLoop,
    LoadGenerator,
    MODE_BYPASS,
    MODE_MEDIATED,
    PEER_ENDPOINT,
    SUT_ENDPOINT,
    SweepConfig,
    build_machine,
    data_manifest,
    manifest_reach_oracle,
    results_csv,
    run_cell,
    run_sweep,
    slice_standalone,
    wire_link,
)
from capslice.kernel import (ApiError, DMA_LENGTH, DMA_RX_RING, DMA_TX_BUFS, DMA_TX_RING,
                             ErrCode, RING_SIZE)
from capslice.netstack import encode_udp
from capslice.nic import BAR_LENGTH, BUF_SIZE, DESC_SIZE, FrameLink
from capslice.physmem import GRANULE, PhysSpace
from capslice.slicer import audit_reachability


def report(n: int, detail: str) -> None:
    print(f"[acceptance {n}] PASS — {detail}")


def test_criterion_1_capability_property_suite():
    """10,000 randomized derivation chains, monotone bounds and perms."""
    started = time.monotonic()
    rng = random.Random(0xACCE551)
    root = Capability(base=0x1000, length=0x20000, cursor=0x1000,
                      perms=PERM_RW | Perm.LOAD_CAP | Perm.STORE_CAP, tag=True)
    chains = 10_000
    out_of_parent_seen = 0
    for _ in range(chains):
        parent = root
        for _ in range(rng.randint(1, 6)):
            if rng.random() < 0.6:
                base = rng.randrange(0x0, 0x22000)
                length = rng.randrange(0x0, 0x22000)
                child = derive_bounds(parent, base, length)
                inside = (parent.tag and not parent.sealed
                          and base >= parent.base
                          and base + length <= parent.top)
                assert child.tag == inside
                if not inside:
                    out_of_parent_seen += 1
                    assert not child.tag
                if child.tag:
                    assert child.base >= parent.base
                    assert child.top <= parent.top
                    assert (child.perms & ~parent.perms) == Perm(0)
            else:
                child = restrict_perms(parent, Perm(rng.randrange(64)))
                if child.tag:
                    assert (child.perms & ~parent.perms) == Perm(0)
            parent = child
    elapsed = time.monotonic() - started
    assert out_of_parent_seen > 1000
    assert elapsed < 5.0
    report(1, f"{chains} derivation chains, {out_of_parent_seen} illegal derivations "
              f"all untagged, {elapsed:.2f}s")


def test_criterion_2_offset_attack_reproduction():
    """Exact fault kinds for the sub-page attacks on the sliced registers."""
    m = build_machine("sut", MODE_BYPASS, SUT_ENDPOINT, link=FrameLink())

    ctrl = m.table.by_name("CTRL")
    with pytest.raises(CapFault) as err:
        m.space.store(with_cursor(ctrl, ctrl.base + 0xD0), 4, 42)
    assert err.value.kind is FaultKind.BOUNDS_VIOLATION
    assert err.value.address == ctrl.base + 0xD0

    status = m.table.by_name("STATUS")
    for value in (0, 0xFFFFFFFF):
        with pytest.raises(CapFault) as err:
            m.space.store(status, 4, value)
        assert err.value.kind is FaultKind.PERMISSION_DENIED

    assert "IMS" not in m.table.names()
    report(2, "CTRL+0xD0 store → BOUNDS_VIOLATION; STATUS store → "
              "PERMISSION_DENIED; IMS unsliced")


def test_criterion_3_exhaustive_isolation_audit():
    """262,144 (byte, perm) probes equal the manifest-expansion oracle."""
    started = time.monotonic()
    bar_manifest = data_manifest("e1000e.manifest")
    oracle = manifest_reach_oracle(bar_manifest)

    # literal semantics: every byte probed through every issued capability
    table = slice_standalone(bar_manifest)
    audited = audit_reachability(table, BAR_LENGTH, exhaustive=True)
    mismatches = sum(1 for a, b in zip(audited, oracle) if a != b)
    assert mismatches == 0

    # and the full merged table a real driver holds grants nothing extra
    m = build_machine("sut", MODE_BYPASS, SUT_ENDPOINT, link=FrameLink())
    audited_full = audit_reachability(m.table, BAR_LENGTH)
    assert audited_full == oracle

    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    checks = BAR_LENGTH * 2
    report(3, f"{checks} checks, 0 mismatches, {elapsed:.2f}s")


def test_criterion_4_token_provenance():
    """Minted tokens work; forged, mistyped, and unsealed ones are denied
    with zero device mutation."""
    m = build_machine("sut", MODE_MEDIATED, SUT_ENDPOINT, link=FrameLink())
    dma = m.kernel.dma_root.base

    token = m.kernel.attach(31337)
    table = m.kernel.map_mmio(token)
    m.kernel.ioctl_set_desc_addr(token, "tx", 0, table.by_name("TXBUF[9]"))

    bad_tokens = {
        "untagged forged pattern": Capability(
            base=0x40, length=16, cursor=0x40, perms=Perm.READ,
            tag=False, otype=slicer.INTERFACE_OTYPE),
        "sealed under wrong otype": table.sealed_root,  # slicer's otype
        "unsealed capability": m.kernel.dma_root,
    }
    buf = table.by_name("TXBUF[0]")
    for what, bad in bad_tokens.items():
        writes = m.nic.counters.mmio_writes
        ram = bytes(m.space.data[dma:dma + DMA_LENGTH])
        with pytest.raises(ApiError) as err:
            m.kernel.map_mmio(bad)
        assert err.value.code is ErrCode.DENIED, what
        with pytest.raises(ApiError) as err:
            m.kernel.ioctl_set_desc_addr(bad, "tx", 1, buf)
        assert err.value.code is ErrCode.DENIED, what
        assert m.nic.counters.mmio_writes == writes, what
        assert bytes(m.space.data[dma:dma + DMA_LENGTH]) == ram, what
    report(4, "token accepted; 3 bad-token classes denied with zero device/DMA writes")


def test_criterion_5_dma_containment():
    """1,000 randomized driver action sequences, hostile ioctls included;
    descriptor address words, and the BUF_SIZE spans the NIC may DMA from
    them, never leave the buffer region."""
    started = time.monotonic()
    link = FrameLink(delay_ns=10.0, wire_ns_per_byte=0.0)
    m = build_machine("sut", MODE_BYPASS, SUT_ENDPOINT, link=link)
    peer = build_machine("peer", MODE_BYPASS, PEER_ENDPOINT, link=link)
    got = capture(link)
    dma, dma_top = m.kernel.dma_root.base, m.kernel.dma_root.top
    token = m.token
    bufs = [m.table.by_name(f"TXBUF[{k}]") for k in range(RING_SIZE)]
    frame = encode_udp(SUT_ENDPOINT, PEER_ENDPOINT, b"containment")
    inbound = encode_udp(PEER_ENDPOINT, SUT_ENDPOINT, b"inbound")

    def all_desc_addrs_contained() -> bool:
        for ring in (dma + DMA_TX_RING, dma + DMA_RX_RING):
            for k in range(RING_SIZE):
                addr = int.from_bytes(
                    m.space.dma_read(ring + k * DESC_SIZE, 8), "little")
                if not dma + DMA_TX_BUFS <= addr < dma_top:
                    return False
                if addr + BUF_SIZE > dma_top:  # the span the NIC may DMA
                    return False
        return True

    sequences = 1000
    events = 0
    for seq in range(sequences):
        rng = random.Random(0xD11A + seq)
        for _ in range(rng.randint(2, 6)):
            roll = rng.random()
            try:
                if roll < 0.30:
                    m.driver.send(frame)
                    # The peer's traffic lets poll_recv complete real RX
                    # descriptors between the hostile events below.
                    peer.driver.send(inbound)
                elif roll < 0.45:
                    for _, f in got[0]:
                        m.nic.deliver_frame(m.space, f)
                    got[0].clear()
                    m.driver.poll_recv()
                elif roll < 0.60:  # legitimate ioctl
                    m.kernel.ioctl_set_desc_addr(
                        token, rng.choice(["tx", "rx"]),
                        rng.randrange(RING_SIZE), rng.choice(bufs))
                elif roll < 0.75:  # hostile: arbitrary tagged RAM capability
                    hostile = Capability(
                        base=rng.randrange(0, 0xF0000), length=256,
                        cursor=0, perms=PERM_RW, tag=True)
                    m.kernel.ioctl_set_desc_addr(
                        token, "tx", rng.randrange(RING_SIZE), hostile)
                elif roll < 0.90:  # hostile: forged untagged pattern
                    fake = Capability(
                        base=dma + DMA_TX_BUFS, length=64, cursor=0,
                        perms=PERM_RW, tag=False,
                        otype=rng.choice([slicer.INTERFACE_OTYPE, 0xFFFFFFFF]))
                    m.kernel.ioctl_set_desc_addr(
                        token, "rx", rng.randrange(RING_SIZE), fake)
                else:  # hostile: raw store at a descriptor address word
                    name, cap = m.table.slices[rng.randrange(len(m.table))]
                    ring = rng.choice([dma + DMA_TX_RING, dma + DMA_RX_RING])
                    at = ring + rng.randrange(RING_SIZE) * DESC_SIZE
                    m.space.store(with_cursor(cap, at), 8, 0xBAD)
            except (ApiError, CapFault):
                pass
            events += 1
            assert all_desc_addrs_contained(), f"escape after event {events}"
    assert m.nic.counters.rx_frames > 0
    elapsed = time.monotonic() - started
    report(5, f"{sequences} sequences / {events} events, all {2 * RING_SIZE} "
              f"descriptor addresses contained, {elapsed:.2f}s")


def run_echo_batch(mode: str, size: int, trials: int):
    link = FrameLink()
    sut = build_machine("sut", mode, SUT_ENDPOINT, link=link)
    peer = build_machine("peer", MODE_BYPASS, PEER_ENDPOINT, link=link)
    loop = EventLoop()
    echo = EchoServer(sut, loop)
    rng = random.Random(f"echo:{mode}:{size}")
    payloads = [rng.randbytes(size) for _ in range(trials)]
    gen = LoadGenerator(peer, loop, payloads, SUT_ENDPOINT, delay_ns=0.0, window=32)
    wire_link(loop, link, [echo, gen])
    gen.start()
    loop.run()
    return sut, peer, gen


def test_criterion_6_end_to_end_echo():
    """Byte-identical echoes and frame conservation for both paths."""
    total = 0
    for mode in (MODE_BYPASS, MODE_MEDIATED):
        for size in (1, 64, 512, 1472):
            sut, peer, gen = run_echo_batch(mode, size, trials=100)
            assert gen.mismatches == 0, f"payload corruption in {mode}/{size}"
            assert gen.received == 100
            # conservation on both directions of the reliable link
            assert peer.nic.counters.tx_frames == (
                sut.nic.counters.rx_frames + sut.nic.counters.rx_dropped)
            assert sut.nic.counters.tx_frames == (
                peer.nic.counters.rx_frames + peer.nic.counters.rx_dropped)
            total += gen.received
    report(6, f"{total} echoes byte-identical across both paths; "
              f"tx == rx + dropped throughout")


def test_criterion_7_latency_methodology():
    """Directional reproduction of the latency heat map in virtual time."""
    started = time.monotonic()
    cfg = SweepConfig()  # the full default grid, 1000 trials per cell
    result = run_sweep(cfg)
    sweep_elapsed = time.monotonic() - started
    assert sweep_elapsed < 60.0
    assert not result.flagged, result.flagged

    # every cell at zero inter-packet delay favors the bypass path
    for size in cfg.packet_sizes:
        assert result.improvement_for(size, 0) > 0.0, f"size {size}"

    # averaged over sizes, improvement never grows with delay
    means = []
    for delay in cfg.delays_us:
        vals = [result.improvement_for(size, delay) for size in cfg.packet_sizes]
        means.append(sum(vals) / len(vals))
    for earlier, later in zip(means, means[1:]):
        assert later <= earlier + 1e-6, f"improvement grew with delay: {means}"

    # the size gradient: small packets gain more than full-MTU packets
    small_sizes = [s for s in cfg.packet_sizes if s < 512]
    for delay in cfg.delays_us:
        small = sum(result.improvement_for(s, delay) for s in small_sizes) / len(small_sizes)
        large = result.improvement_for(1472, delay)
        assert small > large, f"delay {delay}: small {small} <= large {large}"

    # determinism: a re-run cell reproduces its sweep row exactly
    again = run_cell(cfg, 64, 0, MODE_BYPASS)
    original = next(c for c in result.cells
                    if (c.mode, c.packet_size, c.delay_us) == (MODE_BYPASS, 64, 0))
    assert (again.p50_ns, again.p99_ns, again.drops) == (
        original.p50_ns, original.p99_ns, original.drops)

    report(7, f"{len(result.cells)} cells in {sweep_elapsed:.1f}s; delay-0 "
              f"improvements all positive (mean {means[0]:.1f}%), non-increasing "
              f"in delay, small>large gradient holds, deterministic")


def test_criterion_8_tagged_memory_alignment():
    """Capability load/store demand 16-byte alignment; data stores strip tags."""
    space, authority = PhysSpace.create(0x10000)
    space.add_region(0, 0x10000, name="ram")
    root = authority.issue_root(
        0, 0x10000, PERM_RW | Perm.LOAD_CAP | Perm.STORE_CAP)
    value = restrict_perms(derive_bounds(root, 0x200, 0x40), Perm.READ)

    for misaligned in (0x1008, 0x1018, 0x7FF8):
        assert misaligned % 8 == 0 and misaligned % GRANULE != 0
        with pytest.raises(CapFault) as err:
            space.cap_store(with_cursor(root, misaligned), value)
        assert err.value.kind is FaultKind.ALIGNMENT_FAULT
        with pytest.raises(CapFault) as err:
            space.cap_load(with_cursor(root, misaligned))
        assert err.value.kind is FaultKind.ALIGNMENT_FAULT

    slot = with_cursor(root, 0x1000)
    space.cap_store(slot, value)
    assert space.cap_load(slot).tag
    space.store(with_cursor(root, 0x1008), 8, 0x4141414141414141)
    assert not space.cap_load(slot).tag

    report(8, "8-byte-aligned capability access faults ALIGNMENT_FAULT; "
              "data store strips the granule tag")
