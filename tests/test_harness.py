import gc
import math
from dataclasses import replace

import pytest
from conftest import capture

from capslice import harness, kernel, netstack, physmem
from capslice.harness import (
    MODE_BYPASS,
    MODE_MEDIATED,
    SweepConfig,
    improvement_csv,
    manifest_reach_oracle,
    nearest_rank,
    results_csv,
    run_cell,
    run_isolation_suite,
    run_sweep,
)
from capslice.kernel import ApiError, ErrCode
from capslice.manifest import PermClass, parse
from capslice.netstack import MAX_PAYLOAD, echo_reply, ones_complement_sum
from capslice.nic import FrameLink
from capslice.physmem import AccessCostTable


def small_cfg(**kw):
    defaults = dict(packet_sizes=(64,), delays_us=(0,), trials=60)
    defaults.update(kw)
    return SweepConfig(**defaults)


def test_cell_is_deterministic():
    cfg = small_cfg()
    a = run_cell(cfg, 64, 0, MODE_BYPASS)
    b = run_cell(cfg, 64, 0, MODE_BYPASS)
    assert (a.p50_ns, a.p99_ns, a.drops) == (b.p50_ns, b.p99_ns, b.drops)


def test_seed_changes_payloads_not_structure():
    a = run_cell(small_cfg(seed=1), 64, 0, MODE_BYPASS)
    b = run_cell(small_cfg(seed=2), 64, 0, MODE_BYPASS)
    assert a.trials == b.trials and a.drops == b.drops == 0


def test_bypass_cell_makes_zero_kernel_calls():
    cell = run_cell(small_cfg(), 64, 0, MODE_BYPASS)
    assert cell.sut_kernel_calls == 0
    cell = run_cell(small_cfg(), 64, 0, MODE_MEDIATED)
    assert cell.sut_kernel_calls > 0


# Checked accesses through PhysSpace in one 20-trial, 64 B cell, both
# machines' bring-up included, recorded before the access path cached its
# region bounds. Every load and store must still reach check_access.
CHECKED_ACCESSES = {
    (MODE_BYPASS, 0): 992,
    (MODE_BYPASS, 1000): 1022,
    (MODE_MEDIATED, 0): 986,
    (MODE_MEDIATED, 1000): 1018,
}


@pytest.mark.parametrize("mode,delay_us", sorted(CHECKED_ACCESSES))
def test_checked_access_count_per_cell_is_pinned(monkeypatch, mode, delay_us):
    calls = []
    check = physmem.check_access

    def counted(*args):
        calls.append(None)
        return check(*args)

    monkeypatch.setattr(physmem, "check_access", counted)
    cell = run_cell(small_cfg(delays_us=(delay_us,), trials=20), 64, delay_us, mode)
    assert cell.drops == 0
    assert len(calls) == CHECKED_ACCESSES[(mode, delay_us)]


# PhysSpace.region_for calls in the same cells: the three roots each
# machine's kernel issues. No access looks a region up, since every access
# tests the fixed bounds of the space's one RAM and one device region.
# Recorded when accesses cached the last region found and the device region
# had no slot of its own, the four cells made 143, 173, 141 and 173 calls.
REGION_LOOKUPS = {
    (MODE_BYPASS, 0): 6,
    (MODE_BYPASS, 1000): 6,
    (MODE_MEDIATED, 0): 6,
    (MODE_MEDIATED, 1000): 6,
}


@pytest.mark.parametrize("mode,delay_us", sorted(REGION_LOOKUPS))
def test_region_lookup_count_per_cell_is_pinned(monkeypatch, mode, delay_us):
    calls = []
    region_for = physmem.PhysSpace.region_for

    def counted(space, *args):
        calls.append(None)
        return region_for(space, *args)

    monkeypatch.setattr(physmem.PhysSpace, "region_for", counted)
    cell = run_cell(small_cfg(delays_us=(delay_us,), trials=20), 64, delay_us, mode)
    assert cell.drops == 0
    assert len(calls) == REGION_LOOKUPS[(mode, delay_us)]


def test_mediated_slower_at_zero_delay():
    cfg = small_cfg()
    byp = run_cell(cfg, 64, 0, MODE_BYPASS)
    med = run_cell(cfg, 64, 0, MODE_MEDIATED)
    assert med.p99_ns > byp.p99_ns
    assert med.p50_ns > byp.p50_ns


def test_improvement_shrinks_with_delay():
    cfg = small_cfg(delays_us=(0, 1000))
    cells = {}
    for delay in (0, 1000):
        for mode in (MODE_BYPASS, MODE_MEDIATED):
            cells[(mode, delay)] = run_cell(cfg, 64, delay, mode)

    def pct(delay):
        med = cells[(MODE_MEDIATED, delay)].p99_ns
        byp = cells[(MODE_BYPASS, delay)].p99_ns
        return 100.0 * (med - byp) / med

    assert pct(0) > pct(1000) > 0


def test_free_kernel_means_no_improvement():
    costs = AccessCostTable(syscall_ns=0.0, copy_per_byte_ns=0.0)
    cfg = small_cfg(costs=costs, trials=40)
    result = run_sweep(SweepConfig(packet_sizes=(64,), delays_us=(0, 100),
                                   trials=40, costs=costs))
    for _, _, pct in result.improvements:
        assert abs(pct) < 1.0


def test_sweep_rows_and_csv_schema():
    result = run_sweep(small_cfg(trials=30))
    assert len(result.cells) == 2  # one per mode
    csv = results_csv(result)
    lines = csv.strip().splitlines()
    assert lines[0] == "mode,packet_size,delay_us,trials,p50_ns,p99_ns,drops"
    assert len(lines) == 3
    assert lines[1].startswith("bypass,64,0,30,")
    assert lines[2].startswith("mediated,64,0,30,")
    imp = improvement_csv(result).strip().splitlines()
    assert imp[0] == "packet_size,delay_us,improvement_pct"
    assert len(imp) == 2
    pct = float(imp[1].split(",")[2])
    assert pct == round(result.improvement_for(64, 0), 2)


def test_sweep_is_byte_identical_under_same_seed():
    cfg = small_cfg(trials=25)
    assert results_csv(run_sweep(cfg)) == results_csv(run_sweep(cfg))


def test_overdriven_cell_gets_flagged():
    # window beyond the RX ring forces drops, which must be surfaced
    cfg = SweepConfig(packet_sizes=(64,), delays_us=(0,), trials=300,
                      window=200, modes=(MODE_MEDIATED,))
    result = run_sweep(cfg)
    (cell,) = result.cells
    assert cell.drops > 0
    assert result.flagged


def test_nearest_rank_percentiles():
    values = [float(v) for v in range(1, 101)]
    assert nearest_rank(values, 50) == 50.0
    assert nearest_rank(values, 99) == 99.0
    assert nearest_rank(values, 100) == 100.0
    assert nearest_rank([7.0], 99) == 7.0


def test_isolation_suite_passes_on_shipped_policy():
    report = run_isolation_suite()
    details = {s.name: s for s in report.scenarios}
    assert report.passed, report.render()
    assert [s.name for s in report.scenarios] == [
        "offset-attack", "readonly-status", "descriptor-addr-write-attack", "forged-token",
        "exhaustive-audit", "device-truth-audit", "ring-carve-audit"]
    assert details["exhaustive-audit"].detail.startswith("262144 ")
    assert details["device-truth-audit"].detail == "12 kernel-only registers unreachable"
    assert "PASS" in report.render()


def test_isolation_suite_catches_bad_policy():
    # a manifest that leaks the interrupt mask is refused at attach, before
    # any scenario could run on it
    leaky = parse(
        "device e1000e\nbar 0x20000\n"
        "reg CTRL 0x0000 4 RW\nreg STATUS 0x0008 4 RO\n"
        "reg IMS 0x00D0 4 RW\n"  # should be KERNEL
        "reg RDT 0x2818 4 RW\nreg TDT 0x3818 4 RW\n")
    with pytest.raises(ApiError) as err:
        run_isolation_suite(bar_manifest=leaky)
    assert err.value.code is ErrCode.BAD_ARGUMENT and "IMS" in str(err.value)


def test_device_truth_audit_catches_a_leak_the_attach_check_missed(monkeypatch):
    # With the attach check gone, a manifest that hands out the TX ring base
    # passes every other scenario, since the manifest's own oracle agrees
    # with the leak; only the audit against the device's registers fails.
    monkeypatch.setattr(kernel, "device_truth_violations", lambda *manifests: [])
    shipped = harness.data_manifest("e1000e.manifest")
    leaky = replace(shipped, entries=tuple(
        replace(e, perm=PermClass.RW) if e.name == "TDBAL" else e for e in shipped.entries))
    report = run_isolation_suite(bar_manifest=leaky)
    failed = [s for s in report.scenarios if not s.passed]
    assert [s.name for s in failed] == ["device-truth-audit"]
    assert failed[0].detail == "reachable kernel-only registers at 0x3800"


def test_oracle_respects_length_argument():
    m = parse("device x\nbar 0x100\nreg A 0x10 8 RW\n")
    bits = manifest_reach_oracle(m, 0x14)
    assert len(bits) == 0x14
    assert bits[0x10] != 0 and bits[0x13] != 0


def test_cell_frees_its_machines_without_a_cycle_collection():
    # Each machine holds about 2.3 MB of simulated memory; a reference cycle
    # through the link's transmit hook would keep both alive until a full
    # collection.
    gc.collect()
    gc.disable()
    try:
        unreachable = {}
        for mode in (MODE_BYPASS, MODE_MEDIATED):
            run_cell(small_cfg(trials=20), 64, 0, mode)
            unreachable[mode] = gc.collect()
    finally:
        gc.enable()
    assert unreachable == {MODE_BYPASS: 0, MODE_MEDIATED: 0}


def _echo_rewritten(monkeypatch, rewrite):
    """Make the echo server send `rewrite(reply)` instead of its reply."""
    echo = harness.echo_reply
    monkeypatch.setattr(harness, "echo_reply", lambda frame: rewrite(echo(frame)))


def _flip_last_byte(frame):
    return frame[:-1] + bytes([frame[-1] ^ 1])


def _with_ttl(frame, ttl):
    ip = bytearray(frame[14:34])
    ip[8] = ttl
    ip[10:12] = bytes(2)
    ip[10:12] = ((~ones_complement_sum(bytes(ip))) & 0xFFFF).to_bytes(2, "big")
    return frame[:14] + bytes(ip) + frame[34:]


def _record_generators(monkeypatch):
    made = []

    class Recorded(harness.LoadGenerator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(harness, "LoadGenerator", Recorded)
    return made


def test_expected_echo_equals_the_servers_reply():
    link = FrameLink()
    got = capture(link)
    peer = harness.build_machine("peer", MODE_BYPASS, harness.PEER_ENDPOINT, link=link)
    blob = bytes(range(256)) * 6
    payloads = [blob[:n] for n in (0, 1, MAX_PAYLOAD - 1, MAX_PAYLOAD)]
    gen = harness.LoadGenerator(peer, harness.EventLoop(), payloads, harness.SUT_ENDPOINT,
                                delay_ns=0.0, window=len(payloads))
    for _ in payloads:
        gen._send(peer.space.clock)
    requests = [frame for _, frame in got[1]]
    assert [len(f) - 42 for f in requests] == [0, 1, 1471, 1472]
    assert [gen._expected[k] for k in range(4)] == [echo_reply(f) for f in requests]


@pytest.mark.parametrize("bad", [{"link_ns": -5000.0}, {"wire_ns_per_byte": math.nan},
                                 {"window": 0}, {"delays_us": (-5, 0)},
                                 {"delays_us": (math.nan,)}, {"delays_us": (math.inf,)}])
def test_sweep_refuses_a_bad_link_or_window_before_any_row(bad):
    # A negative link delivers frames before they are sent, and no window
    # sends nothing; a negative pause between requests would run as no pause,
    # and a NaN one label its rows nan. The library refuses each, not only
    # the CLI.
    with pytest.raises(ValueError):
        run_sweep(small_cfg(trials=5, **bad))


def test_byte_equal_echoes_skip_the_decoder(monkeypatch):
    calls = []
    decode = netstack.decode_udp

    def counted(frame):
        calls.append(None)
        return decode(frame)

    monkeypatch.setattr(netstack, "decode_udp", counted)
    made = _record_generators(monkeypatch)
    cell = run_cell(small_cfg(trials=20), 64, 0, MODE_BYPASS)
    # One decode per request, the server's; the generator compares bytes.
    assert cell.drops == 0 and len(calls) == 20
    assert made[0]._expected == {}  # each expected echo is dropped once accepted


@pytest.mark.parametrize("mode", [MODE_BYPASS, MODE_MEDIATED])
def test_a_valid_echo_with_another_ttl_is_a_mismatch(monkeypatch, mode):
    _echo_rewritten(monkeypatch, lambda reply: _with_ttl(reply, 63))
    for delay in (0, 1000):
        with pytest.raises(RuntimeError, match=f"^20 corrupted echoes in {mode}/64/{delay}$"):
            run_cell(small_cfg(trials=20), 64, delay, mode)


@pytest.mark.parametrize("mode", [MODE_BYPASS, MODE_MEDIATED])
def test_a_duplicate_echo_is_a_mismatch(monkeypatch, mode):
    init = harness.EchoServer.__init__

    def sends_twice(self, *args):
        init(self, *args)
        send = self._send

        def twice(frame):
            send(frame)
            send(frame)

        self._send = twice

    monkeypatch.setattr(harness.EchoServer, "__init__", sends_twice)
    made = _record_generators(monkeypatch)
    for delay in (0, 1000):
        with pytest.raises(RuntimeError, match=f"^20 corrupted echoes in {mode}/64/{delay}$"):
            run_cell(small_cfg(trials=20), 64, delay, mode)
    # Each trial's first copy is accepted and its second is refused.
    assert [(g.received, g.mismatches, len(g.rtts)) for g in made] == [(20, 20, 20)] * 2


@pytest.mark.parametrize("mode", [MODE_BYPASS, MODE_MEDIATED])
def test_the_link_routes_by_endpoint_when_the_peer_is_built_first(mode):
    link = FrameLink()
    peer = harness.build_machine("peer", MODE_BYPASS, harness.PEER_ENDPOINT, link=link)
    sut = harness.build_machine("sut", mode, harness.SUT_ENDPOINT, link=link)
    assert (peer.nic.link_endpoint, sut.nic.link_endpoint) == (0, 1)
    loop = harness.EventLoop()
    payloads = [bytes([k]) * 64 for k in range(4)]
    gen = harness.LoadGenerator(peer, loop, payloads, harness.SUT_ENDPOINT,
                                delay_ns=0.0, window=4)
    harness.wire_link(loop, link, [harness.EchoServer(sut, loop), gen])
    gen.start()
    loop.run()
    assert (gen.received, gen.mismatches, len(gen.rtts), gen._expected) == (4, 0, 4, {})


def test_drain_counts_only_decode_errors_as_mismatches(monkeypatch):
    # A reply that differs from the expected echo in one payload byte is a
    # mismatch; the generator does not decode it.
    _echo_rewritten(monkeypatch, _flip_last_byte)
    with pytest.raises(RuntimeError, match="5 corrupted echoes"):
        run_cell(small_cfg(trials=5), 64, 0, MODE_BYPASS)
