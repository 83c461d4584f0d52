import gc

import pytest

from capslice import harness
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
from capslice.manifest import parse
from capslice.netstack import DecodeError, Reject
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
    assert details["exhaustive-audit"].detail.startswith("262144 ")
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


class _NotADecodeError(Exception):
    pass


def test_drain_counts_only_decode_errors_as_mismatches(monkeypatch):
    def reject(frame):
        raise DecodeError(Reject.UDP_CHECKSUM)

    monkeypatch.setattr(harness, "decode_udp", reject)
    with pytest.raises(RuntimeError, match="5 corrupted echoes"):
        run_cell(small_cfg(trials=5), 64, 0, MODE_BYPASS)


def test_drain_propagates_other_errors(monkeypatch):
    def broken(frame):
        raise _NotADecodeError("decoder bug")

    monkeypatch.setattr(harness, "decode_udp", broken)
    with pytest.raises(_NotADecodeError, match="decoder bug"):
        run_cell(small_cfg(trials=5), 64, 0, MODE_BYPASS)
