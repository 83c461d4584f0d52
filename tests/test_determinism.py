"""Determinism gate: the echo grids of the benchmark must reproduce the
pinned results rows byte for byte.

perfbench/run.py times the same cells; here they run once each, in its
grid order (size, then delay, then mode), and the SHA-256 of the
results.csv text is compared with the `rows_sha256` digests pinned in
perfbench/pins.json. The rows do not depend on payload bytes, so the
default seed stands for every seed. A change that moves any simulated
number fails this test; a change meant to move them re-pins by hand.

The default costs are dyadic fractions, so every sum of them is exact and
those digests cannot tell how the charges were grouped. One more grid
runs with non-dyadic costs on every field and compares its rows with a
digest recorded before the bypass driver and the kernel socket path
shared one ring engine. It fails when a charge moves across a device
write (the frame leaves at another time) or a cost is not read from the
cost table. Swapping two adjacent charges almost never shows: small costs
added to the clock round the same in either order unless a partial sum
crosses a power of two.

The isolation suite's report, the text `capslice audit` writes to
audit.txt, is pinned by its digest as well.

Bring-up is pinned on its own: for `build_machine` in both modes, under
both cost tables, the clock, the NIC's counters and registers, the bytes
and tags of memory, and every slice's fields must equal values recorded
before the bring-up path addressed its stores by immediate offset. The
sweep digests would not see a dropped or regrouped bring-up charge under
the dyadic costs. So is the number of checked accesses one bring-up makes,
counted at `physmem.check_access`: a store dropped from the descriptor
preload, or a check added to the carving, fails on its own even where the
bytes and the clock would hide it.
"""

import hashlib
import json
from dataclasses import asdict
from pathlib import Path

import pytest

from capslice import physmem
from capslice.harness import (MODE_BYPASS, MODE_MEDIATED, SUT_ENDPOINT, SweepConfig,
                              SweepResult, build_machine, results_csv, run_cell,
                              run_isolation_suite)
from capslice.physmem import AccessCostTable

PINS = Path(__file__).resolve().parent.parent / "perfbench" / "pins.json"

NON_DYADIC_COSTS = AccessCostTable(ram_access_ns=10.7, mmio_access_ns=251.3,
                                   copy_per_byte_ns=0.13, syscall_ns=123.7)
NON_DYADIC_SHA256 = "7360f05501a9885ecc880cac732f97a0194eb69bba47bdf94fd06bc15d5b6041"

GRIDS = {
    "echo-small": (1, 64),
    "echo-mtu": (1472,),
}


@pytest.mark.parametrize("workload", sorted(GRIDS))
def test_echo_grid_matches_pinned_rows(workload):
    pinned = json.loads(PINS.read_text(encoding="utf-8"))["rows_sha256"][workload]
    cfg = SweepConfig(packet_sizes=GRIDS[workload], delays_us=(0, 1000), trials=200)
    cells = [run_cell(cfg, size, delay, mode)
             for size in cfg.packet_sizes
             for delay in cfg.delays_us
             for mode in cfg.modes]
    text = results_csv(SweepResult(cells, [], []))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == pinned


def test_non_dyadic_costs_reproduce_recorded_rows():
    cfg = SweepConfig(packet_sizes=(1, 513), delays_us=(0, 100), trials=200,
                      costs=NON_DYADIC_COSTS)
    cells = [run_cell(cfg, size, delay, mode)
             for size in cfg.packet_sizes
             for delay in cfg.delays_us
             for mode in cfg.modes]
    text = results_csv(SweepResult(cells, [], []))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == NON_DYADIC_SHA256


AUDIT_TXT_SHA256 = "df10b45d646149b2208ef00fc8486ca590a9da1aa766e2c8dd6f60f434817c46"


def test_audit_report_matches_recorded_digest():
    text = run_isolation_suite().render()
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == AUDIT_TXT_SHA256


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# (clock after bring-up, SHA-256 of memory bytes, SHA-256 of the slice
# table's (name, base, length, cursor, perms, tag, otype) tuples).
BRINGUP_STATE = {
    ("default", MODE_BYPASS): (
        5600.0, "8972888da06d075892d301b8903dfbe64fe31a116aafce0089b2581c9bc2914b",
        "cb57958fb20d5929fd94feeb68ed6ffa366a33af958b6c081cb9789addc8b691"),
    ("default", MODE_MEDIATED): (
        5560.0, "5c219526cc19de5a90f5c40aa0d3fade9644dea911aeac01dca6418f354e2e4c",
        "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d"),
    ("non-dyadic", MODE_BYPASS): (
        5797.599999999953, "8972888da06d075892d301b8903dfbe64fe31a116aafce0089b2581c9bc2914b",
        "cb57958fb20d5929fd94feeb68ed6ffa366a33af958b6c081cb9789addc8b691"),
    ("non-dyadic", MODE_MEDIATED): (
        5754.799999999954, "5c219526cc19de5a90f5c40aa0d3fade9644dea911aeac01dca6418f354e2e4c",
        "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d"),
}
BRINGUP_COUNTERS = {"tx_frames": 0, "rx_frames": 0, "rx_dropped": 0,
                    "mmio_reads": 0, "mmio_writes": 12}
BRINGUP_REGS_SHA256 = "4b44b116ebcf4aaeee6eec7043fc16a75f46435204545be048e52d84b9d4f0cf"
BRINGUP_TAGS_SHA256 = "484eaa327eae22dd9073858b0599e43fb5e06cabfbc8de88c83763edcb8d2446"


@pytest.mark.parametrize("costs_name,mode", sorted(BRINGUP_STATE))
def test_bringup_state_matches_recorded_digest(costs_name, mode):
    costs = NON_DYADIC_COSTS if costs_name == "non-dyadic" else AccessCostTable()
    m = build_machine("sut", mode, SUT_ENDPOINT, costs=costs)
    slices = () if m.table is None else tuple(
        (name, c.base, c.length, c.cursor, c.perms, c.tag, c.otype) for name, c in m.table)
    clock, data_sha, slices_sha = BRINGUP_STATE[(costs_name, mode)]
    assert m.space.clock == clock
    assert asdict(m.nic.counters) == BRINGUP_COUNTERS
    assert _sha256(repr(sorted(m.nic.regs.items())).encode()) == BRINGUP_REGS_SHA256
    assert _sha256(bytes(m.space.data)) == data_sha
    assert _sha256(bytes(m.space.tags)) == BRINGUP_TAGS_SHA256
    assert _sha256(repr(slices).encode()) == slices_sha


# `physmem.check_access` calls in one `build_machine`, recorded before the
# descriptor preload computed its buffer addresses by arithmetic: the 12
# register stores and 256 descriptor stores of `stub_attach`, plus, for a
# bypass machine, the attach record's two stores and the two loads that
# verify the token in `map_mmio`.
BRINGUP_CHECKED_ACCESSES = {MODE_BYPASS: 272, MODE_MEDIATED: 268}


@pytest.mark.parametrize("mode", sorted(BRINGUP_CHECKED_ACCESSES))
def test_bringup_checked_access_count_matches_recorded(monkeypatch, mode):
    calls = []
    check = physmem.check_access

    def counted(*args):
        calls.append(None)
        return check(*args)

    monkeypatch.setattr(physmem, "check_access", counted)
    build_machine("sut", mode, SUT_ENDPOINT)
    assert len(calls) == BRINGUP_CHECKED_ACCESSES[mode]
