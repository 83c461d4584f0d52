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
"""

import hashlib
import json
from pathlib import Path

import pytest

from capslice.harness import SweepConfig, SweepResult, results_csv, run_cell
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
