"""Determinism gate: the echo grids of the benchmark must reproduce the
pinned results rows byte for byte.

perfbench/run.py times the same cells; here they run once each, in its
grid order (size, then delay, then mode), and the SHA-256 of the
results.csv text is compared with the `rows_sha256` digests pinned in
perfbench/pins.json. The rows do not depend on payload bytes, so the
default seed stands for every seed. A change that moves any simulated
number fails this test; a change meant to move them re-pins by hand.
"""

import hashlib
import json
from pathlib import Path

import pytest

from capslice.harness import SweepConfig, SweepResult, results_csv, run_cell

PINS = Path(__file__).resolve().parent.parent / "perfbench" / "pins.json"

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
