#!/usr/bin/env python3
"""capslice benchmark: host-time cost of the simulator, per workload and per layer.

    python3 perfbench/run.py --workload echo-small --seed 3 --seconds 20 --trace 0

Runs one workload in this single-threaded process for about `--seconds`
seconds, checks every result, and prints one line per metric followed by
a JSON summary as the last line. `--trace 1` adds one traced pass that
wraps every public function of every capslice layer and reports per-layer
metrics instead of the end-to-end ones. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Callable, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench_out"
PINS_PATH = BENCH_DIR / "pins.json"

TRIALS = 200             # round trips per echo cell
AUDIT_PREFIX = 0x4000    # every register of the shipped map lies below this offset
AUDIT_WINDOW = 0x400     # bytes per audit batch: 16 equal windows per pass
BRINGUP_PAIRS = 16       # machine pairs per bring-up pass
SETUP_REPEATS = 12       # fresh processes timed for setup_s, spread over the run
# The host alternates between a fast and a slow state for seconds at a time.
# The slow state shows up in nearly every run, so each kind's p90 batch time,
# and the p90 of the set-up times, read it steadily, where the median jumps
# between the two states.
RATE_QUANTILE = 90
# Largest share of the traced pass's wall time that may fall outside every
# layer's spans: the benchmark's own loop and timing, and wrapper entry.
UNTRACED_MAX = 0.02

if not (ROOT / "src" / "capslice").is_dir():
    sys.exit(f"error: no capslice sources under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

from capslice import harness, nic, slicer  # noqa: E402
from capslice.harness import MODE_BYPASS, MODE_MEDIATED, SUT_ENDPOINT  # noqa: E402
from capslice.manifest import expand  # noqa: E402
from capslice.physmem import PhysSpace  # noqa: E402
from tracer import LAYERS, Summary, Tracer  # noqa: E402


@dataclass
class Part:
    """One timed call inside a batch; the times of one kind are pooled."""

    kind: str
    label: str   # the mode or audit path; tags the part's spans when traced
    side: str    # "subject" or "baseline"
    ops: int
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]


# -- workloads ------------------------------------------------------------------


class Echo:
    """A grid of sweep cells; one cell is one batch of TRIALS round trips."""

    op = "round trip"
    aliases = ("rtt_per_s", "bypass_rtt_per_s", "mediated_rtt_per_s")
    reached = (
        "capability.check_access", "capability.with_cursor",
        "physmem.PhysSpace.load", "physmem.PhysSpace.store",
        "physmem.PhysSpace.load_bytes", "physmem.PhysSpace.store_bytes",
        "physmem.PhysSpace.region_for", "physmem.PhysSpace.dma_read",
        "physmem.PhysSpace.dma_write", "manifest.parse", "manifest.expand",
        "slicer.slice", "nic.NicModel.process_tx", "nic.NicModel.deliver_frame",
        "nic.FrameLink.transmit", "kernel.Kernel.stub_attach",
        "kernel.Kernel.socket_send", "kernel.Kernel.socket_recv",
        "netstack.encode_udp", "netstack.decode_udp", "netstack.echo_reply",
        "netstack.ones_complement_sum", "driver.Driver.send", "driver.Driver.poll_recv",
        "driver.Driver.mediated_send", "driver.Driver.mediated_recv",
        "harness.run_cell", "harness.build_machine", "harness.wire_link",
        "harness.EventLoop.run",
    )

    def __init__(self, name: str, sizes: tuple[int, ...], seed: int):
        self.name = name
        self.seed = seed
        self.cfg = harness.SweepConfig(packet_sizes=sizes, delays_us=(0, 1000),
                                       trials=TRIALS, seed=seed)
        self.first: dict[str, harness.CellResult] = {}

    def prepare(self) -> None:
        pass

    def grid(self):
        for size in self.cfg.packet_sizes:
            for delay in self.cfg.delays_us:
                for mode in self.cfg.modes:
                    yield size, delay, mode

    def batches(self, index: int) -> list[list[Part]]:
        return [[Part(kind=f"{mode}/{size}B/{delay}us", label=mode,
                      side="subject" if mode == MODE_BYPASS else "baseline", ops=TRIALS,
                      run=partial(harness.run_cell, self.cfg, size, delay, mode),
                      check=partial(self._check, f"{mode}/{size}B/{delay}us"))]
                for size, delay, mode in self.grid()]

    def _check(self, kind: str, cell: harness.CellResult) -> Optional[str]:
        if cell.drops:
            return f"{kind}: {cell.drops} drops"
        if cell.mode == MODE_BYPASS and cell.sut_kernel_calls:
            return f"{kind}: bypass SUT made {cell.sut_kernel_calls} kernel calls"
        first = self.first.setdefault(kind, cell)
        if _row(cell) != _row(first):
            return f"{kind}: row {_row(cell)!r} differs from this run's first {_row(first)!r}"
        return None

    def rows_sha256(self) -> str:
        cells = [self.first[f"{mode}/{size}B/{delay}us"] for size, delay, mode in self.grid()]
        text = harness.results_csv(harness.SweepResult(cells, [], []))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def finish(self, pins: dict) -> list[str]:
        """The rows do not depend on payload bytes, so one digest covers every seed."""
        if len(self.first) != sum(1 for _ in self.grid()):
            return ["not every cell completed"]
        got, want = self.rows_sha256(), pins["rows_sha256"][self.name]
        print(f"rows_sha256 {got} (pinned {want})")
        return [] if got == want else [f"results rows sha256 {got} != pinned {want}"]

    def report_model(self) -> None:
        """Virtual-time results of the simulated system, exact for any seed."""
        print("model (virtual ns): size delay_us bypass_p50 bypass_p99 "
              "mediated_p50 mediated_p99 p99_gain_pct")
        for size in self.cfg.packet_sizes:
            for delay in self.cfg.delays_us:
                byp = self.first[f"{MODE_BYPASS}/{size}B/{delay}us"]
                med = self.first[f"{MODE_MEDIATED}/{size}B/{delay}us"]
                gain = 100.0 * (med.p99_ns - byp.p99_ns) / med.p99_ns
                print(f"model {size} {delay} {byp.p50_ns:.2f} {byp.p99_ns:.2f} "
                      f"{med.p50_ns:.2f} {med.p99_ns:.2f} {gain:.2f}")


def _row(cell: harness.CellResult) -> str:
    return harness.results_csv(harness.SweepResult([cell], [], [])).splitlines()[1]


# Privileged registers as the device model defines them, 4 bytes each; the
# audit must find none of their bytes reachable, whatever the manifest says.
DEVICE_PRIVILEGED = (
    nic.REG_ICR, nic.REG_IMS, nic.REG_RCTL, nic.REG_TCTL,
    nic.REG_RDBAL, nic.REG_RDBAH, nic.REG_RDLEN, nic.REG_RDH,
    nic.REG_TDBAL, nic.REG_TDBAH, nic.REG_TDLEN, nic.REG_TDH,
)


class Audit:
    """Reachability audit of the register prefix, one window per batch:
    the exhaustive audit of the shipped manifest's slices (subject) and the
    fast-path audit of a bypass driver's merged table (baseline)."""

    name = "audit"
    op = "probe"
    aliases = ("probes_per_s", "exhaustive_probes_per_s", "fast_path_probes_per_s")
    reached = ("capability.check_access", "capability.with_cursor",
               "capability.Capability.has", "slicer.audit_reachability")

    def __init__(self, seed: int):
        self.seed = seed

    def prepare(self) -> None:
        bar = harness.data_manifest("e1000e.manifest")
        top = max([r.offset + r.size for r in expand(bar)]
                  + [reg + 4 for reg in DEVICE_PRIVILEGED])
        if top > AUDIT_PREFIX:
            raise RuntimeError(f"manifest reaches {top:#x}, beyond the audited prefix")
        self.standalone = harness.slice_standalone(bar)
        self.merged = harness.build_machine("sut", MODE_BYPASS, SUT_ENDPOINT,
                                            link=harness.FrameLink()).table
        self.oracle = harness.manifest_reach_oracle(bar, AUDIT_PREFIX)

    def batches(self, index: int) -> list[list[Part]]:
        windows = list(range(0, AUDIT_PREFIX, AUDIT_WINDOW))
        random.Random(f"{self.seed}:{index}").shuffle(windows)
        return [[Part("exhaustive", "exhaustive", "subject", 2 * AUDIT_WINDOW,
                      partial(audit_window, self.standalone, lo, True),
                      partial(self._check, lo)),
                 Part("fast", "fast", "baseline", 2 * AUDIT_WINDOW,
                      partial(audit_window, self.merged, lo, False),
                      partial(self._check, lo))]
                for lo in windows]

    def _check(self, lo: int, bits: bytearray) -> Optional[str]:
        if bits != self.oracle[lo:lo + AUDIT_WINDOW]:
            return f"window {lo:#x}: audit differs from the manifest oracle"
        for reg in DEVICE_PRIVILEGED:
            if lo <= reg < lo + AUDIT_WINDOW and any(bits[reg - lo:reg - lo + 4]):
                return f"privileged register at {reg:#x} is reachable"
        return None

    def finish(self, pins: dict) -> list[str]:
        return []


def audit_window(table: slicer.SliceTable, lo: int, exhaustive: bool) -> bytearray:
    """Audit [lo, lo + AUDIT_WINDOW) of the table's aperture.

    audit_reachability takes the aperture's start from the sealed root's
    base and nothing else from it, so a copy with a moved base selects the
    window.
    """
    root = table.sealed_root
    view = slicer.SliceTable(slices=table.slices,
                             sealed_root=replace(root, base=root.base + lo))
    return slicer.audit_reachability(view, AUDIT_WINDOW, exhaustive=exhaustive)


# Slice names a bypass driver must hold, in manifest-expansion order.
EXPECTED_SLICES = (["CTRL", "STATUS", "RDT", "TDT"]
                   + [f"{row}[{k}]" for row in ("TXD_META", "RXD_META", "TXBUF", "RXBUF")
                      for k in range(64)])


class Bringup:
    """Repeated machine bring-up with the shipped manifests, one bypass and
    one mediated machine per batch."""

    name = "bringup"
    op = "machine"
    aliases = ("machines_per_s", "bypass_machines_per_s", "mediated_machines_per_s")
    reached = ("manifest.parse", "manifest.expand", "slicer.slice",
               "capability.derive_bounds", "capability.restrict_perms", "capability.seal",
               "capability.with_cursor", "capability.check_access",
               "physmem.PhysSpace.create", "physmem.PhysSpace.store",
               "physmem.PhysSpace.load", "physmem.RootAuthority.issue_root",
               "kernel.Kernel.stub_attach", "kernel.Kernel.attach", "kernel.Kernel.map_mmio",
               "harness.build_machine", "harness.default_manifests")

    def __init__(self, seed: int):
        self.seed = seed

    def prepare(self) -> None:
        pass

    def batches(self, index: int) -> list[list[Part]]:
        rng = random.Random(f"{self.seed}:{index}")
        out = []
        for _ in range(BRINGUP_PAIRS):
            pid = rng.randrange(1, 1 << 31)
            out.append([
                Part(mode, mode, "subject" if mode == MODE_BYPASS else "baseline", 1,
                     partial(harness.build_machine, "sut", mode, SUT_ENDPOINT, process_id=pid),
                     partial(self._check, mode))
                for mode in (MODE_BYPASS, MODE_MEDIATED)])
        return out

    @staticmethod
    def _check(mode: str, machine: harness.Machine) -> Optional[str]:
        if mode == MODE_MEDIATED:
            return None if machine.table is None else "mediated machine holds slices"
        if machine.table.names() != EXPECTED_SLICES:
            return "bypass table does not carry the expected slices"
        for root in (machine.table.sealed_root, machine.table.sealed_dma_root):
            if not (root.tag and root.otype == slicer.SLICER_OTYPE):
                return "unmap root is not sealed by the slicer"
        return None

    def finish(self, pins: dict) -> list[str]:
        return []


def make_workload(name: str, seed: int):
    if name == "echo-small":
        return Echo(name, (1, 64), seed)
    if name == "echo-mtu":
        return Echo(name, (1472,), seed)
    if name == "audit":
        return Audit(seed)
    return Bringup(seed)


WORKLOADS = ("echo-small", "echo-mtu", "audit", "bringup")


# -- measurement ----------------------------------------------------------------


@dataclass
class Measurement:
    samples: dict[str, list[float]]
    parts: dict[str, Part]           # kind -> one part of that kind
    per_pass: dict[str, int]         # kind -> occurrences in one pass
    batch_s: list[float]
    attempted: int = 0
    failed: int = 0

    def rate(self, side: Optional[str] = None) -> float:
        """Operations per host second at each kind's RATE_QUANTILE batch time."""
        kinds = [k for k, p in self.parts.items() if side is None or p.side == side]
        ops = sum(self.per_pass[k] * self.parts[k].ops for k in kinds)
        secs = sum(self.per_pass[k] * quantile(self.samples[k], RATE_QUANTILE) for k in kinds)
        return ops / secs


def run_batch(batch: list[Part], m: Measurement, errors: list[str],
              tracer: Optional[Tracer] = None) -> list[tuple[Part, object, Optional[str]]]:
    """Run and time every part of the batch; returns (part, result, error)
    for `settle`, which checks the results outside the timed calls."""
    total = 0.0
    done = []
    for part in batch:
        if tracer is not None:
            tracer.tag(part.label)
        t0 = time.perf_counter()
        try:
            result, err = part.run(), None
        except Exception:
            result, err = None, f"{part.kind}: {traceback.format_exc()}"
        dt = time.perf_counter() - t0
        m.samples.setdefault(part.kind, []).append(dt)
        m.parts.setdefault(part.kind, part)
        total += dt
        done.append((part, result, err))
    m.batch_s.append(total)
    return done


def settle(done: list[tuple[Part, object, Optional[str]]], m: Measurement,
           errors: list[str]) -> None:
    """Check each part's result; a failed part fails all its operations."""
    for part, result, err in done:
        err = err or part.check(result)
        m.attempted += part.ops
        if err:
            m.failed += part.ops
            errors.append(err)


def new_measurement(wl) -> Measurement:
    per_pass: dict[str, int] = {}
    for batch in wl.batches(0):
        for part in batch:
            per_pass[part.kind] = per_pass.get(part.kind, 0) + 1
    return Measurement({}, {}, per_pass, [])


def measure(wl, seconds: float, errors: list[str],
            setup: Optional[list[float]] = None) -> Measurement:
    """Run batches until `seconds` of batch time have gone, at least one pass.

    With `setup`, SETUP_REPEATS fresh-process set-ups are spread evenly over
    the run and appended to it; their time does not count as batch time.
    """
    m = new_measurement(wl)
    start = time.perf_counter()
    paused = 0.0
    index = 0
    while True:
        for batch in wl.batches(index):
            elapsed = time.perf_counter() - start - paused
            while setup is not None and elapsed >= seconds * len(setup) / SETUP_REPEATS \
                    and len(setup) < SETUP_REPEATS:
                t0 = time.perf_counter()
                setup.append(setup_once(wl.name, wl.seed))
                paused += time.perf_counter() - t0
            if index and elapsed >= seconds:
                return m
            settle(run_batch(batch, m, errors), m, errors)
        index += 1


def setup_once(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter to the end of its first,
    untimed warm-up batch: import, manifests, first machines."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-child",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"setup child failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1]) - start


def setup_child(workload: str, seed: int) -> int:
    wl = make_workload(workload, seed)
    wl.prepare()
    errors: list[str] = []
    m = new_measurement(wl)
    settle(run_batch(wl.batches(0)[0], m, errors), m, errors)
    if errors:
        print("\n".join(errors), file=sys.stderr)
        return 1
    print(time.monotonic())
    return 0


# -- tracing ----------------------------------------------------------------------


def _count(key: str, measure_fn: Callable) -> Callable:
    def hook(tracer: Tracer, args: tuple, result: object) -> None:
        tracer.counters[key] += measure_fn(args, result)
    return hook


def _name_machine(tracer: Tracer, args: tuple, machine: harness.Machine) -> None:
    tracer.machine_names[tracer.space_id(machine.space)] = machine.name


def _keep_link(tracer: Tracer, args: tuple, result: object) -> None:
    tracer.kept.append(args[1])


HOOKS = {
    "physmem.PhysSpace.load_bytes": _count("copy_bytes", lambda a, r: len(r)),
    "physmem.PhysSpace.store_bytes": _count("copy_bytes", lambda a, r: len(a[2])),
    "physmem.PhysSpace.dma_read": _count("dma_bytes", lambda a, r: len(r)),
    "physmem.PhysSpace.dma_write": _count("dma_bytes", lambda a, r: len(a[2])),
    "slicer.slice": _count("slices_carved", lambda a, r: len(r)),
    "nic.NicModel.deliver_frame": _count("rx_dropped", lambda a, r: not r),
    "kernel.Kernel.socket_recv": _count("empty_recvs", lambda a, r: not r),
    "driver.Driver.poll_recv": _count("frames_polled", lambda a, r: len(r)),
    "netstack.ones_complement_sum": _count("checksum_bytes", lambda a, r: len(a[0])),
    "harness.EventLoop.run": _count("events", lambda a, r: a[0].executed),
    "harness.build_machine": _name_machine,
    "harness.wire_link": _keep_link,
}

SPACE_OF = {
    "PhysSpace": lambda a: a[0],
    "NicModel": lambda a: a[1] if len(a) > 1 and isinstance(a[1], PhysSpace) else None,
    "Kernel": lambda a: a[0].space,
    "Driver": lambda a: a[0].space,
}

PHYSMEM_ACCESS = ("load", "store", "load_bytes", "store_bytes", "cap_load", "cap_store")


def traced_pass(wl, errors: list[str]) -> tuple[Summary, Tracer, Measurement, float]:
    """One fixed pass under the tracer, so counts repeat exactly. The
    results are checked after the wrappers are gone, so no check's own
    calls into capslice count as a layer's time."""
    m = new_measurement(wl)
    tracer = Tracer()
    done: list[tuple[Part, object, Optional[str]]] = []
    tracer.install(SPACE_OF, HOOKS)
    try:
        batches = wl.batches(0)  # after install, so the bound calls are the traced ones
        body = tracer.root(lambda: [done.extend(run_batch(b, m, errors, tracer))
                                    for b in batches], "traced_pass")
        t0 = time.perf_counter()
        body()
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    settle(done, m, errors)
    del done  # frees the bring-up machines before the spans are summarized
    summary = tracer.summarize()
    missed = [name for name in wl.reached if not summary.calls.get(name)]
    if missed:
        errors.append(f"tracer self-check: never reached {missed}")
    layers_s = sum(summary.layer_self_s.get(layer, 0.0) for layer in LAYERS)
    if layers_s < (1 - UNTRACED_MAX) * wall:
        errors.append(f"tracer self-check: the layers' self times sum to {layers_s:.6f}s, "
                      f"more than {UNTRACED_MAX:.0%} short of the wall time {wall:.6f}s")
    return summary, tracer, m, wall


def layer_metrics(s: Summary, tracer: Tracer, ops: int, wall: float,
                  overhead: float) -> dict[str, float]:
    def calls(*names: str) -> float:
        return sum(s.calls.get(n, 0) for n in names) / ops

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def vns(layer: str) -> float:
        return sum(v for (lay, _, machine), v in s.layer_vns.items()
                   if lay == layer and machine == "sut") / ops

    c = tracer.counters
    us = {layer: s.layer_self_s.get(layer, 0.0) * 1e6 / ops for layer in LAYERS}
    socket_calls_bypass = sum(s.tagged_calls.get((f"kernel.Kernel.{fn}", MODE_BYPASS), 0)
                              for fn in ("socket_send", "socket_recv"))
    out = {f"{layer}.self_us": us[layer] for layer in LAYERS}
    out.update({
        "capability.check_access.calls": calls("capability.check_access"),
        "capability.with_cursor.calls": calls("capability.with_cursor"),
        "capability.derive.calls": calls("capability.derive_bounds",
                                         "capability.restrict_perms"),
        "capability.fault_ratio": ratio(s.raised.get("capability.check_access", 0),
                                        s.calls.get("capability.check_access", 0)),
        "physmem.access.calls": calls(*(f"physmem.PhysSpace.{f}" for f in PHYSMEM_ACCESS)),
        "physmem.region_for.calls": calls("physmem.PhysSpace.region_for"),
        "physmem.copy_bytes": c["copy_bytes"] / ops,
        "physmem.dma_bytes": c["dma_bytes"] / ops,
        "physmem.vns": vns("physmem"),
        "manifest.parse.calls": calls("manifest.parse"),
        "manifest.expand.calls": calls("manifest.expand"),
        "slicer.slice.calls": calls("slicer.slice"),
        "slicer.slices_carved": c["slices_carved"] / ops,
        "slicer.audit.self_us": s.self_s.get("slicer.audit_reachability", 0.0) * 1e6 / ops,
        "nic.process_tx.calls": calls("nic.NicModel.process_tx"),
        "nic.deliver_frame.calls": calls("nic.NicModel.deliver_frame"),
        "nic.rx_dropped": c["rx_dropped"] / ops,
        "nic.vns": vns("nic"),
        "kernel.socket_send.calls": calls("kernel.Kernel.socket_send"),
        "kernel.socket_recv.calls": calls("kernel.Kernel.socket_recv"),
        "kernel.socket_calls_bypass": socket_calls_bypass / ops,
        "kernel.empty_recv_ratio": ratio(c["empty_recvs"],
                                         s.calls.get("kernel.Kernel.socket_recv", 0)),
        "kernel.bringup_us": sum(s.incl_s.get(f"kernel.Kernel.{f}", 0.0)
                                 for f in ("stub_attach", "attach", "map_mmio")) * 1e6 / ops,
        "kernel.vns": vns("kernel"),
        "netstack.encode.calls": calls("netstack.encode_udp"),
        "netstack.decode.calls": calls("netstack.decode_udp"),
        "netstack.checksum_bytes": c["checksum_bytes"] / ops,
        "driver.send.calls": calls("driver.Driver.send"),
        "driver.poll_recv.calls": calls("driver.Driver.poll_recv"),
        "driver.frames_per_poll": ratio(c["frames_polled"],
                                        s.calls.get("driver.Driver.poll_recv", 0)),
        "harness.events_per_rtt": c["events"] / ops,
        "harness.build_machine_us": s.incl_s.get("harness.build_machine", 0.0) * 1e6 / ops,
        "harness.link_queue_frames": sum(link.pending(0) + link.pending(1)
                                         for link in tracer.kept) / ops,
        "bench.self_us": (wall - sum(s.layer_self_s.get(layer, 0.0) for layer in LAYERS))
                         * 1e6 / ops,
        "trace.overhead": overhead,
    })
    return out


def print_mode_ledger(s: Summary, m: Measurement) -> None:
    """Virtual ns each layer charged on the SUT's clock, per round trip and mode."""
    ops_by_label: dict[str, int] = {}
    for kind, part in m.parts.items():
        ops_by_label[part.label] = ops_by_label.get(part.label, 0) + part.ops * m.per_pass[kind]
    print("ledger (virtual ns per round trip on the SUT): mode " + " ".join(LAYERS))
    for label, ops in ops_by_label.items():
        row = [s.layer_vns.get((layer, label, "sut"), 0.0) / ops for layer in LAYERS]
        print(f"ledger {label} " + " ".join(f"{v:.2f}" for v in row))


# -- reporting ----------------------------------------------------------------------


def git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def quantile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_child:
        return setup_child(args.workload, args.seed)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    pins = json.loads(PINS_PATH.read_text(encoding="utf-8"))
    record = {
        "workload": args.workload, "seed": args.seed, "held_out_seed": pins["held_out_seed"],
        "seconds": args.seconds, "trace": args.trace,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "cpu_count": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
    }
    print("run_record " + json.dumps(record, sort_keys=True))

    wl = make_workload(args.workload, args.seed)
    errors: list[str] = []
    wl.prepare()
    warm = new_measurement(wl)
    settle(run_batch(wl.batches(0)[0], warm, errors), warm, errors)  # untimed
    setup: list[float] = []
    gc.collect()
    m = measure(wl, args.seconds, errors, setup if args.trace == 0 else None)

    ops_per_s = m.rate()
    print(f"{wl.aliases[0]} {ops_per_s:.2f} 1/s  ({wl.op}s per host second)")
    print(f"{wl.aliases[1]} {m.rate('subject'):.2f} 1/s")
    print(f"{wl.aliases[2]} {m.rate('baseline'):.2f} 1/s")
    if args.trace == 0:
        values = {
            "setup_s": quantile(setup, RATE_QUANTILE),
            "ops_per_s": ops_per_s,
            "subject_ops_per_s": m.rate("subject"),
            "baseline_ops_per_s": m.rate("baseline"),
            "batch_ms_p90": quantile(m.batch_s, 90) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        print(f"setup samples: {len(setup)} fresh processes, "
              + " ".join(f"{t:.4f}" for t in setup))
        print(f"batch_ms_p50 {statistics.median(m.batch_s) * 1e3:.3f} ms  (not bounded: "
              f"it moves with the host's state)")
        print(f"batch samples: {len(m.batch_s)} batches; per kind n, p50 ms, p90 ms: "
              + ", ".join(f"{k} {len(v)} {statistics.median(v) * 1e3:.2f} "
                          f"{quantile(v, 90) * 1e3:.2f}" for k, v in m.samples.items()))
    else:
        # The same pass untraced, right before the traced one, so both see
        # the same host state; their wall-time ratio is the tracing overhead.
        plain = new_measurement(wl)
        t0 = time.perf_counter()
        for batch in wl.batches(0):
            settle(run_batch(batch, plain, errors), plain, errors)
        plain_wall = time.perf_counter() - t0
        summary, tracer, tm, wall = traced_pass(wl, errors)
        for done in (plain, tm):
            m.attempted += done.attempted
            m.failed += done.failed
        values = layer_metrics(summary, tracer, tm.attempted, wall, plain_wall / wall)
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}.csv.gz"
        tracer.write(spans_path)
        print(f"traced pass: {tm.attempted} {wl.op}s, {summary.spans} spans, {wall:.3f}s "
              f"wall; spans written to {spans_path.relative_to(ROOT)}")
        if isinstance(wl, Echo):
            print_mode_ledger(summary, tm)

    errors.extend(wl.finish(pins))
    if isinstance(wl, Echo):
        wl.report_model()
    error_rate = m.failed / m.attempted
    print(f"error_rate {error_rate:.6f} ratio  ({m.failed} of {m.attempted} {wl.op}s failed)")

    wanted = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    metrics = {}
    for entry in wanted:
        value = values[entry["name"]]
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"{entry['name']} {value!r} {entry['unit']}")
    for err in errors:
        print(f"FAILED: {err}", file=sys.stderr)
    correct = not errors
    print(json.dumps({"correct": correct, "attempted": m.attempted, "failed": m.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
