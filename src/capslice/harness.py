"""System builder, isolation suite, and virtual-time latency sweeps.

Two simulated machines (system-under-test and traffic peer), each with
its own physical space and clock, talk over a FrameLink. A discrete-event
loop orders frame deliveries and actor turns by (time, sequence), so runs
are exactly reproducible: the same configuration and seed produce
byte-identical CSV output.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass, field
from functools import cache
from importlib import resources
from typing import Callable, Optional, Sequence

from . import slicer
from .capability import CapFault, Capability, FaultKind, Perm, with_cursor
from .driver import Driver
from .kernel import (ApiError, DESC_SIZE, DMA_LENGTH, DMA_MANIFEST, DMA_RX_RING, DMA_TX_BUFS,
                     DMA_TX_RING, Kernel, RING_SIZE)
from .manifest import Manifest, PermClass, expand, parse
from .netstack import UDP_DPORT_AT, UdpEndpoint, carried_udp_checksum, echo_reply, encode_udp
from .nic import BAR_LENGTH, PRIVILEGED, REG_IMS, FrameLink, NicModel
from .physmem import AccessCostTable, PhysSpace
from .slicer import AUDIT_READ, AUDIT_WRITE, SliceTable, audit_reachability

# One machine's physical layout: RAM low, the NIC BAR above it.
RAM_BASE = 0x0
RAM_LENGTH = 0x0010_0000
BAR_BASE = RAM_LENGTH
SPACE_SIZE = BAR_BASE + BAR_LENGTH

SUT_ENDPOINT = UdpEndpoint(mac=b"\x02\x00\x00\x00\x00\x01", ipv4=b"\x0a\x00\x00\x01", port=7)
PEER_ENDPOINT = UdpEndpoint(mac=b"\x02\x00\x00\x00\x00\x02", ipv4=b"\x0a\x00\x00\x02", port=40000)

MODE_BYPASS = "bypass"
MODE_MEDIATED = "mediated"


@cache
def _data_text(name: str) -> str:
    # A shipped file does not change while the process runs, so it is read once.
    return resources.files("capslice").joinpath("data", name).read_text(encoding="utf-8")


def data_manifest(name: str) -> Manifest:
    """A shipped manifest: its text is read once per process, and `parse`
    returns the one Manifest it made of that text."""
    return parse(_data_text(name))


def default_manifests() -> Manifest:
    """The shipped BAR manifest; the kernel carves the DMA region itself."""
    return data_manifest("e1000e.manifest")


@dataclass
class Machine:
    name: str
    mode: str
    space: PhysSpace
    kernel: Kernel
    nic: NicModel
    driver: Driver
    endpoint: UdpEndpoint
    token: Optional[Capability] = None
    table: Optional[SliceTable] = None


def build_machine(name: str, mode: str, endpoint: UdpEndpoint,
                  costs: Optional[AccessCostTable] = None,
                  link: Optional[FrameLink] = None,
                  bar_manifest: Optional[Manifest] = None,
                  process_id: int = 1000) -> Machine:
    """One host: space, NIC, kernel stub, and a driver in the given mode."""
    if bar_manifest is None:
        bar_manifest = default_manifests()

    space, authority = PhysSpace.create(SPACE_SIZE, costs or AccessCostTable())
    space.add_region(RAM_BASE, RAM_LENGTH, name="ram")
    nic = NicModel()
    space.add_region(BAR_BASE, BAR_LENGTH, device=nic, name="bar")
    if link is not None:
        nic.connect(link)

    kernel = Kernel(space, authority, bar_manifest)

    token = None
    table = None
    if mode == MODE_BYPASS:
        token = kernel.attach(process_id)
        table = kernel.map_mmio(token)
        driver = Driver(space, table=table)
    elif mode == MODE_MEDIATED:
        driver = Driver(space, kernel=kernel)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return Machine(name, mode, space, kernel, nic, driver, endpoint, token, table)


# -- discrete-event loop -------------------------------------------------------


class EventLoop:
    """Events ordered by (time, insertion sequence); ties run in FIFO order."""

    def __init__(self):
        self._heap: list[tuple[float, int, Callable[[float], None]]] = []
        self._seq = 0
        self.executed = 0

    def schedule(self, time: float, fn: Callable[[float], None]) -> None:
        heapq.heappush(self._heap, (time, self._seq, fn))
        self._seq += 1

    def run(self, max_events: int = 10_000_000) -> None:
        while self._heap:
            t, _, fn = heapq.heappop(self._heap)
            fn(t)
            self.executed += 1
            if self.executed > max_events:
                raise RuntimeError("event budget exhausted; simulation is wedged")


class EchoServer:
    """System-under-test actor: echo every UDP frame back out."""

    def __init__(self, machine: Machine, loop: EventLoop):
        self.machine = machine
        self.loop = loop
        self._scheduled = False
        d = machine.driver
        self._recv, self._send = ((d.poll_recv, d.send) if machine.mode == MODE_BYPASS
                                  else (d.mediated_recv, d.mediated_send))

    def on_frame(self, arrival: float) -> None:
        if not self._scheduled:
            self._scheduled = True
            self.loop.schedule(max(arrival, self.machine.space.clock), self._run)

    def _run(self, t: float) -> None:
        self._scheduled = False
        self.machine.space.advance_to(t)
        for frame in self._recv():
            reply = echo_reply(frame)
            if reply is None:
                continue
            self._send(reply)


class LoadGenerator:
    """Peer actor: paced, windowed request stream with per-trial round
    trips stamped on the peer's own clock.

    The trial index rides in the UDP source port (the echo swaps ports),
    so replies match their requests even if intervening frames dropped.

    Each request in flight keeps the echo it expects, built by `encode_udp`
    with the request's UDP checksum as `echo_reply` builds it. Only a reply
    equal to it byte for byte is accepted, once; any other reply, a
    duplicate included, is a mismatch.
    """

    MAX_TRIALS = 20000  # one source port per trial

    def __init__(self, machine: Machine, loop: EventLoop, payloads: list[bytes],
                 dst: UdpEndpoint, delay_ns: float, window: int):
        if len(payloads) > self.MAX_TRIALS:
            raise ValueError(f"at most {self.MAX_TRIALS} trials per cell")
        if window < 1:
            raise ValueError(f"window must be at least 1, got {window!r}")
        # A negative pause would send at the previous send's time, as 0 does.
        if not (math.isfinite(delay_ns) and delay_ns >= 0):
            raise ValueError(f"delay_ns must be a finite non-negative number, got {delay_ns!r}")
        self.machine = machine
        self.loop = loop
        self.payloads = payloads
        self.dst = dst
        self.delay_ns = delay_ns
        self.window = window

        self.send_times: list[float] = []
        self.rtts: list[float] = []
        self.next_to_send = 0
        self.received = 0
        self.mismatches = 0
        self._expected: dict[int, bytes] = {}  # trial -> its echo, until accepted
        self._send_scheduled = False
        self._drain_scheduled = False

    def start(self) -> None:
        self._schedule_send()

    def _schedule_send(self) -> None:
        if self._send_scheduled or self.next_to_send >= len(self.payloads):
            return
        if self.next_to_send - self.received >= self.window:
            return
        at = self.machine.space.clock
        if self.send_times:
            at = max(at, self.send_times[-1] + self.delay_ns)
        self._send_scheduled = True
        self.loop.schedule(at, self._send)

    def _send(self, t: float) -> None:
        self._send_scheduled = False
        m = self.machine
        m.space.advance_to(t)
        k = self.next_to_send
        ep = m.endpoint
        src = UdpEndpoint(ep.mac, ep.ipv4, ep.port + k)
        payload = self.payloads[k]
        frame = encode_udp(src, self.dst, payload)
        self._expected[k] = encode_udp(self.dst, src, payload, carried_udp_checksum(frame))
        stamp = m.space.clock
        m.driver.send(frame)
        self.send_times.append(stamp)
        self.next_to_send = k + 1
        self._schedule_send()

    def on_frame(self, arrival: float) -> None:
        if not self._drain_scheduled:
            self._drain_scheduled = True
            self.loop.schedule(max(arrival, self.machine.space.clock), self._drain)

    def _drain(self, t: float) -> None:
        self._drain_scheduled = False
        m = self.machine
        m.space.advance_to(t)
        expected = self._expected
        for frame in m.driver.poll_recv():
            # The destination port names the trial; byte equality checks the rest.
            k = int.from_bytes(frame[UDP_DPORT_AT:UDP_DPORT_AT + 2], "big") - m.endpoint.port
            if expected.get(k) != frame:
                self.mismatches += 1
                continue
            del expected[k]
            self.rtts.append(m.space.clock - self.send_times[k])
            self.received += 1
        self._schedule_send()


def wire_link(loop: EventLoop, link: FrameLink,
              actors: Sequence[EchoServer | LoadGenerator]) -> None:
    """Route each transmission to the actor whose NIC holds its endpoint."""
    by_endpoint = {a.machine.nic.link_endpoint: (a.machine, a) for a in actors}

    def on_transmit(dst: int, arrival: float, frame: bytes) -> None:
        machine, actor = by_endpoint[dst]

        def deliver(t: float) -> None:
            machine.nic.deliver_frame(machine.space, frame)
            actor.on_frame(t)

        loop.schedule(arrival, deliver)

    link.on_transmit = on_transmit


# -- latency sweep ---------------------------------------------------------------


class ClockOverflow(ValueError):
    """A cell's clock reached 2**53 ns, past which a float clock no longer
    holds every nanosecond and per-access charges are lost to rounding."""


@dataclass
class SweepConfig:
    packet_sizes: tuple[int, ...] = (1, 16, 64, 128, 256, 512, 1024, 1472)
    delays_us: tuple[int, ...] = (0, 100, 1000, 5000, 10000)
    trials: int = 1000
    modes: tuple[str, ...] = (MODE_BYPASS, MODE_MEDIATED)
    seed: int = 1
    costs: AccessCostTable = field(default_factory=AccessCostTable)
    link_ns: float = 1000.0
    wire_ns_per_byte: float = 8.0
    window: int = 32
    bar_manifest: Optional[Manifest] = None


@dataclass
class CellResult:
    mode: str
    packet_size: int
    delay_us: int
    trials: int
    p50_ns: float
    p99_ns: float
    drops: int
    sut_kernel_calls: int


def nearest_rank(sorted_values: list[float], p: float) -> float:
    if not sorted_values:
        return float("nan")
    k = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[k - 1]


def run_cell(cfg: SweepConfig, size: int, delay_us: int, mode: str) -> CellResult:
    rng = random.Random(f"{cfg.seed}:{mode}:{size}:{delay_us}")
    payloads = [rng.randbytes(size) for _ in range(cfg.trials)]

    link = FrameLink(delay_ns=cfg.link_ns, wire_ns_per_byte=cfg.wire_ns_per_byte)
    sut = build_machine("sut", mode, SUT_ENDPOINT, cfg.costs, link, cfg.bar_manifest)
    peer = build_machine("peer", MODE_BYPASS, PEER_ENDPOINT, cfg.costs, link, cfg.bar_manifest)

    loop = EventLoop()
    echo = EchoServer(sut, loop)
    gen = LoadGenerator(peer, loop, payloads, SUT_ENDPOINT,
                        delay_ns=delay_us * 1000.0, window=cfg.window)
    wire_link(loop, link, [echo, gen])

    kernel_calls_before = sut.kernel.invocations
    gen.start()
    try:
        loop.run(max_events=cfg.trials * 64 + 4096)
    finally:
        # The hook closes a cycle (link -> actors -> machines -> NICs -> link)
        # that would keep both machines alive until a full collection.
        link.on_transmit = None

    for machine in (sut, peer):
        if not machine.space.clock < 2 ** 53:
            raise ClockOverflow(f"the {machine.name} clock ends at {machine.space.clock} ns,"
                                f" at or past 2**53 ns, where charges are lost to rounding")
    if gen.mismatches:
        raise RuntimeError(f"{gen.mismatches} corrupted echoes in {mode}/{size}/{delay_us}")
    kernel_calls = sut.kernel.invocations - kernel_calls_before
    if mode == MODE_BYPASS and kernel_calls:
        raise RuntimeError(f"bypass cell made {kernel_calls} kernel calls")
    rtts = sorted(gen.rtts)
    return CellResult(
        mode=mode, packet_size=size, delay_us=delay_us, trials=cfg.trials,
        p50_ns=nearest_rank(rtts, 50), p99_ns=nearest_rank(rtts, 99),
        drops=cfg.trials - gen.received,
        sut_kernel_calls=kernel_calls)


@dataclass
class SweepResult:
    cells: list[CellResult]
    improvements: list[tuple[int, int, float]]  # (size, delay_us, improvement_pct)
    flagged: list[str]

    def improvement_for(self, size: int, delay_us: int) -> float:
        for s, d, pct in self.improvements:
            if s == size and d == delay_us:
                return pct
        raise KeyError((size, delay_us))


def run_sweep(cfg: SweepConfig) -> SweepResult:
    cells: list[CellResult] = []
    flagged: list[str] = []
    by_key: dict[tuple[str, int, int], CellResult] = {}
    for size in cfg.packet_sizes:
        for delay in cfg.delays_us:
            for mode in cfg.modes:
                cell = run_cell(cfg, size, delay, mode)
                cells.append(cell)
                by_key[(mode, size, delay)] = cell
                if cell.drops > 0.01 * cell.trials:
                    flagged.append(f"{mode} size={size} delay={delay}us: "
                                   f"{cell.drops}/{cell.trials} dropped")

    improvements: list[tuple[int, int, float]] = []
    if MODE_BYPASS in cfg.modes and MODE_MEDIATED in cfg.modes:
        for size in cfg.packet_sizes:
            for delay in cfg.delays_us:
                med = by_key[(MODE_MEDIATED, size, delay)].p99_ns
                byp = by_key[(MODE_BYPASS, size, delay)].p99_ns
                pct = 100.0 * (med - byp) / med if med else float("nan")
                improvements.append((size, delay, pct))
    return SweepResult(cells, improvements, flagged)


RESULTS_HEADER = "mode,packet_size,delay_us,trials,p50_ns,p99_ns,drops"
IMPROVEMENT_HEADER = "packet_size,delay_us,improvement_pct"


def results_csv(result: SweepResult) -> str:
    lines = [RESULTS_HEADER]
    for c in result.cells:
        lines.append(f"{c.mode},{c.packet_size},{c.delay_us},{c.trials},"
                     f"{c.p50_ns:.2f},{c.p99_ns:.2f},{c.drops}")
    return "\n".join(lines) + "\n"


def improvement_csv(result: SweepResult) -> str:
    lines = [IMPROVEMENT_HEADER]
    for size, delay, pct in result.improvements:
        lines.append(f"{size},{delay},{pct:.2f}")
    return "\n".join(lines) + "\n"


# -- isolation suite ----------------------------------------------------------------


def _perm_words(cap: Capability) -> str:
    if cap.has(Perm.READ | Perm.WRITE):
        return "Read+Write"
    if cap.has(Perm.READ):
        return "Read Only"
    if cap.has(Perm.WRITE):
        return "Write Only"
    return "No Access"


def format_slice_line(name: str, cap: Capability) -> str:
    return f"{name}: {cap.cursor:#x}, len={cap.length}, {_perm_words(cap)}"


def manifest_reach_oracle(m: Manifest, length: Optional[int] = None) -> bytearray:
    """Per-byte permission map recomputed straight from manifest expansion;
    the independent check against audit_reachability."""
    bits = bytearray(m.bar_length if length is None else length)
    for name, off, size, perm in expand(m):
        mask = 0
        if perm in (PermClass.RO, PermClass.RW):
            mask |= AUDIT_READ
        if perm is PermClass.RW:
            mask |= AUDIT_WRITE
        for b in range(off, min(off + size, len(bits))):
            bits[b] |= mask
    return bits


@dataclass
class Scenario:
    name: str
    passed: bool
    detail: str


@dataclass
class IsolationReport:
    scenarios: list[Scenario]
    slice_dump: list[str]

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.scenarios)

    def render(self) -> str:
        lines = ["isolation suite", "==============="]
        for s in self.scenarios:
            lines.append(f"[{'PASS' if s.passed else 'FAIL'}] {s.name}: {s.detail}")
        lines.append("")
        lines.append("slice table")
        lines.append("-----------")
        lines.extend(self.slice_dump)
        return "\n".join(lines) + "\n"


def slice_standalone(m: Manifest) -> SliceTable:
    """Slice a manifest over a fresh single-region space (no device needed)."""
    space, authority = PhysSpace.create(m.bar_length)
    space.add_region(0, m.bar_length, name="aperture")
    root = authority.issue_root(0, m.bar_length, Perm.READ | Perm.WRITE)
    return slicer.slice(root, m)


def run_isolation_suite(bar_manifest: Optional[Manifest] = None) -> IsolationReport:
    bar_manifest = bar_manifest or default_manifests()

    scenarios: list[Scenario] = []

    def record(name: str, passed: bool, detail: str) -> None:
        scenarios.append(Scenario(name, passed, detail))

    # Full machine for the attack scenarios.
    link = FrameLink()
    m = build_machine("sut", MODE_BYPASS, SUT_ENDPOINT, link=link, bar_manifest=bar_manifest)

    # (b) Offsetting from the first writable register slice (CTRL in the
    # shipped manifest) into the kernel-only interrupt mask must fault on
    # bounds. The kernel admits no manifest without a read-write TDT, so there is one.
    source = next(cap for _, cap in m.table if cap.perms & Perm.WRITE)
    ims = m.kernel.mmio_root.base + REG_IMS
    try:
        m.space.store(with_cursor(source, ims), 4, 42)
        record("offset-attack", False, "store unexpectedly succeeded")
    except CapFault as fault:
        ok = fault.kind is FaultKind.BOUNDS_VIOLATION and fault.address == ims
        record("offset-attack", ok, f"{fault.kind.name} at {fault.address:#x}")

    if "STATUS" not in m.table.names():
        record("readonly-status", True, "STATUS withheld")
    else:
        try:
            m.space.store(m.table.by_name("STATUS"), 4, 0)
            record("readonly-status", False, "store unexpectedly succeeded")
        except CapFault as fault:
            record("readonly-status", fault.kind is FaultKind.PERMISSION_DENIED,
                   fault.kind.name)

    # (c) No driver-held capability reaches a descriptor address field.
    dma_base = m.kernel.dma_root.base
    target = dma_base + DMA_TX_RING  # descriptor 0's address word
    holes = []
    for name, cap in m.table:
        try:
            m.space.store(with_cursor(cap, target), 8, dma_base + DMA_TX_BUFS)
            holes.append(name)
        except CapFault:
            pass
    record("descriptor-addr-write-attack", not holes,
           "all slices fault" if not holes else f"writable through {holes}")

    # (d) Forged and wrong-type tokens are denied without device writes.
    before_writes = m.nic.counters.mmio_writes
    ring_bytes = bytes(m.space.data[dma_base:dma_base + DMA_LENGTH])
    forged = Capability(base=RAM_BASE, length=16, cursor=RAM_BASE,
                        perms=Perm.READ, tag=False, otype=slicer.INTERFACE_OTYPE)
    try:
        m.kernel.map_mmio(forged)
        record("forged-token", False, "mapping unexpectedly granted")
    except ApiError as err:
        unchanged = (m.nic.counters.mmio_writes == before_writes
                     and bytes(m.space.data[dma_base:dma_base + DMA_LENGTH]) == ring_bytes)
        record("forged-token", unchanged, f"{err.code.value}; device and DMA untouched")

    # (e) The fast-path audit of every (byte, perm) pair equals the
    # manifest-expansion oracle; acceptance criterion 3 probes every byte.
    audited = audit_reachability(m.table, bar_manifest.bar_length)
    oracle = manifest_reach_oracle(bar_manifest)
    mismatches = sum(1 for a, b in zip(audited, oracle) if a != b)
    record("exhaustive-audit", mismatches == 0,
           f"{len(audited) * 2} (byte, perm) pairs by the fast path, {mismatches} mismatches")

    # (e') The same audit against device truth rather than the manifest: no
    # byte of a register the device model holds kernel-only is reachable.
    reached = [f"{off:#x}" for off in PRIVILEGED if any(audited[off:off + 4])]
    record("device-truth-audit", not reached,
           f"reachable kernel-only registers at {', '.join(reached)}" if reached
           else f"{len(PRIVILEGED)} kernel-only registers unreachable")

    # (f) Same audit over the descriptor rings of the DMA aperture.
    dma_view = SliceTable(slices=m.table.slices, sealed_root=m.table.sealed_dma_root)
    ring_len = DMA_RX_RING + RING_SIZE * DESC_SIZE  # both rings and the gap between them
    ring_audit = audit_reachability(dma_view, ring_len)
    ring_oracle = manifest_reach_oracle(DMA_MANIFEST, ring_len)
    ring_mismatch = sum(1 for a, b in zip(ring_audit, ring_oracle) if a != b)
    record("ring-carve-audit", ring_mismatch == 0,
           f"{ring_len * 2} checks over the rings, {ring_mismatch} mismatches")

    dump = [format_slice_line(n, c) for n, c in m.table][:8]
    dump.append(f"... {len(m.table)} slices total")
    return IsolationReport(scenarios, dump)
