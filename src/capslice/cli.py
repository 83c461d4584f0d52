"""Command-line front end.

Subcommands:
    validate <manifest>      parse + validate, list every violation
    slice-dump <manifest>    print the slice table the manifest carves
    audit                    run the isolation suite, write audit.txt
    sweep                    run the latency sweep, write results.csv
                             and improvement.csv

Exit codes: 0 all checks pass, 1 suite/validation failure, an unreadable
manifest, or one the kernel refuses, 2 usage error (including a sweep grid
or cost flag out of range).
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import harness
from .kernel import ApiError
from .manifest import Manifest, ManifestError, expand, parse_file, validate
from .netstack import MAX_PAYLOAD
from .physmem import AccessCostTable


def _add_cost_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--syscall-ns", type=float, default=None,
                   help="cost of one kernel entry or exit")
    p.add_argument("--mmio-ns", type=float, default=None,
                   help="cost of one device register access")
    p.add_argument("--ram-ns", type=float, default=None,
                   help="cost of one RAM word access")
    p.add_argument("--copy-ns-per-byte", type=float, default=None,
                   help="cost per byte copied")


def _costs_from(args: argparse.Namespace) -> AccessCostTable:
    costs = AccessCostTable()
    if args.syscall_ns is not None:
        costs.syscall_ns = args.syscall_ns
    if args.mmio_ns is not None:
        costs.mmio_access_ns = args.mmio_ns
    if args.ram_ns is not None:
        costs.ram_access_ns = args.ram_ns
    if args.copy_ns_per_byte is not None:
        costs.copy_per_byte_ns = args.copy_ns_per_byte
    return costs


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in text.split(",") if t)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="capslice",
        description="capability-sliced NIC access: isolation audits and "
                    "virtual-time latency sweeps")
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="validate a manifest file")
    p_validate.add_argument("manifest", type=Path)

    p_dump = sub.add_parser("slice-dump", help="print the slices a manifest carves")
    p_dump.add_argument("manifest", type=Path)

    p_audit = sub.add_parser("audit", help="run the isolation suite")
    p_audit.add_argument("--manifest", type=Path, default=None,
                         help="register manifest (default: shipped e1000e map)")
    p_audit.add_argument("--dma-manifest", type=Path, default=None,
                         help="DMA-region manifest (default: shipped layout)")
    p_audit.add_argument("--out", type=Path, default=None,
                         help="directory for audit.txt")

    p_sweep = sub.add_parser("sweep", help="latency sweep over sizes and delays")
    p_sweep.add_argument("--manifest", type=Path, default=None)
    p_sweep.add_argument("--dma-manifest", type=Path, default=None)
    p_sweep.add_argument("--sizes", type=_int_list, default=None,
                         help="comma-separated payload sizes (bytes)")
    p_sweep.add_argument("--delays", type=_int_list, default=None,
                         help="comma-separated inter-packet delays (us)")
    p_sweep.add_argument("--trials", type=int, default=None)
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--modes", default=None,
                         help="comma-separated subset of: bypass,mediated")
    p_sweep.add_argument("--link-ns", type=float, default=None,
                         help="link propagation delay each way")
    p_sweep.add_argument("--wire-ns-per-byte", type=float, default=None,
                         help="frame serialization cost (default 8 = 1 Gbps)")
    p_sweep.add_argument("--window", type=int, default=None,
                         help="max in-flight requests from the peer")
    p_sweep.add_argument("--out", type=Path, default=Path("out"),
                         help="directory for results.csv / improvement.csv")
    _add_cost_flags(p_sweep)
    return parser


def _read_manifests(*paths: Path | None) -> list[Manifest | None] | None:
    """Parse each given manifest path (None stays None). On an unreadable or
    unparsable file, print why and return None."""
    manifests: list[Manifest | None] = []
    for path in paths:
        try:
            manifests.append(parse_file(path) if path is not None else None)
        except (OSError, UnicodeDecodeError, ManifestError) as err:
            print(f"error: {path}: {err}", file=sys.stderr)
            return None
    return manifests


def _read_valid_manifest(path: Path) -> Manifest | None:
    """Parse and validate one manifest. On any problem, print it and return
    None."""
    read = _read_manifests(path)
    if read is None:
        return None
    violations = validate(read[0])
    for v in violations:
        print(f"violation: {v}")
    return None if violations else read[0]


def cmd_validate(args: argparse.Namespace) -> int:
    m = _read_valid_manifest(args.manifest)
    if m is None:
        return 1
    ranges = len(expand(m))
    print(f"{args.manifest}: ok ({len(m.entries)} entries, {ranges} userspace ranges)")
    return 0


def cmd_slice_dump(args: argparse.Namespace) -> int:
    m = _read_valid_manifest(args.manifest)
    if m is None:
        return 1
    table = harness.slice_standalone(m)
    for name, cap in table:
        print(harness.format_slice_line(name, cap))
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    read = _read_manifests(args.manifest, args.dma_manifest)
    if read is None:
        return 1
    report = harness.run_isolation_suite(*read)
    text = report.render()
    print(text, end="")
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / "audit.txt").write_text(text, encoding="utf-8")
        print(f"wrote {args.out / 'audit.txt'}")
    return 0 if report.passed else 1


def _sweep_usage_error(cfg: harness.SweepConfig) -> str | None:
    """Check the whole sweep grid before any cell runs."""
    modes = (harness.MODE_BYPASS, harness.MODE_MEDIATED)
    if not cfg.modes or any(m not in modes for m in cfg.modes):
        return f"--modes must be a comma-separated subset of: {','.join(modes)}"
    if not 1 <= cfg.trials <= harness.LoadGenerator.MAX_TRIALS:
        return f"--trials must be in 1..{harness.LoadGenerator.MAX_TRIALS}"
    if not cfg.packet_sizes or any(not 0 <= s <= MAX_PAYLOAD for s in cfg.packet_sizes):
        return f"--sizes must be payload sizes in 0..{MAX_PAYLOAD}"
    if not cfg.delays_us or any(d < 0 for d in cfg.delays_us):
        return "--delays must be non-negative"
    if cfg.window < 1:
        return "--window must be at least 1"
    costs = cfg.costs
    for flag, value in (("--link-ns", cfg.link_ns),
                        ("--wire-ns-per-byte", cfg.wire_ns_per_byte),
                        ("--syscall-ns", costs.syscall_ns),
                        ("--mmio-ns", costs.mmio_access_ns),
                        ("--ram-ns", costs.ram_access_ns),
                        ("--copy-ns-per-byte", costs.copy_per_byte_ns)):
        if not (math.isfinite(value) and value >= 0):
            return f"{flag} must be a finite non-negative number"
    return None


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = harness.SweepConfig(costs=_costs_from(args))
    if args.sizes is not None:
        cfg.packet_sizes = args.sizes
    if args.delays is not None:
        cfg.delays_us = args.delays
    if args.trials is not None:
        cfg.trials = args.trials
    if args.seed is not None:
        cfg.seed = args.seed
    if args.modes is not None:
        cfg.modes = tuple(m.strip() for m in args.modes.split(",") if m.strip())
    if args.link_ns is not None:
        cfg.link_ns = args.link_ns
    if args.wire_ns_per_byte is not None:
        cfg.wire_ns_per_byte = args.wire_ns_per_byte
    if args.window is not None:
        cfg.window = args.window
    problem = _sweep_usage_error(cfg)
    if problem is not None:
        print(f"capslice sweep: error: {problem}", file=sys.stderr)
        return 2
    read = _read_manifests(args.manifest, args.dma_manifest)
    if read is None:
        return 1
    cfg.bar_manifest, cfg.dma_manifest = read

    result = harness.run_sweep(cfg)
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / "results.csv").write_text(harness.results_csv(result), encoding="utf-8")
    print(f"wrote {args.out / 'results.csv'} ({len(result.cells)} cells)")
    if result.improvements:
        (args.out / "improvement.csv").write_text(harness.improvement_csv(result),
                                                  encoding="utf-8")
        print(f"wrote {args.out / 'improvement.csv'}")
    for warning in result.flagged:
        print(f"warning: {warning}", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:
        return exit_.code if isinstance(exit_.code, int) else 2
    handlers = {
        "validate": cmd_validate,
        "slice-dump": cmd_slice_dump,
        "audit": cmd_audit,
        "sweep": cmd_sweep,
    }
    try:
        return handlers[args.command](args)
    except ApiError as err:  # a manifest that parses but does not fit the device
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
