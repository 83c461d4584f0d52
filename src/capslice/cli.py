"""Command-line front end.

Subcommands:
    validate <manifest>      parse, then list every violation of the kernel's one
                             admission rule: shape, then the device (`device` line,
                             BAR length, kernel-only registers, names, doorbells)
    slice-dump <manifest>    print the slice table the manifest carves
    audit                    run the isolation suite, write audit.txt
    sweep                    run the latency sweep, write results.csv
                             and improvement.csv

Exit codes: 0 all checks pass, 1 suite/validation failure, an unreadable
manifest, one the kernel refuses, or an `--out` that cannot be a directory
(checked before any work) or written, 2 usage error (including a sweep grid
or cost flag out of range or repeated, and a sweep whose clock reaches 2**53 ns).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

from . import harness
from .kernel import ApiError, device_truth_violations
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
    flags = {"syscall_ns": args.syscall_ns, "mmio_access_ns": args.mmio_ns,
             "ram_access_ns": args.ram_ns, "copy_per_byte_ns": args.copy_ns_per_byte}
    return AccessCostTable(**{field: v for field, v in flags.items() if v is not None})


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
    p_audit.add_argument("--out", type=Path, default=None,
                         help="directory for audit.txt")

    p_sweep = sub.add_parser("sweep", help="latency sweep over sizes and delays")
    p_sweep.add_argument("--manifest", type=Path, default=None)
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


def _read_manifest(path: Path) -> Manifest | None:
    """Parse one manifest. On an unreadable or unparsable file, print why
    and return None."""
    try:
        return parse_file(path)
    except (OSError, UnicodeDecodeError, ManifestError) as err:
        print(f"error: {path}: {err}", file=sys.stderr)
        return None


def _refuse_out(out: Path) -> bool:
    """Whether `out` cannot be a directory, after one `error:` line. Creates nothing."""
    first = next((p for p in (out, *out.parents) if os.path.exists(p)), out)
    if os.path.isdir(first):
        return False
    print(f"error: {out}: {first} is not a directory", file=sys.stderr)
    return True


def _write_out(out: Path, name: str, text: str, note: str = "") -> bool:
    """Write `out/name`, creating `out`; on an OSError, print why and return False."""
    path = out / name
    try:
        out.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    except OSError as err:
        print(f"error: {err.filename or path}: {err.strerror or err}", file=sys.stderr)
        return False
    print(f"wrote {path}{note}")
    return True


def cmd_validate(args: argparse.Namespace) -> int:
    m = _read_manifest(args.manifest)
    if m is None:
        return 1
    problems = device_truth_violations(m)
    for p in problems:
        print(f"violation: {p}")
    if problems:
        return 1
    ranges = len(expand(m))
    print(f"{args.manifest}: ok ({len(m.entries)} entries, {ranges} userspace ranges)")
    return 0


def cmd_slice_dump(args: argparse.Namespace) -> int:
    m = _read_manifest(args.manifest)
    if m is None:
        return 1
    violations = validate(m)
    for v in violations:
        print(f"violation: {v}")
    if violations:
        return 1
    try:
        table = harness.slice_standalone(m)
    except (OSError, OverflowError, MemoryError) as err:  # no space can hold the bar
        print(f"error: {args.manifest}: cannot allocate the bar: {err}", file=sys.stderr)
        return 1
    for name, cap in table:
        print(harness.format_slice_line(name, cap))
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    bar_manifest = None
    if args.manifest is not None:
        bar_manifest = _read_manifest(args.manifest)
        if bar_manifest is None:
            return 1
    if args.out is not None and _refuse_out(args.out):
        return 1
    report = harness.run_isolation_suite(bar_manifest)
    text = report.render()
    print(text, end="")
    if args.out is not None and not _write_out(args.out, "audit.txt", text):
        return 1
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
    # run_cell's delay_us * 1000.0 must be finite; min() keeps a huge int from raising.
    if not cfg.delays_us or any(d < 0 or not math.isfinite(min(d, sys.float_info.max) * 1000.0)
                                for d in cfg.delays_us):
        return "--delays must be non-negative, and finite in nanoseconds"
    for flag, values in (("--modes", cfg.modes), ("--sizes", cfg.packet_sizes),
                         ("--delays", cfg.delays_us)):
        if len(set(values)) != len(values):
            return f"{flag} must not repeat a value"
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
    flags = {"packet_sizes": args.sizes, "delays_us": args.delays, "trials": args.trials,
             "seed": args.seed, "link_ns": args.link_ns,
             "wire_ns_per_byte": args.wire_ns_per_byte, "window": args.window}
    if args.modes is not None:
        flags["modes"] = tuple(m.strip() for m in args.modes.split(",") if m.strip())
    cfg = harness.SweepConfig(costs=_costs_from(args),
                              **{field: v for field, v in flags.items() if v is not None})
    problem = _sweep_usage_error(cfg)
    if problem is not None:
        print(f"capslice sweep: error: {problem}", file=sys.stderr)
        return 2
    if args.manifest is not None:
        cfg.bar_manifest = _read_manifest(args.manifest)
        if cfg.bar_manifest is None:
            return 1
    if _refuse_out(args.out):
        return 1

    try:
        result = harness.run_sweep(cfg)
    except harness.ClockOverflow as err:
        print(f"capslice sweep: error: {err}", file=sys.stderr)
        return 2
    if not _write_out(args.out, "results.csv", harness.results_csv(result),
                      f" ({len(result.cells)} cells)"):
        return 1
    if result.improvements and not _write_out(args.out, "improvement.csv",
                                              harness.improvement_csv(result)):
        return 1
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
