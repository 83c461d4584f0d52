"""From a register-map policy to capability slices.

A manifest declares which bytes of a device aperture userspace may touch
and how. The slicer turns it into bounded capabilities; an exhaustive
audit then proves the carving matches the policy, byte for byte.

Run:  python3 demos/02_manifest_slicing.py
"""

from capslice import expand, parse, validate
from capslice.harness import (
    format_slice_line,
    manifest_reach_oracle,
    slice_standalone,
)
from capslice.slicer import AUDIT_READ, AUDIT_WRITE, audit_reachability

POLICY = """\
device e1000e
bar 0x20000
reg CTRL   0x0000 4 RW        # userspace may prod device control
reg STATUS 0x0008 4 RO        # ... may look at link state
reg IMS    0x00D0 4 KERNEL    # ... may NOT touch interrupt masking
reg TDT    0x3818 4 RW        # ... may ring the transmit doorbell
reg TXD    0x3900 8 RW repeat=4 stride=0x10   # demo ring carve
"""

manifest = parse(POLICY)
violations = validate(manifest)
print(f"manifest '{manifest.device_name}', bar {manifest.bar_length:#x}, "
      f"{len(manifest.entries)} entries, violations: {violations or 'none'}")

print("\nexpanded userspace ranges (KERNEL entries withheld):")
for r in expand(manifest):
    print(f"  {r.name:<8} offset {r.offset:#06x} size {r.size:<3} {r.perm.value}")

# Carve it. The table is what a driver process would receive; the root
# comes back only as a sealed aperture root, which grants nothing.
table = slice_standalone(manifest)
print("\nslice table:")
for name, cap in table:
    print(" ", format_slice_line(name, cap))
print("  sealed root:", table.sealed_root)

# Audit: for each byte and each permission, try the access through the
# slices and compare with what the manifest promised. Zero tolerance.
bits = audit_reachability(table, manifest.bar_length)
oracle = manifest_reach_oracle(manifest)
readable = sum(1 for b in bits if b & AUDIT_READ)
writable = sum(1 for b in bits if b & AUDIT_WRITE)
print(f"\naudit: {manifest.bar_length * 2} (byte, perm) probes -> "
      f"{readable} readable bytes, {writable} writable bytes")
print("matches manifest oracle exactly:", bits == oracle)
assert bits == oracle
