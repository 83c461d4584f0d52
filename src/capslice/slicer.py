"""The slicer: manifest + root capability -> bounded userspace slices.

Slicing derives one bounds-narrowed, permission-restricted capability per
expanded manifest range and hands the set to userspace. The unsealed root
never leaves this module: the caller gets back a *sealed* root usable only
for a later unmap, so teardown stays possible without breaking the model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .capability import (
    READ_MASK,
    WRITE_MASK,
    CapFault,
    Capability,
    FaultKind,
    check_access,
    derive_bounds,
    make_otype_authority,
    restrict_perms,
    seal,
    unseal,
    with_cursor,
)
from .manifest import Manifest, PermClass, expand

# Reserved otypes. Mapping tokens (sealed roots) and attach tokens must
# never be confusable, so the slicer and the kernel interface seal under
# different types.
SLICER_OTYPE = 1
INTERFACE_OTYPE = 2

_AUTHORITY = make_otype_authority(SLICER_OTYPE)
_RW = PermClass.RW
_RW_MASK = READ_MASK | WRITE_MASK

# Audit result bits, one byte per audited address.
AUDIT_READ = 0x1
AUDIT_WRITE = 0x2
_AUDIT_NEEDS = ((READ_MASK, AUDIT_READ), (WRITE_MASK, AUDIT_WRITE))
# The fast path's form: per need, a translate table that ORs in its bit.
_AUDIT_RUNS = tuple((need, bytes(b | bit for b in range(256))) for need, bit in _AUDIT_NEEDS)


@dataclass(frozen=True)
class SliceTable:
    """Ordered (name, capability) pairs in manifest-expansion order.

    `sealed_root` is the opaque unmap token for the sliced aperture. When
    the kernel merges the register table with the DMA-region table, the
    second aperture's token rides along in `sealed_dma_root`.
    """

    slices: tuple[tuple[str, Capability], ...]
    sealed_root: Capability
    sealed_dma_root: Optional[Capability] = None

    def __len__(self) -> int:
        return len(self.slices)

    def __iter__(self) -> Iterator[tuple[str, Capability]]:
        return iter(self.slices)

    def __getitem__(self, index: int) -> Capability:
        return self.slices[index][1]

    def names(self) -> list[str]:
        return [name for name, _ in self.slices]

    def index_map(self) -> dict[str, int]:
        """Name -> slice index, the generated-enum view a driver compiles in."""
        return {name: i for i, (name, _) in enumerate(self.slices)}

    def by_name(self, name: str) -> Capability:
        for n, cap in self.slices:
            if n == name:
                return cap
        raise KeyError(name)


def slice(root: Capability, m: Manifest) -> SliceTable:
    """Carve the aperture under `root` according to the manifest."""
    # The root must grant read-write over the whole BAR from its base.
    check_access(root, m.bar_length, _RW_MASK, root.base - root.cursor)

    # One permission-restricted root per class, then one derivation per
    # range: the same values as restricting each derived slice. Expansion
    # yields only RW and RO ranges; the roots are indexed by `is RW`, which
    # hashes no enum member.
    class_roots: list[Optional[Capability]] = [None, None]  # [RO, RW]
    slices: list[tuple[str, Capability]] = []
    for name, offset, size, perm_class in expand(m):
        # Defense in depth beyond manifest validation.
        if offset + size > root.length:
            raise CapFault(FaultKind.BOUNDS_VIOLATION, root.base + offset,
                           f"{name} exceeds root bounds")
        rw = perm_class is _RW
        parent = class_roots[rw]
        if parent is None:
            parent = class_roots[rw] = restrict_perms(root, perm_class.to_perms())
        slices.append((name, derive_bounds(parent, root.base + offset, size)))
    return SliceTable(slices=tuple(slices), sealed_root=seal(root, _AUTHORITY))


def unmap(table_root: Capability) -> Capability:
    """Give the root back to the kernel for teardown.

    Only tokens sealed by this module unseal here; attach tokens and
    forged patterns fault.
    """
    return unseal(table_root, _AUTHORITY)


def audit_reachability(table: SliceTable, bar_length: int,
                       exhaustive: bool = False) -> bytearray:
    """Probe what the table can actually reach.

    For every byte of the aperture and each of READ/WRITE, the question
    "does any slice grant this?" is answered by attempting the access via
    check_access; the manifest is deliberately not consulted. Returns one
    byte per audited address with AUDIT_READ / AUDIT_WRITE bits.

    With exhaustive=False (default) each slice contributes at most one run
    per permission: its bounds clipped to the aperture, skipped if the clip
    is empty, and kept only if a `with_cursor` copy of the slice at the
    run's start passes one check_access over the whole run. That one check
    passes exactly when every byte of the run passes at width 1: the tag,
    seal and permission tests do not depend on the cursor, and the bounds
    test accepts exactly the accesses inside [base, top). The work is
    O(slices) checks, and the bits are ORed into the result in C.
    exhaustive=True attempts every slice at every byte regardless, for
    cross-validating the fast path. It probes by immediate offset from each
    slice's cursor, as a CHERI capability-relative load does, so no probe
    builds a capability. That form faults exactly where the `with_cursor`
    form does, except that a tagged sealed slice faults SEAL_VIOLATION
    rather than TAG_INVALID; the audit records only whether a probe
    faulted, so the two paths check each other across both forms.
    """
    base = table.sealed_root.base
    caps = [cap for _, cap in table.slices]
    result = bytearray(bar_length)

    if exhaustive:
        # Each (need, bit) stops at the first slice that grants it.
        for b in range(bar_length):
            addr = base + b
            bits = 0
            for need, bit in _AUDIT_NEEDS:
                for cap in caps:
                    try:
                        check_access(cap, 1, need, addr - cap.cursor)
                    except CapFault:
                        continue
                    bits |= bit
                    break
            result[b] = bits
        return result

    top = base + bar_length
    for cap in caps:
        lo = cap.base
        hi = lo + cap.length
        if hi <= base or lo >= top:  # most slices lie outside the aperture
            continue
        if lo < base:
            lo = base
        if hi > top:
            hi = top
        for need, or_bit in _AUDIT_RUNS:
            if not cap.has(need):
                continue
            try:  # an empty run passes and marks nothing
                check_access(with_cursor(cap, lo), hi - lo, need)
            except CapFault:
                continue
            a, b = lo - base, hi - base
            result[a:b] = result[a:b].translate(or_bit)
    return result
