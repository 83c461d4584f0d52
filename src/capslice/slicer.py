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
    Perm,
    check_access,
    derive_bounds,
    make_otype_authority,
    restrict_perms,
    seal,
    unseal,
    with_cursor,
)
from .manifest import Manifest, expand

# Reserved otypes. Mapping tokens (sealed roots) and attach tokens must
# never be confusable, so the slicer and the kernel interface seal under
# different types.
SLICER_OTYPE = 1
INTERFACE_OTYPE = 2

_AUTHORITY = make_otype_authority(SLICER_OTYPE)

# Audit result bits, one byte per audited address.
AUDIT_READ = 0x1
AUDIT_WRITE = 0x2


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
    if not root.tag:
        raise CapFault(FaultKind.TAG_INVALID, root.cursor, "untagged root")
    if root.sealed:
        raise CapFault(FaultKind.SEAL_VIOLATION, root.cursor, "sealed root")
    if not root.has(Perm.READ | Perm.WRITE):
        raise CapFault(FaultKind.PERMISSION_DENIED, root.cursor, "root must be RW")
    if root.length < m.bar_length:
        raise CapFault(FaultKind.BOUNDS_VIOLATION, root.cursor,
                       f"root covers {root.length:#x} < bar {m.bar_length:#x}")

    slices: list[tuple[str, Capability]] = []
    for name, offset, size, perm_class in expand(m):
        # Defense in depth beyond manifest validation.
        if offset + size > root.length:
            raise CapFault(FaultKind.BOUNDS_VIOLATION, root.base + offset,
                           f"{name} exceeds root bounds")
        cap = restrict_perms(derive_bounds(root, root.base + offset, size),
                             perm_class.to_perms())
        slices.append((name, cap))
    return SliceTable(slices=tuple(slices), sealed_root=seal(root, _AUTHORITY))


def unmap(table_root: Capability) -> Capability:
    """Give the root back to the kernel for teardown.

    Only tokens sealed by this module unseal here; attach tokens and
    forged patterns fault.
    """
    return unseal(table_root, _AUTHORITY)


def _grants(cap: Capability, addr: int, need: int) -> bool:
    try:
        check_access(with_cursor(cap, addr), 1, need)
        return True
    except CapFault:
        return False


def audit_reachability(table: SliceTable, bar_length: int,
                       exhaustive: bool = False) -> bytearray:
    """Probe what the table can actually reach, byte by byte.

    For every byte of the aperture and each of READ/WRITE, the question
    "does any slice grant this?" is answered by attempting the access via
    check_access; the manifest is deliberately not consulted. Returns one
    byte per audited address with AUDIT_READ / AUDIT_WRITE bits.

    With exhaustive=False (default) slices whose own bounds metadata
    excludes an address are skipped, since check_access would fault them
    on exactly that comparison; every byte reported reachable was still
    confirmed through check_access. exhaustive=True attempts every slice
    at every byte regardless, for cross-validating the fast path.
    """
    base = table.sealed_root.base
    caps = [cap for _, cap in table.slices]
    result = bytearray(bar_length)

    if exhaustive:
        for b in range(bar_length):
            addr = base + b
            bits = 0
            if any(_grants(cap, addr, READ_MASK) for cap in caps):
                bits |= AUDIT_READ
            if any(_grants(cap, addr, WRITE_MASK) for cap in caps):
                bits |= AUDIT_WRITE
            result[b] = bits
        return result

    for need, bit in ((READ_MASK, AUDIT_READ), (WRITE_MASK, AUDIT_WRITE)):
        granter: list[Optional[Capability]] = [None] * bar_length
        for cap in caps:
            if not cap.tag or cap.sealed or not cap.has(need):
                continue
            lo = max(cap.base, base)
            hi = min(cap.top, base + bar_length)
            for addr in range(lo, hi):
                if granter[addr - base] is None:
                    granter[addr - base] = cap
        for b, cap in enumerate(granter):
            if cap is None:
                continue
            addr = base + b
            if _grants(cap, addr, need):
                result[b] |= bit
            elif any(_grants(other, addr, need) for other in caps):
                result[b] |= bit
    return result
