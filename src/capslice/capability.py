"""Software model of CHERI-style capabilities.

A capability is a bounded, permissioned, tagged reference. Every memory
access in this package funnels through :func:`check_access`, which is the
single enforcement chokepoint, and so does every other decision on what a
capability grants: the slicer's root, the kernel's descriptor-buffer
ioctl and the reachability audit each make one call over the whole range
they need. Illegal *derivation* silently clears the tag (as the hardware
does); illegal *dereference* raises :class:`CapFault` (the software
analogue of SIGPROT), except that ``check_access(..., probe=True)`` returns
the fault's kind instead, for callers that only ask whether an access is
allowed.

``Capability.perms`` is a plain ``int`` mask. :class:`Perm` stays the type
at the API edge (constructors, :func:`restrict_perms`, ``has``) and its
values compare equal to the stored ints, so ``cap.perms == Perm.READ``
holds; a ``repr`` or a fault message spells a mask as Python 3.11+ does,
and a fault formats its message only when the message is read.
Hot callers pass the ``*_MASK`` ints below as ``need``. ``perfbench/``
measures the speed of this core, and ``perfbench/fingerprint.py`` checks
that the sweep's CSV bytes stay the same.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, IntFlag, auto
from typing import Optional

# otype identifiers are a 32-bit namespace; the reserved maximum means
# "not sealed".
OTYPE_BITS = 32
UNSEALED = (1 << OTYPE_BITS) - 1

# Addresses are 64-bit.
ADDR_TOP = 1 << 64


class Perm(IntFlag):
    READ = 1 << 0
    WRITE = 1 << 1
    LOAD_CAP = 1 << 2
    STORE_CAP = 1 << 3
    SEAL = 1 << 4
    UNSEAL = 1 << 5


PERM_NONE = Perm(0)
PERM_RW = Perm.READ | Perm.WRITE

# The same bits as plain ints for hot-path `need` arguments; int `&` skips
# IntFlag's Python-level operators.
READ_MASK = Perm.READ.value
WRITE_MASK = Perm.WRITE.value
LOAD_CAP_MASK = Perm.LOAD_CAP.value
STORE_CAP_MASK = Perm.STORE_CAP.value


class FaultKind(Enum):
    TAG_INVALID = auto()
    BOUNDS_VIOLATION = auto()
    PERMISSION_DENIED = auto()
    SEAL_VIOLATION = auto()
    ALIGNMENT_FAULT = auto()
    WRONG_OTYPE = auto()


class CapFault(Exception):
    """Raised when a capability check fails at dereference/seal time.

    Raise it as ``CapFault(kind, address, detail, *operands)``. `detail` is
    the message text, or a module-level function that builds the text from
    `operands`. The text is built only when ``str()``, ``repr()`` or
    ``.detail`` reads it, so a fault that is caught and dropped formats
    nothing. ``args`` holds exactly those raw values, so a fault pickles to
    an equal one.
    """

    @property
    def kind(self) -> FaultKind:
        return self.args[0]

    @property
    def address(self) -> int:
        return self.args[1]

    @property
    def detail(self) -> str:
        detail, *operands = self.args[2:]
        return detail if isinstance(detail, str) else detail(*operands)

    def __str__(self) -> str:
        return f"{self.kind.name} at {self.address:#x}: {self.detail}"

    def __repr__(self) -> str:
        return f"{type(self).__name__}({str(self)!r})"


# check_access's fault kinds and message builders, bound once so that a
# fault costs no enum lookup and no formatting until its text is read.
_TAG_INVALID = FaultKind.TAG_INVALID
_SEAL_VIOLATION = FaultKind.SEAL_VIOLATION
_PERMISSION_DENIED = FaultKind.PERMISSION_DENIED
_BOUNDS_VIOLATION = FaultKind.BOUNDS_VIOLATION


def _sealed_text(otype: int) -> str:
    return f"sealed capability (otype {otype})"


def _perm_repr(mask: int) -> str:
    """CPython 3.11+'s `repr(Perm(mask))` for a mask of Perm's flags, on 3.10 too."""
    flags = "|".join(p.name for p in Perm if mask & p)
    return f"<Perm.{flags}: {mask}>" if flags else f"<Perm: {mask}>"


def _perm_text(need: int, have: int) -> str:
    return f"need {_perm_repr(need)}, have {_perm_repr(have)}"


def _bounds_text(cursor: int, width: int, base: int, length: int) -> str:
    return f"access [{cursor:#x},{cursor + width:#x}) outside [{base:#x},{base + length:#x})"


@dataclass(frozen=True, slots=True, init=False)
class Capability:
    """Immutable capability value.

    The cursor is the address a dereference would touch; it may sit
    outside [base, base+length) without faulting until actually used.
    `perms` accepts a Perm and is stored as a plain int mask.
    """

    base: int
    length: int
    cursor: int
    perms: int
    tag: bool
    otype: int = UNSEALED

    def __init__(self, base: int, length: int, cursor: int, perms: int, tag: bool,
                 otype: int = UNSEALED):
        # Slot setters directly: the frozen class's own __setattr__ refuses,
        # and object.__setattr__ per field is slower.
        _set_base(self, base)
        _set_length(self, length)
        _set_cursor(self, cursor)
        _set_perms(self, int(perms))
        _set_tag(self, tag)
        _set_otype(self, otype)

    @property
    def top(self) -> int:
        return self.base + self.length

    @property
    def sealed(self) -> bool:
        return self.otype != UNSEALED

    def has(self, perms: int) -> bool:
        return (self.perms & perms) == perms

    def __repr__(self) -> str:
        seal = f" otype={self.otype}" if self.sealed else ""
        tag = "+" if self.tag else "-"
        return (f"Cap[{tag}]({self.cursor:#x} in {self.base:#x}+{self.length:#x},"
                f" {_perm_repr(self.perms)}{seal})")


_set_base = Capability.base.__set__
_set_length = Capability.length.__set__
_set_cursor = Capability.cursor.__set__
_set_perms = Capability.perms.__set__
_set_tag = Capability.tag.__set__
_set_otype = Capability.otype.__set__


def null_capability(cursor: int = 0) -> Capability:
    """The untagged all-zeros pattern a forged integer decodes to."""
    return Capability(0, 0, cursor, 0, False)


def derive_bounds(parent: Capability, new_base: int, new_length: int) -> Capability:
    """Narrow a capability to [new_base, new_base+new_length).

    Any attempt to exceed the parent's range, derive from an untagged
    value, or derive from a sealed capability produces an untagged result
    rather than raising.
    """
    top = new_base + new_length
    ok = (
        parent.tag
        and parent.otype == UNSEALED
        and new_base >= parent.base
        and top <= parent.base + parent.length
        and top < ADDR_TOP
    )
    return Capability(new_base, new_length, new_base, parent.perms, ok)


def restrict_perms(parent: Capability, keep: Perm) -> Capability:
    """Intersect permissions; granting new ones is impossible by construction."""
    ok = parent.tag and parent.otype == UNSEALED
    return Capability(parent.base, parent.length, parent.cursor, parent.perms & int(keep), ok)


def with_cursor(cap: Capability, cursor: int) -> Capability:
    """Pointer arithmetic: move the cursor. Mutating a sealed value untags it."""
    ok = cap.tag and cap.otype == UNSEALED
    return Capability(cap.base, cap.length, cursor, cap.perms, ok, cap.otype)


def seal(target: Capability, authority: Capability) -> Capability:
    """Bind target to the otype selected by the authority's cursor.

    The sealed result is opaque: it cannot be dereferenced or modified
    until unsealed with a matching authority.
    """
    if not target.tag or not authority.tag:
        raise CapFault(FaultKind.TAG_INVALID, authority.cursor, "seal with untagged input")
    if target.sealed:
        raise CapFault(FaultKind.SEAL_VIOLATION, target.cursor, "target already sealed")
    if authority.sealed:
        raise CapFault(FaultKind.SEAL_VIOLATION, authority.cursor, "sealed authority")
    if not authority.has(Perm.SEAL):
        raise CapFault(FaultKind.PERMISSION_DENIED, authority.cursor, "authority lacks SEAL")
    otype = authority.cursor
    if not (authority.base <= otype < authority.top) or otype >= UNSEALED:
        raise CapFault(FaultKind.BOUNDS_VIOLATION, otype, "otype outside authority bounds")
    return Capability(target.base, target.length, target.cursor, target.perms, target.tag, otype)


def unseal(target: Capability, authority: Capability) -> Capability:
    """Restore a sealed capability, given the authority for its otype."""
    if not target.tag or not authority.tag:
        raise CapFault(FaultKind.TAG_INVALID, target.cursor, "unseal with untagged input")
    if authority.sealed:
        raise CapFault(FaultKind.SEAL_VIOLATION, authority.cursor, "sealed authority")
    if not authority.has(Perm.UNSEAL):
        raise CapFault(FaultKind.PERMISSION_DENIED, authority.cursor, "authority lacks UNSEAL")
    if not target.sealed:
        raise CapFault(FaultKind.SEAL_VIOLATION, target.cursor, "target is not sealed")
    if not (authority.base <= authority.cursor < authority.top):
        raise CapFault(FaultKind.BOUNDS_VIOLATION, authority.cursor,
                       "otype outside authority bounds")
    if authority.cursor != target.otype:
        raise CapFault(FaultKind.WRONG_OTYPE, target.cursor,
                       f"sealed with otype {target.otype}, authority selects {authority.cursor}")
    return Capability(target.base, target.length, target.cursor, target.perms, target.tag)


def check_access(cap: Capability, width: int, need: int, offset: int = 0, *,
                 probe: bool = False) -> Optional[FaultKind]:
    """Validate one access of `width` bytes at ``cap.cursor + offset``, or raise.

    Check order is fixed (tag, seal, permission, bounds) so identical
    inputs always fault identically. `need` is an int mask or a Perm. A
    negative `width` is out of bounds; zero is legal (an empty bulk copy).
    An allowed access returns None.

    With ``probe=True`` a failed check returns the FaultKind it would raise
    and builds no CapFault: the form for a caller that asks only whether an
    access is allowed, such as the exhaustive audit, whose probes nearly all
    fail. The tests and their order are the same in both forms.

    `offset` is the immediate offset of CHERI's capability-relative loads
    and stores (CHERI ISA v9, UCAM-CL-TR-951): the access needs no new
    capability for its pointer arithmetic. For an unsealed capability it
    faults with the same kind, address and text as checking
    ``with_cursor(cap, cap.cursor + offset)``. A tagged sealed capability
    raises SEAL_VIOLATION here, as the ISA's form does, where the
    `with_cursor` form is untagged and raises TAG_INVALID.
    """
    cursor = cap.cursor + offset
    if not cap.tag:
        if probe:
            return _TAG_INVALID
        raise CapFault(_TAG_INVALID, cursor, "untagged capability")
    if cap.otype != UNSEALED:
        if probe:
            return _SEAL_VIOLATION
        raise CapFault(_SEAL_VIOLATION, cursor, _sealed_text, cap.otype)
    if (cap.perms & need) != need:
        if probe:
            return _PERMISSION_DENIED
        raise CapFault(_PERMISSION_DENIED, cursor, _perm_text, need, cap.perms)
    base = cap.base
    if cursor < base or cursor + width > base + cap.length or width < 0:
        if probe:
            return _BOUNDS_VIOLATION
        raise CapFault(_BOUNDS_VIOLATION, cursor, _bounds_text, cursor, width, base, cap.length)
    return None


def make_otype_authority(otype: int) -> Capability:
    """Trusted-computing-base constructor for a sealing authority.

    Only trusted modules (the physical-space root issuer, the slicer, and
    the kernel interface) may call this; it is the software stand-in for
    the otype capabilities the kernel is born holding.
    """
    return Capability(otype, 1, otype, Perm.SEAL | Perm.UNSEAL, True)
