"""capslice: capability-guarded sub-page device access, in software.

A CHERI-style capability model guards byte-granular slices of a simulated
NIC's register space; a manifest-driven slicer hands those slices to a
userspace-style poll-mode driver; and a discrete-event harness compares
kernel-mediated against kernel-bypass I/O latency in virtual time.
"""

from .capability import (
    CapFault,
    Capability,
    FaultKind,
    Perm,
    UNSEALED,
    check_access,
    derive_bounds,
    restrict_perms,
    seal,
    unseal,
    with_cursor,
)
from .kernel import ApiError, ErrCode, Kernel
from .manifest import Manifest, ManifestError, SliceEntry, expand, parse, validate
from .physmem import AccessCostTable, PhysSpace, RootAuthority
from .slicer import SliceTable, audit_reachability
from .driver import Driver
from .nic import FrameLink, NicModel
from .netstack import UdpEndpoint, decode_udp, echo_reply, encode_udp

__version__ = "0.1.0"

__all__ = [
    "AccessCostTable",
    "ApiError",
    "CapFault",
    "Capability",
    "Driver",
    "ErrCode",
    "FaultKind",
    "FrameLink",
    "Kernel",
    "Manifest",
    "ManifestError",
    "NicModel",
    "Perm",
    "PhysSpace",
    "RootAuthority",
    "SliceEntry",
    "SliceTable",
    "UdpEndpoint",
    "UNSEALED",
    "audit_reachability",
    "check_access",
    "decode_udp",
    "derive_bounds",
    "echo_reply",
    "encode_udp",
    "expand",
    "parse",
    "restrict_perms",
    "seal",
    "unseal",
    "validate",
    "with_cursor",
]
