"""Device manifests: the declarative register-map policy.

A manifest lists named byte ranges of a device aperture together with the
permission class each range is granted. The slicer turns a validated
manifest into capability slices; KERNEL ranges document privileged bytes
and block overlaps but never become userspace slices.

File format (UTF-8, one directive per line, `#` starts a comment):

    device <name>
    bar <hex-length>
    reg <name> <hex-offset> <dec-size> <RW|RO|KERNEL> [repeat=<count> stride=<hex>]
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from typing import NamedTuple, Optional

from .capability import PERM_NONE, PERM_RW, Perm


class PermClass(Enum):
    RW = "RW"
    RO = "RO"
    KERNEL = "KERNEL"

    def to_perms(self) -> Perm:
        if self is PermClass.RW:
            return PERM_RW
        if self is PermClass.RO:
            return Perm.READ
        return PERM_NONE


class ManifestError(Exception):
    def __init__(self, message: str, line: int = 0):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


@dataclass(frozen=True)
class Repeat:
    count: int
    stride: int


@dataclass(frozen=True)
class SliceEntry:
    name: str
    offset: int
    size: int
    perm: PermClass
    repeat: Optional[Repeat] = None


@dataclass(frozen=True)
class Manifest:
    device_name: str
    bar_length: int
    entries: tuple[SliceEntry, ...]

    @cached_property
    def _expanded(self) -> tuple[ExpandedRange, ...]:
        # A manifest is frozen, so it is expanded once, on the first `expand`.
        out: list[ExpandedRange] = []
        for e in self.entries:
            if e.perm is not PermClass.KERNEL:
                out.extend(_expand_entry(e))
        return tuple(out)


class ExpandedRange(NamedTuple):
    name: str
    offset: int
    size: int
    perm: PermClass


_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
# Field text -> class in one dict lookup; `PermClass(text)` would run Enum's
# Python-level `__call__` for every line.
_PERM_BY_TEXT = {p.value: p for p in PermClass}


def _parse_int(token: str, what: str, line: int) -> int:
    try:
        return int(token, 0)
    except ValueError:
        raise ManifestError(f"{what} {token!r} is not a number", line) from None


def parse(text: str) -> Manifest:
    """Parse manifest text. Unknown directives are errors, not warnings.

    A text's parse is remembered, so equal text gives the identical frozen
    Manifest; text not seen before is parsed in full, and bad text raises its
    ManifestError on every call."""
    return _parse(text)


@lru_cache(maxsize=16)
def _parse(text: str) -> Manifest:
    device_name: Optional[str] = None
    bar_length: Optional[int] = None
    entries: list[SliceEntry] = []
    seen: set[str] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        directive = fields[0]

        if directive == "device":
            if len(fields) != 2:
                raise ManifestError("expected: device <name>", lineno)
            if device_name is not None:
                raise ManifestError("duplicate device directive", lineno)
            device_name = fields[1]
        elif directive == "bar":
            if len(fields) != 2:
                raise ManifestError("expected: bar <hex-length>", lineno)
            if bar_length is not None:
                raise ManifestError("duplicate bar directive", lineno)
            bar_length = _parse_int(fields[1], "bar length", lineno)
        elif directive == "reg":
            if len(fields) not in (5, 7):
                raise ManifestError(
                    "expected: reg <name> <hex-offset> <dec-size> <RW|RO|KERNEL>"
                    " [repeat=<count> stride=<hex>]", lineno)
            name = fields[1]
            if not _NAME_RE.match(name):
                raise ManifestError(f"bad register name {name!r}", lineno)
            if name in seen:
                raise ManifestError(f"duplicate register name {name!r}", lineno)
            seen.add(name)
            offset = _parse_int(fields[2], "offset", lineno)
            size = _parse_int(fields[3], "size", lineno)
            perm = _PERM_BY_TEXT.get(fields[4])
            if perm is None:
                raise ManifestError(f"unknown permission class {fields[4]!r}", lineno)
            repeat = None
            if len(fields) == 7:
                # A field has no whitespace, so `key=value` with a non-empty
                # value is the whole format.
                count_key, _, count = fields[5].partition("=")
                stride_key, _, stride = fields[6].partition("=")
                if count_key != "repeat" or stride_key != "stride" or not count or not stride:
                    raise ManifestError("expected repeat=<count> stride=<hex>", lineno)
                repeat = Repeat(
                    count=_parse_int(count, "repeat count", lineno),
                    stride=_parse_int(stride, "stride", lineno),
                )
            entries.append(SliceEntry(name, offset, size, perm, repeat))
        else:
            raise ManifestError(f"unknown directive {directive!r}", lineno)

    if device_name is None:
        raise ManifestError("missing device directive")
    if bar_length is None:
        raise ManifestError("missing bar directive")
    entries.sort(key=lambda e: (e.offset, e.name))
    return Manifest(device_name, bar_length, tuple(entries))


def parse_file(path) -> Manifest:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


def _expand_entry(entry: SliceEntry) -> list[ExpandedRange]:
    if entry.repeat is None or entry.repeat.count == 1:
        return [ExpandedRange(entry.name, entry.offset, entry.size, entry.perm)]
    return [
        ExpandedRange(f"{entry.name}[{k}]", entry.offset + k * entry.repeat.stride,
                      entry.size, entry.perm)
        for k in range(entry.repeat.count)
    ]


def validate(m: Manifest) -> list[str]:
    """Return every violation found (empty list means the manifest is sound)."""
    violations: list[str] = []
    if m.bar_length < 1:
        violations.append(f"bar length must be >= 1 (got {m.bar_length})")
    seen: set[str] = set()
    for e in m.entries:
        if e.name in seen:
            violations.append(f"duplicate register name {e.name!r}")
        seen.add(e.name)
        if e.size < 1:
            violations.append(f"{e.name}: size must be >= 1 (got {e.size})")
        if e.repeat is not None:
            if e.repeat.count < 1:
                violations.append(f"{e.name}: repeat count must be >= 1 (got {e.repeat.count})")
            if e.repeat.stride < e.size:
                violations.append(
                    f"{e.name}: stride {e.repeat.stride:#x} smaller than size {e.size}")

    if violations:
        return violations

    # An entry that leaves the bar gets one violation and is not expanded,
    # so a huge repeat count costs nothing here.
    ranges: list[ExpandedRange] = []
    for e in m.entries:
        end = e.offset + e.size
        if e.repeat is not None:
            end += (e.repeat.count - 1) * e.repeat.stride
        if e.offset < 0 or end > m.bar_length:
            violations.append(
                f"{e.name}: range [{e.offset:#x},{end:#x}) outside bar [0,{m.bar_length:#x})")
        else:
            ranges.extend(_expand_entry(e))

    by_offset = sorted(ranges, key=lambda r: (r.offset, r.name))
    if by_offset:
        holder = by_offset[0]
        high = holder.offset + holder.size
        for r in by_offset[1:]:
            if r.offset < high:
                violations.append(f"{holder.name} and {r.name} overlap at {r.offset:#x}")
            if r.offset + r.size > high:
                holder = r
                high = r.offset + r.size
    return violations


def expand(m: Manifest) -> tuple[ExpandedRange, ...]:
    """Expanded userspace ranges, manifest order; KERNEL entries are withheld.

    Each entry's repeats come out as one contiguous run. The tuple is
    computed once per manifest and shared by every call."""
    return m._expanded
