import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capslice import capability, slicer
from capslice.capability import (
    ADDR_TOP,
    READ_MASK,
    UNSEALED,
    WRITE_MASK,
    CapFault,
    Capability,
    FaultKind,
    PERM_RW,
    Perm,
    check_access,
    make_otype_authority,
    seal,
    with_cursor,
)
from capslice.harness import (
    MODE_BYPASS,
    SUT_ENDPOINT,
    FrameLink,
    build_machine,
    data_manifest,
    manifest_reach_oracle,
    slice_standalone,
)
from capslice.kernel import DMA_MANIFEST
from capslice.manifest import parse, validate
from capslice.physmem import PhysSpace
from capslice.slicer import AUDIT_READ, AUDIT_WRITE, SliceTable, audit_reachability

EXAMPLE = """\
device e1000e
bar 0x20000
reg CTRL 0x0000 4 RW
reg STATUS 0x0008 4 RO
reg IMS 0x00D0 4 KERNEL
reg TDT 0x3818 4 RW
"""


def fresh_root(length=0x20000, base=0x0, perms=PERM_RW):
    space, authority = PhysSpace.create(base + length)
    space.add_region(base, length, name="aperture")
    return space, authority.issue_root(base, length, perms)


def test_slice_example_manifest():
    _, root = fresh_root()
    table = slicer.slice(root, parse(EXAMPLE))
    assert table.names() == ["CTRL", "STATUS", "TDT"]  # IMS withheld
    ctrl, status, tdt = table[0], table[1], table[2]
    assert (ctrl.length, ctrl.perms) == (4, PERM_RW)
    assert (status.length, status.perms) == (4, Perm.READ)
    assert (tdt.length, tdt.perms) == (4, PERM_RW)
    assert tdt.base == root.base + 0x3818


def test_slice_empty_manifest_still_seals_root():
    _, root = fresh_root(0x1000)
    table = slicer.slice(root, parse("device x\nbar 0x1000\n"))
    assert len(table) == 0
    assert table.sealed_root.sealed
    with pytest.raises(CapFault):
        check_access(table.sealed_root, 4, Perm.READ)


def test_slice_rejects_bad_roots():
    _, root = fresh_root()
    untagged = Capability(base=0, length=0x20000, cursor=0, perms=PERM_RW, tag=False)
    with pytest.raises(CapFault):
        slicer.slice(untagged, parse(EXAMPLE))
    sealed = seal(root, make_otype_authority(9))
    with pytest.raises(CapFault):
        slicer.slice(sealed, parse(EXAMPLE))


def test_slice_rejects_manifest_bigger_than_root():
    _, root = fresh_root(0x1000)
    with pytest.raises(CapFault) as err:
        slicer.slice(root, parse(EXAMPLE))
    assert err.value.kind is FaultKind.BOUNDS_VIOLATION


def test_slices_never_carry_powerful_permissions():
    _, root = fresh_root(0x42000, perms=PERM_RW | Perm.LOAD_CAP | Perm.STORE_CAP
                         | Perm.SEAL | Perm.UNSEAL)
    table = slicer.slice(root, DMA_MANIFEST)
    banned = Perm.LOAD_CAP | Perm.STORE_CAP | Perm.SEAL | Perm.UNSEAL
    for name, cap in table:
        assert cap.perms & banned == Perm(0), name
        assert cap.tag and not cap.sealed


def test_ring_carving_shape():
    _, root = fresh_root(0x42000)
    table = slicer.slice(root, DMA_MANIFEST)
    metas = [cap for name, cap in table if name.startswith("TXD_META")]
    assert len(metas) == 64
    assert all(cap.length == 8 and cap.perms == PERM_RW for cap in metas)
    # no slice covers any descriptor address word (bytes 0-7 of each 16)
    for k in range(64):
        addr_word = root.base + k * 16
        for name, cap in table:
            with pytest.raises(CapFault):
                check_access(with_cursor(cap, addr_word), 8, Perm.WRITE)


def test_slice_table_never_contains_unsealed_root():
    _, root = fresh_root()
    table = slicer.slice(root, parse(EXAMPLE))
    for _, cap in table:
        assert cap.sealed or cap.length < root.length or cap.perms != root.perms
    assert table.sealed_root.sealed


def test_index_map_matches_order():
    _, root = fresh_root()
    table = slicer.slice(root, parse(EXAMPLE))
    index = table.index_map()
    assert index == {"CTRL": 0, "STATUS": 1, "TDT": 2}
    assert table.by_name("STATUS") is table[1]


# -- audit ----------------------------------------------------------------------

def test_audit_example_manifest_exact_sets():
    _, root = fresh_root()
    m = parse(EXAMPLE)
    table = slicer.slice(root, m)
    bits = audit_reachability(table, 0x20000)
    read_set = {b for b in range(0x20000) if bits[b] & AUDIT_READ}
    write_set = {b for b in range(0x20000) if bits[b] & AUDIT_WRITE}
    ctrl = set(range(0x0000, 0x0004))
    status = set(range(0x0008, 0x000C))
    tdt = set(range(0x3818, 0x381C))
    assert read_set == ctrl | status | tdt
    assert write_set == ctrl | tdt
    assert all(bits[b] == 0 for b in range(0x00D0, 0x00D4))  # IMS unreachable


def test_audit_zero_slices():
    _, root = fresh_root(0x100)
    table = slicer.slice(root, parse("device x\nbar 0x100\n"))
    assert audit_reachability(table, 0x100) == bytearray(0x100)


def test_audit_whole_bar_slice():
    _, root = fresh_root(0x200)
    table = slicer.slice(root, parse("device x\nbar 0x200\nreg ALL 0x0 512 RW\n"))
    assert audit_reachability(table, 0x200) == bytearray(
        [AUDIT_READ | AUDIT_WRITE] * 0x200)


def _random_manifest(rng):
    lines = ["device fuzz", "bar 0x800"]
    cursor = 0
    n = 0
    while cursor < 0x7C0 and n < 12:
        size = rng.randrange(1, 33)
        if cursor + size > 0x800:
            break
        perm = rng.choice(["RW", "RO", "KERNEL"])
        if rng.random() < 0.25 and cursor + 4 * size <= 0x800:
            stride = size + rng.randrange(0, 8)
            count = min(4, (0x800 - cursor) // max(stride, 1))
            if count >= 1 and stride >= size:
                lines.append(f"reg R{n} {cursor:#x} {size} {perm}"
                             f" repeat={count} stride={stride:#x}")
                cursor += count * stride + rng.randrange(0, 16)
                n += 1
                continue
        lines.append(f"reg R{n} {cursor:#x} {size} {perm}")
        cursor += size + rng.randrange(0, 16)
        n += 1
    return parse("\n".join(lines) + "\n")


def test_audit_matches_oracle_on_random_manifests():
    rng = random.Random(0x51CE)
    for _ in range(25):
        m = _random_manifest(rng)
        assert validate(m) == []
        table = slice_standalone(m)
        assert audit_reachability(table, m.bar_length) == manifest_reach_oracle(m)


def test_audit_fast_path_equals_exhaustive():
    rng = random.Random(0xFA57)
    for _ in range(5):
        m = _random_manifest(rng)
        table = slice_standalone(m)
        fast = audit_reachability(table, m.bar_length)
        literal = audit_reachability(table, m.bar_length, exhaustive=True)
        assert fast == literal


def test_audit_handles_offset_table_bases():
    # aperture not at address zero: audit is relative to the sealed root
    _, root = fresh_root(0x100, base=0x5000)
    table = slicer.slice(root, parse("device x\nbar 0x100\nreg A 0x10 8 RO\n"))
    bits = audit_reachability(table, 0x100)
    assert all(bits[b] == AUDIT_READ for b in range(0x10, 0x18))
    assert sum(bits) == 8 * AUDIT_READ


def test_exhaustive_audit_formats_no_fault_text(monkeypatch):
    # Nearly every probe faults, and the write probes on STATUS fault for
    # permission. A fault that formatted its text when raised would call
    # Perm's repr; here that raises, so the audit only completes if no fault
    # builds its text until it is read.
    m = parse("device x\nbar 0x100\nreg CTRL 0x0 4 RW\nreg STATUS 0x8 4 RO\n"
              "reg IMS 0xD0 4 KERNEL\nreg TDT 0xE0 4 RW\n")
    table = slice_standalone(m)

    def no_repr(self):
        raise AssertionError("fault text built while raising")

    monkeypatch.setattr(Perm, "__repr__", no_repr)
    bits = audit_reachability(table, m.bar_length, exhaustive=True)
    assert bits == manifest_reach_oracle(m)
    assert any(b == AUDIT_READ for b in bits)  # the read-only slice is there


def test_exhaustive_audit_builds_no_capability_per_probe(monkeypatch):
    # The exhaustive audit probes by immediate offset from each slice's
    # cursor; a probe that moved the cursor with with_cursor would raise here.
    m = parse("device x\nbar 0x100\nreg CTRL 0x0 4 RW\nreg STATUS 0x8 4 RO\n"
              "reg IMS 0xD0 4 KERNEL\nreg TDT 0xE0 4 RW\n")
    table = slice_standalone(m)

    def no_with_cursor(cap, cursor):
        raise AssertionError("exhaustive audit built a capability to move a cursor")

    monkeypatch.setattr(slicer, "with_cursor", no_with_cursor)
    assert audit_reachability(table, m.bar_length, exhaustive=True) == manifest_reach_oracle(m)


def test_exhaustive_audit_builds_no_fault(monkeypatch):
    # Every exhaustive probe asks check_access for the fault kind; one that
    # built a CapFault, even to catch and drop it, would raise here.
    m = parse(EXAMPLE)
    table = slice_standalone(m)

    def no_fault(*args):
        raise AssertionError("exhaustive audit built a CapFault")

    monkeypatch.setattr(capability, "CapFault", no_fault)
    assert audit_reachability(table, m.bar_length, exhaustive=True) == manifest_reach_oracle(m)


# A 0x400-byte window at each register group of the shipped manifest, and
# the whole BAR.
@pytest.mark.parametrize("lo,length", [(0x0, 0x400), (0x2800, 0x400), (0x3800, 0x400),
                                       (0x0, 0x20000)])
def test_fast_audit_checks_only_the_ends_of_slices_in_the_aperture(monkeypatch, lo, length):
    # O(slices), not O(bytes): at most one check per need per slice that
    # overlaps the audited span, however long the span is.
    table = build_machine("sut", MODE_BYPASS, SUT_ENDPOINT, link=FrameLink()).table
    root = table.sealed_root
    view = SliceTable(slices=table.slices, sealed_root=replace(root, base=root.base + lo))
    start = root.base + lo
    overlapping = sum(1 for _, cap in table if cap.base < start + length and start < cap.top)
    calls = []
    real = slicer.check_access

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(slicer, "check_access", counted)
    bits = audit_reachability(view, length)
    assert bits == manifest_reach_oracle(data_manifest("e1000e.manifest"))[lo:lo + length]
    assert 0 < len(calls) <= 2 * overlapping


# Hostile slice values: the audited span starts at APERTURE, and slices may
# start before it, end after it, or be empty.
APERTURE = 0x100
SPAN = 0x40

@st.composite
def hostile_slices(draw):
    base = draw(st.integers(APERTURE - 0x10, APERTURE + SPAN + 0x10))
    length = draw(st.integers(0, 0x30))
    # Mostly outside the bounds; sometimes far enough that the immediate
    # offset is hugely negative.
    cursor = draw(st.one_of(st.integers(APERTURE - 0x20, APERTURE + SPAN + 0x20),
                            st.integers(0, ADDR_TOP - 1)))
    perms = draw(st.sampled_from((0, READ_MASK, WRITE_MASK, int(PERM_RW))))
    if draw(st.booleans()):  # live, so that grants are common too
        tag, otype = True, UNSEALED
    else:
        tag = draw(st.booleans())
        otype = draw(st.one_of(st.sampled_from((slicer.SLICER_OTYPE, slicer.INTERFACE_OTYPE)),
                               st.integers(0, UNSEALED)))
    return Capability(base, length, cursor, perms, tag, otype)


def _with_cursor_audit(table, length):
    # The exhaustive loop as it was before immediate offsets: one moved
    # capability per (byte, slice) probe.
    base = table.sealed_root.base
    bits = bytearray(length)
    for b in range(length):
        for need, bit in ((READ_MASK, AUDIT_READ), (WRITE_MASK, AUDIT_WRITE)):
            for _, cap in table:
                try:
                    check_access(with_cursor(cap, base + b), 1, need)
                except CapFault:
                    continue
                bits[b] |= bit
                break
    return bits


@settings(deadline=None)
@given(caps=st.lists(hostile_slices(), max_size=6))
def test_audit_paths_agree_on_hostile_slice_values(caps):
    # Untagged, sealed (where the two access forms fault with different
    # kinds), empty, cursor-displaced and overlapping slices: the exhaustive
    # audit, the fast path and the with_cursor loop must all agree.
    root = Capability(APERTURE, SPAN, APERTURE, PERM_RW, True, slicer.SLICER_OTYPE)
    table = SliceTable(tuple((f"S{i}", cap) for i, cap in enumerate(caps)), root)
    literal = _with_cursor_audit(table, SPAN)
    assert audit_reachability(table, SPAN, exhaustive=True) == literal
    assert audit_reachability(table, SPAN) == literal
