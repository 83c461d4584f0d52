import math
import random
from dataclasses import FrozenInstanceError, fields, replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from capslice import physmem
from capslice.capability import (
    LOAD_CAP_MASK,
    READ_MASK,
    STORE_CAP_MASK,
    WRITE_MASK,
    CapFault,
    Capability,
    FaultKind,
    PERM_RW,
    Perm,
    check_access,
    derive_bounds,
    null_capability,
    restrict_perms,
    with_cursor,
)
from capslice.physmem import DATA_WIDTHS, GRANULE, AccessCostTable, PhysSpace


class ScratchDevice:
    """Tiny MMIO device: one readable counter register at offset 0."""

    def __init__(self):
        self.value = 0xC0FFEE
        self.writes = []

    def mmio_read(self, space, offset, width):
        return self.value if offset == 0 else 0

    def mmio_write(self, space, offset, width, value):
        self.writes.append((offset, width, value))


def make_space():
    """RAM, MMIO, then a gap to the end of the space."""
    space, authority = PhysSpace.create(0x20000)
    space.add_region(0x0, 0x10000, name="ram")
    dev = ScratchDevice()
    space.add_region(0x10000, 0x1000, device=dev, name="mmio")
    return space, authority, dev


CAP_PERMS = PERM_RW | Perm.LOAD_CAP | Perm.STORE_CAP


def test_issue_root_basics():
    space, authority, _ = make_space()
    cap = authority.issue_root(0, 0x10000, PERM_RW)
    assert cap.tag and not cap.sealed and cap.length == 0x10000


def test_issue_root_zero_length():
    space, authority, _ = make_space()
    cap = authority.issue_root(0x100, 0, PERM_RW)
    assert cap.tag and cap.length == 0
    with pytest.raises(CapFault) as err:
        space.load(cap, 1)
    assert err.value.kind is FaultKind.BOUNDS_VIOLATION


def test_issue_root_straddling_regions_rejected():
    space, authority, _ = make_space()
    with pytest.raises(ValueError):
        authority.issue_root(0xFF00, 0x200, PERM_RW)


def test_zero_length_root_at_the_top_of_the_last_region_is_issued():
    # An empty range at a region's top lies in that region, as an empty copy
    # there does; every dereference of a byte through the root still faults.
    space, authority, _ = make_space()
    cap = authority.issue_root(0x11000, 0, CAP_PERMS)
    assert cap.tag and cap.length == 0 and cap.base == space.device_region.top
    derefs = [lambda w=w, o=o: space.load(cap, w, o) for w in DATA_WIDTHS for o in (0, -1)]
    derefs += [lambda w=w, o=o: space.store(cap, w, 1, o) for w in DATA_WIDTHS for o in (0, -1)]
    derefs += [lambda: space.load_bytes(cap, 1), lambda: space.store_bytes(cap, b"x"),
               lambda: space.cap_load(cap), lambda: space.cap_store(cap, cap)]
    for deref in derefs:
        with pytest.raises(CapFault) as err:
            deref()
        assert err.value.kind is FaultKind.BOUNDS_VIOLATION
    assert space.clock == 0


@pytest.mark.parametrize("base", [0x11001, 0x14000, 0x20001])
def test_zero_length_root_past_every_region_is_refused(base):
    space, authority, _ = make_space()
    with pytest.raises(ValueError, match="maps to no single region"):
        authority.issue_root(base, 0, PERM_RW)


def test_ram_store_load_roundtrip():
    space, authority, _ = make_space()
    cap = authority.issue_root(0, 0x10000, PERM_RW)
    at = with_cursor(cap, 0x1234)
    space.store(at, 4, 0xDEADBEEF)
    assert space.load(at, 4) == 0xDEADBEEF


def test_ram_little_endian():
    space, authority, _ = make_space()
    cap = authority.issue_root(0, 0x10000, PERM_RW)
    space.store(with_cursor(cap, 0x40), 4, 0x11223344)
    assert space.data[0x40:0x44] == bytes([0x44, 0x33, 0x22, 0x11])


def test_fresh_space_reads_zero_and_keeps_its_size():
    space, authority, _ = make_space()
    cap = authority.issue_root(0, 0x10000, PERM_RW)
    assert len(space.data) == 0x20000
    assert space.dma_read(0xFFF0, 0x10) == bytes(0x10)
    assert space.load(with_cursor(cap, 0xFFF8), 8) == 0
    space.dma_write(0xFFFC, b"\x01\x02\x03\x04")
    assert space.dma_read(0xFFFC, 4) == b"\x01\x02\x03\x04"
    assert len(space.data) == 0x20000


def test_store_through_readonly_faults_and_leaves_state():
    space, authority, dev = make_space()
    root = authority.issue_root(0x10000, 0x1000, PERM_RW)
    ro = restrict_perms(root, Perm.READ)
    with pytest.raises(CapFault) as err:
        space.store(ro, 4, 1)
    assert err.value.kind is FaultKind.PERMISSION_DENIED
    assert dev.writes == []


def test_mmio_dispatch():
    space, authority, dev = make_space()
    root = authority.issue_root(0x10000, 0x1000, PERM_RW)
    assert space.load(root, 4) == 0xC0FFEE
    space.store(root, 4, 42)
    assert dev.writes == [(0, 4, 42)]


def test_bad_width_is_alignment_fault():
    space, authority, _ = make_space()
    cap = authority.issue_root(0, 0x10000, PERM_RW)
    with pytest.raises(CapFault) as err:
        space.load(cap, 3)
    assert err.value.kind is FaultKind.ALIGNMENT_FAULT


# The last legal word of RAM as well as its first, so that a codec that
# reads or writes past its width would run off the region.
@pytest.mark.parametrize("addr_of", [lambda w: 0, lambda w: 0x10000 - w],
                         ids=["first", "last"])
@pytest.mark.parametrize("width", DATA_WIDTHS)
def test_word_codecs_store_and_load_every_width(width, addr_of):
    space, authority, _ = make_space()
    addr = addr_of(width)
    cap = with_cursor(authority.issue_root(0, 0x10000, PERM_RW), addr)
    lo, hi = max(addr - 1, 0), min(addr + width + 1, 0x10000)
    space.dma_write(lo, b"\xee" * (hi - lo))
    for value in (0, (1 << 8 * width) - 1, 0x0123456789ABCDEF % (1 << 8 * width)):
        before = space.data[:]
        space.store(cap, width, value)
        expected = before[:addr] + value.to_bytes(width, "little") + before[addr + width:]
        assert space.data[:] == expected
        assert space.load(cap, width) == value


def word_store_rig(where):
    """A space, a capability on RAM or the device's register 0, and a tagged
    RAM granule under the RAM capability."""
    space, authority, dev = make_space()
    root = authority.issue_root(0, 0x10000, CAP_PERMS)
    space.cap_store(with_cursor(root, 0x100), root)
    if where == "ram":
        return space, dev, with_cursor(root, 0x100)
    return space, dev, authority.issue_root(0x10000, 0x1000, PERM_RW)


@pytest.mark.parametrize("where", ["ram", "mmio"])
@pytest.mark.parametrize("width,value", [
    (1, 256), (1, -1), (2, 1 << 16), (4, (1 << 32) + 5), (4, -(1 << 31)),
    (8, 1 << 64), (8, -1)])
def test_out_of_range_store_is_refused_before_any_effect(where, width, value):
    space, dev, cap = word_store_rig(where)
    clock, data, tags = space.clock, space.data[:], bytes(space.tags)
    with pytest.raises(ValueError, match=f"does not fit {width} bytes"):
        space.store(cap, width, value)
    assert (space.clock, space.data[:], bytes(space.tags)) == (clock, data, tags)
    assert dev.writes == []


# In range and out of range, so that neither the range check nor the word
# codec decides the exception type.
@pytest.mark.parametrize("where", ["ram", "mmio"])
@pytest.mark.parametrize("value", [3.0, 3.5, -1.0, 1e30, float("nan"), Fraction(3),
                                   "3", None], ids=repr)
def test_non_integer_store_is_refused_before_any_effect(where, value):
    space, dev, cap = word_store_rig(where)
    clock, data, tags = space.clock, space.data[:], bytes(space.tags)
    with pytest.raises(TypeError):
        space.store(cap, 4, value)
    assert (space.clock, space.data[:], bytes(space.tags)) == (clock, data, tags)
    assert dev.writes == []


@pytest.mark.parametrize("where", ["ram", "mmio"])
def test_integer_subclass_stores_as_its_value(where):
    space, dev, cap = word_store_rig(where)
    space.store(cap, 4, True)
    if where == "ram":
        assert space.load(cap, 4) == 1
    else:
        assert dev.writes == [(0, 4, 1)] and type(dev.writes[0][2]) is int


@pytest.mark.parametrize("where", ["ram", "mmio"])
def test_store_fault_comes_before_the_value_check(where):
    space, dev, cap = word_store_rig(where)
    clock = space.clock
    with pytest.raises(CapFault) as err:
        space.store(restrict_perms(cap, Perm.READ), 4, 1 << 32)
    assert err.value.kind is FaultKind.PERMISSION_DENIED
    assert space.clock == clock and dev.writes == []


def snapshot(space):
    return space.clock, space.data[:], bytes(space.tags)


def test_store_words_writes_each_word_and_charges_as_its_stores():
    # A cost no binary fraction holds, so that a charge made once per run
    # (or in another order) would show in the clock's last bits.
    costs = AccessCostTable(ram_access_ns=0.1)
    spaces = []
    for _ in range(2):
        space, authority = PhysSpace.create(0x20000, costs)
        space.add_region(0x0, 0x10000, name="ram")
        root = authority.issue_root(0, 0x10000, CAP_PERMS)
        space.cap_store(with_cursor(root, 0x100), root)
        space.advance(0.3)
        spaces.append((space, with_cursor(root, 0xF8)))
    words = [0x0123456789ABCDEF, 0, 0xFFFFFFFFFFFFFFFF, 0x42, 7]
    (runs, cap), (stores, _) = spaces
    runs.store_words(cap, 8, b"".join(w.to_bytes(8, "little") for w in words), 8)
    for i, word in enumerate(words):
        stores.store(cap, 8, word, 8 + 8 * i)
    assert snapshot(runs) == snapshot(stores)
    assert [runs.load(cap, 8, 8 + 8 * i) for i in range(len(words))] == words
    assert runs.tags[0x100 // GRANULE] == 0


# A run whose first or last word lies outside the capability, or whose every
# word lacks WRITE.
@pytest.mark.parametrize("where", ["first", "last"])
@pytest.mark.parametrize("kind", ["bounds", "permission"])
def test_store_words_fault_is_its_first_faulting_words_and_has_no_effect(where, kind):
    space, dev, ram = word_store_rig("ram")
    cap = derive_bounds(ram, 0x100, 0x30)  # six 8-byte words from its cursor
    if kind == "permission":
        cap = restrict_perms(cap, Perm.READ)
    # Four words from 0x100 + offset: the first lies below the capability,
    # or the last above it.
    offset = {"first": -8, "last": 0x18}[where]
    before = snapshot(space)
    with pytest.raises(CapFault) as run_fault:
        space.store_words(cap, 8, bytes(range(32)), offset)
    faulting = offset if where == "first" or kind == "permission" else offset + 24
    with pytest.raises(CapFault) as store_fault:
        space.store(cap, 8, 0, faulting)
    assert str(run_fault.value) == str(store_fault.value)
    assert (run_fault.value.kind, run_fault.value.address) == (
        store_fault.value.kind, store_fault.value.address)
    assert snapshot(space) == before and dev.writes == []


@pytest.mark.parametrize("start,refusal", [
    (0xFFF8, "maps to no single region"),  # from RAM's last word into the BAR
    (0x10000, "bulk stores are RAM-only"),  # wholly in the BAR
])
def test_store_words_touching_the_bar_is_refused_before_any_charge(start, refusal):
    space, _, dev = make_space()
    whole = Capability(0, 0x20000, start, PERM_RW, True)
    space.load(Capability(0x10000, 0x1000, 0x10000, PERM_RW, True), 4)  # the BAR last
    before = snapshot(space)
    with pytest.raises(ValueError, match=refusal):
        space.store_words(whole, 4, bytes(16))
    assert snapshot(space) == before and dev.writes == []


@pytest.mark.parametrize("width,payload,error", [
    (3, bytes(6), CapFault), (0, b"", CapFault), (16, bytes(16), CapFault),
    (8, bytes(12), ValueError), (4, bytes(1), ValueError), (2, bytes(3), ValueError),
])
def test_store_words_refuses_a_bad_width_or_ragged_payload_before_any_check(
        monkeypatch, width, payload, error):
    space, _, _ = make_space()
    checks = []
    monkeypatch.setattr(physmem, "check_access", lambda *args: checks.append(args))
    # An untagged capability: any check would fault on its tag.
    cap = Capability(0, 0x10000, 0x100, PERM_RW, False)
    with pytest.raises(error) as err:
        space.store_words(cap, width, payload)
    if error is CapFault:
        assert err.value.kind is FaultKind.ALIGNMENT_FAULT
    else:
        assert f"not whole {width}-byte words" in str(err.value)
    assert checks == [] and space.clock == 0.0


def test_access_costs_charged():
    costs = AccessCostTable(ram_access_ns=10, mmio_access_ns=250)
    space, authority = PhysSpace.create(0x20000, costs)
    space.add_region(0x0, 0x10000, name="ram")
    space.add_region(0x10000, 0x1000, device=ScratchDevice(), name="mmio")
    ram = authority.issue_root(0, 0x10000, PERM_RW)
    mmio = authority.issue_root(0x10000, 0x1000, PERM_RW)
    t0 = space.clock
    space.load(ram, 4)
    assert space.clock == t0 + 10
    space.load(mmio, 4)
    assert space.clock == t0 + 260


def test_bulk_copy_cost_and_roundtrip():
    space, authority, _ = make_space()
    cap = authority.issue_root(0, 0x10000, PERM_RW)
    payload = bytes(range(100)) * 3
    t0 = space.clock
    space.store_bytes(with_cursor(cap, 0x800), payload)
    assert space.load_bytes(with_cursor(cap, 0x800), len(payload)) == payload
    assert space.clock == t0 + 2 * 0.25 * len(payload)


def free_copy_space():
    # `--copy-ns-per-byte 0` is legal; a negative count then costs -0.0 ns,
    # which no clock check can refuse.
    space, authority = PhysSpace.create(0x20000, AccessCostTable(copy_per_byte_ns=0.0))
    space.add_region(0x0, 0x10000, name="ram")
    space.data[0x100:0x110] = bytes(range(1, 17))
    return space, with_cursor(authority.issue_root(0, 0x10000, PERM_RW), 0x108)


@pytest.mark.parametrize("op,args,kind", [
    ("load_bytes", (-1,), FaultKind.BOUNDS_VIOLATION),
    ("load_bytes", (-2,), FaultKind.BOUNDS_VIOLATION),
    ("load_bytes", (-0x108,), FaultKind.BOUNDS_VIOLATION),
    ("store", (-2, 0xAA), FaultKind.ALIGNMENT_FAULT),
    ("store", (-2, 0xAA, 4), FaultKind.ALIGNMENT_FAULT),
    ("store", (2, 0xAA, -0x109), FaultKind.BOUNDS_VIOLATION),
])
def test_negative_width_or_offset_faults_and_charges_nothing(op, args, kind):
    space, cap = free_copy_space()
    before = bytes(space.data)
    with pytest.raises(CapFault) as err:
        getattr(space, op)(cap, *args)
    assert err.value.kind is kind
    assert space.clock == 0.0
    assert bytes(space.data) == before


def test_empty_bulk_load_stays_legal():
    space, cap = free_copy_space()
    assert space.load_bytes(cap, 0) == b""
    assert space.load_bytes(with_cursor(cap, 0xFFFF), 0) == b""
    assert space.clock == 0.0


# "cached" names the region accessed last; no access depends on it.
@pytest.mark.parametrize("cached", ["ram", "mmio"])
def test_empty_copy_at_the_top_of_ram_is_legal(cached):
    # An empty copy at RAM's top is RAM's, as check_access allows width 0
    # there, although the device's range starts at the same address.
    space, authority, _ = make_space()
    cap = with_cursor(authority.issue_root(0, 0x10000, PERM_RW), 0x10000)
    mmio = authority.issue_root(0x10000, 0x1000, PERM_RW)
    space.load(mmio if cached == "mmio" else with_cursor(cap, 0), 4)
    check_access(cap, 0, READ_MASK)
    assert space.load_bytes(cap, 0) == b""
    space.store_bytes(cap, b"")
    assert space.dma_read(0x10000, 0) == b""
    space.dma_write(0x10000, b"")
    # The device's own top is not RAM.
    with pytest.raises(ValueError, match="DMA targets RAM"):
        space.dma_read(0x11000, 0)


def test_empty_copy_at_a_device_ram_seam_is_ram_whichever_region_is_cached():
    # A device directly below RAM: an empty copy at the seam lies in both,
    # and a RAM-only copy takes it as RAM, whichever region was accessed last.
    space, authority = PhysSpace.create(0x3000)
    space.add_region(0x0, 0x1000, device=ScratchDevice(), name="mmio")
    space.add_region(0x1000, 0x1000, name="ram")
    ram = authority.issue_root(0x1000, 0x1000, PERM_RW)
    mmio = authority.issue_root(0, 0x1000, PERM_RW)
    for warm in (None, mmio, with_cursor(ram, 0x1800)):
        if warm is not None:
            space.load(warm, 4)
        assert space.load_bytes(ram, 0) == b""
        assert space.dma_read(0x1000, 0) == b""
        with pytest.raises(ValueError, match="RAM-only"):
            space.load_bytes(with_cursor(mmio, 0x800), 0)


def test_dma_of_a_negative_count_is_refused():
    space, _, _ = make_space()
    with pytest.raises(ValueError, match="DMA of -1 bytes"):
        space.dma_read(0x100, -1)


# -- tagged memory -------------------------------------------------------------

def test_cap_store_load_roundtrip():
    space, authority, _ = make_space()
    cap = authority.issue_root(0, 0x10000, CAP_PERMS)
    value = restrict_perms(derive_bounds(cap, 0x2000, 0x100), Perm.READ)
    slot = with_cursor(cap, 0x1000)
    space.cap_store(slot, value)
    assert space.cap_load(slot) == value
    assert space.cap_load(slot).tag


def test_cap_store_misaligned_faults():
    # 8-byte aligned but not 16-byte aligned: the tagged-memory fault class
    space, authority, _ = make_space()
    cap = authority.issue_root(0, 0x10000, CAP_PERMS)
    value = derive_bounds(cap, 0x2000, 0x100)
    with pytest.raises(CapFault) as err:
        space.cap_store(with_cursor(cap, 0x1008), value)
    assert err.value.kind is FaultKind.ALIGNMENT_FAULT
    with pytest.raises(CapFault) as err:
        space.cap_load(with_cursor(cap, 0x1008))
    assert err.value.kind is FaultKind.ALIGNMENT_FAULT


def test_cap_ops_need_cap_permissions():
    space, authority, _ = make_space()
    cap = authority.issue_root(0, 0x10000, PERM_RW)  # no LOAD_CAP/STORE_CAP
    value = derive_bounds(cap, 0x2000, 0x100)
    with pytest.raises(CapFault) as err:
        space.cap_store(with_cursor(cap, 0x1000), value)
    assert err.value.kind is FaultKind.PERMISSION_DENIED
    with pytest.raises(CapFault) as err:
        space.cap_load(with_cursor(cap, 0x1000))
    assert err.value.kind is FaultKind.PERMISSION_DENIED


def test_data_store_strips_granule_tag():
    space, authority, _ = make_space()
    cap = authority.issue_root(0, 0x10000, CAP_PERMS)
    value = derive_bounds(cap, 0x2000, 0x100)
    slot = with_cursor(cap, 0x1000)
    space.cap_store(slot, value)
    assert space.cap_load(slot).tag
    space.store(with_cursor(cap, 0x1004), 4, 0x41414141)  # overwrite mid-granule
    # The load reads the cursor word memory now holds, not the stored cursor.
    assert space.cap_load(slot) == null_capability(0x41414141_00002000)


def test_untagged_store_leaves_granule_untagged():
    space, authority, _ = make_space()
    cap = authority.issue_root(0, 0x10000, CAP_PERMS)
    dead = derive_bounds(derive_bounds(cap, 0, 4), 0, 8)  # untagged
    slot = with_cursor(cap, 0x1000)
    space.cap_store(slot, dead)
    assert not space.cap_load(slot).tag


def test_tag_conservation():
    # only cap_store sets tags, only data stores clear them; loads never touch them
    space, authority, _ = make_space()
    cap = authority.issue_root(0, 0x10000, CAP_PERMS)
    rng = random.Random(7)
    value = derive_bounds(cap, 0x2000, 0x100)
    tags_now = sum(space.tags)
    assert tags_now == 0
    for _ in range(300):
        action = rng.randrange(4)
        addr = rng.randrange(0, 0x1000) * GRANULE
        before = sum(space.tags)
        if action == 0:
            space.cap_store(with_cursor(cap, addr), value)
            assert sum(space.tags) >= before - 1
        elif action == 1:
            space.store(with_cursor(cap, addr), 8, rng.randrange(1 << 64))
            assert sum(space.tags) <= before
        elif action == 2:
            space.load(with_cursor(cap, addr), 8)
            assert sum(space.tags) == before
        else:
            space.cap_load(with_cursor(cap, addr))
            assert sum(space.tags) == before


def test_clock_monotonic_under_any_sequence():
    space, authority, _ = make_space()
    cap = authority.issue_root(0, 0x10000, CAP_PERMS)
    mmio = authority.issue_root(0x10000, 0x1000, PERM_RW)
    rng = random.Random(11)
    last = space.clock
    for _ in range(500):
        try:
            pick = rng.randrange(5)
            if pick == 0:
                space.load(with_cursor(cap, rng.randrange(0x10000)), 1)
            elif pick == 1:
                space.store(with_cursor(cap, rng.randrange(0xFFF8)), 8, 1)
            elif pick == 2:
                space.load(mmio, 4)
            elif pick == 3:
                space.load_bytes(with_cursor(cap, 0), rng.randrange(64))
            else:
                space.cap_load(with_cursor(cap, rng.randrange(0x1000) * 16))
        except CapFault:
            pass
        assert space.clock >= last
        last = space.clock


# -- region lookup ------------------------------------------------------------------

def layout(space):
    """Every field add_region sets: the two regions and their bounds."""
    return {k: v for k, v in vars(space).items() if k.endswith(("_region", "_lo", "_hi", "_dev"))}


def test_region_lookup_alternates_between_regions():
    space, authority, dev = make_space()
    ram = authority.issue_root(0, 0x10000, PERM_RW)
    mmio = authority.issue_root(0x10000, 0x1000, PERM_RW)
    fixed = layout(space)
    space.store(with_cursor(ram, 0x40), 4, 0x11111111)
    for _ in range(3):
        assert space.region_for(0x40, 4) is space.ram_region
        assert space.load(with_cursor(ram, 0x40), 4) == 0x11111111
        assert space.region_for(0x10000, 4) is space.device_region
        assert space.load(mmio, 4) == 0xC0FFEE
    assert space.region_for(0xFFF8, 8).name == "ram"
    assert space.region_for(0x10FFC, 4).name == "mmio"
    # An empty range at the seam is RAM's; one at the device's top is the device's.
    assert space.region_for(0x10000, 0).name == "ram"
    assert space.region_for(0x11000, 0).name == "mmio"
    assert layout(space) == fixed  # no lookup or access wrote a layout field


def test_region_lookup_rejects_straddles_and_gaps():
    space, authority, _ = make_space()
    ram = authority.issue_root(0, 0x10000, PERM_RW)
    space.load(ram, 4)
    with pytest.raises(ValueError):
        space.region_for(0xFFFC, 8)  # across RAM's top into MMIO
    space.region_for(0x10000, 4)
    with pytest.raises(ValueError):
        space.region_for(0x10FFC, 8)  # across MMIO's top into the gap
    for addr in (0x11000, 0x14000, 0x1FFFF):
        with pytest.raises(ValueError):
            space.region_for(addr, 1)
    with pytest.raises(ValueError):
        space.region_for(0x11001, 0)  # an empty range inside the gap
    with pytest.raises(ValueError):
        space.region_for(0x1FFFC, 8)  # from the gap past the end of the space
    # Forged capabilities pass their own checks, then find no single region.
    over_gap = Capability(base=0x11000, length=0x1000, cursor=0x11000, perms=PERM_RW, tag=True)
    with pytest.raises(ValueError, match="maps to no single region"):
        space.load(over_gap, 4)
    over_top = Capability(base=0, length=0x11000, cursor=0xFFFC, perms=PERM_RW, tag=True)
    space.load(ram, 4)
    with pytest.raises(ValueError, match="maps to no single region"):
        space.load(over_top, 8)
    with pytest.raises(ValueError, match="maps to no single region"):
        space.store(Capability(0x10000, 0x2000, 0x10FFE, PERM_RW, True), 4, 1)


@pytest.mark.parametrize("device", [None, ScratchDevice()], ids=["ram", "device"])
def test_a_space_refuses_a_second_region_of_a_kind_and_stays_as_it_was(device):
    space, authority, dev = make_space()
    fixed = layout(space)
    for base, length in ((0x18000, 0x1000), (0x0, 0x100), (0x10000, 0x1000)):
        with pytest.raises(ValueError, match="space already has a"):
            space.add_region(base, length, device=device, name="second")
    assert layout(space) == fixed
    # The one RAM and one device region still serve as before.
    ram = authority.issue_root(0, 0x10000, PERM_RW)
    space.store(with_cursor(ram, 0x18), 4, 0xABCD)
    assert space.load(with_cursor(ram, 0x18), 4) == 0xABCD
    assert space.load(authority.issue_root(0x10000, 0x1000, PERM_RW), 4) == 0xC0FFEE
    with pytest.raises(ValueError, match="DMA targets RAM"):
        space.dma_read(0x10000, 4)
    with pytest.raises(ValueError, match="maps to no single region"):
        space.dma_read(0x18000, 4)


def test_no_access_looks_a_region_up(monkeypatch):
    space, authority, dev = make_space()
    ram = authority.issue_root(0, 0x10000, CAP_PERMS)
    mmio = authority.issue_root(0x10000, 0x1000, PERM_RW)

    def no_lookup(*args):
        raise AssertionError("region_for called")

    monkeypatch.setattr(PhysSpace, "region_for", no_lookup)
    space.store(with_cursor(ram, 0x100), 8, 0x0102030405060708)
    assert space.load(with_cursor(ram, 0x100), 8) == 0x0102030405060708
    assert space.load(mmio, 4) == 0xC0FFEE
    space.store(mmio, 4, 9, 4)
    assert dev.writes == [(4, 4, 9)]
    space.store_bytes(with_cursor(ram, 0x200), b"abc")
    assert space.load_bytes(with_cursor(ram, 0x200), 3) == b"abc"
    space.store_words(with_cursor(ram, 0x300), 2, b"\x01\x00\x02\x00")
    space.dma_write(0xFFFC, b"wxyz")
    assert space.dma_read(0x300, 4) + space.dma_read(0xFFFC, 4) == b"\x01\x00\x02\x00wxyz"
    space.cap_store(with_cursor(ram, 0x400), mmio)
    assert space.cap_load(with_cursor(ram, 0x400)) == mmio
    assert space.load_bytes(with_cursor(ram, 0x10000), 0) == b""
    assert space.clock == 10 * 4 + 250 * 2 + 0.25 * 6 + 10 * 2


def test_a_space_without_ram_refuses_every_ram_only_access():
    # An absent region's bounds hold no range, so even an empty copy at
    # address 0 is refused as the device's.
    space, authority = PhysSpace.create(0x2000)
    space.add_region(0x0, 0x1000, device=ScratchDevice(), name="mmio")
    whole = Capability(0, 0x2000, 0, CAP_PERMS, True)
    for access in (lambda: space.dma_read(0, 0), lambda: space.dma_write(0, b""),
                   lambda: space.load_bytes(whole, 0), lambda: space.store_bytes(whole, b"")):
        with pytest.raises(ValueError, match="RAM"):
            access()
    with pytest.raises(ValueError, match="maps to no single region"):
        space.dma_read(0x1000, 1)
    assert space.region_for(0, 0).name == "mmio"


# -- tag clearing -------------------------------------------------------------------

def tag_two_granules(space, cap, addr):
    value = derive_bounds(cap, 0x2000, 0x100)
    for g in (addr, addr + GRANULE):
        space.cap_store(with_cursor(cap, g), value)
    return [space.tags[addr // GRANULE], space.tags[addr // GRANULE + 1]]


def test_store_across_granule_boundary_clears_both_tags():
    space, authority, _ = make_space()
    cap = authority.issue_root(0, 0x10000, CAP_PERMS)
    assert tag_two_granules(space, cap, 0x1000) == [1, 1]
    space.store(with_cursor(cap, 0x100F), 2, 0xFFFF)
    assert [space.tags[0x100], space.tags[0x101]] == [0, 0]
    assert tag_two_granules(space, cap, 0x1000) == [1, 1]
    space.store(with_cursor(cap, 0x100F), 1, 0xFF)
    assert [space.tags[0x100], space.tags[0x101]] == [0, 1]


def test_empty_bulk_store_clears_no_tag():
    space, authority, _ = make_space()
    cap = authority.issue_root(0, 0x10000, CAP_PERMS)
    assert tag_two_granules(space, cap, 0x1000) == [1, 1]
    for addr in (0x1000, 0x100F, 0x1010):
        space.store_bytes(with_cursor(cap, addr), b"")
    space.dma_write(0x1010, b"")
    assert [space.tags[0x100], space.tags[0x101]] == [1, 1]
    space.dma_write(0x100F, b"\x00\x00")
    assert [space.tags[0x100], space.tags[0x101]] == [0, 0]


# -- cost table ---------------------------------------------------------------------

COST_FIELDS = [f.name for f in fields(AccessCostTable)]


@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
@pytest.mark.parametrize("field", COST_FIELDS)
def test_space_refuses_a_negative_or_non_finite_cost(field, bad):
    # The accessors add costs to the clock without advance's check, so the
    # table is checked once, when the space is built.
    costs = replace(AccessCostTable(), **{field: bad})
    with pytest.raises(ValueError, match=field):
        PhysSpace(0x1000, costs)


def test_cost_table_cannot_change_after_the_check():
    space, _, _ = make_space()
    with pytest.raises(FrozenInstanceError):
        space.costs.ram_access_ns = -5.0


def test_advance_keeps_its_own_check():
    space, _, _ = make_space()
    with pytest.raises(ValueError):
        space.advance(-1.0)


# -- reference model --------------------------------------------------------------
# A straight-line PhysSpace: every access scans the regions, charges through
# advance and clears tags whether or not any granule is tagged. The real
# space tests the fixed bounds of its one RAM and one device region inline
# and skips work it can prove is a no-op; on any sequence of operations the
# two must agree.

class ReferenceSpace:
    def __init__(self, regions, size):
        self.regions = regions  # (base, length, device), device None for RAM
        self.data = bytearray(size)
        self.tags = bytearray(size // GRANULE)
        self.shadow = {}
        self.clock = 0.0
        self.costs = AccessCostTable()

    def region(self, addr, width):
        for base, length, device in self.regions:
            if base <= addr and addr + width <= base + length:
                return base, device
        raise ValueError(f"access [{addr:#x},{addr + width:#x}) maps to no single region")

    def advance(self, ns):
        if ns < 0:
            raise ValueError("clock cannot run backwards")
        self.clock += ns

    def clear_tags(self, addr, width):
        first = addr // GRANULE
        end = (addr + width - 1) // GRANULE + 1
        self.tags[first:end] = bytes(end - first)

    def load(self, cap, width, offset=0):
        addr = cap.cursor + offset
        if width not in DATA_WIDTHS:
            raise CapFault(FaultKind.ALIGNMENT_FAULT, addr, f"bad access width {width}")
        check_access(cap, width, READ_MASK, offset)
        base, device = self.region(addr, width)
        if device is None:
            self.advance(self.costs.ram_access_ns)
            return int.from_bytes(self.data[addr:addr + width], "little")
        self.advance(self.costs.mmio_access_ns)
        return device.mmio_read(self, addr - base, width)

    def store(self, cap, width, value, offset=0):
        addr = cap.cursor + offset
        if width not in DATA_WIDTHS:
            raise CapFault(FaultKind.ALIGNMENT_FAULT, addr, f"bad access width {width}")
        check_access(cap, width, WRITE_MASK, offset)
        base, device = self.region(addr, width)
        if device is None:
            self.advance(self.costs.ram_access_ns)
            self.data[addr:addr + width] = value.to_bytes(width, "little")
            self.clear_tags(addr, width)
        else:
            self.advance(self.costs.mmio_access_ns)
            device.mmio_write(self, addr - base, width, value)

    def store_words(self, cap, width, payload, offset=0):
        # Every word's checks first, then one store per word.
        addr = cap.cursor + offset
        if width not in DATA_WIDTHS:
            raise CapFault(FaultKind.ALIGNMENT_FAULT, addr, f"bad access width {width}")
        if len(payload) % width:
            raise ValueError(f"{len(payload)} bytes are not whole {width}-byte words")
        words = range(0, len(payload), width)
        for i in words:
            check_access(cap, width, WRITE_MASK, offset + i)
        if payload:
            self.ram(addr, len(payload), "bulk stores are RAM-only")
        for i in words:
            self.store(cap, width, int.from_bytes(payload[i:i + width], "little"), offset + i)

    def ram(self, addr, count, refusal):
        # Copies and DMA are RAM-only: any RAM region holding the exact
        # range will do, so an empty range at a seam with a device is RAM.
        for base, length, device in self.regions:
            if device is None and base <= addr and addr + count <= base + length:
                return
        self.region(addr, count)
        raise ValueError(refusal)

    def load_bytes(self, cap, count):
        check_access(cap, count, READ_MASK)
        self.ram(cap.cursor, count, "bulk loads are RAM-only")
        self.advance(self.costs.copy_per_byte_ns * count)
        return bytes(self.data[cap.cursor:cap.cursor + count])

    def store_bytes(self, cap, payload):
        count = len(payload)
        check_access(cap, count, WRITE_MASK)
        self.ram(cap.cursor, count, "bulk stores are RAM-only")
        self.advance(self.costs.copy_per_byte_ns * count)
        self.data[cap.cursor:cap.cursor + count] = payload
        if count:
            self.clear_tags(cap.cursor, count)

    def cap_store(self, cap, value):
        if cap.cursor % GRANULE != 0:
            raise CapFault(FaultKind.ALIGNMENT_FAULT, cap.cursor,
                           "capability store needs 16-byte alignment")
        check_access(cap, GRANULE, STORE_CAP_MASK)
        if self.region(cap.cursor, GRANULE)[1] is not None:
            raise ValueError("capability stores are RAM-only")
        self.advance(self.costs.ram_access_ns)
        g = cap.cursor // GRANULE
        self.data[cap.cursor:cap.cursor + 8] = (value.cursor % (1 << 64)).to_bytes(8, "little")
        self.data[cap.cursor + 8:cap.cursor + 16] = (value.base % (1 << 64)).to_bytes(8, "little")
        self.shadow[g] = value
        self.tags[g] = 1 if value.tag else 0

    def cap_load(self, cap):
        if cap.cursor % GRANULE != 0:
            raise CapFault(FaultKind.ALIGNMENT_FAULT, cap.cursor,
                           "capability load needs 16-byte alignment")
        check_access(cap, GRANULE, LOAD_CAP_MASK)
        if self.region(cap.cursor, GRANULE)[1] is not None:
            raise ValueError("capability loads are RAM-only")
        self.advance(self.costs.ram_access_ns)
        g = cap.cursor // GRANULE
        if self.tags[g]:
            return self.shadow[g]
        return null_capability(int.from_bytes(self.data[cap.cursor:cap.cursor + 8], "little"))

    def dma_read(self, addr, count):
        if count < 0:
            raise ValueError(f"DMA of {count} bytes")
        self.ram(addr, count, "DMA targets RAM")
        return bytes(self.data[addr:addr + count])

    def dma_write(self, addr, payload):
        self.ram(addr, len(payload), "DMA targets RAM")
        self.data[addr:addr + len(payload)] = payload
        if payload:
            self.clear_tags(addr, len(payload))


ALL_PERMS = CAP_PERMS | Perm.SEAL | Perm.UNSEAL
# Capabilities an operation may go through or store: the two regions'
# roots, one over the device and the gap above it, one spanning the whole
# space (its checks pass everywhere, so only the region bounds stand
# between it and a gap or a straddle), a read-only one and an untagged one.
CAP_POOL = (
    Capability(0, 0x10000, 0, CAP_PERMS, True),
    Capability(0x10000, 0x1000, 0x10000, PERM_RW, True),
    Capability(0x10000, 0x10000, 0x10000, CAP_PERMS, True),
    Capability(0, 0x20000, 0, ALL_PERMS, True),
    Capability(0, 0x10000, 0, Perm.READ, True),
    Capability(0, 0x20000, 0, ALL_PERMS, False),
)
# Each region's edges, the gap's middle and the end of the space, where a
# bound that is off by one, or a straddle it lets through, would show; and
# granules inside RAM and at its top, so that tagged granules are stored
# over again.
HOT = (0, 0x10000, 0x11000, 0x18000, 0x20000, 0x100, 0xFFE0)

near_hot = st.builds(lambda hot, delta: max(hot + delta, 0), st.sampled_from(HOT),
                     st.sampled_from((-9, -8, -5, -3, -2, -1, -1, 0, 0, 1, 2, 7)))
addresses = st.one_of(near_hot, near_hot, near_hot, st.integers(0, 0x20000))
# The whole-space capability weighs most: it is the one that reaches a
# straddle or a gap without a capability fault.
pool_index = st.sampled_from((0, 1, 2, 3, 3, 3, 4, 5))
caps = st.builds(lambda i, addr: with_cursor(CAP_POOL[i], addr), pool_index, addresses)
aligned_caps = st.builds(lambda i, addr: with_cursor(CAP_POOL[i], addr // GRANULE * GRANULE),
                         pool_index, addresses)
widths = st.sampled_from((1, 2, 3, 4, 8, 8))
offsets = st.sampled_from((0, 0, 0, -1, 1, 8))
payloads = st.binary(max_size=40)


def word_run(cap, width, words, data, ragged, offset):
    """A store_words operation of whole words, or of one byte more."""
    return "store_words", cap, width, data[:words * width + ragged], offset


def word_runs(cap_strategy):
    return st.builds(word_run, cap_strategy, widths, st.integers(0, 5),
                     st.binary(min_size=41, max_size=41), st.sampled_from((0, 0, 0, 1)),
                     offsets)


operations = st.one_of(
    st.tuples(st.just("load"), caps, widths, offsets),
    st.tuples(st.just("store"), caps, widths, st.integers(0, (1 << 64) - 1), offsets),
    st.tuples(st.just("load_bytes"), caps, st.integers(-2, 40)),
    st.tuples(st.just("store_bytes"), caps, payloads),
    word_runs(caps),
    st.tuples(st.just("cap_store"), st.one_of(caps, aligned_caps),
              st.sampled_from(CAP_POOL)),
    st.tuples(st.just("cap_load"), st.one_of(caps, aligned_caps)),
    st.tuples(st.just("dma_read"), addresses, st.integers(-2, 40)),
    st.tuples(st.just("dma_write"), addresses, payloads),
)


def outcome(space, op):
    name, *args = op
    if name == "store":
        cap, width, value, offset = args
        args = (cap, width, value % (1 << (8 * width)), offset)
    try:
        return "returned", getattr(space, name)(*args)
    except CapFault as fault:
        return "fault", fault.kind, fault.address, str(fault)
    except (ValueError, OverflowError) as err:
        return "error", type(err), str(err)


def wide(addr):
    return with_cursor(CAP_POOL[3], addr)


# Each region's edges, each reached from inside the region the last access
# touched: straddles up and down, the byte just below a region's base, and
# DMA that starts in RAM and ends in the BAR or starts in the BAR and ends in
# the gap. Random sequences reach these only now and then, so they run on
# every test run.
EDGE_OPS = [
    ("load", wide(0x100), 4, 0), ("load", wide(0xFFFC), 8, 0),
    ("load_bytes", wide(0xFFF0), 32), ("store_bytes", wide(0xFFF8), b"\xaa" * 12),
    ("dma_read", 0xFFF8, 16), ("dma_write", 0xFFFC, b"\x01" * 8),
    ("load", CAP_POOL[1], 4, 0), ("store", wide(0xFFFF), 1, 0x5A, 0),
    ("load", CAP_POOL[1], 4, 0), ("load", wide(0x10FFC), 8, 0),
    ("store", wide(0x10FFE), 4, 7, 0), ("dma_read", 0x10000, 4),
    ("store", wide(0x11000), 8, 0x1122, 0), ("load", wide(0x10FFC), 8, 0),
    ("dma_write", 0x10FFF, b"\x02\x03"), ("load", wide(0x1FFFC), 8, 0),
    ("store", wide(0x11000), 1, 1, -1), ("dma_read", 0x1FFF8, 16),
    ("load", CAP_POOL[1], 4, 0), ("load", wide(0xFFFF), 1, 0),
    # Empty copies at each region's edges, right after a device access.
    ("load", CAP_POOL[1], 4, 0), ("load_bytes", wide(0x10000), 0),
    ("load", CAP_POOL[1], 4, 0), ("store_bytes", wide(0x10000), b""),
    ("dma_read", 0x10000, 0), ("dma_write", 0x11000, b""), ("dma_read", 0x20000, 0),
    ("load_bytes", wide(0x11000), 0), ("store_bytes", wide(0x11001), b""),
    ("load_bytes", wide(0x14000), 0), ("dma_read", 0x100, -1),
    # Word runs up to RAM's top, over it into the BAR, from the BAR just
    # accessed, from the BAR into the gap, and in the gap.
    ("store_words", wide(0xFFF0), 8, b"\x11" * 16, 0),
    ("store_words", wide(0xFFF8), 8, b"\x22" * 16, 0),
    ("load", CAP_POOL[1], 4, 0), ("store_words", wide(0x10000), 4, b"\x33" * 8, 0),
    ("store_words", wide(0x10FF8), 4, b"\x66" * 16, 0),
    ("store_words", wide(0x1FFF0), 2, b"\x44" * 16, 0),
    ("store_words", wide(0x1FFF8), 8, b"\x55" * 16, 0),
    ("store_words", wide(0x100), 8, b"", -1),
]


# Rounds of one RAM access, one BAR access and one DMA, as a ring engine
# makes them: each round moves through both regions and past them.
ram_caps = st.builds(lambda i, addr: with_cursor(CAP_POOL[i], addr),
                     st.sampled_from((0, 3, 3)), addresses)
mmio_caps = st.builds(lambda i, off: with_cursor(CAP_POOL[i], 0x10000 + off),
                      st.sampled_from((1, 1, 3)),
                      st.one_of(st.sampled_from((0, 4, 0xFF8, 0xFFC, 0xFFF, 0x1000)),
                                st.integers(-8, 0x1008)))
ram_ops = st.one_of(
    st.tuples(st.just("store_bytes"), ram_caps, payloads),
    st.tuples(st.just("load_bytes"), ram_caps, st.integers(0, 40)),
    st.tuples(st.just("store"), ram_caps, widths, st.integers(0, 255), offsets),
    st.tuples(st.just("load"), ram_caps, widths, offsets),
    word_runs(ram_caps),
)
mmio_ops = st.one_of(
    st.tuples(st.just("store"), mmio_caps, widths, st.integers(0, 255), st.just(0)),
    st.tuples(st.just("load"), mmio_caps, widths, st.just(0)),
)
dma_ops = st.one_of(
    st.tuples(st.just("dma_read"), addresses, st.integers(0, 40)),
    st.tuples(st.just("dma_write"), addresses, payloads),
)
interleaved = st.lists(st.tuples(ram_ops, mmio_ops, dma_ops), min_size=7, max_size=17).map(
    lambda rounds: [op for r in rounds for op in r])


def agrees_with_reference(tagged, ops):
    space, _, dev = make_space()
    ref_dev = ScratchDevice()
    ref = ReferenceSpace([(0, 0x10000, None), (0x10000, 0x1000, ref_dev)], 0x20000)
    if tagged:
        # Tag the granules around each RAM hot spot, so that stores and DMA
        # there have tags to clear.
        value = CAP_POOL[0]
        ops = [("cap_store", with_cursor(CAP_POOL[3], g), value)
               for g in (0xF0, 0x100, 0x110, 0xFFD0, 0xFFE0, 0xFFF0)] + ops
    for op in ops:
        assert outcome(space, op) == outcome(ref, op), op
        assert space.clock == ref.clock
        assert space.data[:] == ref.data
        assert space.tags == ref.tags
        assert dev.writes == ref_dev.writes


@settings(max_examples=100, deadline=None)
@given(st.booleans(), st.lists(operations, min_size=20, max_size=50))
@example(False, EDGE_OPS)
@example(True, EDGE_OPS)
def test_physspace_agrees_with_a_region_scanning_reference(tagged, ops):
    agrees_with_reference(tagged, ops)


@settings(max_examples=100, deadline=None)
@given(st.booleans(), interleaved)
def test_physspace_agrees_with_the_reference_across_ram_bar_and_dma(tagged, ops):
    agrees_with_reference(tagged, ops)
