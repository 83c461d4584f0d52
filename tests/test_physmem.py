import random

import pytest

from capslice.capability import (
    CapFault,
    Capability,
    FaultKind,
    PERM_RW,
    Perm,
    derive_bounds,
    restrict_perms,
    with_cursor,
)
from capslice.physmem import GRANULE, AccessCostTable, PhysSpace


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
    loaded = space.cap_load(slot)
    assert not loaded.tag


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

def make_gapped_space():
    """RAM, MMIO, a gap, then more RAM."""
    space, authority, dev = make_space()
    space.add_region(0x18000, 0x8000, name="ram2")
    return space, authority, dev


def test_region_lookup_alternates_between_regions():
    space, authority, dev = make_gapped_space()
    ram = authority.issue_root(0, 0x10000, PERM_RW)
    mmio = authority.issue_root(0x10000, 0x1000, PERM_RW)
    ram2 = authority.issue_root(0x18000, 0x8000, PERM_RW)
    space.store(with_cursor(ram, 0x40), 4, 0x11111111)
    space.store(with_cursor(ram2, 0x18040), 4, 0x22222222)
    for _ in range(3):
        assert space.region_for(0x40, 4).name == "ram"
        assert space.load(with_cursor(ram, 0x40), 4) == 0x11111111
        assert space.region_for(0x10000, 4).name == "mmio"
        assert space.load(mmio, 4) == 0xC0FFEE
        assert space.region_for(0x18040, 4).name == "ram2"
        assert space.load(with_cursor(ram2, 0x18040), 4) == 0x22222222
    assert space.region_for(0x10FFC, 4).name == "mmio"
    assert space.region_for(0x1FFF8, 8).name == "ram2"


def test_region_lookup_rejects_straddles_and_gaps():
    space, authority, _ = make_gapped_space()
    ram = authority.issue_root(0, 0x10000, PERM_RW)
    space.load(ram, 4)  # the RAM region is now the last one found
    with pytest.raises(ValueError):
        space.region_for(0xFFFC, 8)  # across RAM's top into MMIO
    space.region_for(0x10000, 4)  # now MMIO
    with pytest.raises(ValueError):
        space.region_for(0x10FFC, 8)  # across MMIO's top into the gap
    for addr in (0x11000, 0x14000, 0x17FFF):
        with pytest.raises(ValueError):
            space.region_for(addr, 1)
    with pytest.raises(ValueError):
        space.region_for(0x17FFC, 8)  # from the gap into ram2
    with pytest.raises(ValueError):
        space.region_for(0x1FFFC, 8)  # past the end of the space
    # Forged capabilities pass their own checks, then find no single region.
    over_gap = Capability(base=0x11000, length=0x1000, cursor=0x11000, perms=PERM_RW, tag=True)
    with pytest.raises(ValueError):
        space.load(over_gap, 4)
    over_top = Capability(base=0, length=0x11000, cursor=0xFFFC, perms=PERM_RW, tag=True)
    space.load(ram, 4)
    with pytest.raises(ValueError):
        space.load(over_top, 8)


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
