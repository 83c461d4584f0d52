import random

import pytest

from capslice.capability import (
    READ_MASK,
    WRITE_MASK,
    CapFault,
    Capability,
    FaultKind,
    PERM_RW,
    Perm,
    UNSEALED,
    check_access,
    derive_bounds,
    make_otype_authority,
    null_capability,
    restrict_perms,
    seal,
    unseal,
    with_cursor,
)


def root(base=0x0, length=0x20000, perms=PERM_RW):
    return Capability(base=base, length=length, cursor=base, perms=perms, tag=True)


# -- derive_bounds ---------------------------------------------------------------

def test_derive_register_slice():
    # the CTRL register: 4 bytes at the start of a 128 KiB aperture
    child = derive_bounds(root(), 0x0000, 4)
    assert child.tag
    assert child.base == 0x0000 and child.length == 4 and child.cursor == 0x0000
    assert child.perms == PERM_RW


def test_derive_identity():
    child = derive_bounds(root(), 0x0000, 0x20000)
    assert child.tag
    assert (child.base, child.length) == (0x0000, 0x20000)


def test_derive_exceeding_parent_clears_tag():
    parent = derive_bounds(root(), 0, 4)
    child = derive_bounds(parent, 0, 8)
    assert not child.tag
    assert child.length == 8  # bounds are set, validity is not


def test_derive_from_untagged_stays_untagged():
    parent = derive_bounds(root(), 0, 8)
    bad = derive_bounds(parent, 0, 16)
    assert not bad.tag
    child = derive_bounds(bad, 0, 4)
    assert not child.tag


def test_derive_from_sealed_clears_tag():
    sealed = seal(root(), make_otype_authority(7))
    assert not derive_bounds(sealed, 0, 4).tag


# -- restrict_perms ----------------------------------------------------------------

def test_restrict_to_read_only():
    child = restrict_perms(root(), Perm.READ)
    assert child.tag and child.perms == Perm.READ


def test_restrict_identity():
    child = restrict_perms(root(), PERM_RW)
    assert child.perms == PERM_RW


def test_restrict_is_intersection():
    ro = restrict_perms(root(), Perm.READ)
    back = restrict_perms(ro, PERM_RW)
    assert back.perms == Perm.READ  # cannot re-grant WRITE


def test_restrict_sealed_clears_tag():
    sealed = seal(root(), make_otype_authority(7))
    assert not restrict_perms(sealed, Perm.READ).tag


# -- seal / unseal --------------------------------------------------------------

def test_seal_roundtrip_is_identity():
    auth = make_otype_authority(7)
    original = root()
    sealed = seal(original, auth)
    assert sealed.otype == 7 and sealed.sealed
    assert unseal(sealed, auth) == original


def test_sealed_cannot_be_dereferenced():
    sealed = seal(root(), make_otype_authority(7))
    for width in (1, 2, 4, 8, 16):
        for need in (Perm.READ, Perm.WRITE, Perm(0)):
            with pytest.raises(CapFault) as err:
                check_access(sealed, width, need)
            assert err.value.kind is FaultKind.SEAL_VIOLATION


def test_double_seal_faults():
    auth = make_otype_authority(7)
    sealed = seal(root(), auth)
    with pytest.raises(CapFault) as err:
        seal(sealed, auth)
    assert err.value.kind is FaultKind.SEAL_VIOLATION


def test_seal_untagged_faults():
    with pytest.raises(CapFault) as err:
        seal(null_capability(), make_otype_authority(7))
    assert err.value.kind is FaultKind.TAG_INVALID


def test_seal_without_permission_faults():
    no_seal = make_otype_authority(7, perms=Perm.UNSEAL)
    with pytest.raises(CapFault) as err:
        seal(root(), no_seal)
    assert err.value.kind is FaultKind.PERMISSION_DENIED


def test_unseal_wrong_otype():
    sealed = seal(root(), make_otype_authority(7))
    with pytest.raises(CapFault) as err:
        unseal(sealed, make_otype_authority(9))
    assert err.value.kind is FaultKind.WRONG_OTYPE


def test_unseal_forged_pattern_is_tag_invalid():
    # a forged bit pattern carries no tag, whatever its otype field says
    forged = Capability(base=0, length=16, cursor=0, perms=Perm.READ,
                        tag=False, otype=7)
    with pytest.raises(CapFault) as err:
        unseal(forged, make_otype_authority(7))
    assert err.value.kind is FaultKind.TAG_INVALID


def test_unseal_unsealed_faults():
    with pytest.raises(CapFault) as err:
        unseal(root(), make_otype_authority(7))
    assert err.value.kind is FaultKind.SEAL_VIOLATION


# -- check_access -----------------------------------------------------------------

def test_access_within_slice_ok():
    ctrl = restrict_perms(derive_bounds(root(0x1000), 0x1000, 4), PERM_RW)
    check_access(ctrl, 4, Perm.WRITE)  # no fault


def test_access_outside_bounds():
    ctrl = derive_bounds(root(), 0, 4)
    probe = with_cursor(ctrl, 0xD0)
    with pytest.raises(CapFault) as err:
        check_access(probe, 4, Perm.WRITE)
    assert err.value.kind is FaultKind.BOUNDS_VIOLATION
    assert err.value.address == 0xD0


def test_access_without_permission():
    status = restrict_perms(derive_bounds(root(), 0x8, 4), Perm.READ)
    with pytest.raises(CapFault) as err:
        check_access(status, 4, Perm.WRITE)
    assert err.value.kind is FaultKind.PERMISSION_DENIED


def test_fault_order_is_deterministic():
    # untagged beats sealed beats permission beats bounds
    auth = make_otype_authority(7)
    sealed_ro = seal(restrict_perms(root(), Perm.READ), auth)
    forged = Capability(base=0, length=4, cursor=99, perms=Perm(0), tag=False, otype=7)
    for _ in range(3):
        with pytest.raises(CapFault) as err:
            check_access(forged, 4, Perm.WRITE)
        assert err.value.kind is FaultKind.TAG_INVALID
        with pytest.raises(CapFault) as err:
            check_access(sealed_ro, 4, Perm.WRITE)
        assert err.value.kind is FaultKind.SEAL_VIOLATION
        bad_perm = with_cursor(restrict_perms(root(), Perm.READ), 0x50000)
        with pytest.raises(CapFault) as err:
            check_access(bad_perm, 4, Perm.WRITE)  # also out of bounds
        assert err.value.kind is FaultKind.PERMISSION_DENIED


def test_cursor_may_wander_until_dereference():
    ctrl = derive_bounds(root(), 0, 4)
    wandered = with_cursor(ctrl, 0x19999)
    assert wandered.tag  # moving the cursor is not a fault
    with pytest.raises(CapFault):
        check_access(wandered, 1, Perm.READ)


# -- properties ---------------------------------------------------------------------

def test_monotonicity_over_random_chains():
    rng = random.Random(0xCAB5)
    top = root()
    for _ in range(1000):
        cap = top
        for _ in range(rng.randint(1, 8)):
            if rng.random() < 0.5:
                lo = rng.randrange(0, 0x20000)
                ln = rng.randrange(0, 0x20000)
                child = derive_bounds(cap, lo, ln)
                if child.tag:
                    assert child.base >= cap.base and child.top <= cap.top
            else:
                keep = Perm(rng.randrange(0, 64))
                child = restrict_perms(cap, keep)
                if child.tag:
                    assert (child.perms & ~cap.perms) == Perm(0)
            cap = child


def test_unforgeability_no_op_sets_a_tag():
    rng = random.Random(0xF0F0)
    dead = null_capability()
    for _ in range(500):
        choice = rng.randrange(3)
        if choice == 0:
            dead = derive_bounds(dead, rng.randrange(100), rng.randrange(100))
        elif choice == 1:
            dead = restrict_perms(dead, Perm(rng.randrange(64)))
        else:
            dead = with_cursor(dead, rng.randrange(1 << 32))
        assert not dead.tag


def test_otype_space_is_bounded():
    # an authority cannot seal with the reserved "unsealed" marker
    evil = Capability(base=UNSEALED, length=1, cursor=UNSEALED,
                      perms=Perm.SEAL | Perm.UNSEAL, tag=True)
    with pytest.raises(CapFault) as err:
        seal(root(), evil)
    assert err.value.kind is FaultKind.BOUNDS_VIOLATION


# -- int permission masks ------------------------------------------------------------

def test_perm_and_int_masks_build_equal_capabilities():
    by_flag = Capability(base=0x40, length=16, cursor=0x40, perms=Perm.READ, tag=True)
    by_int = Capability(base=0x40, length=16, cursor=0x40, perms=1, tag=True)
    assert by_flag == by_int
    assert hash(by_flag) == hash(by_int)
    assert type(by_flag.perms) is int
    assert by_flag.perms == Perm.READ == READ_MASK


def test_masks_and_flags_check_alike():
    ro = restrict_perms(root(), Perm.READ)
    assert ro.has(Perm.READ) and ro.has(READ_MASK)
    assert not ro.has(Perm.WRITE) and not ro.has(WRITE_MASK)
    check_access(ro, 4, READ_MASK)
    check_access(ro, 4, Perm.READ)
    for need in (WRITE_MASK, Perm.WRITE):
        with pytest.raises(CapFault) as err:
            check_access(ro, 4, need)
        assert str(err.value) == "PERMISSION_DENIED at 0x0: need <Perm.WRITE: 2>, have <Perm.READ: 1>"


# Texts copied from the implementation that stored Perm values; formatting
# goes through Perm only when a repr or a fault is built, so they must not move.

def test_repr_text_is_unchanged():
    ro = restrict_perms(root(), Perm.READ)
    assert repr(ro) == "Cap[+](0x0 in 0x0+0x20000, <Perm.READ: 1>)"
    assert repr(seal(ro, make_otype_authority(7))) == \
        "Cap[+](0x0 in 0x0+0x20000, <Perm.READ: 1> otype=7)"
    assert repr(derive_bounds(ro, 0, 0x40000)) == "Cap[-](0x0 in 0x0+0x40000, <Perm.READ: 1>)"
    wo = with_cursor(restrict_perms(derive_bounds(root(), 0x100, 16), Perm.WRITE), 0x104)
    assert repr(wo) == "Cap[+](0x104 in 0x100+0x10, <Perm.WRITE: 2>)"


def test_fault_texts_are_unchanged():
    cases = [
        (restrict_perms(derive_bounds(root(), 0x8, 4), Perm.READ), WRITE_MASK,
         FaultKind.PERMISSION_DENIED,
         "PERMISSION_DENIED at 0x8: need <Perm.WRITE: 2>, have <Perm.READ: 1>"),
        (seal(root(), make_otype_authority(7)), READ_MASK, FaultKind.SEAL_VIOLATION,
         "SEAL_VIOLATION at 0x0: sealed capability (otype 7)"),
        (with_cursor(derive_bounds(root(), 0, 4), 0xD0), WRITE_MASK,
         FaultKind.BOUNDS_VIOLATION,
         "BOUNDS_VIOLATION at 0xd0: access [0xd0,0xd4) outside [0x0,0x4)"),
        (null_capability(), READ_MASK, FaultKind.TAG_INVALID,
         "TAG_INVALID at 0x0: untagged capability"),
    ]
    for cap, need, kind, text in cases:
        with pytest.raises(CapFault) as err:
            check_access(cap, 4, need)
        assert err.value.kind is kind
        assert str(err.value) == text
