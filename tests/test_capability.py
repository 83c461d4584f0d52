import pickle
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capslice import capability, slicer
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
from capslice.manifest import parse
from capslice.physmem import PhysSpace


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
    no_seal = restrict_perms(make_otype_authority(7), Perm.UNSEAL)
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


@pytest.mark.parametrize("width", [-1, -2, -16, -(1 << 64)])
@pytest.mark.parametrize("offset", [0, 4])
def test_negative_width_is_a_bounds_violation(width, offset):
    # The cursor sits inside the slice, so `cursor + width` never passes the
    # top: only the width itself can refuse the access.
    cap = with_cursor(derive_bounds(root(), 0x100, 16), 0x104)
    with pytest.raises(CapFault) as err:
        check_access(cap, width, READ_MASK, offset)
    assert err.value.kind is FaultKind.BOUNDS_VIOLATION
    assert err.value.address == 0x104 + offset


def test_zero_width_stays_legal():
    cap = derive_bounds(root(), 0x100, 16)
    for cursor in (0x100, 0x108, 0x110):  # the top itself: an empty access
        check_access(with_cursor(cap, cursor), 0, READ_MASK | WRITE_MASK)


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


# -- immediate offsets -----------------------------------------------------------------

SPACE = 0x200  # all RAM, so a passing check always lands in one region


@st.composite
def caps(draw):
    # Mostly tagged, unsealed and readable-writable, with the cursor near
    # the bounds, so that every outcome, success included, comes up often.
    base = draw(st.integers(0, SPACE))
    length = draw(st.integers(0, SPACE - base))
    cursor = base + draw(st.integers(-0x20, length + 0x20))
    perms = draw(st.one_of(st.just(int(PERM_RW)), st.integers(0, 0x3F)))
    tag = draw(st.sampled_from((True, True, True, False)))
    otype = draw(st.sampled_from((UNSEALED, UNSEALED, UNSEALED, 5)))
    return Capability(base, length, cursor, perms, tag, otype)


offsets = st.one_of(st.integers(-0x20, 0x20), st.integers(-SPACE, SPACE))
needs = st.one_of(st.sampled_from((READ_MASK, WRITE_MASK)), st.integers(0, 0x3F))


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except CapFault as fault:
        return fault.kind, fault.address, str(fault)


def _sealed_fault(cap, offset):
    addr = cap.cursor + offset
    return (FaultKind.SEAL_VIOLATION, addr,
            f"SEAL_VIOLATION at {addr:#x}: sealed capability (otype {cap.otype})")


@settings(deadline=None)
@given(cap=caps(), offset=offsets, width=st.integers(0, 17), need=needs)
def test_check_access_offset_matches_with_cursor(cap, offset, width, need):
    got = _outcome(check_access, cap, width, need, offset)
    if cap.tag and cap.sealed:
        assert got == _sealed_fault(cap, offset)
    else:
        assert got == _outcome(check_access, with_cursor(cap, cap.cursor + offset), width, need)


@settings(deadline=None)
@given(cap=caps(), offset=offsets, width=st.sampled_from((0, 1, 2, 3, 4, 8, 16)),
       value=st.integers(0, (1 << 64) - 1), fill=st.binary(min_size=SPACE, max_size=SPACE))
def test_load_store_offset_match_with_cursor(cap, offset, width, value, fill):
    # Each form runs on its own space with the same contents; the result,
    # the fault, the memory bytes and the clock must all agree.
    spaces = []
    for _ in range(2):
        space, _ = PhysSpace.create(SPACE)
        space.add_region(0, SPACE, name="ram")
        space.data[:] = fill
        spaces.append(space)
    moved = with_cursor(cap, cap.cursor + offset)
    value &= (1 << 8 * width) - 1
    for op, args, moved_args in (("load", (cap, width, offset), (moved, width)),
                                 ("store", (cap, width, value, offset), (moved, width, value))):
        got = _outcome(getattr(spaces[0], op), *args)
        want = _outcome(getattr(spaces[1], op), *moved_args)
        if cap.tag and cap.sealed and width in (1, 2, 4, 8):
            assert got == _sealed_fault(cap, offset), op
        else:
            assert got == want, op
        assert spaces[0].data[:] == spaces[1].data[:] and spaces[0].clock == spaces[1].clock


# -- the interval lemma behind the fast audit ---------------------------------------

@settings(deadline=None)
@given(cap=st.builds(Capability, base=st.integers(0, 0x80), length=st.integers(-4, 0x60),
                     cursor=st.integers(0, (1 << 64) - 1), perms=st.integers(0, 0x3F),
                     tag=st.booleans(),
                     otype=st.one_of(st.just(UNSEALED), st.integers(0, UNSEALED))),
       lo=st.integers(-0x20, 0xE0), span=st.integers(0, 0x80), need=needs)
def test_width_one_access_passes_on_one_interval_of_cursors(cap, lo, span, need):
    # audit_reachability's fast path confirms a slice's run [lo, hi) by one
    # check_access over the whole run; that is sound only if the passing
    # cursors form exactly this run, and the one check passes exactly when
    # every byte of a non-empty run does.
    hi = lo + span
    passing = [x for x in range(lo, hi)
               if _outcome(check_access, with_cursor(cap, x), 1, need)[0] == "ok"]
    live = cap.tag and not cap.sealed and cap.has(need)
    assert passing == (list(range(max(cap.base, lo), min(cap.top, hi))) if live else [])
    if span:
        whole = _outcome(check_access, with_cursor(cap, lo), span, need)[0] == "ok"
        assert whole == (len(passing) == span)


# -- the probe form ------------------------------------------------------------------

@settings(deadline=None)
@given(cap=caps(), offset=st.one_of(offsets, st.integers(-(1 << 64), 1 << 64)),
       width=st.integers(-2, 0x40), need=needs)
def test_probe_returns_the_kind_check_access_raises(cap, offset, width, need):
    # Untagged, sealed, any perms mask, need 0, negative widths, and an
    # offset that can put the cursor anywhere in or past the 64-bit space.
    kind = check_access(cap, width, need, offset, probe=True)
    try:
        passed = check_access(cap, width, need, offset)
    except CapFault as fault:
        assert kind is fault.kind
    else:
        assert passed is None and kind is None


def test_check_access_takes_no_keyword_only_parameter():
    # CPython 3.11 specializes no call to a function with a keyword-only
    # parameter, and check_access runs on every load and store, so `probe`
    # stays positional-or-keyword. Callers still pass it by keyword.
    assert check_access.__code__.co_kwonlyargcount == 0


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


@pytest.mark.skipif(sys.version_info < (3, 11), reason="3.10 spells Perm reprs its own way")
def test_perm_texts_spell_every_mask_as_python_3_11_does():
    # Fault and repr texts format masks with _perm_repr, not repr(Perm(...)),
    # so they read the same on every supported Python; 3.10 would print
    # <Perm.WRITE|READ: 3> and <Perm.0: 0>.
    for mask in range(64):
        assert capability._perm_repr(mask) == repr(Perm(mask))


def test_fault_texts_are_unchanged():
    # check_access builds no text when it raises; str, repr and .detail
    # build it when read. The strings were recorded on the implementation
    # that formatted at raise time.
    cases = [
        (restrict_perms(derive_bounds(root(), 0x8, 4), Perm.READ), WRITE_MASK,
         FaultKind.PERMISSION_DENIED, 0x8,
         "PERMISSION_DENIED at 0x8: need <Perm.WRITE: 2>, have <Perm.READ: 1>",
         "CapFault('PERMISSION_DENIED at 0x8: need <Perm.WRITE: 2>, have <Perm.READ: 1>')",
         "need <Perm.WRITE: 2>, have <Perm.READ: 1>"),
        (restrict_perms(root(), Perm(0)), Perm.READ | Perm.WRITE,
         FaultKind.PERMISSION_DENIED, 0x0,
         "PERMISSION_DENIED at 0x0: need <Perm.READ|WRITE: 3>, have <Perm: 0>",
         "CapFault('PERMISSION_DENIED at 0x0: need <Perm.READ|WRITE: 3>, have <Perm: 0>')",
         "need <Perm.READ|WRITE: 3>, have <Perm: 0>"),
        (seal(root(), make_otype_authority(7)), READ_MASK, FaultKind.SEAL_VIOLATION, 0x0,
         "SEAL_VIOLATION at 0x0: sealed capability (otype 7)",
         "CapFault('SEAL_VIOLATION at 0x0: sealed capability (otype 7)')",
         "sealed capability (otype 7)"),
        (with_cursor(derive_bounds(root(), 0, 4), 0xD0), WRITE_MASK,
         FaultKind.BOUNDS_VIOLATION, 0xD0,
         "BOUNDS_VIOLATION at 0xd0: access [0xd0,0xd4) outside [0x0,0x4)",
         "CapFault('BOUNDS_VIOLATION at 0xd0: access [0xd0,0xd4) outside [0x0,0x4)')",
         "access [0xd0,0xd4) outside [0x0,0x4)"),
        (with_cursor(derive_bounds(root(), 0x100, 4), 0xFE), READ_MASK,
         FaultKind.BOUNDS_VIOLATION, 0xFE,
         "BOUNDS_VIOLATION at 0xfe: access [0xfe,0x102) outside [0x100,0x104)",
         "CapFault('BOUNDS_VIOLATION at 0xfe: access [0xfe,0x102) outside [0x100,0x104)')",
         "access [0xfe,0x102) outside [0x100,0x104)"),
        (null_capability(), READ_MASK, FaultKind.TAG_INVALID, 0x0,
         "TAG_INVALID at 0x0: untagged capability",
         "CapFault('TAG_INVALID at 0x0: untagged capability')",
         "untagged capability"),
    ]
    for cap, need, kind, address, text, rep, detail in cases:
        with pytest.raises(CapFault) as err:
            check_access(cap, 4, need)
        assert check_access(cap, 4, need, probe=True) is kind
        assert err.value.kind is kind
        assert err.value.address == address
        assert str(err.value) == text
        assert repr(err.value) == rep
        assert err.value.detail == detail


def test_other_raisers_fault_texts_are_unchanged():
    # seal/unseal and physmem's alignment checks raise plain-text faults,
    # and slicer.slice the fault of its one check_access on the root;
    # recorded like the cases above.
    a7 = make_otype_authority(7)
    space, authority = PhysSpace.create(0x100)
    space.add_region(0, 0x100)
    ram = authority.issue_root(0, 0x100, PERM_RW | Perm.LOAD_CAP)
    cases = [
        (lambda: seal(root(), restrict_perms(a7, Perm.UNSEAL)),
         "PERMISSION_DENIED at 0x7: authority lacks SEAL"),
        (lambda: seal(root(), with_cursor(a7, 8)),
         "BOUNDS_VIOLATION at 0x8: otype outside authority bounds"),
        (lambda: unseal(root(), a7), "SEAL_VIOLATION at 0x0: target is not sealed"),
        (lambda: unseal(seal(root(), a7), make_otype_authority(8)),
         "WRONG_OTYPE at 0x0: sealed with otype 7, authority selects 8"),
        (lambda: slicer.slice(derive_bounds(root(), 0, 0x10), parse("device x\nbar 0x100\n")),
         "BOUNDS_VIOLATION at 0x0: access [0x0,0x100) outside [0x0,0x10)"),
        (lambda: space.load(ram, 3), "ALIGNMENT_FAULT at 0x0: bad access width 3"),
        (lambda: space.cap_load(with_cursor(ram, 4)),
         "ALIGNMENT_FAULT at 0x4: capability load needs 16-byte alignment"),
    ]
    for raise_it, text in cases:
        with pytest.raises(CapFault) as err:
            raise_it()
        assert str(err.value) == text
        assert repr(err.value) == f"CapFault({text!r})"
        assert err.value.detail == text.split(": ", 1)[1]


def test_faults_survive_pickling():
    # Every kind check_access raises, plus a plain-text fault, round-trips
    # with the same kind, address and text (a process pool pickles them).
    raisers = [
        lambda: check_access(null_capability(0x40), 1, READ_MASK),
        lambda: check_access(seal(root(), make_otype_authority(7)), 1, READ_MASK),
        lambda: check_access(restrict_perms(root(), Perm.READ), 2, WRITE_MASK),
        lambda: check_access(with_cursor(derive_bounds(root(), 0x10, 4), 0x13), 2, READ_MASK),
        lambda: unseal(root(), make_otype_authority(7)),
    ]
    kinds = []
    for raise_it in raisers:
        with pytest.raises(CapFault) as err:
            raise_it()
        fault = err.value
        copy = pickle.loads(pickle.dumps(fault))
        assert type(copy) is CapFault
        assert copy.kind is fault.kind and copy.address == fault.address
        assert (str(copy), repr(copy), copy.detail) == (str(fault), repr(fault), fault.detail)
        kinds.append(fault.kind)
    assert kinds[:4] == [FaultKind.TAG_INVALID, FaultKind.SEAL_VIOLATION,
                         FaultKind.PERMISSION_DENIED, FaultKind.BOUNDS_VIOLATION]
