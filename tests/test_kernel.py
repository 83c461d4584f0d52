import pickle
import random
from dataclasses import replace

import pytest
from conftest import capture
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from capslice import kernel as kernelmod
from capslice import nic as nicmod
from capslice import slicer
from capslice.capability import (
    Capability,
    CapFault,
    FaultKind,
    PERM_RW,
    Perm,
    derive_bounds,
    make_otype_authority,
    restrict_perms,
    seal,
    unseal,
    with_cursor,
)
from capslice.harness import (
    BAR_BASE,
    RAM_BASE,
    RAM_LENGTH,
    SPACE_SIZE,
    SUT_ENDPOINT,
    build_machine,
    default_manifests,
    manifest_reach_oracle,
)
from capslice.kernel import (
    ApiError,
    BUF_SIZE,
    DESC_SIZE,
    DMA_LENGTH,
    DMA_MANIFEST,
    DMA_RX_BUFS,
    DMA_RX_RING,
    DMA_TX_BUFS,
    DMA_TX_RING,
    ErrCode,
    Kernel,
    RING_SIZE,
)
from capslice.manifest import Manifest, PermClass, Repeat, SliceEntry, expand, parse
from capslice.nic import (
    BAR_LENGTH,
    KERNEL_ROLES,
    PRIVILEGED,
    REGISTERS,
    FrameLink,
    NicModel,
    REG_RDT,
    REG_STATUS,
    REG_TCTL,
    REG_TDH,
    REG_TDT,
    STATUS_LU,
)
from capslice.physmem import PhysSpace
from capslice.slicer import SliceTable, audit_reachability


def rig(mode="bypass"):
    m = build_machine("kern", mode, SUT_ENDPOINT, link=FrameLink())
    return m, m.kernel


def new_kernel(bar_manifest, priv_base=RAM_BASE):
    """A kernel on a fresh space, born with its device under `bar_manifest`;
    the space's RAM, its private memory, runs from `priv_base` to the top of
    the machine's RAM."""
    space, authority = PhysSpace.create(SPACE_SIZE)
    space.add_region(priv_base, RAM_BASE + RAM_LENGTH - priv_base, name="ram")
    space.add_region(BAR_BASE, BAR_LENGTH, device=NicModel(), name="bar")
    return Kernel(space, authority, bar_manifest)


def mmio_read(m, kern, offset):
    return m.space.load(with_cursor(kern.mmio_root, kern.mmio_root.base + offset), 4)


def dma_at(kern, offset):
    return kern.dma_root.base + offset


def desc_addr(m, ring, index):
    return int.from_bytes(m.space.dma_read(ring + index * DESC_SIZE, 8), "little")


def dma_snapshot(m, kern):
    return bytes(m.space.data[kern.dma_root.base:kern.dma_root.base + DMA_LENGTH])


# -- stub bring-up -----------------------------------------------------------

def test_stub_attach_brings_link_up():
    m, kern = rig()
    assert mmio_read(m, kern, REG_STATUS) & STATUS_LU


def test_stub_preprograms_descriptors_to_paired_buffers():
    m, kern = rig()
    for k in range(RING_SIZE):
        assert desc_addr(m, dma_at(kern, DMA_RX_RING), k) == dma_at(kern, DMA_RX_BUFS) + k * BUF_SIZE
        assert desc_addr(m, dma_at(kern, DMA_TX_RING), k) == dma_at(kern, DMA_TX_BUFS) + k * BUF_SIZE


def test_stub_initial_ring_registers():
    m, kern = rig()
    assert mmio_read(m, kern, REG_TDT) == 0
    assert mmio_read(m, kern, REG_TDH) == 0
    assert mmio_read(m, kern, REG_RDT) == RING_SIZE - 1


def test_double_attach_is_error():
    m, kern = rig()
    with pytest.raises(ApiError) as err:
        m.kernel.stub_attach(kern.bar_manifest)
    assert err.value.code is ErrCode.BUSY


def test_stub_refuses_any_grant_of_a_privileged_register():
    m, kern = rig()
    shipped = kern.bar_manifest
    # The shipped manifest is the register table's projection: its names at
    # their offsets, KERNEL exactly where the role is kernel-only, and CTRL
    # the one `control` register userspace may write.
    assert (sorted((e.name, e.offset) for e in shipped.entries)
            == sorted((name, off) for name, (off, _) in REGISTERS.items()))
    for e in shipped.entries:
        assert (e.perm is PermClass.KERNEL) == (REGISTERS[e.name][1] in KERNEL_ROLES), e.name
    assert [e.name for e in shipped.entries
            if e.perm is PermClass.RW and REGISTERS[e.name][1] == "control"] == ["CTRL"]
    # The isolation suite's device-truth scenario lists reached registers in this order.
    assert PRIVILEGED == (0x00C0, 0x00D0, 0x0100, 0x0400, 0x2800, 0x2804, 0x2808, 0x2810,
                          0x3800, 0x3804, 0x3808, 0x3810)
    for name, (off, _) in REGISTERS.items():
        assert getattr(nicmod, "REG_" + name) == off, name
    kernel_only = [e for e in shipped.entries if e.perm is PermClass.KERNEL]
    assert sorted(e.offset for e in kernel_only) == sorted(PRIVILEGED)
    for e in kernel_only:
        for perm in (PermClass.RO, PermClass.RW):
            entries = tuple(replace(x, perm=perm) if x is e else x for x in shipped.entries)
            with pytest.raises(ApiError) as err:
                new_kernel(replace(shipped, entries=entries))
            assert err.value.code is ErrCode.BAD_ARGUMENT and e.name in str(err.value)


def test_stub_refuses_a_bar_manifest_that_fails_validate():
    m, kern = rig()
    shipped = kern.bar_manifest
    entries = tuple(replace(e, size=12) if e.name == "CTRL" else e for e in shipped.entries)
    with pytest.raises(ApiError) as err:
        new_kernel(replace(shipped, entries=entries))
    assert err.value.code is ErrCode.BAD_ARGUMENT
    assert err.value.detail == "CTRL and STATUS overlap at 0x8"


def test_stub_refuses_a_device_register_name_elsewhere_or_repeated():
    # A second TDT ahead of the real one, and CTRL as a run of two ranges:
    # neither is the one register its name says.
    m, kern = rig()
    shipped = kern.bar_manifest
    stray = SliceEntry("TDT", 0x1000, 4, PermClass.RW)
    ctrl_run = tuple(replace(e, repeat=Repeat(2, 4)) if e.name == "CTRL" else e
                     for e in shipped.entries)
    for name, entries in (("TDT", (stray, *shipped.entries)), ("CTRL", ctrl_run)):
        with pytest.raises(ApiError) as err:
            new_kernel(replace(shipped, entries=entries))
        assert err.value.code is ErrCode.BAD_ARGUMENT and name in err.value.detail


def test_stub_refuses_a_repeated_entry_name():
    # Two entries named R1, built directly since `parse` refuses the text:
    # the slice table's `index_map()` would keep only the second.
    m, kern = rig()
    shipped = kern.bar_manifest
    twice = replace(shipped, entries=(SliceEntry("R1", 0x1000, 4, PermClass.RW),
                                      SliceEntry("R1", 0x1010, 4, PermClass.RO),
                                      *shipped.entries))
    assert kernelmod.device_truth_violations(twice) == ["duplicate register name 'R1'"]
    with pytest.raises(ApiError) as err:
        new_kernel(twice)
    assert err.value.code is ErrCode.BAD_ARGUMENT
    assert err.value.detail == "duplicate register name 'R1'"


def test_admission_is_remembered_per_manifest_value():
    # A refused value is refused on every bring-up, and the shipped value
    # admitted before and after it, whatever the memo holds.
    shipped = default_manifests()
    leaky = replace(shipped, entries=tuple(
        replace(e, perm=PermClass.RW) if e.name == "TDBAL" else e for e in shipped.entries))
    new_kernel(shipped)
    for _ in range(2):
        with pytest.raises(ApiError) as err:
            new_kernel(leaky)
        assert err.value.code is ErrCode.BAD_ARGUMENT and "TDBAL" in err.value.detail
    new_kernel(shipped)
    # Each call gets its own list: a caller's edit reaches no later call.
    got = kernelmod.device_truth_violations(leaky)
    expected = list(got)
    got.clear()
    assert kernelmod.device_truth_violations(leaky) == expected
    # A manifest whose entries are a list cannot be hashed; it is checked in
    # full and gets its tuple twin's verdict.
    for m in (shipped, leaky):
        listed = replace(m, entries=list(m.entries))
        assert (kernelmod.device_truth_violations(listed)
                == kernelmod.device_truth_violations(m))


def test_stub_refuses_a_bar_manifest_for_another_device():
    # The manifest's `device` line is the one input that names the device.
    m, kern = rig()
    with pytest.raises(ApiError) as err:
        new_kernel(replace(kern.bar_manifest, device_name="virtio"))
    assert err.value.code is ErrCode.BAD_ARGUMENT and "virtio" in err.value.detail


# -- hostile policy --------------------------------------------------------------

AUDITED = 0x4000  # every register lies below 0x3818 + 4

DOORBELLS = (("TDT", REG_TDT), ("RDT", REG_RDT))
DOORBELL_FAULTS = ("offset", "read-only", "short", "missing")


@st.composite
def bar_manifests(draw, max_entries=5):
    # Random ranges, some on or next to a kernel-only register, some at or
    # past the end of the BAR, some named as a device register at its offset
    # or elsewhere, with any class and optional repeats. Sound
    # shapes are drawn more often than broken ones, so that a good share of
    # the manifests is accepted and audited. Six draws in seven grant both
    # doorbells as the device has them; the rest break one of them in one
    # way. A BAR longer than the device's is drawn one time in eleven, so the
    # admitted share stays near what it was before doorbells were drawn.
    fault = draw(st.sampled_from((None,) * 24 + DOORBELL_FAULTS))
    broken = draw(st.sampled_from(DOORBELLS))
    entries = []
    for name, offset in DOORBELLS:
        size, perm = 4, PermClass.RW
        if fault and (name, offset) == broken:
            if fault == "missing":
                continue
            if fault == "offset":
                offset = draw(st.integers(0, AUDITED - 4).filter(lambda o, at=offset: o != at))
            elif fault == "read-only":
                perm = PermClass.RO
            else:
                size = draw(st.integers(1, 3))
        entries.append(SliceEntry(name, offset, size, perm))
    for i in range(draw(st.integers(1, max_entries))):
        where = draw(st.sampled_from(("free",) * 4 + ("privileged", "bar-end")))
        name = f"R{i}"
        if where == "free":
            offset = draw(st.integers(0, AUDITED - 1))
            # One free entry in four takes a device register's name, half of
            # those at that register's offset.
            if draw(st.sampled_from((False,) * 3 + (True,))):
                name = draw(st.sampled_from(sorted(REGISTERS)))
                if draw(st.booleans()):
                    offset = REGISTERS[name][0]
        elif where == "privileged":
            offset = draw(st.sampled_from(PRIVILEGED)) + draw(st.integers(-8, 8))
        else:
            offset = BAR_LENGTH + draw(st.integers(-0x40, 0x40))
        # An empty range, which validate refuses, is one rare case; other
        # sizes start at 1, so that a refusal is mostly for what is granted.
        empty = draw(st.sampled_from((False,) * 31 + (True,)))
        size = 0 if empty else draw(st.integers(1, 0x40))
        repeat = None
        if draw(st.booleans()):
            stride = draw(st.one_of(st.integers(size, size + 0x40), st.integers(0, 0x100)))
            repeat = Repeat(draw(st.integers(1, 4)), stride)
        entries.append(SliceEntry(name, offset, size, draw(st.sampled_from(PermClass)),
                                  repeat))
    bar = draw(st.sampled_from((BAR_LENGTH,) * 9 + (AUDITED, BAR_LENGTH + 0x1000)))
    return Manifest("e1000e", bar, tuple(entries))


def _attach_and_map(m):
    """The merged slice table a fresh machine's kernel hands out for `m`, or
    None when `stub_attach` refuses `m`; any other error fails the test."""
    try:
        kernel = new_kernel(m)
    except ApiError as err:
        assert err.code is ErrCode.BAD_ARGUMENT
        return None
    return kernel.map_mmio(kernel.attach(1000))


def _reaches_no_privileged_byte(reach):
    return not any(reach[off + i] for off in PRIVILEGED for i in range(4))


@settings(deadline=None)
@given(m=bar_manifests())
def test_hostile_policy_is_refused_or_reaches_no_privileged_byte(m):
    table = _attach_and_map(m)
    if table is None:
        return
    reach = audit_reachability(table, AUDITED)
    assert _reaches_no_privileged_byte(reach)
    # A slice named as a device register is that register.
    assert all(cap.base == BAR_BASE + REGISTERS[name][0]
               for name, cap in table if name in REGISTERS)
    # The DMA slices reach nothing in the BAR, and the register slices what
    # the manifest grants.
    assert reach == manifest_reach_oracle(m, AUDITED)


@settings(deadline=None, max_examples=8)
@given(m=bar_manifests(max_entries=3))
def test_hostile_policy_exhaustive_audit(m):
    table = _attach_and_map(m)
    granted = len(expand(m))
    assume(table is not None and granted)
    # Only the register slices: the 256 DMA slices lie outside the BAR, and
    # probing each of them at every audited byte would take seconds.
    regs = SliceTable(table.slices[:granted], table.sealed_root)
    reach = audit_reachability(regs, AUDITED, exhaustive=True)
    assert _reaches_no_privileged_byte(reach)
    assert reach == audit_reachability(table, AUDITED)


def test_stub_programs_the_whole_bar_under_a_short_manifest():
    # The manifest ends at TDT's last byte, short of the device's BAR; the
    # stub's root spans the whole BAR, so bring-up and both paths work.
    short = parse("device e1000e\nbar 0x381c\nreg CTRL 0x0 4 RW\n"
                  "reg RDT 0x2818 4 RW\nreg TDT 0x3818 4 RW\n")
    assert short.bar_length < BAR_LENGTH
    for mode in ("mediated", "bypass"):
        m = build_machine("kern", mode, SUT_ENDPOINT, link=FrameLink(), bar_manifest=short)
        kern = m.kernel
        assert kern.mmio_root.length == BAR_LENGTH
        assert mmio_read(m, kern, REG_RDT) == RING_SIZE - 1
        (m.driver.send if mode == "bypass" else m.driver.mediated_send)(b"x" * 60)
        assert m.nic.counters.tx_frames == 1, mode


# Each way to break one doorbell of the shipped manifest, which is otherwise
# sound: random draws pair a broken doorbell with sound ranges too rarely for
# a property to see every admission condition at work on every run.
_BREAK_DOORBELL = {
    "offset": lambda e: replace(e, offset=e.offset + 0x10),
    "read-only": lambda e: replace(e, perm=PermClass.RO),
    "short": lambda e: replace(e, size=2),
    "missing": lambda e: None,
}
assert tuple(_BREAK_DOORBELL) == DOORBELL_FAULTS


def shipped_doorbell_faults(test):
    """`test` with, as explicit examples, the shipped manifest with one
    doorbell broken in one way, for each doorbell and each way."""
    shipped = default_manifests()
    for name, _ in DOORBELLS:
        for fault in DOORBELL_FAULTS:
            entries = [_BREAK_DOORBELL[fault](e) if e.name == name else e
                       for e in shipped.entries]
            broken = replace(shipped, entries=tuple(e for e in entries if e is not None))
            test = example(m=broken)(test)
    return test


@settings(deadline=None, max_examples=400)
@given(m=bar_manifests())
@shipped_doorbell_faults
def test_admission_is_exactly_a_working_bypass_machine(m):
    # The one admission rule admits a manifest exactly when a bypass machine
    # builds under it, and that machine rings both doorbells on the device.
    admitted = not kernelmod.device_truth_violations(m)
    link = FrameLink()
    got = capture(link)
    try:
        sut = build_machine("sut", "bypass", SUT_ENDPOINT, link=link, bar_manifest=m)
    except ApiError as err:
        assert not admitted and err.code is ErrCode.BAD_ARGUMENT
        return
    assert admitted
    frame = b"x" * 60
    sut.driver.send(frame)
    assert sut.nic.counters.tx_frames == 1 and [f for _, f in got[1]] == [frame]
    assert sut.nic.regs[REG_RDT] == RING_SIZE - 1
    assert sut.nic.deliver_frame(sut.space, frame)
    assert sut.driver.poll_recv() == [frame]
    assert sut.nic.regs[REG_RDT] == 0  # one descriptor handed back


def test_api_errors_survive_pickling():
    # One real error per code; each round-trips with its code and text (a
    # process pool pickles a worker's exception).
    m, kern = rig()
    token = m.kernel.attach(1)
    raisers = {
        ErrCode.DENIED: lambda: m.kernel.map_mmio(kern.mmio_root),
        ErrCode.BUSY: lambda: m.kernel.stub_attach(kern.bar_manifest),
        ErrCode.BAD_ARGUMENT: lambda: m.kernel.ioctl_set_desc_addr(token, "zz", 0,
                                                                   kern.mmio_root),
    }
    assert set(raisers) == set(ErrCode)
    for code, raise_it in raisers.items():
        with pytest.raises(ApiError) as err:
            raise_it()
        assert err.value.code is code
        copy = pickle.loads(pickle.dumps(err.value))
        assert type(copy) is ApiError and copy.code is code
        assert (str(copy), repr(copy)) == (str(err.value), repr(err.value))
    bare = pickle.loads(pickle.dumps(ApiError(ErrCode.BUSY)))
    assert bare.code is ErrCode.BUSY and str(bare) == "busy"


# -- attach tokens ---------------------------------------------------------------

def test_attach_token_is_sealed_and_recoverable():
    m, _ = rig()
    token = m.kernel.attach(4242)
    assert token.sealed and token.otype == slicer.INTERFACE_OTYPE
    # the interface authority recovers {process, device}
    opened = unseal(token, make_otype_authority(slicer.INTERFACE_OTYPE))
    assert m.space.load(with_cursor(opened, opened.base), 8) == 4242


def test_two_attaches_mint_distinct_tokens():
    m, _ = rig()
    t1, t2 = m.kernel.attach(1), m.kernel.attach(2)
    assert t1.base != t2.base


def test_token_cannot_be_dereferenced_by_holder():
    m, _ = rig()
    token = m.kernel.attach(7)
    with pytest.raises(CapFault) as err:
        m.space.load(token, 8)
    assert err.value.kind is FaultKind.SEAL_VIOLATION


# -- map_mmio ------------------------------------------------------------------

def test_map_mmio_returns_register_and_ring_slices():
    m, _ = rig()
    token = m.kernel.attach(7)
    table = m.kernel.map_mmio(token)
    names = table.names()
    assert {"CTRL", "STATUS", "TDT", "RDT"} <= set(names)
    assert "IMS" not in names
    assert "TXD_META[0]" in names and "RXBUF[63]" in names
    assert table.sealed_root.sealed and table.sealed_dma_root.sealed


def test_map_mmio_single_mapping_rule():
    m, _ = rig()
    token = m.kernel.attach(7)
    m.kernel.map_mmio(token)
    with pytest.raises(ApiError) as err:
        m.kernel.map_mmio(token)
    assert err.value.code is ErrCode.DENIED


def test_map_mmio_denies_forged_and_mistyped_tokens():
    m, kern = rig()
    writes_before = m.nic.counters.mmio_writes
    ram_before = dma_snapshot(m, kern)

    forged = Capability(base=0x40, length=16, cursor=0x40, perms=Perm.READ,
                        tag=False, otype=slicer.INTERFACE_OTYPE)
    with pytest.raises(ApiError) as err:
        m.kernel.map_mmio(forged)
    assert err.value.code is ErrCode.DENIED

    # sealed under the slicer's otype, not the interface's
    token = m.kernel.attach(3)
    table = m.kernel.map_mmio(token)
    with pytest.raises(ApiError) as err:
        m.kernel.map_mmio(table.sealed_root)
    assert err.value.code is ErrCode.DENIED

    # plain unsealed capability
    with pytest.raises(ApiError) as err:
        m.kernel.map_mmio(kern.dma_root)
    assert err.value.code is ErrCode.DENIED

    assert m.nic.counters.mmio_writes == writes_before
    assert dma_snapshot(m, kern) == ram_before


def test_returned_capabilities_are_sealed_or_strict_subranges():
    m, kern = rig()
    token = m.kernel.attach(7)
    table = m.kernel.map_mmio(token)
    roots = {(kern.mmio_root.base, kern.mmio_root.length),
             (kern.dma_root.base, kern.dma_root.length)}
    for name, cap in table:
        assert not (cap.base, cap.length) in roots or cap.sealed, name
    for sealed in (table.sealed_root, table.sealed_dma_root, token):
        assert sealed.sealed


def test_dma_carving_reaches_no_descriptor_address_word():
    # Checked against the descriptor format, not against the kernel's DMA
    # carving: bytes 0..7 of every TX and RX descriptor select where the NIC
    # DMAs, so no slice may read or write any of them.
    m, _ = rig()
    view = slicer.SliceTable(slices=m.table.slices, sealed_root=m.table.sealed_dma_root)
    reach = slicer.audit_reachability(view, DMA_RX_RING + RING_SIZE * DESC_SIZE)
    rw = slicer.AUDIT_READ | slicer.AUDIT_WRITE
    for ring in (DMA_TX_RING, DMA_RX_RING):
        for k in range(RING_SIZE):
            desc = ring + k * DESC_SIZE
            assert not any(reach[desc:desc + 8]), (hex(ring), k)
            # the audit is not blind: the driver owns each descriptor's tail
            assert set(reach[desc + 8:desc + DESC_SIZE]) == {rw}, (hex(ring), k)


def test_whole_dma_region_audit_equals_the_carving_and_spares_every_address_word():
    # The full region, packet buffers included: the rings' audit above
    # stops short of the buffers.
    m, _ = rig()
    view = SliceTable(slices=m.table.slices, sealed_root=m.table.sealed_dma_root)
    reach = audit_reachability(view, DMA_LENGTH)
    assert reach == manifest_reach_oracle(DMA_MANIFEST)
    for ring in (DMA_TX_RING, DMA_RX_RING):
        for k in range(RING_SIZE):
            desc = ring + k * DESC_SIZE
            assert not any(reach[desc:desc + 8]), (hex(ring), k)


# -- the DMA carving, once per root ---------------------------------------------

def count_slicer_calls(monkeypatch):
    """Count `slicer.slice` calls from here on; the list holds each root."""
    roots = []
    real = slicer.slice

    def counted(root, m):
        roots.append(root)
        return real(root, m)

    monkeypatch.setattr(slicer, "slice", counted)
    return roots


dma_roots = st.builds(
    lambda base, extra, cursor, perms: Capability(
        base, DMA_LENGTH + extra, base + cursor, perms, True),
    st.integers(RAM_BASE, RAM_BASE + RAM_LENGTH - DMA_LENGTH),
    st.integers(0, 0x100),
    st.integers(-8, DMA_LENGTH),
    st.sampled_from((PERM_RW, PERM_RW | Perm.LOAD_CAP | Perm.STORE_CAP,
                     PERM_RW | Perm.SEAL)))


@settings(deadline=None, max_examples=40)
@given(roots=st.lists(dma_roots, min_size=1, max_size=4))
def test_dma_carving_equals_a_fresh_slice(roots):
    # Each root twice: a miss, then a hit, both equal to a fresh carving.
    for root in roots + roots:
        assert kernelmod._carve_dma(root) == slicer.slice(root, DMA_MANIFEST)
    assert kernelmod._carve_dma(roots[-1]) is kernelmod._carve_dma(roots[-1])


_GOOD_DMA_ROOT = Capability(RAM_BASE, DMA_LENGTH, RAM_BASE, PERM_RW, True)


@pytest.mark.parametrize("root,kind", [
    (replace(_GOOD_DMA_ROOT, tag=False), FaultKind.TAG_INVALID),
    (seal(_GOOD_DMA_ROOT, make_otype_authority(9)), FaultKind.SEAL_VIOLATION),
    (restrict_perms(_GOOD_DMA_ROOT, Perm.READ), FaultKind.PERMISSION_DENIED),
    (replace(_GOOD_DMA_ROOT, length=DMA_LENGTH - 1), FaultKind.BOUNDS_VIOLATION),
], ids=["untagged", "sealed", "read-only", "too-short"])
def test_a_bad_dma_root_faults_on_every_carving(monkeypatch, root, kind):
    roots = count_slicer_calls(monkeypatch)
    faults = []
    for _ in range(2):
        with pytest.raises(CapFault) as err:
            kernelmod._carve_dma(root)
        faults.append((err.value.kind, err.value.address, str(err.value)))
    assert faults[0] == faults[1] and faults[0][0] is kind
    assert roots == [root, root]  # the fault was not remembered


def test_a_kernel_elsewhere_in_ram_carves_its_own_dma_region():
    k = new_kernel(default_manifests(), priv_base=RAM_BASE + 0x40000)
    dma = k.dma_root
    assert dma.base == RAM_BASE + 0x40000 != rig()[1].dma_root.base
    table = k.map_mmio(k.attach(5))
    dma_slices = [cap for name, cap in table if name.startswith(("TX", "RX"))]
    rings = k._rings()
    assert len(dma_slices) == 4 * RING_SIZE
    for cap in dma_slices + rings.tx_meta + rings.tx_bufs + rings.rx_meta + rings.rx_bufs:
        assert cap.tag and dma.base <= cap.base and cap.top <= dma.top
    assert unseal(table.sealed_dma_root, make_otype_authority(slicer.SLICER_OTYPE)) == k.dma_root


@pytest.mark.parametrize("mode,carvings", [("bypass", 1), ("mediated", 0)])
def test_bring_up_after_a_warm_up_slices_only_the_bar(monkeypatch, mode, carvings):
    # The DMA carving is the same for every machine, so after one build it
    # is never sliced again; the BAR manifest is sliced on every bypass
    # build, and the mediated path's first socket call carves nothing.
    rig(mode)[0].kernel.socket_recv()
    roots = count_slicer_calls(monkeypatch)
    m = build_machine("kern", mode, SUT_ENDPOINT)
    m.kernel.socket_recv()
    assert len(roots) == carvings
    assert all(root == m.kernel.mmio_root for root in roots)


@pytest.mark.parametrize("mode,stores", [("bypass", 14), ("mediated", 12)])
def test_bring_up_preloads_each_ring_in_one_word_run(monkeypatch, mode, stores):
    # The 12 register stores, the bypass attach record's two, and one run of
    # 128 8-byte words per descriptor ring: no per-word preload store is left.
    calls = {"store": [], "store_words": []}
    for name, seen in calls.items():
        def counted(space, *args, _real=getattr(PhysSpace, name), _seen=seen):
            _seen.append(args)
            return _real(space, *args)
        monkeypatch.setattr(PhysSpace, name, counted)
    m = build_machine("kern", mode, SUT_ENDPOINT)
    assert len(calls["store"]) == stores
    dma_root = m.kernel.dma_root
    assert [(cap, width, len(payload), offset) for cap, width, payload, offset
            in calls["store_words"]] == [(dma_root, 8, RING_SIZE * DESC_SIZE, DMA_TX_RING),
                                         (dma_root, 8, RING_SIZE * DESC_SIZE, DMA_RX_RING)]


def test_preload_follows_each_kernels_own_buffers():
    # The ring image follows the buffer address: a kernel elsewhere in RAM,
    # built between two at the usual base, points its descriptors at its own
    # buffers, and each descriptor is zero from its length field on.
    for priv_base in (RAM_BASE, RAM_BASE + 0x40000, RAM_BASE):
        k = new_kernel(default_manifests(), priv_base=priv_base)
        assert k.dma_root.base == priv_base
        for ring, bufs in ((DMA_TX_RING, DMA_TX_BUFS), (DMA_RX_RING, DMA_RX_BUFS)):
            for i in range(RING_SIZE):
                desc = k.space.dma_read(priv_base + ring + i * DESC_SIZE, DESC_SIZE)
                assert desc == (priv_base + bufs + i * BUF_SIZE).to_bytes(8, "little") + bytes(8)


# -- the privileged ioctl -----------------------------------------------------

def test_ioctl_updates_descriptor_address():
    m, kern = rig()
    token = m.kernel.attach(7)
    table = m.kernel.map_mmio(token)
    buf5 = table.by_name("TXBUF[5]")
    m.kernel.ioctl_set_desc_addr(token, "tx", 0, buf5)
    assert desc_addr(m, dma_at(kern, DMA_TX_RING), 0) == buf5.base


@pytest.mark.parametrize("queue,perms,detail", [
    ("rx", Perm.READ, "buffer capability: PERMISSION_DENIED at 0x24800:"
                      " need <Perm.READ|WRITE: 3>, have <Perm.READ: 1>"),
    ("rx", Perm.WRITE, "buffer capability: PERMISSION_DENIED at 0x24800:"
                       " need <Perm.READ|WRITE: 3>, have <Perm.WRITE: 2>"),
    ("tx", Perm.WRITE, "buffer capability: PERMISSION_DENIED at 0x24800:"
                       " need <Perm.READ: 1>, have <Perm.WRITE: 2>"),
], ids=("rx-1-WRITE", "rx-2-READ", "tx-2-READ"))  # queue, perms, and the bit lacking
def test_ioctl_requires_the_authority_the_device_uses_on_the_buffer(queue, perms, detail):
    # The NIC reads a TX buffer and writes an RX buffer, so a capability
    # without that authority must not aim the device's DMA at its bytes.
    m, kern = rig()
    token = m.kernel.attach(7)
    buf = restrict_perms(m.kernel.map_mmio(token).by_name("RXBUF[5]"), perms)
    ring = dma_at(kern, DMA_RX_RING if queue == "rx" else DMA_TX_RING)
    before = desc_addr(m, ring, 0)
    with pytest.raises(ApiError) as err:
        m.kernel.ioctl_set_desc_addr(token, queue, 0, buf)
    assert err.value.code is ErrCode.DENIED
    assert err.value.detail == detail
    assert desc_addr(m, ring, 0) == before


@pytest.mark.parametrize("queue,perms", [("tx", Perm.READ), ("rx", PERM_RW)])
def test_ioctl_accepts_a_buffer_with_the_authority_the_device_uses(queue, perms):
    m, kern = rig()
    token = m.kernel.attach(7)
    buf = restrict_perms(m.kernel.map_mmio(token).by_name("RXBUF[5]"), perms)
    m.kernel.ioctl_set_desc_addr(token, queue, 0, buf)
    ring = dma_at(kern, DMA_RX_RING if queue == "rx" else DMA_TX_RING)
    assert desc_addr(m, ring, 0) == buf.base


def test_ioctl_leaves_every_authority_rule_to_check_access(monkeypatch):
    # An untagged, a sealed, a READ-less and a short buffer, each inside the
    # buffer region: the real check_access denies each, and with it made a
    # no-op the ioctl accepts each, so no other authority rule is left.
    m, kern = rig()
    token = m.kernel.attach(7)
    buf = m.kernel.map_mmio(token).by_name("RXBUF[5]")
    bad = [
        Capability(buf.base, buf.length, buf.cursor, buf.perms, False),
        seal(buf, make_otype_authority(7)),
        restrict_perms(buf, Perm.WRITE),
        derive_bounds(buf, buf.base, BUF_SIZE - 1),
    ]
    ring = dma_at(kern, DMA_RX_RING)
    before = desc_addr(m, ring, 0)
    for cap in bad:
        with pytest.raises(ApiError) as err:
            m.kernel.ioctl_set_desc_addr(token, "rx", 0, cap)
        assert err.value.code is ErrCode.DENIED
        assert desc_addr(m, ring, 0) == before
    monkeypatch.setattr(kernelmod, "check_access", lambda *args: None)
    for i, cap in enumerate(bad):
        m.kernel.ioctl_set_desc_addr(token, "rx", i, cap)
        assert desc_addr(m, ring, i) == cap.base


def test_ioctl_rejects_untagged_disguised_integer():
    m, kern = rig()
    token = m.kernel.attach(7)
    fake = Capability(base=dma_at(kern, DMA_TX_BUFS), length=64, cursor=dma_at(kern, DMA_TX_BUFS),
                      perms=Perm.READ, tag=False)
    before = desc_addr(m, dma_at(kern, DMA_TX_RING), 0)
    with pytest.raises(ApiError) as err:
        m.kernel.ioctl_set_desc_addr(token, "tx", 0, fake)
    assert err.value.code is ErrCode.DENIED
    assert desc_addr(m, dma_at(kern, DMA_TX_RING), 0) == before


def test_ioctl_rejects_capability_outside_buffer_region():
    m, kern = rig()
    token = m.kernel.attach(7)
    table = m.kernel.map_mmio(token)
    # tagged, readable, but bounds a descriptor ring, not a buffer
    ring_cap = table.by_name("TXD_META[3]")
    before = desc_addr(m, dma_at(kern, DMA_TX_RING), 3)
    with pytest.raises(ApiError) as err:
        m.kernel.ioctl_set_desc_addr(token, "tx", 3, ring_cap)
    assert err.value.code is ErrCode.DENIED
    assert desc_addr(m, dma_at(kern, DMA_TX_RING), 3) == before


def test_ioctl_rejects_kernel_ram_capability():
    m, kern = rig()
    token = m.kernel.attach(7)
    alien = Capability(base=0x40, length=2048, cursor=0x40, perms=PERM_RW, tag=True)
    with pytest.raises(ApiError) as err:
        m.kernel.ioctl_set_desc_addr(token, "rx", 1, alien)
    assert err.value.code is ErrCode.DENIED


def test_ioctl_rejects_capability_shorter_than_a_buffer():
    # A 1-byte capability at the last byte of the buffer region lies inside
    # it, but the NIC may DMA BUF_SIZE bytes from its base: past the region,
    # into the attach record the kernel allocated right after it.
    pid = 0x4142434445464748
    link = FrameLink()
    got = capture(link)
    m = build_machine("kern", "bypass", SUT_ENDPOINT, link=link, process_id=pid)
    kern = m.kernel
    last = m.table.by_name(f"RXBUF[{RING_SIZE - 1}]")
    for buf in (derive_bounds(last, last.top - 1, 1),
                derive_bounds(last, last.base, BUF_SIZE - 1)):
        with pytest.raises(ApiError) as err:
            m.kernel.ioctl_set_desc_addr(m.token, "tx", 0, buf)
        assert err.value.code is ErrCode.DENIED
        assert desc_addr(m, dma_at(kern, DMA_TX_RING), 0) == dma_at(kern, DMA_TX_BUFS)
    frame = bytes(1514)
    m.driver.send(frame)
    assert [f for _, f in got[1]] == [frame]
    assert pid.to_bytes(8, "little") not in got[1][0][1]


def test_ioctl_argument_validation():
    m, kern = rig()
    token = m.kernel.attach(7)
    table = m.kernel.map_mmio(token)
    buf = table.by_name("TXBUF[0]")
    with pytest.raises(ApiError) as err:
        m.kernel.ioctl_set_desc_addr(token, "txx", 0, buf)
    assert err.value.code is ErrCode.BAD_ARGUMENT
    with pytest.raises(ApiError) as err:
        m.kernel.ioctl_set_desc_addr(token, "tx", RING_SIZE, buf)
    assert err.value.code is ErrCode.BAD_ARGUMENT


def test_ioctl_requires_valid_token():
    m, kern = rig()
    buf = Capability(base=dma_at(kern, DMA_TX_BUFS), length=64, cursor=dma_at(kern, DMA_TX_BUFS),
                     perms=Perm.READ, tag=True)
    with pytest.raises(ApiError) as err:
        m.kernel.ioctl_set_desc_addr(kern.dma_root, "tx", 0, buf)
    assert err.value.code is ErrCode.DENIED


def test_containment_across_hostile_ioctl_storm():
    m, kern = rig()
    token = m.kernel.attach(7)
    table = m.kernel.map_mmio(token)
    rng = random.Random(1337)
    candidates = [table.by_name(f"TXBUF[{k}]") for k in range(RING_SIZE)]
    for _ in range(300):
        roll = rng.random()
        try:
            if roll < 0.4:
                m.kernel.ioctl_set_desc_addr(token, rng.choice(["tx", "rx"]),
                                             rng.randrange(RING_SIZE),
                                             rng.choice(candidates))
            elif roll < 0.7:
                hostile = Capability(base=rng.randrange(0, 0x90000), length=128,
                                     cursor=0, perms=PERM_RW, tag=True)
                m.kernel.ioctl_set_desc_addr(token, "tx",
                                             rng.randrange(RING_SIZE), hostile)
            else:
                fake = Capability(base=dma_at(kern, DMA_TX_BUFS), length=8, cursor=0,
                                  perms=PERM_RW, tag=False)
                m.kernel.ioctl_set_desc_addr(token, "rx",
                                             rng.randrange(RING_SIZE), fake)
        except ApiError:
            pass
        for k in range(RING_SIZE):
            for ring in (dma_at(kern, DMA_TX_RING), dma_at(kern, DMA_RX_RING)):
                addr = desc_addr(m, ring, k)
                assert dma_at(kern, DMA_TX_BUFS) <= addr < kern.dma_root.top


# -- mediated socket path ---------------------------------------------------------

def test_socket_path_echoes_bytes():
    link = FrameLink(delay_ns=10.0, wire_ns_per_byte=0.0)
    a = build_machine("a", "mediated", SUT_ENDPOINT, link=link)
    b = build_machine("b", "mediated", SUT_ENDPOINT, link=link)
    got = capture(link)
    frame = bytes(range(64))
    a.kernel.socket_send(frame)
    for _, f in got[1]:
        b.nic.deliver_frame(b.space, f)
    assert b.kernel.socket_recv() == [frame]
    assert b.kernel.socket_recv() == []


def test_socket_send_charges_syscalls_and_extra_copy():
    m, kern = rig("mediated")
    frame = bytes(200)
    t0 = m.space.clock
    m.kernel.socket_send(frame)
    elapsed = m.space.clock - t0
    costs = m.space.costs
    # entry+exit, the user->kernel copy, the buffer copy, the device DMA
    # copy, three descriptor stores, and the tail register write
    expected = (2 * costs.syscall_ns + 3 * 200 * costs.copy_per_byte_ns
                + 3 * costs.ram_access_ns + costs.mmio_access_ns)
    assert elapsed == pytest.approx(expected)


def test_socket_send_busy_when_ring_stalls():
    m, kern = rig("mediated")
    # freeze the transmitter so completions never arrive
    m.space.store(with_cursor(kern.mmio_root, kern.mmio_root.base + REG_TCTL), 4, 0)
    for _ in range(RING_SIZE):
        m.kernel.socket_send(b"x" * 32)
    with pytest.raises(ApiError) as err:
        m.kernel.socket_send(b"x" * 32)
    assert err.value.code is ErrCode.BUSY


def test_kernel_invocation_counter():
    m, _ = rig()
    base = m.kernel.invocations
    token = m.kernel.attach(1)
    try:
        m.kernel.map_mmio(token)
    except ApiError:
        pass
    assert m.kernel.invocations == base + 2
