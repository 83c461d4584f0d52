import pytest

from capslice import kernel
from capslice.harness import data_manifest
from capslice.manifest import (
    ExpandedRange,
    ManifestError,
    PermClass,
    Repeat,
    expand,
    parse,
    validate,
)

EXAMPLE = """\
device e1000e
bar 0x20000
reg CTRL 0x0000 4 RW
reg STATUS 0x0008 4 RO
reg IMS 0x00D0 4 KERNEL
reg TDT 0x3818 4 RW
"""


def test_parse_example_manifest():
    m = parse(EXAMPLE)
    assert m.device_name == "e1000e"
    assert m.bar_length == 0x20000
    assert [e.name for e in m.entries] == ["CTRL", "STATUS", "IMS", "TDT"]
    assert [e.perm for e in m.entries] == [
        PermClass.RW, PermClass.RO, PermClass.KERNEL, PermClass.RW]
    assert validate(m) == []


def test_parse_headers_only():
    m = parse("device x\nbar 0x1000\n")
    assert m.entries == ()


def test_parse_comments_and_blank_lines():
    m = parse("# top\ndevice x # trailing\n\nbar 0x100\nreg A 0x0 4 RW # yes\n")
    assert m.entries[0].name == "A"


def test_parse_repeat_entry():
    m = parse("device x\nbar 0x4000\nreg TXD 0x3900 8 RW repeat=64 stride=0x10\n")
    (entry,) = m.entries
    assert entry.repeat == Repeat(64, 16)
    assert len(expand(m)) == 64


@pytest.mark.parametrize("text,fragment", [
    ("device x\nbar 0x100\nfoo A\n", "unknown directive"),
    ("device x\nbar 0x100\nreg A 0x0 4 RW\nreg A 0x8 4 RW\n", "duplicate register"),
    ("device x\nbar 0x100\nreg A zz 4 RW\n", "not a number"),
    ("device x\nbar 0x100\nreg A 0x0 4 WR\n", "unknown permission"),
    ("device x\nbar 0x100\nreg A 0x0 4 RW repeat=2\n", "expected"),
    ("bar 0x100\n", "missing device"),
    ("device x\n", "missing bar"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(ManifestError) as err:
        parse(text)
    assert fragment in str(err.value)


def test_parse_error_reports_line_number():
    with pytest.raises(ManifestError) as err:
        parse("device x\nbar 0x100\n# ok\nbogus\n")
    assert err.value.line == 4


def test_entries_sorted_by_offset():
    m = parse("device x\nbar 0x100\nreg B 0x10 4 RW\nreg A 0x0 4 RW\n")
    assert [e.name for e in m.entries] == ["A", "B"]


# -- validate -----------------------------------------------------------------

def test_validate_overlap_names_both_entries():
    m = parse("device x\nbar 0x100\nreg A 0x4 8 RW\nreg B 0x8 4 RO\n")
    (violation,) = validate(m)
    assert "A" in violation and "B" in violation


def test_validate_overlap_with_kernel_entry():
    # a byte cannot be both kernel-only and userspace-visible
    m = parse("device x\nbar 0x100\nreg A 0x0 8 KERNEL\nreg B 0x4 4 RW\n")
    assert len(validate(m)) == 1


def test_validate_containment_at_boundary():
    m = parse("device x\nbar 0x20000\nreg A 0x1FFFE 4 RW\n")
    (violation,) = validate(m)
    assert "outside" in violation


def test_validate_stride_smaller_than_size():
    m = parse("device x\nbar 0x1000\nreg A 0x0 8 RW repeat=4 stride=0x4\n")
    assert any("stride" in v for v in validate(m))


def test_validate_repeat_expansion_overlaps():
    m = parse("device x\nbar 0x1000\nreg A 0x0 8 RW repeat=4 stride=0x10\n"
              "reg B 0x14 4 RO\n")
    assert any("A[1]" in v and "B" in v for v in validate(m))


def test_validate_repeat_outside_bar_is_one_violation():
    # checked before expansion: a million-instance entry costs one line
    m = parse("device x\nbar 0x1000\nreg A 0x0 4 RW repeat=1000000 stride=0x4\n")
    assert validate(m) == ["A: range [0x0,0x3d0900) outside bar [0,0x1000)"]


def test_validate_returns_every_violation():
    m = parse("device x\nbar 0x10\nreg A 0x0 8 RW\nreg B 0x4 4 RW\nreg C 0x20 4 RW\n")
    violations = validate(m)
    assert len(violations) == 2  # overlap and containment


# -- expand -------------------------------------------------------------------

def test_expand_withholds_kernel_entries():
    m = parse(EXAMPLE)
    ranges = expand(m)
    assert [r.name for r in ranges] == ["CTRL", "STATUS", "TDT"]
    assert ExpandedRange("IMS", 0xD0, 4, PermClass.KERNEL) not in ranges


def test_expand_repeat_offsets():
    m = parse("device x\nbar 0x4000\nreg D 0x3908 8 RW repeat=4 stride=0x10\n")
    assert [(r.name, r.offset) for r in expand(m)] == [
        ("D[0]", 0x3908), ("D[1]", 0x3918), ("D[2]", 0x3928), ("D[3]", 0x3938)]


def test_expand_repeat_one_equals_plain_entry():
    plain = parse("device x\nbar 0x100\nreg A 0x8 4 RW\n")
    once = parse("device x\nbar 0x100\nreg A 0x8 4 RW repeat=1 stride=0x10\n")
    assert expand(plain) == expand(once)


def test_expand_is_deterministic():
    text = "device x\nbar 0x1000\nreg A 0x0 8 RW repeat=8 stride=0x20\nreg B 0x10 4 RO\n"
    assert expand(parse(text)) == expand(parse(text))


# -- shipped files ----------------------------------------------------------------

def test_shipped_register_manifest_is_valid():
    m = data_manifest("e1000e.manifest")
    assert m.bar_length == 0x20000
    assert validate(m) == []
    names = {e.name: e for e in m.entries}
    assert names["CTRL"].offset == 0x0000 and names["CTRL"].perm is PermClass.RW
    assert names["STATUS"].offset == 0x0008 and names["STATUS"].perm is PermClass.RO
    assert names["IMS"].offset == 0x00D0 and names["IMS"].perm is PermClass.KERNEL
    assert names["TDT"].offset == 0x3818 and names["TDT"].perm is PermClass.RW


def test_shipped_dma_manifest_matches_kernel_layout():
    m = kernel.DMA_MANIFEST
    assert validate(m) == []
    assert m.bar_length == kernel.DMA_LENGTH
    ranges = expand(m)
    by_name = {r.name: r for r in ranges}
    assert len(by_name) == len(ranges) == 4 * kernel.RING_SIZE
    for k in range(kernel.RING_SIZE):
        assert by_name[f"TXD_META[{k}]"].offset == kernel.DMA_TX_RING + k * 16 + 8
        assert by_name[f"RXD_META[{k}]"].offset == kernel.DMA_RX_RING + k * 16 + 8
        assert by_name[f"TXBUF[{k}]"].offset == kernel.DMA_TX_BUFS + k * kernel.BUF_SIZE
        assert by_name[f"RXBUF[{k}]"].offset == kernel.DMA_RX_BUFS + k * kernel.BUF_SIZE
    # every range is read-write, and no ring range reaches an address word
    assert all(r.perm is PermClass.RW for r in ranges)
    assert all(r.offset % 16 == 8 and r.size == 8
               for r in ranges if r.offset < kernel.DMA_TX_BUFS)


def test_shipped_example_manifest_matches_docs():
    m = data_manifest("e1000e-example.manifest")
    assert validate(m) == []
    assert [r.name for r in expand(m)] == ["CTRL", "STATUS", "TDT"]
