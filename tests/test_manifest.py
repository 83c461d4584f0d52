import re
from importlib import resources
from typing import Optional

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from capslice import kernel
from capslice.harness import data_manifest
from capslice.manifest import (
    ExpandedRange,
    Manifest,
    ManifestError,
    PermClass,
    Repeat,
    SliceEntry,
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


def test_validate_refuses_a_repeated_name_as_parse_does():
    text = "device x\nbar 0x1000\nreg R1 0x0 4 RW\nreg R1 0x10 4 RO\n"
    with pytest.raises(ManifestError, match="duplicate register name 'R1'"):
        parse(text)
    twice = Manifest("x", 0x1000, (SliceEntry("R1", 0x0, 4, PermClass.RW),
                                   SliceEntry("R1", 0x10, 4, PermClass.RO)))
    assert validate(twice) == ["duplicate register name 'R1'"]


def test_parse_of_equal_text_is_the_identical_manifest():
    # Built afresh, so the two texts are equal but not the same object.
    text = "".join(["device x\n", "bar 0x1000\n", "reg A 0x0 4 RW\n"])
    assert parse(text) is parse(text[:-1] + "\n")


def test_bad_text_raises_on_every_parse():
    for _ in range(2):
        with pytest.raises(ManifestError, match="missing bar directive"):
            parse("device x\n")


# -- parse against a reference ---------------------------------------------------
# The parser as it was before its permission lookup became a table and its
# repeat/stride split became `str.partition`: one `PermClass(...)` call per
# line and two `re.fullmatch` calls per repeat line. Both parsers must give
# an equal Manifest or the same ManifestError text and line.

_REF_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def _ref_parse_int(token: str, what: str, line: int) -> int:
    try:
        return int(token, 0)
    except ValueError:
        raise ManifestError(f"{what} {token!r} is not a number", line) from None


def reference_parse(text: str) -> Manifest:
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
            bar_length = _ref_parse_int(fields[1], "bar length", lineno)
        elif directive == "reg":
            if len(fields) not in (5, 7):
                raise ManifestError(
                    "expected: reg <name> <hex-offset> <dec-size> <RW|RO|KERNEL>"
                    " [repeat=<count> stride=<hex>]", lineno)
            name = fields[1]
            if not _REF_NAME_RE.match(name):
                raise ManifestError(f"bad register name {name!r}", lineno)
            if name in seen:
                raise ManifestError(f"duplicate register name {name!r}", lineno)
            seen.add(name)
            offset = _ref_parse_int(fields[2], "offset", lineno)
            size = _ref_parse_int(fields[3], "size", lineno)
            try:
                perm = PermClass(fields[4])
            except ValueError:
                raise ManifestError(f"unknown permission class {fields[4]!r}", lineno) from None
            repeat = None
            if len(fields) == 7:
                m_count = re.fullmatch(r"repeat=(\S+)", fields[5])
                m_stride = re.fullmatch(r"stride=(\S+)", fields[6])
                if not m_count or not m_stride:
                    raise ManifestError("expected repeat=<count> stride=<hex>", lineno)
                repeat = Repeat(
                    count=_ref_parse_int(m_count.group(1), "repeat count", lineno),
                    stride=_ref_parse_int(m_stride.group(1), "stride", lineno),
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


SHIPPED = (resources.files("capslice").joinpath("data", "e1000e.manifest")
           .read_text(encoding="utf-8"))


def _parse_outcome(parser, text):
    try:
        return "manifest", parser(text)
    except ManifestError as err:
        return "error", str(err), err.line


# Mostly well-formed lines, so that most texts reach the permission and
# repeat fields; each kind of defect is drawn now and then.
def rarely(common, rare, one_in=8):
    """`rare` in one draw of `one_in`, else `common`."""
    return st.builds(lambda k, c, r: r if k == 0 else c, st.integers(0, one_in - 1), common, rare)


names = rarely(st.builds(str.__add__, st.sampled_from(("CTRL", "TDT", "_b", "Q", "z")),
                         st.sampled_from(("",) + tuple(str(k) for k in range(16)))),
               st.sampled_from(("9X", "a-b", "x.y", "TDT")))
numbers = rarely(st.sampled_from(("0x0", "0x10", "0x3818", "4", "8", "64", "0", "1", "0x4000")),
                 st.sampled_from(("-1", "0b11", "1_0", "zz", "0x", "08", "")))
perm_texts = rarely(st.sampled_from(("RW", "RO", "KERNEL")),
                    st.sampled_from(("rw", "Ro", "kernel", "WR", "R", "RWX", "READ", "RW=",
                                     "ＲＷ")))
# Malformed repeat fields: one field with its value empty, an extra `=`, its
# key upper-case or its `=` dropped; both fields swapped; or any one to three
# `key<sep>value` fields.
_FIELD_DEFECTS = (
    lambda key, value: f"{key}=",
    lambda key, value: f"{key}=={value}",
    lambda key, value: f"{key}={value}=",
    lambda key, value: f"{key.upper()}={value}",
    lambda key, value: f"{key.capitalize()}={value}",
    lambda key, value: f"{key}{value}",
    lambda key, value: f"={value}",
)


def _one_bad_field(count, stride, which, defect):
    fields = [("repeat", count), ("stride", stride)]
    return [defect(*kv) if i == which else f"{kv[0]}={kv[1]}" for i, kv in enumerate(fields)]


keys = st.sampled_from(("repeat", "stride", "REPEAT", "Stride", "repeats", ""))
seps = st.sampled_from(("=", "=", "=", "", "==", ":"))
values = st.one_of(numbers, st.sampled_from(("=3", "3=4", "0x10=", "=")))
one_bad_field = st.builds(_one_bad_field, numbers, numbers, st.integers(0, 1),
                          st.sampled_from(_FIELD_DEFECTS))
bad_tails = st.one_of(
    one_bad_field,
    one_bad_field,
    st.builds(lambda c, s: [f"stride={s}", f"repeat={c}"], numbers, numbers),
    st.lists(st.builds(str.__add__, st.builds(str.__add__, keys, seps), values),
             min_size=1, max_size=3),
)
tails = rarely(st.one_of(st.just([]), st.builds(lambda c, s: [f"repeat={c}", f"stride={s}"],
                                                numbers, numbers)),
               bad_tails, 4)
reg_lines = st.builds(
    lambda name, off, size, perm, tail: " ".join(["reg", name, off, size, perm] + tail),
    names, numbers, numbers, perm_texts, tails)
other_lines = st.one_of(
    st.sampled_from(("", "   ", "# comment", "\t# indented comment", "device x", "bar 0x100",
                     "device", "bar 0x1 0x2", "foo A", "REG A 0x0 4 RW")),
    st.text(alphabet=st.sampled_from("reg =#x0RW\t\x0b\x1c\u2028\u00a0A"), max_size=16))
comments = st.sampled_from(("", "", "", " # trailing", "# glued", "\t#"))
lines = st.builds(str.__add__, rarely(reg_lines, other_lines), comments)
texts = st.builds(
    lambda head, body, newline: newline.join(head + body),
    st.sampled_from((["device e1000e", "bar 0x20000"], ["device e1000e", "bar 0x20000"],
                     ["bar 0x4000", "# c", "device x"], ["device x"], [])),
    st.lists(lines, max_size=5),
    st.sampled_from(("\n", "\r\n", "\n\n")))


@settings(max_examples=400, deadline=None)
@given(text=texts)
@example(text=SHIPPED)
@example(text="device x\nbar 0x4000\nreg TXD 0x3900 8 RW repeat=64 stride=0x10\n")
@example(text="device x\nbar 0x4000\nreg TXD 0x0 8 RW repeat= stride=0x10\n")
@example(text="device x\nbar 0x4000\nreg TXD 0x0 8 RW stride=0x10 repeat=2\n")
@example(text="device x\nbar 0x4000\nreg TXD 0x0 8 RW REPEAT=2 stride=0x10\n")
@example(text="device x\nbar 0x4000\nreg TXD 0x0 8 RW repeat=2 Stride=0x10\n")
@example(text="device x\nbar 0x4000\nreg TXD 0x0 8 RW repeat==2 stride=0x10\n")
@example(text="device x\nbar 0x4000\nreg TXD 0x0 8 RW repeat=2= stride=0x10\n")
@example(text="device x\nbar 0x4000\nreg TXD 0x0 8 RW repeat stride\n")
@example(text="device x\nbar 0x4000\nreg TXD 0x0 8 rw\n")
@example(text="device x\nbar 0x4000\nreg TXD 0x0 8 KERNEL repeat=2 stride=0x10\n")
def test_parse_agrees_with_the_reference_parser(text):
    assert _parse_outcome(parse, text) == _parse_outcome(reference_parse, text)


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
