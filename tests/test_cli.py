import re
from pathlib import Path

import pytest

from capslice.cli import main

DATA = Path(__file__).resolve().parent.parent / "src" / "capslice" / "data"


def test_validate_shipped_manifest(capsys):
    assert main(["validate", str(DATA / "e1000e.manifest")]) == 0
    assert "ok" in capsys.readouterr().out


def test_validate_reports_violations(tmp_path, capsys):
    bad = tmp_path / "bad.manifest"
    bad.write_text("device x\nbar 0x10\nreg A 0x0 8 RW\nreg B 0x4 4 RW\n")
    assert main(["validate", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "violation" in out and "A" in out and "B" in out


def test_validate_missing_file(capsys):
    assert main(["validate", "/nonexistent/x.manifest"]) == 1


def test_slice_dump_format(capsys):
    assert main(["slice-dump", str(DATA / "e1000e.manifest")]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["CTRL: 0x0, len=4, Read+Write", "STATUS: 0x8, len=4, Read Only",
                     "RDT: 0x2818, len=4, Read+Write", "TDT: 0x3818, len=4, Read+Write"]


def test_unusable_bar_length_exits_1(tmp_path, capsys):
    # A bar below 1 byte fails validation. The huge one is shaped well, but
    # it does not fit the device, and no space can hold it: mmap refuses it
    # before allocating anything.
    path = tmp_path / "bar.manifest"
    for bar in ("0", "-0x10"):
        path.write_text(f"device x\nbar {bar}\n")
        for cmd in ("validate", "slice-dump"):
            assert main([cmd, str(path)]) == 1, (cmd, bar)
            out = capsys.readouterr().out
            assert out.startswith("violation: bar length must be >= 1"), (cmd, bar)
    path.write_text("device x\nbar 0x7fffffffffffffff\n")
    assert main(["validate", str(path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines and all(line.startswith("violation: ") for line in lines)
    assert main(["slice-dump", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {path}: cannot allocate") and not captured.out
    assert "Traceback" not in captured.err


def test_audit_writes_report(tmp_path, capsys):
    assert main(["audit", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out
    report = (tmp_path / "audit.txt").read_text()
    assert "exhaustive-audit" in report


def test_sweep_writes_csvs(tmp_path, capsys):
    code = main(["sweep", "--trials", "10", "--sizes", "64", "--delays", "0",
                 "--out", str(tmp_path)])
    assert code == 0
    results = (tmp_path / "results.csv").read_text().strip().splitlines()
    assert len(results) == 3  # header + one row per mode
    improvement = (tmp_path / "improvement.csv").read_text().strip().splitlines()
    assert len(improvement) == 2


def test_sweep_honors_cost_flags(tmp_path):
    code = main(["sweep", "--trials", "10", "--sizes", "32", "--delays", "0",
                 "--syscall-ns", "0", "--copy-ns-per-byte", "0",
                 "--out", str(tmp_path)])
    assert code == 0
    row = (tmp_path / "improvement.csv").read_text().strip().splitlines()[1]
    assert abs(float(row.split(",")[2])) < 1.0


def test_usage_errors_exit_2(capsys):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    assert main(["sweep", "--trials", "not-a-number"]) == 2
    # The kernel carves the DMA region itself; there is no flag to replace it.
    for cmd in ("sweep", "audit"):
        assert main([cmd, "--dma-manifest", "x.manifest"]) == 2, cmd
        err = capsys.readouterr().err
        assert err.startswith("usage:") and "unrecognized arguments: --dma-manifest" in err
        assert "Traceback" not in err, cmd


def _no_cell_may_run(monkeypatch):
    def fail(*_args, **_kwargs):
        raise AssertionError("a sweep cell ran despite bad input")
    monkeypatch.setattr("capslice.harness.run_cell", fail)


def test_sweep_rejects_bad_grid_before_any_cell_runs(tmp_path, capsys, monkeypatch):
    _no_cell_may_run(monkeypatch)
    bad = [
        ["--trials", "0"],
        ["--trials", "-3"],
        ["--trials", "20001"],
        ["--trials", "30000"],
        ["--modes", "foo"],
        ["--modes", "bypass,foo"],
        ["--modes", ","],
        ["--sizes", "2000"],
        ["--sizes", "64,1473"],
        ["--sizes", "-1"],
        ["--sizes", ","],
        ["--delays", "-5"],
        ["--sizes", "64,64"],
        ["--delays", "0,0"],
        ["--modes", "bypass,bypass"],
        ["--window", "0"],
        ["--syscall-ns", "-1"],
        ["--ram-ns", "nan"],
        ["--link-ns", "inf"],
    ]
    for flags in bad:
        out = tmp_path / "_".join(flags).replace(",", "c")
        assert main(["sweep", *flags, "--out", str(out)]) == 2, flags
        err = capsys.readouterr().err
        assert "error:" in err and flags[0] in err and "Traceback" not in err, flags
        assert not out.exists(), flags


# An --out that names a file, or a path under one, cannot be a directory.
@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
@pytest.mark.parametrize("cmd", [["audit"], ["sweep", "--trials", "1", "--sizes", "1",
                                             "--delays", "0", "--modes", "bypass"]],
                         ids=["audit", "sweep"])
def test_out_that_cannot_be_a_directory_exits_1(tmp_path, capsys, monkeypatch, cmd, under):
    if cmd[0] == "sweep":
        _no_cell_may_run(monkeypatch)  # refused before the grid runs
    existing = tmp_path / "existing"
    existing.write_text("keep me\n")
    out = existing / "sub" if under else existing
    assert main([*cmd, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out}: ") and err.count("\n") == 1  # one line
    assert "Traceback" not in err
    assert existing.read_text() == "keep me\n"


def test_sweep_accepts_grid_edges(tmp_path):
    code = main(["sweep", "--trials", "1", "--sizes", "0,1472", "--delays", "0",
                 "--modes", "bypass", "--out", str(tmp_path)])
    assert code == 0
    rows = (tmp_path / "results.csv").read_text().strip().splitlines()
    assert [r.split(",")[:4] for r in rows[1:]] == [["bypass", "0", "0", "1"],
                                                     ["bypass", "1472", "0", "1"]]


def test_unreadable_manifest_exits_1(tmp_path, capsys, monkeypatch):
    _no_cell_may_run(monkeypatch)
    garbled = tmp_path / "garbled.manifest"
    garbled.write_text("device x\nbar 0x10\nreg A zero 4 RW\n")
    binary = tmp_path / "binary.manifest"
    binary.write_bytes(b"\xff\xfe\x00\x80")
    missing = tmp_path / "missing.manifest"
    for path in (missing, garbled, binary, tmp_path):
        for cmd in (["sweep", "--trials", "1"], ["audit"]):
            argv = [*cmd, "--manifest", str(path), "--out", str(tmp_path / "out")]
            assert main(argv) == 1, argv
            err = capsys.readouterr().err
            assert err.startswith(f"error: {path}") and "Traceback" not in err, argv
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}")
    assert not (tmp_path / "out").exists()


def test_manifest_that_does_not_fit_the_device_exits_1(tmp_path, capsys):
    # It parses and validates, but it covers more than the device's BAR.
    text, n = re.subn(r"^bar 0x20000$", "bar 0x42000", (DATA / "e1000e.manifest").read_text(),
                      flags=re.M)
    assert n == 1
    path = tmp_path / "long-bar.manifest"
    path.write_text(text)
    for cmd in (["sweep", "--trials", "1", "--sizes", "1", "--delays", "0"], ["audit"]):
        out = tmp_path / cmd[0]
        argv = [*cmd, "--manifest", str(path), "--out", str(out)]
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: bad argument:"), argv
        assert "BAR manifest covers 0x42000" in lines[0], argv
        assert "Traceback" not in captured.err, argv
        assert not out.exists(), argv


def test_manifest_that_grants_kernel_bytes_exits_1(tmp_path, capsys):
    # Sound in shape, but it hands userspace the TX ring's base register.
    text, n = re.subn(r"^(reg TDBAL .*)KERNEL", r"\1RW", (DATA / "e1000e.manifest").read_text(),
                      flags=re.M)
    assert n == 1
    path = tmp_path / "TDBAL.manifest"
    path.write_text(text)
    for cmd in (["sweep", "--trials", "1", "--sizes", "1", "--delays", "0"], ["audit"]):
        out = tmp_path / "out"
        argv = [*cmd, "--manifest", str(path), "--out", str(out)]
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: bad argument:"), argv
        assert "TDBAL" in lines[0] and "Traceback" not in captured.err, argv
        assert not out.exists(), argv


def test_validate_checks_device_truth(tmp_path, capsys):
    assert main(["validate", str(DATA / "e1000e.manifest")]) == 0
    assert capsys.readouterr().out.startswith(f"{DATA / 'e1000e.manifest'}: ok")
    # A manifest that grants no RX doorbell is well shaped, but the kernel
    # does not admit it.
    tdt_only = tmp_path / "tdt-only.manifest"
    tdt_only.write_text("device e1000e\nbar 0x20000\nreg TDT 0x3818 4 RW\n")
    assert main(["validate", str(tdt_only)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "violation: BAR manifest grants no read-write RDT of 4+ bytes at 0x2818"]
    # Shape alone passes these; the e1000e device does not.
    cases = [
        ("e1000e.manifest", r"^(reg TDBAL .*)KERNEL", r"\1RW", "TDBAL"),
        ("e1000e.manifest", r"^(reg ICR .*)KERNEL", r"\1RO", "ICR"),
        ("e1000e.manifest", r"^device e1000e", "device virtio", "virtio"),
    ]
    for name, pattern, repl, detail in cases:
        text, n = re.subn(pattern, repl, (DATA / name).read_text(), flags=re.M)
        assert n == 1, pattern
        path = tmp_path / f"{detail}.manifest"
        path.write_text(text)
        assert main(["validate", str(path)]) == 1, detail
        lines = capsys.readouterr().out.splitlines()
        assert lines and all(line.startswith("violation: ") for line in lines), detail
        assert any(detail in line for line in lines), detail


def test_bar_manifest_the_stub_or_driver_cannot_use_exits_1(tmp_path, capsys):
    # A short BAR, a register outside its BAR, two overlapping registers
    # (STATUS would be writable through CTRL), a read-only TX tail, no RX
    # tail, a TX tail at another register's offset, a 2-byte TX tail, and a
    # device register's name at another register's offset (STATUS at CTRL's)
    # or at no register's (IMS granted read-only at 0x4).
    shipped = (DATA / "e1000e.manifest").read_text()
    overlap, n = re.subn(r"^reg CTRL   0x0000 4 RW(.*)\nreg STATUS 0x0008",
                         r"reg CTRL   0x0000 8 RW\1\nreg STATUS 0x0004", shipped, flags=re.M)
    assert n == 1
    tdt_ro, n = re.subn(r"^(reg TDT .*)RW", r"\1RO", shipped, flags=re.M)
    assert n == 1
    no_rdt, n = re.subn(r"^reg RDT .*\n", "", shipped, flags=re.M)
    assert n == 1
    ims_elsewhere, n = re.subn(r"^reg IMS .*$", "reg IMS 0x0004 4 RO", shipped, flags=re.M)
    assert n == 1
    cases = {
        "short-bar": ("device e1000e\nbar 0x100\nreg CTRL 0x0 4 RW\n", "TDT"),
        "outside-bar": ("device e1000e\nbar 0x100\nreg CTRL 0x0 4 RW\n"
                        "reg TDT 0x3818 4 RW\n", "outside bar"),
        "overlap": (overlap, "CTRL and STATUS overlap"),
        "tdt-read-only": (tdt_ro, "TDT"),
        "other-device": (shipped.replace("device e1000e", "device virtio", 1), "virtio"),
        "no-rdt": (no_rdt, "RDT"),
        "tdt-elsewhere": ("device e1000e\nbar 0x20000\nreg CTRL 0x0 4 RO\n"
                          "reg TDT 0x0004 4 RW\nreg RDT 0x2818 4 RW\n", "TDT"),
        "tdt-short": ("device e1000e\nbar 0x20000\nreg RDT 0x2818 4 RW\n"
                      "reg TDT 0x3818 2 RW\n", "TDT"),
        "status-at-ctrl": ("device e1000e\nbar 0x20000\nreg STATUS 0x0000 4 RO\n"
                           "reg RDT 0x2818 4 RW\nreg TDT 0x3818 4 RW\n", "STATUS"),
        "ims-elsewhere": (ims_elsewhere, "IMS"),
    }
    for label, (text, detail) in cases.items():
        path = tmp_path / f"{label}.manifest"
        path.write_text(text)
        # `validate` exits 1 on exactly what bring-up refuses.
        assert main(["validate", str(path)]) == 1, label
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines and all(line.startswith("violation: ") for line in lines), label
        assert any(detail in line for line in lines) and not captured.err, label
        for cmd in (["sweep", "--trials", "1", "--sizes", "1", "--delays", "0"], ["audit"]):
            out = tmp_path / "out"
            argv = [*cmd, "--manifest", str(path), "--out", str(out)]
            assert main(argv) == 1, argv
            captured = capsys.readouterr()
            lines = captured.err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: bad argument:"), argv
            assert detail in lines[0] and "Traceback" not in captured.err, argv
            assert not out.exists(), argv


# Manifests that withhold CTRL, then STATUS too: each passes `validate` and
# runs under `sweep`, so `audit` must run on it as well.
WITHHOLDING = {
    "no-ctrl": "device e1000e\nbar 0x20000\nreg RDT 0x2818 4 RW\nreg TDT 0x3818 4 RW\n",
    "no-status": "device e1000e\nbar 0x20000\nreg CTRL 0x0 4 RW\n"
                 "reg RDT 0x2818 4 RW\nreg TDT 0x3818 4 RW\n",
}


@pytest.mark.parametrize("label", sorted(WITHHOLDING))
def test_audit_of_a_manifest_withholding_ctrl_or_status_passes(tmp_path, capsys, label):
    path = tmp_path / f"{label}.manifest"
    path.write_text(WITHHOLDING[label])
    assert main(["validate", str(path)]) == 0
    assert main(["audit", "--manifest", str(path), "--out", str(tmp_path / "out")]) == 0
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err and "[FAIL]" not in captured.out
    # The offset attack probes IMS, 0xD0 into the BAR, from a writable slice.
    attack = re.search(r"\[PASS\] offset-attack: BOUNDS_VIOLATION at (0x[0-9a-f]+)\n",
                       captured.out)
    assert attack and int(attack[1], 16) % 0x1000 == 0xD0
    assert "[PASS] readonly-status: STATUS withheld\n" in captured.out


# A link delay whose round trip reaches 2**53 ns, where a float clock no
# longer holds every nanosecond, or overflows to inf.
@pytest.mark.parametrize("link_ns", ["1e308", "1e16"])
def test_sweep_whose_clock_leaves_exact_nanoseconds_exits_2(tmp_path, capsys, link_ns):
    out = tmp_path / "out"
    argv = ["sweep", "--link-ns", link_ns, "--trials", "1", "--sizes", "1", "--delays", "0",
            "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("capslice sweep: error: ") and "2**53" in captured.err
    assert "Traceback" not in captured.err
    assert not out.exists()


def test_sweep_lets_any_other_value_error_propagate(tmp_path, monkeypatch):
    # Only the clock refusal is a usage error; a ValueError from a program
    # defect inside a cell must surface as a crash, not as exit 2.
    from capslice import harness

    def broken_cell(*args, **kwargs):
        raise ValueError("run maps to no single region")

    monkeypatch.setattr(harness, "run_cell", broken_cell)
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="no single region"):
        main(["sweep", "--trials", "1", "--sizes", "1", "--delays", "0", "--out", str(out)])
    assert not out.exists()
