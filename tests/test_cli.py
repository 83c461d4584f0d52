import re
from pathlib import Path

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
    assert main(["slice-dump", str(DATA / "e1000e-example.manifest")]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    assert lines[0].endswith("len=4, Read+Write") and lines[0].startswith("CTRL: 0x")
    assert lines[1].endswith("len=4, Read Only")
    assert not any(line.startswith("IMS") for line in lines)


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


def test_usage_errors_exit_2():
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    assert main(["sweep", "--trials", "not-a-number"]) == 2


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
            for flag in ("--manifest", "--dma-manifest"):
                argv = [*cmd, flag, str(path), "--out", str(tmp_path / "out")]
                assert main(argv) == 1, argv
                err = capsys.readouterr().err
                assert err.startswith(f"error: {path}") and "Traceback" not in err, argv
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}")
    assert not (tmp_path / "out").exists()


def test_manifest_that_does_not_fit_the_device_exits_1(tmp_path, capsys):
    # Both parse, but the DMA layout is not a register map and vice versa.
    cases = [
        (["sweep", "--trials", "1", "--sizes", "1", "--delays", "0",
          "--dma-manifest", str(DATA / "e1000e.manifest")], "DMA manifest covers 0x20000"),
        (["audit", "--manifest", str(DATA / "e1000e-dma.manifest")],
         "BAR manifest covers 0x42000"),
    ]
    for argv, detail in cases:
        out = tmp_path / argv[0]
        assert main([*argv, "--out", str(out)]) == 1, argv
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: bad argument:"), argv
        assert detail in lines[0] and "Traceback" not in captured.err, argv
        assert not out.exists(), argv


def test_manifest_that_grants_kernel_bytes_exits_1(tmp_path, capsys):
    # Each manifest is sound in shape, but hands userspace a privileged
    # register, a descriptor address word, or a layout without TX buffers.
    cases = [
        ("--manifest", "e1000e.manifest", r"^(reg TDBAL .*)KERNEL", r"\1RW", "TDBAL"),
        ("--dma-manifest", "e1000e-dma.manifest", r"^(reg TXD_ADDR .*)KERNEL", r"\1RW",
         "TXD_ADDR"),
        ("--dma-manifest", "e1000e-dma.manifest", r"^reg TXBUF .*\n", "", "TXBUF"),
    ]
    for flag, name, pattern, repl, detail in cases:
        text, n = re.subn(pattern, repl, (DATA / name).read_text(), flags=re.M)
        assert n == 1, pattern
        path = tmp_path / f"{detail}.manifest"
        path.write_text(text)
        for cmd in (["sweep", "--trials", "1", "--sizes", "1", "--delays", "0"], ["audit"]):
            out = tmp_path / "out"
            argv = [*cmd, flag, str(path), "--out", str(out)]
            assert main(argv) == 1, argv
            captured = capsys.readouterr()
            lines = captured.err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: bad argument:"), argv
            assert detail in lines[0] and "Traceback" not in captured.err, argv
            assert not out.exists(), argv
