#!/usr/bin/env python3
"""Default-sweep fingerprint check.

    python3 perfbench/fingerprint.py            # about 30 s

Runs `capslice sweep` with default flags into a temporary directory and
compares the SHA-256 of results.csv and improvement.csv with the values
pinned in pins.json. A speed-up counts only if both still match. A change
that means to alter the simulated results edits pins.json by hand from the
digests printed here and by run.py (`rows_sha256`), and says why.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import run  # puts the capslice sources on sys.path
from capslice import cli


def sweep_digests() -> dict[str, str]:
    run.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
        if cli.main(["sweep", "--out", tmp]) != 0:
            raise RuntimeError("capslice sweep failed")
        return {f"{name}_csv_sha256": hashlib.sha256(
                    (Path(tmp) / f"{name}.csv").read_bytes()).hexdigest()
                for name in ("results", "improvement")}


def main() -> int:
    if len(sys.argv) > 1:
        sys.exit(f"usage: {sys.argv[0]}  (takes no arguments)")
    pinned = json.loads(run.PINS_PATH.read_text(encoding="utf-8"))["sweep"]
    got = sweep_digests()
    ok = True
    for key, want in pinned.items():
        same = got[key] == want
        ok = ok and same
        print(f"{key} {got[key]} {'matches' if same else 'DIFFERS from pinned ' + want}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
