#!/usr/bin/env python3
"""Rewrite tests/golden/manifest.json from the current code.

The manifest pins the SHA-256 of every reference output that
tests/test_golden.py checks.  Regenerate it only when a change is meant
to alter those outputs, and say why in CHANGES.md.

Run from the repository root:

    PYTHONPATH=src python3 scripts/regen_golden.py
"""

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

import test_golden  # noqa: E402


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        manifest = test_golden.write_manifest(Path(tmp))
    print(f"wrote {test_golden.MANIFEST} ({len(manifest['digests'])} digests, "
          f"{manifest['platform']['platform']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
