#!/usr/bin/env python3
"""Rewrite tests/golden/manifest.json from the current code.

The manifest pins the SHA-256 of every reference output that
tests/test_golden.py checks.  Regenerate it only when a change is meant
to alter those outputs, and say why in CHANGES.md.  The script prints
each digest it added, changed or dropped against the manifest it
replaces, so the outputs that moved can be named.  The manifest's
platform also records a libm fingerprint (test_golden.libm_fingerprint),
so a later mismatch can say whether libm differs from this platform's.

Run from the repository root:

    PYTHONPATH=src python3 scripts/regen_golden.py
"""

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

import test_golden  # noqa: E402


def digest_changes(old: dict[str, str], new: dict[str, str]) -> list[str]:
    """One line per digest added, changed or dropped from old to new, by name."""
    lines = []
    for name in sorted(old.keys() | new.keys()):
        if name not in old:
            lines.append(f"added {name}")
        elif name not in new:
            lines.append(f"dropped {name}")
        elif old[name] != new[name]:
            lines.append(f"changed {name}")
    return lines


def main() -> int:
    path = test_golden.MANIFEST
    old = json.loads(path.read_text(encoding="ascii"))["digests"] if path.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        manifest = test_golden.write_manifest(Path(tmp), path)
    stamp = manifest["platform"]
    print(f"wrote {path} ({len(manifest['digests'])} digests, {stamp['platform']}, "
          f"libm fingerprint {stamp['libm_fingerprint'][:16]})")
    print("\n".join(digest_changes(old, manifest["digests"])) or "no digest changed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
