#!/usr/bin/env python3
"""Regenerate the golden CLI outputs that tests/test_golden.py replays.

Runs every invocation listed in tests/golden/cases.json through
``cvclone.cli.main`` and writes its exact stdout to tests/golden/<name>.
A change that alters a golden file must say why.

Example:
    python scripts/make_golden.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from cvclone import cli  # noqa: E402

GOLDEN = ROOT / "tests" / "golden"


def main() -> int:
    cases = json.loads((GOLDEN / "cases.json").read_text())
    for name, argv in cases.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        if code != 0:
            print(f"{name}: cvclone {' '.join(argv)} exited {code}", file=sys.stderr)
            return 1
        (GOLDEN / name).write_text(out.getvalue(), encoding="utf-8", newline="")
        print(f"wrote {name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
