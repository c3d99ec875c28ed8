"""Golden-output gate: the CLI reproduces its committed outputs byte for byte.

Each case in golden/cases.json is replayed in-process through ``cli.main``
and its stdout compared with golden/<name>, with no tolerance.  Regenerate
with ``python scripts/make_golden.py`` and say in the change why a file moved.
"""

import json
from pathlib import Path

import pytest

from cvclone import cli

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, capsys):
    code = cli.main(CASES[name])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / name).read_text(encoding="utf-8")
