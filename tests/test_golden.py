"""Golden-output gate: the CLI reproduces its committed outputs byte for byte.

Each case in golden/cases.json is replayed in-process through ``cli.main``
and its stdout compared with golden/<name>, with no tolerance, once with its
flags on the command line and once with them in a ``--config`` file.
Regenerate with ``python scripts/make_golden.py`` and say in the change why a
file moved.
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


def _as_config(flags: list[str]) -> dict:
    """The long flags of a command line as a config object: a flag followed
    by a value takes that value as JSON, or as a string if it is not JSON,
    and a flag followed by another flag is true."""
    config = {}
    for i, token in enumerate(flags):
        if not token.startswith("--"):
            continue
        value = flags[i + 1] if i + 1 < len(flags) else "--"
        if value.startswith("--"):
            config[token[2:]] = True
            continue
        try:
            config[token[2:]] = json.loads(value)
        except json.JSONDecodeError:
            config[token[2:]] = value
    return config


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_from_a_config_file_matches_golden(name, capsys, tmp_path):
    command, *flags = CASES[name]
    config = tmp_path / "run.json"
    config.write_text(json.dumps(_as_config(flags)))
    code = cli.main([command, "--config", str(config)])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / name).read_text(encoding="utf-8")
