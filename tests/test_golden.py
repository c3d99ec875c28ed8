"""Golden-output gate: the CLI reproduces its committed outputs byte for byte.

Each case in golden/cases.json is replayed in-process through ``cli.main``
and its stdout compared with golden/<name>, with no tolerance, once with its
flags on the command line and once with them in a ``--config`` file.
Regenerate with ``python scripts/make_golden.py`` and say in the change why a
file moved.  The non-Monte-Carlo cases also give the same bytes under other
OpenBLAS kernels.
"""

import json
import os
import subprocess
import sys
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


# montecarlo's fit and mean sums are BLAS dots, whose order of addition is
# the OpenBLAS kernel's, picked from the CPU at load time; so the two mc
# cases are byte-identical only on one kernel, and are left out here
_KERNEL_FREE = sorted(name for name in CASES if not name.startswith("mc-"))

_RUN_CASES = """
import contextlib, io, json, sys
from cvclone import cli
outs = {}
for name, argv in json.loads(sys.argv[1]).items():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0, name
    outs[name] = out.getvalue()
print(json.dumps(outs))
"""


@pytest.mark.parametrize("kernel", ["Haswell", "Prescott"])
def test_non_mc_golden_outputs_do_not_depend_on_the_blas_kernel(kernel):
    # OPENBLAS_CORETYPE picks the kernel for the child process alone
    src = str(Path(cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "OPENBLAS_CORETYPE": kernel, "PYTHONPATH": path}
    cases = json.dumps({name: CASES[name] for name in _KERNEL_FREE})
    child = subprocess.run(
        [sys.executable, "-c", _RUN_CASES, cases], env=env, capture_output=True, text=True
    )
    assert child.returncode == 0, child.stderr
    outs = json.loads(child.stdout)
    for name in _KERNEL_FREE:
        assert outs[name] == (GOLDEN / name).read_text(encoding="utf-8"), name
