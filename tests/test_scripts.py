"""The figure scripts run end to end, loaded by path as a user runs them."""

import csv
import importlib.util
import json
import math
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run(monkeypatch, name, *argv):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr("sys.argv", [f"{name}.py", *argv])
    return script.main()


def test_figure3_script_writes_the_sweep_csv(monkeypatch, tmp_path, capsys):
    out = tmp_path / "fig3.csv"
    assert _run(monkeypatch, "figure3_sweep", "--trajectories", "500", "--out", str(out)) == 0
    assert capsys.readouterr().out.startswith(f"wrote 13 rows to {out}\n")
    with open(out, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    assert reader.fieldnames == [
        "sqrt_v", "v", "t1", "gain", "f_ideal", "f_imperfect", "f_classical", "f_mc", "se_mc",
    ]
    assert len(rows) == 13
    assert float(rows[0]["sqrt_v"]) == pytest.approx(0.5)
    assert float(rows[-1]["sqrt_v"]) == pytest.approx(2.3)
    for row in rows:
        se = float(row["se_mc"])
        assert 0.0 < se < 0.05
        assert abs(float(row["f_mc"]) - float(row["f_imperfect"])) <= 5.0 * se


def test_figure4_script_prints_the_noise_report(monkeypatch, capsys):
    assert _run(monkeypatch, "figure4_noise", "--trajectories", "1000") == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {
        "ideal_noise_db", "imperfect_noise_db", "f_ideal", "f_imperfect",
        "f_classical", "f_bound", "lambda_x", "f_mc", "se_mc",
    }
    assert all(math.isfinite(value) for value in report.values())
    assert abs(report["f_mc"] - report["f_imperfect"]) <= 5.0 * report["se_mc"]


@pytest.mark.parametrize(
    "name, argv, message",
    [
        ("figure3_sweep", ["--trajectories", "0"], "n_traj must lie in [1, 100000000], got 0"),
        ("figure4_noise", ["--eta", "0"], "eta_ff must lie in (0, 1], got 0.0"),
        # exit 0 with no f_mc before; 0 still skips the Monte Carlo
        ("figure4_noise", ["--trajectories", "-3"],
         "n_traj must be non-negative (0 skips the Monte Carlo), got -3"),
        # printed "imperfect_noise_db": NaN and exited 0 before
        ("figure4_noise", ["--lambda-x", "1e160"], "clone gains and variances must be finite"),
        # named the derived gain before: "electronic gains must be finite"
        ("figure4_noise", ["--lambda-x", "nan"], "lambda_x must be finite, got nan"),
        ("figure4_noise", ["--lambda-x", "inf"], "lambda_x must be finite, got inf"),
        # numpy's allocation traceback and exit 1 before
        ("figure3_sweep", ["--steps", "100000000000"],
         "--steps must lie in [1, 100000], got 100000000000"),
        # wrote a header-only CSV and exited 0 before
        ("figure3_sweep", ["--steps", "0"], "--steps must lie in [1, 100000], got 0"),
        # squared the bounds and reported rows at sqrtV = 2 and 1 before
        ("figure3_sweep", ["--sqrt-vmin", "-2", "--sqrt-vmax", "-1"],
         "--sqrt-vmin must be positive, got -2.0"),
        # printed "se_mc": 0.0 and exited 0 before; one trajectory has no
        # standard error
        ("figure4_noise", ["--trajectories", "1"],
         "n_traj must be 0 (no Monte Carlo) or at least 2, got 1"),
    ],
)
def test_figure_scripts_exit_2_on_out_of_domain_input(
    monkeypatch, tmp_path, capsys, name, argv, message
):
    # a ValueError traceback and exit 1 before
    monkeypatch.chdir(tmp_path)  # figure3's default --out is relative
    with pytest.raises(SystemExit) as exit_info:
        _run(monkeypatch, name, *argv)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"{name}.py: error: {message}\n")
    assert list(tmp_path.iterdir()) == []
