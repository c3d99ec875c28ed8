"""Each output check accepts a correct output and rejects a corrupted one."""

import contextlib
import io
import json
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import cvclone
import cvclone.cli
import workloads
from workloads import check_clone_stats, check_figure3_rows, check_mc, check_verify


def _cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cvclone.cli.main(argv)
    return code, buf.getvalue()


@pytest.fixture(scope="module")
def mc_output():
    argv = list(workloads.MC_ARGV)
    argv[argv.index("--trajectories") + 1] = "2000"
    return _cli(argv + ["--seed", "5"])


def test_mc_check_accepts_a_real_run(mc_output):
    assert check_mc(*mc_output) == []


def test_mc_check_rejects_nan_in_the_json(mc_output):
    code, text = mc_output
    report = json.loads(text)
    report["z_scores"]["sigma_x"] = math.nan
    assert check_mc(code, json.dumps(report))  # json.dumps writes NaN


def test_mc_check_rejects_infinity_and_missing_keys(mc_output):
    code, text = mc_output
    report = json.loads(text)
    report["empirical"]["fidelity"] = math.inf
    assert check_mc(code, json.dumps(report))
    del report["empirical"]["fidelity"]
    del report["z_scores"]["lambda_x"]
    assert check_mc(code, json.dumps(report))


def test_mc_check_rejects_exit_1_and_a_large_z(mc_output):
    code, text = mc_output
    assert check_mc(1, text)
    report = json.loads(text)
    report["z_scores"]["fidelity"] = 5.5
    assert check_mc(code, json.dumps(report))


def test_verify_check():
    code, text = _cli(["verify"])
    assert check_verify(code, text) == []
    assert check_verify(1, text)
    assert check_verify(code, text.replace("all checks passed", "verification FAILED"))


@pytest.fixture(scope="module")
def figure3_rows():
    sqrt_v = np.linspace(0.5, 2.3, workloads.FIGURE3_STEPS)
    return cvclone.reproduce_figure3((sqrt_v**2).tolist(), n_traj=2000, seed=3)


def _optimum(v):
    return cvclone.optimal_gaussian_fidelity(v).fidelity


def test_figure3_check_accepts_real_rows(figure3_rows):
    assert check_figure3_rows(figure3_rows, _optimum) == []


def test_figure3_check_rejects_a_row_out_by_six_standard_errors(figure3_rows):
    rows = [dict(r) for r in figure3_rows]
    rows[4]["f_mc"] = rows[4]["f_imperfect"] + 6.0 * rows[4]["se_mc"]
    problems = check_figure3_rows(rows, _optimum)
    assert len(problems) == 1 and "f_mc" in problems[0]


def test_figure3_check_rejects_a_wrong_ideal_column_and_a_missing_row(figure3_rows):
    rows = [dict(r) for r in figure3_rows]
    rows[0]["f_ideal"] += 1e-9
    assert check_figure3_rows(rows, _optimum)
    assert check_figure3_rows(figure3_rows[:-1], _optimum)


def _shots(stats, input_mean, n=500, seed=0):
    rng = np.random.default_rng(seed)
    cond = np.array([0.4, 0.6])
    lam = np.array([stats.lambda_x, stats.lambda_p])
    scatter = np.array([stats.sigma_x, stats.sigma_p]) - cond
    means = lam * np.asarray(input_mean) + rng.standard_normal((n, 2)) * np.sqrt(scatter)
    return means, np.tile(cond, (n, 1))


def test_clone_stats_check_accepts_matching_shots_and_rejects_shifted_ones():
    stats = SimpleNamespace(lambda_x=0.8, lambda_p=0.7, sigma_x=1.6, sigma_p=1.5)
    means, cond = _shots(stats, (2.0, -1.0))
    assert check_clone_stats(means, cond, (2.0, -1.0), stats) == []
    # move the x estimate to exactly six standard errors from the analytic gain
    se_x = np.std(means[:, 0], ddof=1) / math.sqrt(len(means))
    shifted = means.copy()
    shifted[:, 0] += 2.0 * stats.lambda_x + 6.0 * se_x - means[:, 0].mean()
    assert check_clone_stats(shifted, cond, (2.0, -1.0), stats)
    assert check_clone_stats(means, cond + 1.0, (2.0, -1.0), stats)


def test_oracles_check_accepts_a_real_op(tmp_path):
    oracles = workloads.Oracles(Path("."), seed=1, out_dir=tmp_path)
    assert oracles.check(oracles.op(0)) == []
