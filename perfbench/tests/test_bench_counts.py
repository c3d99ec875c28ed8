"""Exact layer counts repeat between two traced runs with the same seed."""

import contextlib
import io
import json

import pytest

import child
import workloads

EXACT = (
    "montecarlo.trajectories",
    "montecarlo.batches",
    "cloner.circuit_shots",
    "cloner.stats_calls",
    "optimize.objective_evals",
)


def _traced_run(workload, seed, out_dir):
    buf = io.StringIO()
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", "1",
            "--out", str(out_dir)]
    with contextlib.redirect_stdout(buf):
        assert child.main(argv) == 0
    result = json.loads(buf.getvalue().splitlines()[-1])
    assert result["failed"] == 0, result["problems"]
    assert (out_dir / f"spans-{workload}.csv.gz").is_file()
    return result["layers"]


@pytest.mark.parametrize("workload", ["figure3", "oracles"])
def test_exact_counts_repeat_with_the_same_seed(workload, tmp_path):
    first = _traced_run(workload, 11, tmp_path)
    second = _traced_run(workload, 11, tmp_path)
    for name in EXACT:
        assert first[name] == second[name], name
    if workload == "figure3":
        assert first["montecarlo.batches"] == 13
        assert first["montecarlo.trajectories"] == 13 * workloads.FIGURE3_TRAJECTORIES
        assert first["gaussian.calls"] == 0
    else:
        assert first["cloner.circuit_shots"] == 500
        assert first["montecarlo.batches"] == 0
        assert first["optimize.objective_evals"] > 0
