import json
import math
from pathlib import Path

import pytest

from cvclone import cli
from cvclone.benchmarks import (
    MAX_ALPHABET_VARIANCE,
    SymmetricGaussian,
    average_fidelity,
    optimal_gaussian_fidelity,
)
from cvclone.cloner import ClonerConfig, gaussian_machine, heisenberg_clone_stats
from cvclone.experiments import MAX_SWEEP_STEPS

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_sweep_csv_output(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--vmin", "1.72", "--vmax", "4", "--steps", "16",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "sqrtV,V,T1,gain,F_ideal,F_imperfect,F_classical"
    assert len(lines) == 17
    first = dict(zip(lines[0].split(","), map(float, lines[1].split(","))))
    assert first["V"] == pytest.approx(1.72)
    assert first["F_ideal"] == pytest.approx(0.7845, abs=1e-4)
    # every row reproduces the closed-form optimum and keeps the locale-free
    # 9-significant-digit format
    for line in lines[1:]:
        fields = line.split(",")
        assert all("," not in f and f == f.strip() for f in fields)
        row = dict(zip(lines[0].split(","), map(float, fields)))
        # values carry 9 significant digits, so compare at that resolution
        assert row["F_ideal"] == pytest.approx(
            optimal_gaussian_fidelity(row["V"]).fidelity, rel=1e-8
        )
        assert row["sqrtV"] == pytest.approx(math.sqrt(row["V"]), rel=1e-8)


def test_sweep_json_and_file_output(tmp_path, capsys):
    out_path = tmp_path / "rows.json"
    code, _, _ = run_cli(
        capsys, "sweep", "--vmin", "0.25", "--vmax", "4", "--steps", "4",
        "--format", "json", "--out", str(out_path),
    )
    assert code == 0
    rows = json.loads(out_path.read_text())
    assert len(rows) == 4
    assert rows[0]["V"] == pytest.approx(0.25)
    # narrow alphabet sits in the beam-splitter regime: T1 = 1, zero gain,
    # lossy curve identical to the ideal one
    assert rows[0]["T1"] == 1.0
    assert rows[0]["gain"] == 0.0
    assert rows[0]["F_imperfect"] == rows[0]["F_ideal"]


def test_sweep_usage_errors(capsys, tmp_path):
    code, _, err = run_cli(capsys, "sweep", "--vmin", "1", "--vmax", "2", "--steps", "1")
    assert code == 2 and "steps" in err
    code, _, _ = run_cli(capsys, "sweep", "--vmin", "2", "--vmax", "1", "--steps", "4")
    assert code == 2
    code, _, err = run_cli(
        capsys, "sweep", "--vmin", "1", "--vmax", "2", "--steps", "4",
        "--out", str(tmp_path / "missing" / "rows.csv"),
    )
    assert code == 3


def test_sweep_rejects_a_step_count_above_the_bound_before_allocating(capsys, monkeypatch):
    # numpy's allocation traceback and exit 1 before
    def no_grid(*args, **kwargs):
        raise AssertionError("the grid was allocated")

    monkeypatch.setattr(cli.np, "linspace", no_grid)
    steps = 10**11
    code, out, err = run_cli(capsys, "sweep", "--vmin", "1", "--vmax", "2", "--steps", str(steps))
    assert code == 2 and out == ""
    assert err == f"error: --steps must be at most {MAX_SWEEP_STEPS}, got {steps}\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("flag, vmin, vmax", [("vmax", "0.5", "inf"), ("vmin", "nan", "2")])
def test_sweep_rejects_non_finite_range_without_warnings(capsys, flag, vmin, vmax):
    code, out, err = run_cli(capsys, "sweep", "--vmin", vmin, "--vmax", vmax, "--steps", "3")
    assert code == 2 and out == ""
    assert err.startswith(f"error: {flag} must be finite")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--vmin", "0.5", "--vmax", "1e308", "--steps", "3"],
        ["sweep", "--vmin", "0.5", "--vmax", "1e308", "--steps", "3", "--format", "json"],
        ["optimize", "--V", "1e308"],
        ["optimize", "--V", repr(math.nextafter(MAX_ALPHABET_VARIANCE, math.inf))],
        ["mc", "--V", "1e308", "--trajectories", "10"],
    ],
    ids=["sweep-csv", "sweep-json", "optimize", "optimize-just-above", "mc"],
)
def test_alphabet_variance_at_which_the_closed_forms_overflow_exits_2(capsys, argv):
    # 6 V overflows at 1e308: unchecked, the sweep prints F = 0 and nan, the
    # JSON sweep fails on the nan and optimize reports a non-finite gap
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: alphabet variance must be finite and positive, and at most")


@pytest.mark.filterwarnings("error")
def test_monte_carlo_sums_that_overflow_name_the_feedforward_gains(capsys):
    # eta = 1e-300 sets the phase-known gain to 1e150; its fourth-power sums
    # overflowed with numpy warnings and a JSON error that named no input
    code, out, err = run_cli(
        capsys, "mc", "--phase-known", "--eta", "1e-300", "--trajectories", "1000"
    )
    assert code == 2 and out == ""
    assert err == "error: Monte Carlo sums overflow at feedforward gains g_x = 1e+150, g_p = 0\n"
    code, _, _ = run_cli(
        capsys, "mc", "--V", repr(MAX_ALPHABET_VARIANCE), "--trajectories", "2000", "--seed", "1"
    )
    assert code == 0


@pytest.mark.filterwarnings("error")
def test_largest_accepted_alphabet_variance(capsys):
    v = repr(MAX_ALPHABET_VARIANCE)
    code, out, _ = run_cli(capsys, "optimize", "--V", v)
    assert code == 0
    report = json.loads(out)
    assert report["V"] == MAX_ALPHABET_VARIANCE
    assert report["regime"] == "feedforward"
    # verify's tolerance on the same gap
    assert report["certificate"]["fidelity"] <= 1e-9
    code, out, _ = run_cli(
        capsys, "sweep", "--vmin", repr(MAX_ALPHABET_VARIANCE / 2), "--vmax", v, "--steps", "2",
        "--format", "json",
    )
    assert code == 0
    for row in json.loads(out):
        closed = optimal_gaussian_fidelity(row["V"]).fidelity
        assert row["F_ideal"] == pytest.approx(closed, rel=0, abs=1e-12)
    code, _, _ = run_cli(capsys, "mc", "--V", v, "--trajectories", "2000", "--seed", "1")
    assert code == 0


@pytest.mark.filterwarnings("error")
def test_a_gain_too_large_for_finite_clone_statistics_exits_2(capsys):
    # an OverflowError traceback and exit 1 before
    code, out, err = run_cli(
        capsys, "sweep", "--vmin", "1", "--vmax", "2", "--steps", "2",
        "--mode", "fixed", "--t1", "0.5", "--gx", "1e200",
    )
    assert code == 2 and out == ""
    assert err == "error: clone gains and variances must be finite\n"


@pytest.mark.parametrize("flag", ["eta", "visibility"])
def test_sweep_rejects_bad_loss_parameters(capsys, flag):
    code, out, err = run_cli(
        capsys, "sweep", "--vmin", "1", "--vmax", "2", "--steps", "3", f"--{flag}", "0"
    )
    assert code == 2 and out == ""
    assert err.startswith(f"error: {flag} must lie in (0, 1]")


def test_sweep_fixed_mode(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--vmin", "1.72", "--vmax", "3", "--steps", "2",
        "--mode", "fixed", "--t1", "0.83", "--gx", "0.64", "--gp", "0.64",
    )
    assert code == 0
    lines = out.strip().splitlines()
    row = dict(zip(lines[0].split(","), map(float, lines[1].split(","))))
    assert row["T1"] == 0.83
    assert row["gain"] == 0.64
    # fixed operating point sits just below the per-V optimum
    assert row["F_ideal"] == pytest.approx(0.7844, abs=1e-3)
    assert row["F_ideal"] <= optimal_gaussian_fidelity(1.72).fidelity + 1e-12

    code, _, err = run_cli(
        capsys, "sweep", "--vmin", "1", "--vmax", "2", "--steps", "2", "--mode", "fixed"
    )
    assert code == 2 and "t1" in err


def test_sweep_fixed_mode_uses_each_gain(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--vmin", "1.72", "--vmax", "3", "--steps", "2", "--format", "json",
        "--mode", "fixed", "--t1", "0.83", "--gx", "0.64", "--gp", "0.7",
    )
    assert code == 0
    row = json.loads(out)[0]
    assert row["gain"] == 0.64
    stats = heisenberg_clone_stats(ClonerConfig(t1=0.83, t2=0.5, g_x=0.64, g_p=0.7))
    assert row["F_ideal"] == average_fidelity(stats, SymmetricGaussian(1.72))


def test_optimize_json_report(capsys):
    code, out, _ = run_cli(capsys, "optimize", "--V", "1.72")
    assert code == 0
    report = json.loads(out)
    assert report["T1"] == pytest.approx(0.833, abs=1e-3)
    assert report["gain"] == pytest.approx(0.633, abs=1e-3)
    assert report["lambda"] == pytest.approx(0.775, abs=1e-3)
    assert report["F"] == pytest.approx(0.7845, abs=1e-4)
    assert report["regime"] == "feedforward"
    # report round-trips: derived fields recompute from T1
    assert report["gain"] == pytest.approx(
        math.sqrt(2 * (1 - report["T1"]) / report["T1"]), abs=1e-12
    )
    assert report["lambda"] == pytest.approx(1 / math.sqrt(2 * report["T1"]), abs=1e-12)
    # and are the library's own numbers, bit for bit
    machine = gaussian_machine(report["T1"])
    assert report["gain"] == machine.g_x
    assert report["lambda"] == heisenberg_clone_stats(machine).lambda_x


def test_optimize_beam_splitter_regime(capsys):
    code, out, _ = run_cli(capsys, "optimize", "--V", "0.5")
    report = json.loads(out)
    assert code == 0
    assert report["regime"] == "beam-splitter-only"
    assert report["T1"] == 1.0
    assert report["gain"] == 0.0


def test_optimize_rejects_bad_variance(capsys):
    code, _, err = run_cli(capsys, "optimize", "--V", "-1")
    assert code == 2 and "positive" in err


@pytest.mark.parametrize("v", ["inf", "nan"])
def test_optimize_rejects_non_finite_variance(capsys, v):
    code, out, err = run_cli(capsys, "optimize", "--V", v)
    assert code == 2 and out == ""
    assert "alphabet variance must be finite and positive" in err


def test_phase_known_vacuum_report(capsys):
    code, out, _ = run_cli(capsys, "phase-known", "--ancilla", "vacuum")
    assert code == 0
    report = json.loads(out)
    assert report["fidelity"] == pytest.approx(0.8944, abs=1e-4)
    assert report["optimal_bound"]["fidelity"] == pytest.approx(0.9610, abs=1e-4)
    assert report["classical"]["fidelity"] == pytest.approx(0.8284, abs=1e-4)
    assert report["noise_db"] == pytest.approx(1.761, abs=1e-3)
    assert "misquoted" in report["classical"]["note"]


def test_phase_known_squeezed_report(capsys):
    code, out, _ = run_cli(capsys, "phase-known", "--ancilla", "squeezed")
    report = json.loads(out)
    assert code == 0
    assert report["fidelity"] == pytest.approx(0.9610, abs=1e-4)
    assert report["fidelity"] <= report["optimal_bound"]["fidelity"] + 1e-9


def test_phase_known_custom_squeezing_stays_below_bound(capsys):
    code, out, _ = run_cli(
        capsys, "phase-known", "--ancilla", "squeezed", "--x3-var", "0.5"
    )
    report = json.loads(out)
    assert code == 0
    assert report["anc3_var"] == [0.5, 2.0]
    assert report["fidelity"] <= report["optimal_bound"]["fidelity"] + 1e-9


@pytest.mark.parametrize("flag", ["p1-var", "x3-var"])
@pytest.mark.parametrize("value", ["nan", "inf", "0"])
def test_phase_known_rejects_bad_ancilla_variance(capsys, flag, value):
    code, out, err = run_cli(
        capsys, "phase-known", "--ancilla", "squeezed", f"--{flag}", value
    )
    assert code == 2 and out == ""
    assert err.startswith(f"error: {flag} must be finite and positive")


def test_mc_self_check_and_determinism(capsys):
    args = ["mc", "--V", "1.72", "--trajectories", "4000", "--seed", "7"]
    code_a, out_a, _ = run_cli(capsys, *args)
    code_b, out_b, _ = run_cli(capsys, *args)
    assert code_a == code_b == 0
    assert out_a == out_b  # byte-identical JSON for the same seed
    report = json.loads(out_a)
    assert all(abs(z) <= 5.0 for z in report["z_scores"].values())
    assert set(report["empirical"]) == {"lambda_x", "lambda_p", "sigma_x", "sigma_p", "fidelity"}


def test_mc_phase_known_run(capsys):
    code, out, _ = run_cli(
        capsys, "mc", "--phase-known", "--trajectories", "4000", "--seed", "3",
        "--eta", "0.95", "--visibility", "0.99",
    )
    assert code == 0
    report = json.loads(out)
    assert report["analytic"]["fidelity"] == pytest.approx(0.8879, abs=1e-3)


@pytest.mark.parametrize(
    "machine, undefined", [(["--phase-known"], {"lambda_p"}), (["--V", "1.72"], set())]
)
def test_mc_names_each_undefined_estimate_with_a_reason(capsys, machine, undefined):
    # the phase-known JSON left lambda_p out with no word before
    code, out, _ = run_cli(capsys, "mc", *machine, "--trajectories", "2000", "--seed", "3")
    assert code == 0
    report = json.loads(out)
    assert set(report["undefined"]) == undefined
    assert all("no signal" in reason for reason in report["undefined"].values())
    assert set(report["empirical"]) | undefined == {
        "lambda_x", "lambda_p", "sigma_x", "sigma_p", "fidelity"
    }
    assert not set(report["empirical"]) & undefined


@pytest.mark.parametrize(
    "flag, value", [("eta", "0"), ("visibility", "0"), ("eta", "nan"), ("visibility", "1.5")]
)
def test_mc_rejects_bad_loss_parameters(capsys, flag, value):
    # --eta 0 used to die with a ZeroDivisionError traceback (exit 1) and
    # --eta nan to blame the derived electronic gain
    code, out, err = run_cli(
        capsys, "mc", "--V", "1.72", "--trajectories", "1000", f"--{flag}", value
    )
    assert code == 2 and out == ""
    assert err.startswith(f"error: {flag} must lie in (0, 1]")


def test_mc_rejects_negative_seed(capsys):
    code, out, err = run_cli(
        capsys, "mc", "--V", "1.72", "--trajectories", "1000", "--seed", "-5"
    )
    assert code == 2 and out == ""
    assert err.startswith("error: seed must be non-negative")


def test_mc_usage_errors(capsys):
    code, _, _ = run_cli(capsys, "mc", "--V", "1.72", "--trajectories", "0", "--seed", "1")
    assert code == 2
    code, _, _ = run_cli(capsys, "mc", "--trajectories", "10", "--seed", "1")
    assert code == 2
    code, _, _ = run_cli(
        capsys, "mc", "--V", "1.72", "--phase-known", "--trajectories", "10", "--seed", "1"
    )
    assert code == 2


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("machine", [["--V", "1"], ["--phase-known"]], ids=["V", "phase-known"])
def test_mc_needs_two_trajectories(capsys, machine):
    # one trajectory has no standard error: every z-score was inf, and the
    # run exited 2 with a JSON error that named neither the flag nor the cause
    code, out, err = run_cli(capsys, "mc", *machine, "--trajectories", "1")
    assert code == 2 and out == ""
    assert err == "error: trajectories must be at least 2, got 1\n"
    code, out, _ = run_cli(capsys, "mc", *machine, "--trajectories", "2", "--seed", "3")
    assert code == 0
    assert json.loads(out, parse_constant=pytest.fail)["config"]["trajectories"] == 2


@pytest.mark.parametrize("elec", ["inf", "nan", "-0.5"])
def test_mc_rejects_bad_electronic_noise(capsys, elec):
    code, out, err = run_cli(
        capsys, "mc", "--phase-known", "--trajectories", "1000", "--elec-noise", elec
    )
    assert code == 2 and out == ""
    assert "elec-noise" in err


def test_mc_never_prints_non_finite_json(capsys, monkeypatch):
    def nan_table(batch):
        return {"fidelity": {"empirical": math.nan, "analytic": 0.5, "se": 0.1, "z": 0.0}}

    monkeypatch.setattr(cli.montecarlo, "compare_with_analytic", nan_table)
    code, out, err = run_cli(capsys, "mc", "--V", "1.72", "--trajectories", "100")
    assert code == 2 and out == ""
    assert "JSON" in err


def test_mc_rejects_trajectory_count_above_the_bound(capsys):
    code, out, err = run_cli(capsys, "mc", "--V", "1.72", "--trajectories", str(10**11))
    assert code == 2 and out == ""
    assert "n_traj" in err


def test_seed_from_environment(capsys, monkeypatch):
    monkeypatch.setenv("CVCLONE_SEED", "99")
    code, out, _ = run_cli(capsys, "mc", "--V", "1.0", "--trajectories", "500")
    assert code == 0
    assert json.loads(out)["config"]["seed"] == 99


def test_config_file_supplies_defaults_and_flags_override(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"V": 1.72}))
    code, out, _ = run_cli(capsys, "optimize", "--config", str(config))
    assert code == 0
    assert json.loads(out)["V"] == pytest.approx(1.72)

    code, out, _ = run_cli(capsys, "optimize", "--config", str(config), "--V", "0.5")
    assert code == 0
    assert json.loads(out)["regime"] == "beam-splitter-only"


def test_config_file_replaces_parser_defaults_and_flags_beat_the_file(tmp_path, capsys):
    sweep = ["sweep", "--vmin", "2", "--vmax", "3", "--steps", "2"]
    code, csv_out, _ = run_cli(capsys, *sweep)
    assert code == 0 and csv_out.startswith("sqrtV,")
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"format": "json", "eta": 0.9}))
    code, out, _ = run_cli(capsys, *sweep, "--config", str(config))
    assert code == 0
    rows = json.loads(out)
    # the file's eta, where the built-in default of 1 would give no loss
    assert all(row["F_imperfect"] < row["F_ideal"] for row in rows)
    code, out, _ = run_cli(
        capsys, *sweep, "--config", str(config), "--format", "csv", "--eta", "1"
    )
    assert code == 0 and out == csv_out


def test_config_file_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    code, _, err = run_cli(capsys, "optimize", "--config", str(bad), "--V", "1")
    assert code == 2 and "JSON object" in err
    code, _, _ = run_cli(capsys, "optimize", "--config", str(tmp_path / "none.json"), "--V", "1")
    assert code == 2


@pytest.mark.parametrize(
    "command, values, message",
    [
        # a traceback and exit 1 before
        (["mc", "--trajectories", "10"], {"V": [1]}, "'V' must be a number, got [1]"),
        # silently ran 2 steps before
        (["sweep", "--vmin", "1", "--vmax", "2"], {"steps": 2.7},
         "'steps' must be an integer, got 2.7"),
        # ran the phase-known machine before
        (["mc", "--trajectories", "10"], {"phase-known": "no"},
         "'phase-known' must be true or false, got \"no\""),
        # said "invalid literal for int()" before
        (["mc", "--V", "1.72"], {"trajectories": "abc"},
         "'trajectories' must be an integer, got \"abc\""),
        (["sweep", "--vmin", "1", "--vmax", "2", "--steps", "3"], {"mode": "best"},
         "'mode' must be one of optimal, fixed, got \"best\""),
        # JSON booleans are not numbers, although Python's bool is an int
        (["mc", "--trajectories", "10"], {"V": True}, "'V' must be a number, got true"),
        (["mc", "--V", "1.72"], {"trajectories": True},
         "'trajectories' must be an integer, got true"),
    ],
    ids=[
        "float-list", "int-float", "bool-string", "int-string", "choice", "float-bool", "int-bool",
    ],
)
def test_config_values_must_have_the_flag_type(tmp_path, capsys, command, values, message):
    config = tmp_path / "run.json"
    config.write_text(json.dumps(values))
    code, out, err = run_cli(capsys, *command, "--config", str(config))
    assert code == 2 and out == ""
    assert err == f"error: config key {message}\n"


def test_config_keys_must_name_a_flag_of_the_command(tmp_path, capsys):
    # a misspelt seed silently ran with the default seed before
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"sed": 5, "V": 1.72, "trajectories": 100}))
    code, out, err = run_cli(capsys, "mc", "--config", str(config))
    assert code == 2 and out == ""
    assert err == "error: config key 'sed' names no flag of cvclone mc\n"
    # a flag of another command is no flag of this one
    config.write_text(json.dumps({"steps": 3}))
    code, out, err = run_cli(capsys, "optimize", "--config", str(config), "--V", "1")
    assert code == 2 and out == ""
    assert err == "error: config key 'steps' names no flag of cvclone optimize\n"
    # -h and --config act while parsing; both keys passed silently before
    for key in ("help", "config"):
        config.write_text(json.dumps({key: "x"}))
        code, out, err = run_cli(capsys, "verify", "--config", str(config))
        assert code == 2 and out == ""
        assert err == f"error: config key '{key}' names no flag of cvclone verify\n"


def test_config_numbers_convert_to_the_flag_type(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"V": 2, "trajectories": 500, "phase-known": False}))
    code, out, _ = run_cli(capsys, "mc", "--config", str(config), "--seed", "3")
    assert code == 0
    report = json.loads(out)["config"]
    assert report["V"] == 2.0 and isinstance(report["V"], float)
    assert report["trajectories"] == 500


def test_bad_seed_from_environment_names_the_variable(capsys, monkeypatch):
    monkeypatch.setenv("CVCLONE_SEED", "abc")
    code, out, err = run_cli(capsys, "mc", "--V", "1.72", "--trajectories", "100")
    assert code == 2 and out == ""
    assert err == "error: CVCLONE_SEED must be an integer, got 'abc'\n"
    # an explicit --seed does not read the variable
    code, _, _ = run_cli(capsys, "mc", "--V", "1.72", "--trajectories", "100", "--seed", "1")
    assert code == 0


@pytest.mark.parametrize("flag, value", [("gx", "nan"), ("gp", "inf")])
def test_sweep_fixed_mode_names_a_non_finite_gain(capsys, flag, value):
    code, out, err = run_cli(
        capsys, "sweep", "--vmin", "1", "--vmax", "2", "--steps", "3",
        "--mode", "fixed", "--t1", "0.8", f"--{flag}", value,
    )
    assert code == 2 and out == ""
    assert err == f"error: {flag} must be finite, got {value}\n"


def test_unknown_flags_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["optimize", "--V", "1.72", "--bogus"])
    assert exc.value.code == 2


def test_verify_passes(capsys):
    import time

    start = time.monotonic()
    code, out, _ = run_cli(capsys, "verify")
    elapsed = time.monotonic() - start
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1] == "all checks passed"
    assert elapsed < 10.0


def test_verify_detects_tampered_constant(capsys, monkeypatch):
    # sensitivity meta-check: nudging one closed form must fail the suite
    import cvclone.benchmarks as benchmarks
    from cvclone.benchmarks import ClassicalKnownPhase

    real = benchmarks.classical_known_phase

    def tampered():
        f, s = real()
        return ClassicalKnownPhase(f + 1e-3, s)

    monkeypatch.setattr(benchmarks, "classical_known_phase", tampered)
    code, out, _ = run_cli(capsys, "verify")
    assert code == 1
    assert "FAIL" in out


# ---------------------------------------------------------------------------
# one parser per process


def _mc_config(capsys, *argv):
    code, out, _ = run_cli(capsys, "mc", "--V", "1.72", "--trajectories", "100", *argv)
    assert code == 0
    return json.loads(out)["config"]


def test_config_values_do_not_outlive_their_call(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("CVCLONE_SEED", raising=False)
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    first.write_text(json.dumps({"eta": 0.9, "seed": 5}))
    second.write_text(json.dumps({"visibility": 0.95}))
    report = _mc_config(capsys, "--config", str(first))
    assert (report["eta"], report["visibility"], report["seed"]) == (0.9, 1.0, 5)
    # a second file does not inherit the first file's values
    report = _mc_config(capsys, "--config", str(second))
    assert (report["eta"], report["visibility"], report["seed"]) == (1.0, 0.95, cli.DEFAULT_SEED)
    # and a plain call runs on the built-in defaults
    report = _mc_config(capsys)
    assert (report["eta"], report["visibility"], report["seed"]) == (1.0, 1.0, cli.DEFAULT_SEED)


def test_a_usage_error_leaves_the_parser_intact(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["mc", "--trajectories", "x"])
    assert exc.value.code == 2
    assert "invalid int value: 'x'" in capsys.readouterr().err
    cases = json.loads((GOLDEN / "cases.json").read_text())
    code, out, _ = run_cli(capsys, *cases["mc-phase-known.json"])
    assert code == 0
    assert out == (GOLDEN / "mc-phase-known.json").read_text(encoding="utf-8")


COMMANDS = ("sweep", "optimize", "phase-known", "mc", "verify")


@pytest.mark.parametrize("argv", [["-h"]] + [[name, "-h"] for name in COMMANDS])
def test_help_matches_a_fresh_parser(capsys, argv):
    run_cli(capsys, "phase-known")  # the cached parser exists and has been used
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0
    cached = capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv)
    assert exc.value.code == 0
    assert cached == capsys.readouterr().out
    assert cached.startswith("usage: cvclone")


def test_main_builds_no_parser_after_the_first_call_and_dispatches_at_call_time(
    capsys, monkeypatch
):
    run_cli(capsys, "phase-known")

    def no_parser():
        raise AssertionError("main built a second parser")

    seen = []
    real = cli.cmd_mc

    def recording(args):
        seen.append(args.trajectories)
        return real(args)

    monkeypatch.setattr(cli, "build_parser", no_parser)
    monkeypatch.setattr(cli, "cmd_mc", recording)
    code, out, _ = run_cli(capsys, "mc", "--V", "1.72", "--trajectories", "100", "--seed", "1")
    assert code == 0 and json.loads(out)["config"]["seed"] == 1
    assert seen == [100]
