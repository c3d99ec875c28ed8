"""The benchmark's workloads and the checks on their outputs.

Each workload is one operation a user waits for, run through the entry
point a user calls: ``cvclone.cli.main(argv)`` with stdout captured, or the
Figure 3 script's ``main()``.  Every op draws its seed from the workload seed
and the op index, so a seed fixes every input.

The checks are statistical (|z| <= 5) or exact identities; none relies on
bit-exact Monte Carlo values or on private names of the library, so a change
of random streams keeps them valid.
"""

from __future__ import annotations

import contextlib
import csv
import importlib.util
import io
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

Z_MAX = 5.0

FIGURE3_STEPS = 13  # the script's default grid, sqrt(V) from 0.5 to 2.3
FIGURE3_TRAJECTORIES = 10000
MC_ARGV = [
    "mc", "--phase-known", "--trajectories", "50000",
    "--eta", "0.95", "--visibility", "0.99", "--elec-noise", "0.1",
]
MC_Z_KEYS = ("lambda_x", "sigma_x", "sigma_p", "fidelity")
ORACLE_V = 1.72
ORACLE_INPUT = (2.0, -1.0)
ORACLE_SHOTS = 500
ORACLE_ELEC_NOISE = 0.1


def op_seed(seed: int, i: int) -> int:
    """Seed of op ``i``; a stride of 1000 keeps the per-point seeds that
    the Figure 3 sweep derives (seed + point index) disjoint between ops."""
    return seed * 1_000_000 + 1000 * i


@dataclass
class Output:
    """What one op returned: exit code, captured stdout and extra payload."""

    code: int
    text: str = ""
    cli_bytes: int = 0
    payload: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# checks: each returns a list of problems, empty when the output is correct


def _reject_constant(name: str):
    raise ValueError(f"non-finite JSON constant {name}")


def check_mc(code: int, text: str) -> list[str]:
    """``cvclone mc`` exited 0 and printed strict JSON whose z-scores for
    the phase-known machine are all within Z_MAX."""
    problems = []
    if code != 0:
        problems.append(f"mc exited {code}")
    try:
        report = json.loads(text, parse_constant=_reject_constant)
    except ValueError as exc:
        return problems + [f"mc output is not strict JSON: {exc}"]
    z_scores = report.get("z_scores") if isinstance(report, dict) else None
    if not isinstance(z_scores, dict):
        return problems + ["mc output has no z_scores object"]
    for key in MC_Z_KEYS:
        z = z_scores.get(key)
        if not isinstance(z, (int, float)) or not abs(z) <= Z_MAX:
            problems.append(f"mc z-score {key} = {z!r}")
    return problems


def check_verify(code: int, text: str) -> list[str]:
    problems = []
    if code != 0:
        problems.append(f"verify exited {code}")
    if not text.rstrip().endswith("all checks passed"):
        problems.append("verify did not end with 'all checks passed'")
    return problems


def check_figure3_rows(rows: list[dict], optimal_fidelity) -> list[str]:
    """Each row's Monte Carlo point lies within Z_MAX standard errors of the
    lossy analytic curve, and its ideal column equals the closed-form
    optimum ``optimal_fidelity(V)`` to 1e-12."""
    problems = []
    if len(rows) != FIGURE3_STEPS:
        problems.append(f"figure3 wrote {len(rows)} rows, expected {FIGURE3_STEPS}")
    for row in rows:
        try:
            v, f_ideal, f_imp, f_mc, se = (
                float(row[k]) for k in ("v", "f_ideal", "f_imperfect", "f_mc", "se_mc")
            )
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"figure3 row unreadable: {exc}")
            continue
        if not (se > 0 and abs(f_mc - f_imp) <= Z_MAX * se):
            problems.append(f"figure3 V={v}: f_mc={f_mc} vs f_imperfect={f_imp} (se {se})")
        if not abs(f_ideal - optimal_fidelity(v)) <= 1e-12:
            problems.append(f"figure3 V={v}: f_ideal={f_ideal} is not the closed-form optimum")
    return problems


def _z(estimate: float, expected: float, se: float) -> float:
    if abs(estimate - expected) < 1e-12:
        return 0.0
    return (estimate - expected) / se if se > 0 else math.inf


def check_clone_stats(means: np.ndarray, cond_var: np.ndarray, input_mean, stats) -> list[str]:
    """Per-shot clone means (shots, 2) and conditional variances (shots, 2)
    of one clone agree with the analytic gains and variances to |z| <= Z_MAX.

    Gains are estimated as the mean clone mean over the input mean; a total
    variance as the conditional variance plus the scatter of the shot means.
    """
    n = len(means)
    problems = []
    expected = {
        "lambda": (stats.lambda_x, stats.lambda_p),
        "sigma": (stats.sigma_x, stats.sigma_p),
    }
    for q, quad in enumerate("xp"):
        m = means[:, q]
        gain = float(np.mean(m)) / input_mean[q]
        se_gain = float(np.std(m, ddof=1)) / math.sqrt(n) / abs(input_mean[q])
        per_shot = cond_var[:, q] + (m - float(np.mean(m))) ** 2 * n / (n - 1)
        sigma = float(np.mean(per_shot))
        se_sigma = float(np.std(per_shot, ddof=1)) / math.sqrt(n)
        for name, est, se in (("lambda", gain, se_gain), ("sigma", sigma, se_sigma)):
            z = _z(est, expected[name][q], se)
            if not abs(z) <= Z_MAX:
                problems.append(f"circuit {name}_{quad}: {est} vs {expected[name][q]} (z={z})")
    return problems


# ---------------------------------------------------------------------------
# workloads


def _captured(fn, *args) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = fn(*args)
    return code, buf.getvalue()


class Figure3:
    """The Figure 3 script on its default grid with FIGURE3_TRAJECTORIES
    trajectories per point, with the op's seed."""

    def __init__(self, root: Path, seed: int, out_dir: Path):
        spec = importlib.util.spec_from_file_location(
            "figure3_sweep", root / "scripts" / "figure3_sweep.py"
        )
        self.script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(self.script)
        from cvclone.benchmarks import optimal_gaussian_fidelity

        self.optimal_fidelity = lambda v: optimal_gaussian_fidelity(v).fidelity
        self.csv_path = out_dir / "figure3.csv"
        self.seed = seed
        self.namespaces = [self.script]

    def op(self, i: int) -> Output:
        argv = [
            "figure3_sweep.py", "--trajectories", str(FIGURE3_TRAJECTORIES),
            "--seed", str(op_seed(self.seed, i)), "--out", str(self.csv_path),
        ]
        saved, sys.argv = sys.argv, argv
        try:
            code, text = _captured(self.script.main)
        finally:
            sys.argv = saved
        return Output(code, text)

    def check(self, out: Output) -> list[str]:
        if out.code != 0:
            return [f"figure3 script exited {out.code}"]
        with open(self.csv_path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        return check_figure3_rows(rows, self.optimal_fidelity)


class McPhaseKnown:
    """``cvclone mc --phase-known`` on the lossy machine with electronic noise."""

    def __init__(self, root: Path, seed: int, out_dir: Path):
        import cvclone.cli

        self.cli = cvclone.cli
        self.seed = seed
        self.namespaces = []

    def op(self, i: int) -> Output:
        code, text = _captured(self.cli.main, MC_ARGV + ["--seed", str(op_seed(self.seed, i))])
        return Output(code, text, cli_bytes=len(text.encode()))

    def check(self, out: Output) -> list[str]:
        return check_mc(out.code, out.text)


class Oracles:
    """``cvclone verify`` plus ORACLE_SHOTS shots of the lossy optimal
    machine's circuit at V = 1.72 on the input coherent(2, -1)."""

    def __init__(self, root: Path, seed: int, out_dir: Path):
        import cvclone
        import cvclone.cli

        self.cv = cvclone
        self.cli = cvclone.cli
        self.seed = seed
        self.namespaces = []

    def op(self, i: int) -> Output:
        cv = self.cv
        code, text = _captured(self.cli.main, ["verify"])
        cfg = cv.gaussian_machine(cv.optimal_gaussian_fidelity(ORACLE_V).t1, 0.95, 0.99)
        circuit = cv.build_circuit(cfg, cv.coherent(*ORACLE_INPUT))
        rng = np.random.default_rng((self.seed, i))
        means = np.empty((ORACLE_SHOTS, 4))
        cov_diag = np.empty((ORACLE_SHOTS, 4))
        for k in range(ORACLE_SHOTS):
            _, state = circuit.run(rng, elec_noise=ORACLE_ELEC_NOISE)
            means[k] = state.mean
            cov_diag[k] = np.diag(state.cov)
        payload = {"cfg": cfg, "means": means, "cov_diag": cov_diag}
        return Output(code, text, cli_bytes=len(text.encode()), payload=payload)

    def check(self, out: Output) -> list[str]:
        problems = check_verify(out.code, out.text)
        p = out.payload
        stats = self.cv.heisenberg_clone_stats(p["cfg"], ORACLE_ELEC_NOISE)
        for clone in (0, 1):
            cols = slice(2 * clone, 2 * clone + 2)
            problems += check_clone_stats(
                p["means"][:, cols], p["cov_diag"][:, cols], ORACLE_INPUT, stats
            )
        return problems


WORKLOADS = {"figure3": Figure3, "mc-phase-known": McPhaseKnown, "oracles": Oracles}
