"""Command-line front end: sweeps, optimisation, Monte Carlo runs and a
self-verification suite.  The commands parse, validate and print; the
library computes.

Exit codes: 0 success, 1 verification or z-score failure, 2 usage error,
3 I/O error.  Every command accepts ``--config FILE`` (a JSON object whose
keys are the long flag names without the leading dashes, each value of its
flag's type); a file value replaces its flag's default, and an explicit
flag overrides both.  ``CVCLONE_SEED`` provides the default Monte Carlo seed.
``mc`` needs at least 2 trajectories: one has no standard error.  ``main``
builds its parser once per process, on the first call, and runs the
``cmd_*`` function the command names; ``build_parser()`` builds a new one.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import experiments, montecarlo, optimize
from .benchmarks import (
    KNOWN_PHASE_BENCHMARK_NOTE,
    KnownPhase,
    SymmetricGaussian,
    average_fidelity,
    classical_known_phase,
    optimal_gaussian_fidelity,
    phase_known_optimal_bound,
)
from .cloner import (
    check_fraction,
    gaussian_machine,
    heisenberg_clone_stats,
    matched_gain,
    phase_known_clone_stats,
    phase_known_machine,
)

DEFAULT_SEED = 20240601
# sweep output columns: (header name, experiments.sweep_rows key)
SWEEP_COLUMNS = (
    ("sqrtV", "sqrt_v"), ("V", "v"), ("T1", "t1"), ("gain", "gain"),
    ("F_ideal", "f_ideal"), ("F_imperfect", "f_imperfect"), ("F_classical", "f_classical"),
)

__all__ = ["main", "build_parser"]


class UsageError(Exception):
    pass


def _load_config(path: str, command: argparse.ArgumentParser) -> dict:
    """The config file's values keyed by flag destination, each checked
    against the type of its flag; a key that names no flag of ``command`` is
    an error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError("config file must hold a JSON object")
    # -h and --config act while parsing, so a file can set neither
    actions = {a.dest: a for a in command._actions if a.dest not in ("help", "config")}
    values = {}
    for key, value in data.items():
        action = actions.get(key.replace("-", "_"))
        if action is None:
            raise UsageError(f"config key {key!r} names no flag of {command.prog}")
        if action.const is True:
            ok, want = type(value) is bool, "true or false"
        elif action.choices is not None:
            ok, want = value in action.choices, "one of " + ", ".join(action.choices)
        elif action.type is int:
            ok, want = type(value) is int, "an integer"
        elif action.type is float:
            ok, want = type(value) in (int, float), "a number"
        else:
            ok, want = type(value) is str, "a string"
        if not ok:
            raise UsageError(f"config key {key!r} must be {want}, got {json.dumps(value)}")
        values[action.dest] = float(value) if action.type is float else value
    return values


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def _emit(text: str, out_path: str) -> None:
    if out_path == "-":
        sys.stdout.write(text)
        return
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# sweep

def cmd_sweep(args) -> int:
    vmin, vmax, steps = args.vmin, args.vmax, args.steps
    if vmin is None or vmax is None or steps is None:
        raise UsageError("sweep requires --vmin, --vmax and --steps")
    for name, value in (("vmin", vmin), ("vmax", vmax)):
        if not math.isfinite(value):
            raise UsageError(f"{name} must be finite, got {value}")
    if vmin <= 0 or vmax <= vmin or steps < 2:
        raise UsageError("need 0 < vmin < vmax and steps >= 2")
    if steps > experiments.MAX_SWEEP_STEPS:
        raise UsageError(f"--steps must be at most {experiments.MAX_SWEEP_STEPS}, got {steps}")
    eta = check_fraction("eta", args.eta)
    fixed = None
    if args.mode == "fixed":
        t1 = args.t1
        if t1 is None:
            raise UsageError("fixed mode requires --t1")
        check_fraction("t1", t1)
        gx = matched_gain(t1) if args.gx is None else args.gx
        fixed = (t1, gx, gx if args.gp is None else args.gp)
        for name, value in zip(("gx", "gp"), fixed[1:]):
            if not math.isfinite(value):
                raise UsageError(f"{name} must be finite, got {value}")

    rows = experiments.sweep_rows(np.linspace(vmin, vmax, steps), eta, args.visibility, fixed)
    if args.format == "csv":
        lines = [",".join(name for name, _ in SWEEP_COLUMNS)]
        lines += [",".join(_fmt(row[key]) for _, key in SWEEP_COLUMNS) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        table = [{name: row[key] for name, key in SWEEP_COLUMNS} for row in rows]
        text = json.dumps(table, indent=2, allow_nan=False) + "\n"
    _emit(text, args.out)
    return 0


# ---------------------------------------------------------------------------
# optimize

def cmd_optimize(args) -> int:
    v = args.V
    if v is None:
        raise UsageError("optimize requires --V")
    result = optimize.optimize_t1(v)
    cfg = result.params
    report = {
        "V": v,
        "T1": cfg.t1,
        "gain": cfg.g_x,
        "lambda": heisenberg_clone_stats(cfg).lambda_x,
        "F": result.f_value,
        "regime": optimal_gaussian_fidelity(v).regime.value,
        "certificate": result.certificate,
        "iterations": result.iterations,
    }
    sys.stdout.write(json.dumps(report, indent=2, allow_nan=False) + "\n")
    return 0


# ---------------------------------------------------------------------------
# phase-known

def cmd_phase_known(args) -> int:
    ancilla = args.ancilla
    # the variances' defaults depend on the ancilla
    p1_var, x3_var = (1e-6, math.sqrt(8.0 / 5.0)) if ancilla == "squeezed" else (1.0, 1.0)
    p1_var = p1_var if args.p1_var is None else args.p1_var
    x3_var = x3_var if args.x3_var is None else args.x3_var
    for name, value in (("p1-var", p1_var), ("x3-var", x3_var)):
        if not 0.0 < value < math.inf:
            raise UsageError(f"{name} must be finite and positive, got {value}")
    anc1 = (1.0 / p1_var, p1_var)  # minimum-uncertainty pairing
    anc3 = (x3_var, 1.0 / x3_var)

    stats = phase_known_clone_stats(anc1, anc3)
    classical = classical_known_phase()
    bound = phase_known_optimal_bound()
    report = {
        "ancilla": ancilla,
        "anc1_var": list(anc1),
        "anc3_var": list(anc3),
        "lambda_x": stats.lambda_x,
        "lambda_p": stats.lambda_p,
        "sigma_x": stats.sigma_x,
        "sigma_p": stats.sigma_p,
        "fidelity": average_fidelity(stats, KnownPhase()),
        "noise_db": 10.0 * math.log10(stats.sigma_x),
        "classical": {
            "fidelity": classical.fidelity,
            "prep_var_p": classical.prep_var_p,
            "note": KNOWN_PHASE_BENCHMARK_NOTE,
        },
        "optimal_bound": {
            "fidelity": bound.fidelity,
            "lambda_p": bound.lambda_p,
            "dn_x": bound.dn_x,
            "dn_p": bound.dn_p,
        },
    }
    sys.stdout.write(json.dumps(report, indent=2, allow_nan=False) + "\n")
    return 0


# ---------------------------------------------------------------------------
# mc

def cmd_mc(args) -> int:
    v, phase_known, n_traj = args.V, args.phase_known, args.trajectories
    if (v is None) == (not phase_known):
        raise UsageError("mc requires exactly one of --V or --phase-known")
    if n_traj is None:
        raise UsageError("mc requires --trajectories")
    if n_traj < 2:
        # one trajectory has no standard error, so every z-score would be inf
        raise UsageError(f"trajectories must be at least 2, got {n_traj}")
    seed = args.seed
    if seed is None:
        env = os.environ.get("CVCLONE_SEED", str(DEFAULT_SEED))
        try:
            seed = int(env)
        except ValueError:
            raise UsageError(f"CVCLONE_SEED must be an integer, got {env!r}") from None
    eta = check_fraction("eta", args.eta)
    vis, elec = args.visibility, args.elec_noise
    if not (math.isfinite(elec) and elec >= 0):
        raise UsageError("elec-noise must be finite and non-negative")

    if phase_known:
        cfg = phase_known_machine(eta_ff=eta, visibility=vis)
        alphabet = KnownPhase()
        label = {"machine": "phase-known"}
    else:
        cfg = gaussian_machine(optimal_gaussian_fidelity(v).t1, eta, vis)
        alphabet = SymmetricGaussian(v)
        label = {"machine": "gaussian-optimal", "V": v}

    batch = montecarlo.run_batch(cfg, alphabet, n_traj, seed, elec)
    table = montecarlo.compare_with_analytic(batch)
    report = {
        "config": {**label, "trajectories": n_traj, "seed": seed,
                   "eta": eta, "visibility": vis, "elec_noise": elec},
        "empirical": {k: row["empirical"] for k, row in table.items()},
        "analytic": {k: row["analytic"] for k, row in table.items()},
        "se": {k: row["se"] for k, row in table.items()},
        "z_scores": {k: row["z"] for k, row in table.items()},
    }
    sys.stdout.write(json.dumps(report, indent=2, allow_nan=False) + "\n")
    worst = max(abs(z) for z in report["z_scores"].values())
    return 1 if worst > 5.0 else 0


# ---------------------------------------------------------------------------
# verify

def cmd_verify(args) -> int:
    ok = True
    for name, gap, tol in experiments.verification_checks():
        passed = gap <= tol
        ok = ok and passed
        sys.stdout.write(
            f"{'PASS' if passed else 'FAIL'}  {name:<42s} gap={gap:.3e} tol={tol:.0e}\n"
        )
    sys.stdout.write(("all checks passed\n" if ok else "verification FAILED\n"))
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvclone",
        description="Gaussian cloning of coherent states: sweeps, optimisation, "
        "Monte Carlo and self-verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="JSON file with default flag values")
        p.set_defaults(parser=p)
        return p

    p = command("sweep", "fidelity-vs-V table (CSV or JSON)")
    p.add_argument("--vmin", type=float)
    p.add_argument("--vmax", type=float)
    p.add_argument("--steps", type=int)
    p.add_argument("--eta", type=float, default=1.0)
    p.add_argument("--visibility", type=float, default=1.0)
    p.add_argument("--mode", choices=["optimal", "fixed"], default="optimal")
    p.add_argument("--t1", type=float)
    p.add_argument("--gx", type=float)
    p.add_argument("--gp", type=float)
    p.add_argument("--out", default="-")
    p.add_argument("--format", choices=["csv", "json"], default="csv")

    p = command("optimize", "optimal machine for a Gaussian alphabet")
    p.add_argument("--V", type=float)

    p = command("phase-known", "phase-known machine report")
    p.add_argument("--ancilla", choices=["vacuum", "squeezed"], default="vacuum")
    p.add_argument("--p1-var", type=float)
    p.add_argument("--x3-var", type=float)

    p = command("mc", "Monte Carlo run with z-score self-check")
    p.add_argument("--V", type=float)
    p.add_argument("--phase-known", action="store_true")
    p.add_argument("--trajectories", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--eta", type=float, default=1.0)
    p.add_argument("--visibility", type=float, default=1.0)
    p.add_argument("--elec-noise", type=float, default=0.0)

    command("verify", "closed-form identity suite")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parser().parse_args(argv)
    command = args.command
    try:
        if args.config:
            # argparse fills a default only where the namespace has no value,
            # so file values replace the built-in defaults and explicit flags win
            file_values = argparse.Namespace(**_load_config(args.config, args.parser))
            args = args.parser.parse_args(argv[argv.index(command) + 1:], file_values)
        # read at call time, so a wrapper installed after the first call is used
        return globals()["cmd_" + command.replace("-", "_")](args)
    except (UsageError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
