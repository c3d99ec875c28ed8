"""Command-line front end: sweeps, optimisation, Monte Carlo runs and a
self-verification suite.

Exit codes: 0 success, 1 verification or z-score failure, 2 usage error,
3 I/O error.  Every command accepts ``--config FILE`` (a JSON object whose
keys are the long flag names without the leading dashes); explicit flags
override file values.  ``CVCLONE_SEED`` provides the default Monte Carlo
seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import benchmarks, montecarlo, optimize
from .benchmarks import (
    BEAM_SPLITTER_THRESHOLD,
    KNOWN_PHASE_BENCHMARK_NOTE,
    KnownPhase,
    SymmetricGaussian,
    average_fidelity,
    classical_gaussian_alphabet,
    classical_known_phase,
    gaussian_alphabet_fidelity,
    optimal_gaussian_fidelity,
    phase_known_optimal_bound,
)
from .cloner import (
    ClonerConfig,
    _check_fraction,
    gaussian_machine,
    heisenberg_clone_stats,
    matched_gain,
    phase_known_clone_stats,
    phase_known_machine,
)

DEFAULT_SEED = 20240601
SWEEP_HEADER = "sqrtV,V,T1,gain,F_ideal,F_imperfect,F_classical"

__all__ = ["main", "build_parser", "verification_checks"]


class UsageError(Exception):
    pass


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError("config file must hold a JSON object")
    return data


def _merge(args: argparse.Namespace, key: str, default=None):
    """Flag value if given, else config-file value, else the default."""
    flag = getattr(args, key.replace("-", "_"), None)
    if flag is not None:
        return flag
    cfg = getattr(args, "_config_values", {})
    if key in cfg:
        return cfg[key]
    return default


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def _emit(text: str, out_path: str | None) -> None:
    if out_path in (None, "-"):
        sys.stdout.write(text)
        return
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# sweep

def _sweep_rows(vs, mode, t1_fixed, gx, gp, eta, vis):
    rows = []
    for v in vs:
        alphabet = SymmetricGaussian(v)
        if mode == "optimal":
            opt = optimal_gaussian_fidelity(v)
            t1 = opt.t1
            gain = matched_gain(t1)
            ideal = gaussian_machine(t1)
            lossy = gaussian_machine(t1, eta, vis)
        else:
            t1 = t1_fixed
            gain = gx
            ideal = ClonerConfig(t1=t1, t2=0.5, g_x=gx, g_p=gp)
            lossy = ClonerConfig(t1=t1, t2=0.5, g_x=gx, g_p=gp, eta_ff=eta, visibility=vis)
        rows.append(
            {
                "sqrtV": math.sqrt(v),
                "V": v,
                "T1": t1,
                "gain": gain,
                "F_ideal": average_fidelity(heisenberg_clone_stats(ideal), alphabet),
                "F_imperfect": average_fidelity(heisenberg_clone_stats(lossy), alphabet),
                "F_classical": classical_gaussian_alphabet(v).fidelity,
            }
        )
    return rows


def cmd_sweep(args) -> int:
    vmin = _merge(args, "vmin")
    vmax = _merge(args, "vmax")
    steps = _merge(args, "steps")
    if vmin is None or vmax is None or steps is None:
        raise UsageError("sweep requires --vmin, --vmax and --steps")
    vmin, vmax, steps = float(vmin), float(vmax), int(steps)
    for name, value in (("vmin", vmin), ("vmax", vmax)):
        if not math.isfinite(value):
            raise UsageError(f"{name} must be finite, got {value}")
    if vmin <= 0 or vmax <= vmin or steps < 2:
        raise UsageError("need 0 < vmin < vmax and steps >= 2")
    mode = _merge(args, "mode", "optimal")
    if mode not in ("optimal", "fixed"):
        raise UsageError(f"unknown sweep mode {mode!r}")
    eta = _check_fraction("eta", float(_merge(args, "eta", 1.0)))
    vis = float(_merge(args, "visibility", 1.0))
    t1 = gx = gp = None
    if mode == "fixed":
        t1 = _merge(args, "t1")
        if t1 is None:
            raise UsageError("fixed mode requires --t1")
        t1 = float(t1)
        if not 0.0 < t1 <= 1.0:
            raise UsageError("t1 must lie in (0, 1]")
        gx = float(_merge(args, "gx", matched_gain(t1)))
        gp = float(_merge(args, "gp", gx))
    fmt = _merge(args, "format", "csv")
    if fmt not in ("csv", "json"):
        raise UsageError(f"unknown format {fmt!r}")

    rows = _sweep_rows(np.linspace(vmin, vmax, steps), mode, t1, gx, gp, eta, vis)
    if fmt == "csv":
        lines = [SWEEP_HEADER]
        lines += [",".join(_fmt(row[k]) for k in SWEEP_HEADER.split(",")) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(rows, indent=2, allow_nan=False) + "\n"
    _emit(text, _merge(args, "out", "-"))
    return 0


# ---------------------------------------------------------------------------
# optimize

def cmd_optimize(args) -> int:
    v = _merge(args, "V")
    if v is None:
        raise UsageError("optimize requires --V")
    v = float(v)
    if v <= 0:
        raise UsageError("V must be positive")
    result = optimize.optimize_t1(v)
    t1 = result.params.t1
    report = {
        "V": v,
        "T1": t1,
        "gain": matched_gain(t1),
        "lambda": 1.0 / math.sqrt(2.0 * t1),
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
    ancilla = _merge(args, "ancilla", "vacuum")
    if ancilla not in ("vacuum", "squeezed"):
        raise UsageError(f"unknown ancilla model {ancilla!r}")
    if ancilla == "squeezed":
        p1_var = float(_merge(args, "p1-var", 1e-6))
        x3_var = float(_merge(args, "x3-var", math.sqrt(8.0 / 5.0)))
    else:
        p1_var = float(_merge(args, "p1-var", 1.0))
        x3_var = float(_merge(args, "x3-var", 1.0))
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
    v = _merge(args, "V")
    phase_known = bool(_merge(args, "phase-known", False))
    if (v is None) == (not phase_known):
        raise UsageError("mc requires exactly one of --V or --phase-known")
    n_traj = _merge(args, "trajectories")
    if n_traj is None:
        raise UsageError("mc requires --trajectories")
    n_traj = int(n_traj)
    if n_traj < 1:
        raise UsageError("trajectories must be positive")
    seed = int(_merge(args, "seed", os.environ.get("CVCLONE_SEED", DEFAULT_SEED)))
    eta = _check_fraction("eta", float(_merge(args, "eta", 1.0)))
    vis = float(_merge(args, "visibility", 1.0))
    elec = float(_merge(args, "elec-noise", 0.0))
    if not (math.isfinite(elec) and elec >= 0):
        raise UsageError("elec-noise must be finite and non-negative")
    workers = int(_merge(args, "workers", 1))

    if phase_known:
        cfg = phase_known_machine(eta_ff=eta, visibility=vis)
        alphabet = KnownPhase()
        label = {"machine": "phase-known"}
    else:
        v = float(v)
        if v <= 0:
            raise UsageError("V must be positive")
        cfg = gaussian_machine(optimal_gaussian_fidelity(v).t1, eta, vis)
        alphabet = SymmetricGaussian(v)
        label = {"machine": "gaussian-optimal", "V": v}

    batch = montecarlo.run_batch(cfg, alphabet, n_traj, seed, elec, workers)
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

def verification_checks() -> list[tuple[str, float, float]]:
    """Closed-form identity suite: (name, gap, tolerance) rows."""
    checks: list[tuple[str, float, float]] = []

    gaps = []
    for v in np.arange(0.2, 5.01, 0.2):
        res = optimize.optimize_t1(float(v))
        gaps.append(res.certificate["fidelity"])
    checks.append(("gaussian-optimum-matches-closed-form", max(gaps), 1e-9))

    vt = BEAM_SPLITTER_THRESHOLD
    upper = (4.0 * vt + 2.0) / (6.0 * vt + 1.0)
    lower = 1.0 / ((3.0 - 2.0 * math.sqrt(2.0)) * vt + 1.0)
    checks.append(("optimum-branches-continuous-at-threshold", abs(upper - lower), 1e-12))

    flat = average_fidelity(heisenberg_clone_stats(gaussian_machine(0.5)), SymmetricGaussian(1e6))
    checks.append(("flat-limit-fidelity-two-thirds", abs(flat - 2.0 / 3.0), 1e-4))

    vac = average_fidelity(
        phase_known_clone_stats((1.0, 1.0), (1.0, 1.0)), KnownPhase()
    )
    checks.append(("phase-known-vacuum-fidelity", abs(vac - 2.0 / math.sqrt(5.0)), 1e-9))

    squeezed = average_fidelity(
        phase_known_clone_stats((1e6, 1e-6), (math.sqrt(8.0 / 5.0), math.sqrt(5.0 / 8.0))),
        KnownPhase(),
    )
    bound = phase_known_optimal_bound()
    checks.append(("phase-known-squeezed-reaches-bound", abs(squeezed - bound.fidelity), 1e-6))

    res = optimize.optimize_phase_known("squeezed-ancillas")
    checks.append(
        (
            "phase-known-optimizer-parameters",
            max(res.certificate["lambda_p"], res.certificate["dn_x"], res.certificate["dn_p"]),
            1e-4,
        )
    )

    res = optimize.optimize_classical("homodyne-squeezed")
    checks.append(("classical-known-phase-oracle", res.certificate["fidelity"], 1e-6))
    checks.append(("classical-known-phase-squeezing", res.certificate["prep_var_x"], 1e-3))

    gaps = []
    for v in (0.5, 1.0, 1.72, 3.0, 5.0):
        res = optimize.optimize_classical("heterodyne-reprepare", SymmetricGaussian(v))
        gaps.append(res.certificate["fidelity"])
    checks.append(("classical-gaussian-oracle", max(gaps), 1e-6))

    gaps = []
    for t1 in np.linspace(0.05, 1.0, 39):
        stats = heisenberg_clone_stats(gaussian_machine(float(t1)))
        gaps.append(abs(stats.lambda_x - 1.0 / math.sqrt(2.0 * t1)))
        gaps.append(abs(stats.lambda_p - 1.0 / math.sqrt(2.0 * t1)))
    checks.append(("matched-gain-law", max(gaps), 1e-12))

    rng = np.random.default_rng(7)
    gaps = []
    base = heisenberg_clone_stats(gaussian_machine(0.7))
    for _ in range(50):
        vx = float(np.exp(rng.uniform(-1.5, 1.5)))
        vp = float(rng.uniform(1.0, 3.0)) / vx
        stats = heisenberg_clone_stats(gaussian_machine(0.7, anc1=(vx, vp)))
        gaps.append(
            max(
                abs(stats.lambda_x - base.lambda_x),
                abs(stats.lambda_p - base.lambda_p),
                abs(stats.sigma_x - base.sigma_x),
                abs(stats.sigma_p - base.sigma_p),
            )
        )
    checks.append(("tap-ancilla-cancellation", max(gaps), 1e-10))

    rng = np.random.default_rng(11)
    worst = math.inf
    for _ in range(1000):
        cfg = _random_config(rng)
        dn_x, dn_p = heisenberg_clone_stats(cfg).referred_noise()
        worst = min(worst, dn_x * dn_p)
    checks.append(("referred-noise-uncertainty-product", max(0.0, 1.0 - worst), 1e-9))

    return checks


def _random_config(rng: np.random.Generator) -> ClonerConfig:
    vx1 = float(np.exp(rng.uniform(-1.2, 1.2)))
    vx3 = float(np.exp(rng.uniform(-1.2, 1.2)))
    return ClonerConfig(
        t1=float(rng.uniform(0.05, 1.0)),
        t2=float(rng.uniform(0.1, 0.95)),
        g_x=float(rng.uniform(0.0, 2.5)),
        g_p=float(rng.uniform(0.0, 2.5)),
        anc1=(vx1, float(rng.uniform(1.0, 3.0)) / vx1),
        anc3=(vx3, float(rng.uniform(1.0, 3.0)) / vx3),
        eta_ff=float(rng.uniform(0.85, 1.0)),
        visibility=float(rng.uniform(0.9, 1.0)),
    )


def cmd_verify(args) -> int:
    checks = verification_checks()
    ok = True
    for name, gap, tol in checks:
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

    def add_config(p):
        p.add_argument("--config", help="JSON file with default flag values")

    p = sub.add_parser("sweep", help="fidelity-vs-V table (CSV or JSON)")
    add_config(p)
    p.add_argument("--alphabet", choices=["gaussian"], default="gaussian")
    p.add_argument("--vmin", type=float)
    p.add_argument("--vmax", type=float)
    p.add_argument("--steps", type=int)
    p.add_argument("--eta", type=float)
    p.add_argument("--visibility", type=float)
    p.add_argument("--mode", choices=["optimal", "fixed"])
    p.add_argument("--t1", type=float)
    p.add_argument("--gx", type=float)
    p.add_argument("--gp", type=float)
    p.add_argument("--out")
    p.add_argument("--format", choices=["csv", "json"])
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("optimize", help="optimal machine for a Gaussian alphabet")
    add_config(p)
    p.add_argument("--V", type=float)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("phase-known", help="phase-known machine report")
    add_config(p)
    p.add_argument("--ancilla", choices=["vacuum", "squeezed"])
    p.add_argument("--p1-var", type=float, dest="p1_var")
    p.add_argument("--x3-var", type=float, dest="x3_var")
    p.set_defaults(func=cmd_phase_known)

    p = sub.add_parser("mc", help="Monte Carlo run with z-score self-check")
    add_config(p)
    p.add_argument("--V", type=float)
    p.add_argument("--phase-known", action="store_const", const=True, dest="phase_known")
    p.add_argument("--trajectories", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--eta", type=float)
    p.add_argument("--visibility", type=float)
    p.add_argument("--elec-noise", type=float, dest="elec_noise")
    p.add_argument("--workers", type=int, help="accepted for compatibility; runs are serial")
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser("verify", help="closed-form identity suite")
    add_config(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args._config_values = _load_config(getattr(args, "config", None))
        return args.func(args)
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
