#!/usr/bin/env python3
"""Sweep the average cloning fidelity against the width of the input alphabet.

Tabulates, per alphabet variance V: the ideal optimum, the lossy-feedforward
machine, the classical measure-and-prepare baseline, and a Monte Carlo
estimate of the lossy machine.  Writes CSV and, when matplotlib is
installed and --plot is given, a figure with the fidelity curves against
sqrt(V).

Example, with cvclone installed (``pip install -e .``) or ``src`` on
PYTHONPATH:
    python scripts/figure3_sweep.py --out fig3.csv --plot fig3.png
"""

import argparse
import csv
import math
import sys

import numpy as np

from cvclone.experiments import MAX_SWEEP_STEPS, reproduce_figure3


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sqrt-vmin", type=float, default=0.5)
    ap.add_argument("--sqrt-vmax", type=float, default=2.3)
    ap.add_argument("--steps", type=int, default=13)
    ap.add_argument("--eta", type=float, default=0.95)
    ap.add_argument("--visibility", type=float, default=0.99)
    ap.add_argument("--trajectories", type=int, default=20000)
    ap.add_argument("--seed", type=int, default=20240601)
    ap.add_argument("--out", default="fig3.csv")
    ap.add_argument("--plot", default=None, help="optional PNG path")
    args = ap.parse_args()
    if not 1 <= args.steps <= MAX_SWEEP_STEPS:
        ap.error(f"--steps must lie in [1, {MAX_SWEEP_STEPS}], got {args.steps}")
    for flag, value in (("--sqrt-vmin", args.sqrt_vmin), ("--sqrt-vmax", args.sqrt_vmax)):
        if not value > 0.0:
            ap.error(f"{flag} must be positive, got {value}")

    try:
        sqrt_v = np.linspace(args.sqrt_vmin, args.sqrt_vmax, args.steps)
        rows = reproduce_figure3(
            (sqrt_v**2).tolist(),
            eta_ff=args.eta,
            visibility=args.visibility,
            n_traj=args.trajectories,
            seed=args.seed,
        )
    except ValueError as exc:
        ap.error(str(exc))

    fields = ["sqrt_v", "v", "t1", "gain", "f_ideal", "f_imperfect", "f_classical", "f_mc", "se_mc"]
    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    for r in rows:
        print(
            f"sqrtV={r['sqrt_v']:.3f}  F_ideal={r['f_ideal']:.4f}  "
            f"F_lossy={r['f_imperfect']:.4f}  F_classical={r['f_classical']:.4f}  "
            f"F_mc={r['f_mc']:.4f}+-{r['se_mc']:.4f}"
        )

    if args.plot:
        try:
            import matplotlib

            matplotlib.use("Agg")
            import matplotlib.pyplot as plt
        except ImportError:
            print("matplotlib not available, skipping plot", file=sys.stderr)
            return 0
        xs = [r["sqrt_v"] for r in rows]
        fig, ax = plt.subplots(figsize=(6, 4))
        ax.plot(xs, [r["f_ideal"] for r in rows], "k-", label="ideal optimum")
        ax.plot(xs, [r["f_imperfect"] for r in rows], "k--", label="lossy feedforward")
        ax.plot(xs, [r["f_classical"] for r in rows], "k:", label="measure and prepare")
        ax.errorbar(
            xs, [r["f_mc"] for r in rows], yerr=[3 * r["se_mc"] for r in rows],
            fmt="ro", ms=4, label="Monte Carlo (lossy)",
        )
        ax.axvspan(0, math.sqrt(0.5 + 1 / math.sqrt(2)), alpha=0.15, color="grey")
        ax.set_xlabel(r"$\sqrt{V}$")
        ax.set_ylabel("average fidelity")
        ax.legend()
        fig.tight_layout()
        fig.savefig(args.plot, dpi=150)
        print(f"wrote {args.plot}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
