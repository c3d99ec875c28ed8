#!/usr/bin/env python3
"""Amplitude-noise budget of the phase-known cloner.

Prints the clone amplitude noise in dB above shot noise for the ideal
machine and for the lossy feedforward model, together with the fidelities,
the classical baseline and the optimal bound, and optionally cross-checks
the lossy figure with a Monte Carlo run.

Example, with cvclone installed (``pip install -e .``) or ``src`` on
PYTHONPATH:
    python scripts/figure4_noise.py --trajectories 50000
"""

import argparse
import json

from cvclone.experiments import reproduce_figure4


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--eta", type=float, default=0.95)
    ap.add_argument("--visibility", type=float, default=0.99)
    ap.add_argument("--lambda-x", type=float, default=1.0, dest="lambda_x")
    ap.add_argument("--trajectories", type=int, default=0)
    ap.add_argument("--seed", type=int, default=20240601)
    args = ap.parse_args()

    try:
        report = reproduce_figure4(
            eta_ff=args.eta,
            visibility=args.visibility,
            lambda_x=args.lambda_x,
            n_traj=args.trajectories,
            seed=args.seed,
        )
    except ValueError as exc:
        ap.error(str(exc))
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
