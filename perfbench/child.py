"""One workload in one fresh process: set up, then a single-client closed loop.

Run by ``run.py``; not meant to be started by hand.  The child imports
cvclone from the checkout's ``src``, builds the workload's inputs and
reports the CLOCK_MONOTONIC time at which it was ready, so the parent can
time set-up from spawn.  Unless ``--setup-only`` is given it then runs ops
back to back while the next one is expected to end within ``--seconds``.
Every op is timed, the first too: a CLI user pays first-call costs on every
invocation, and import and input building are timed apart, as set-up.

With ``--trace 1`` untraced and traced ops alternate, the traced ones with
every public cvclone function wrapped, and the per-op layer summaries are
reported; the spans are written to ``--out`` when the loop ends.

The last line of stdout is one JSON object for the parent.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _import_cvclone():
    sys.path.insert(0, str(ROOT / "src"))
    import cvclone

    where = Path(cvclone.__file__).resolve()
    if (ROOT / "src") not in where.parents:
        raise ImportError(f"cvclone imported from {where}, not from this checkout")
    return cvclone


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out", required=True, help="directory for the span file")
    args = ap.parse_args(argv)

    _import_cvclone()
    import workloads

    out_dir = Path(args.out)
    workload = workloads.WORKLOADS[args.workload](ROOT, args.seed, out_dir)
    ready = monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    tracer = None
    if args.trace:
        # imported here so that set-up time leaves out the tracing code
        from tracer import Tracer

        tracer = Tracer()

    wall, cpu, traced_wall, problems, op_layers = [], [], [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    i = 0
    while True:
        # a traced run goes in untraced and traced pairs, and every other
        # pair runs its traced op first so drift hits both sides equally
        pair, pos = divmod(i, 2)
        traced = tracer is not None and pos == (pair + 1) % 2
        lo = 0
        if traced:
            tracer.install(extra_namespaces=workload.namespaces)
            lo = tracer.open("bench.op")
        out, errors = None, []
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            out = workload.op(i)
        except Exception as exc:  # a failed op is counted, not fatal
            errors = [f"raised {exc!r}"]
        finally:
            t1, c1 = time.perf_counter(), time.process_time()
            if traced:
                tracer.close(lo)
                tracer.uninstall()
        if out is not None:
            try:
                errors = workload.check(out)
            except Exception as exc:
                errors = [f"output check raised {exc!r}"]
        attempted += 1
        if errors:
            failed += 1
            problems.extend(f"op {i}: {e}" for e in errors)
        if traced:
            if out is not None:
                tracer.counts["cli.output_bytes"] += out.cli_bytes
            op_layers.append((lo, len(tracer), tracer.take_counts()))
            traced_wall.append(t1 - t0)
        else:
            wall.append(t1 - t0)
            cpu.append(c1 - c0)
        i += 1
        # stop before an op (a pair, when tracing) that would end past the
        # time limit, judging its length by the op just run
        enough = wall and (tracer is None or len(traced_wall) == len(wall))
        next_s = (t1 - t0) * (2 if tracer else 1)
        if enough and time.perf_counter() - start + next_s > args.seconds:
            break

    result = {
        "ready": ready,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "op_wall_s": wall,
        "op_cpu_s": cpu,
        "cvclone_version": sys.modules["cvclone"].__version__,
        "numpy_version": sys.modules["numpy"].__version__,
    }
    if tracer is not None:
        result["layers"] = _layer_metrics(tracer, op_layers, traced_wall, wall)
        tracer.write(out_dir / f"spans-{args.workload}.csv.gz")
    print(json.dumps(result))
    return 0


def _layer_metrics(tracer, op_layers, traced_wall, wall) -> dict[str, float]:
    """Median over traced ops of each per-op layer figure."""
    import statistics

    from tracer import layer_summary

    self_ns = tracer.self_times()
    per_op = [layer_summary(tracer, lo, hi, self_ns, counts) for lo, hi, counts in op_layers]
    # median_low keeps a count an integer; the counts repeat from op to op
    metrics = {
        k: (statistics.median_low if isinstance(v, int) else statistics.median)(m[k] for m in per_op)
        for k, v in per_op[0].items()
    }
    # fastest traced op over fastest untraced op, as op_min_s is measured
    metrics["trace.overhead_ratio"] = min(traced_wall) / min(wall) - 1.0
    return metrics


if __name__ == "__main__":
    raise SystemExit(main())
