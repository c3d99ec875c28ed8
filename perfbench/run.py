#!/usr/bin/env python3
"""cvclone benchmark: time whole user operations, and their layers when traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload figure3 --seed 1 --seconds 40 --trace 0

Each run starts fresh child processes (``child.py``).  Set-up is timed in
several set-up-only children and in the measuring child, from spawn until
cvclone is imported and the inputs are built; the median is ``setup_s``.
The measuring child runs one client in a closed loop: the next op starts
when the previous one has returned and been checked.  ``op_min_s`` and
``op_cpu_min_s`` are the fastest op of the run: on a shared host other
tenants only ever slow an op down, by up to about 2x for seconds to minutes,
so the minimum over many short ops is the program's own cost and medians
mostly measure the neighbours; the median and quartiles are printed and
written to the report too.  Peak RSS and CPU
come from the child's own rusage; nothing outside the benchmark's own child
processes is measured.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` the per-layer metrics from the traced ops; names and units
come from ``BENCHMARK.json`` at the checkout root.  Human-readable
lines come first; the last line of stdout is one JSON object.  A report
with every op time and the provenance, and in a traced run the span file,
go to ``perfbench/out``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("figure3", "mc-phase-known", "oracles")
SETUP_SAMPLES = 9  # eight set-up-only children plus the measuring child
RUN_LIMIT_S = 170.0  # every child is killed past this, so a run ends in time
# numpy's BLAS would start a thread per CPU that spins on the shared host's
# other CPUs; the children get one, so an op is timed on one thread
THREAD_ENV = {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
NOTE = "only the benchmark's own child processes were measured; no system-wide tracing"


class ChildFailed(RuntimeError):
    pass


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn(argv: list[str], deadline: float):
    """Run child.py to completion; return its result, rusage and spawn time."""
    cmd = [sys.executable, str(HERE / "child.py"), *argv, "--out", str(OUT)]
    t_spawn = monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, env={**os.environ, **THREAD_ENV})
    # os.kill, not proc.kill: Popen.kill may reap the child before wait4 does
    timer = threading.Timer(max(deadline - monotonic(), 0.0), os.kill, (proc.pid, signal.SIGKILL))
    timer.start()
    try:
        data = proc.stdout.read()
    finally:
        proc.stdout.close()
        timer.cancel()
        timer.join()
        _, status, rusage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise ChildFailed(f"child {' '.join(argv)} exited {proc.returncode}")
    lines = data.decode().strip().splitlines()
    if not lines:
        raise ChildFailed(f"child {' '.join(argv)} printed no result")
    return json.loads(lines[-1]), rusage, t_spawn


def git_commit(root: Path) -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def quartiles(values: list[float]) -> dict[str, float]:
    if len(values) < 2:
        return {"p25": values[0], "p50": values[0], "p75": values[0], "n": len(values)}
    q1, q2, q3 = statistics.quantiles(values, n=4)  # q2 is the median
    return {"p25": q1, "p50": q2, "p75": q3, "n": len(values)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="cvclone benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    for needed in (ROOT / "src" / "cvclone" / "__init__.py", ROOT / "scripts" / "figure3_sweep.py"):
        if not needed.is_file():
            sys.stderr.write(f"error: {needed.relative_to(ROOT)} is missing; run from a cvclone checkout\n")
            return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    deadline = monotonic() + RUN_LIMIT_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                ready, _, t_spawn = spawn(common + ["--setup-only"], deadline)
                setups.append(ready["ready"] - t_spawn)
        result, rusage, t_spawn = spawn(
            common + ["--seconds", str(args.seconds), "--trace", str(args.trace)], deadline
        )
    except ChildFailed as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    setups.append(result["ready"] - t_spawn)

    attempted, failed = result["attempted"], result["failed"]
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": result["numpy_version"],
        "cvclone": result["cvclone_version"],
        "git_commit": git_commit(ROOT) or "unknown (not a git checkout)",
        "loop": "closed, one client, workers=1",
        "thread_env": THREAD_ENV,
        "note": NOTE,
    }
    if args.trace:
        values, timings = result["layers"], {}
    else:
        timings = {
            "op_wall_s": quartiles(result["op_wall_s"]),
            "op_cpu_s": quartiles(result["op_cpu_s"]),
            "setup_s": quartiles(setups),
        }
        values = {
            "setup_s": timings["setup_s"]["p50"],
            "op_min_s": min(result["op_wall_s"]),
            "op_cpu_min_s": min(result["op_cpu_s"]),
            "peak_rss_mb": rusage.ru_maxrss / 1024.0,
        }
    declared = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    for key, value in provenance.items():
        print(f"# {key}: {value}")
    for name, t in timings.items():
        print(f"# {name}: median {t['p50']:.6g} s, quartiles {t['p25']:.6g}..{t['p75']:.6g} s, n={t['n']}")
    print(f"# failed_op_ratio: {failed / attempted:.6g} ({failed} of {attempted} ops)")
    for problem in result["problems"]:
        print(f"# FAILED {problem}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")

    report = {
        "provenance": provenance,
        "metrics": metrics,
        "timings": timings,
        "op_wall_s": result["op_wall_s"],
        "op_cpu_s": result["op_cpu_s"],
        "setup_samples_s": setups,
        "attempted": attempted,
        "failed": failed,
        "problems": result["problems"],
    }
    (OUT / f"report-{args.workload}-trace{args.trace}.json").write_text(json.dumps(report, indent=2))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
