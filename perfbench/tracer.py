"""In-memory span tracer for the traced benchmark run.

The tracer wraps the public functions of each cvclone module from outside
the library.  Modules bind names with ``from .x import y``, so a wrapper is
useless unless every binding of the original function is replaced; the
tracer therefore scans every loaded ``cvclone`` module (and any extra
namespace the caller names, such as a loaded script) and swaps each binding
that is the original object.  ``uninstall`` puts the originals back.

A span is (name, start, end, parent).  Spans live in flat arrays while the
run lasts and are written once, when it ends.  A span's self time is its
duration minus the durations of its direct children; the calls are
single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter

LAYERS = ("gaussian", "cloner", "benchmarks", "optimize", "montecarlo", "cli")

# methods traced besides the module-level functions: the constructor check
# that every Gaussian operation pays, and the per-shot circuit
METHODS = {"gaussian": ("GaussianState.__post_init__",), "cloner": ("CloningCircuit.run",)}


def _count_batch(counts: Counter, batch) -> None:
    counts["montecarlo.trajectories"] += batch.n_traj
    # computed from the array sizes, not measured
    counts["montecarlo.record_bytes"] += (
        batch.input_means.nbytes + batch.outcomes.nbytes + batch.clone_means.nbytes
    )


def _count_optimizer(counts: Counter, result) -> None:
    if type(result).__name__ == "OptimizationResult":
        counts["optimize.objective_evals"] += result.iterations


# result hooks: counts taken at the layer boundary from what a call returns
RESULT_HOOKS = {"montecarlo.run_batch": _count_batch}
LAYER_HOOKS = {"optimize": _count_optimizer}


class Tracer:
    """Records nested spans and boundary counts while installed."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.starts)

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.starts)
        self.name_ids.append(nid)
        self.parents.append(self._stack[-1])
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = self.clock()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {idx} closed while span {popped} was open")

    def name(self, idx: int) -> str:
        return self.names[self.name_ids[idx]]

    def wrap(self, name: str, fn):
        hook = RESULT_HOOKS.get(name) or LAYER_HOOKS.get(name.split(".", 1)[0])
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if hook is not None:
                hook(counts, result)
            return result

        return traced

    def install(self, package: str = "cvclone", extra_namespaces=()) -> None:
        """Wrap every public function of the layer modules and replace each
        binding of it in the package's modules and ``extra_namespaces``."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        namespaces = [
            m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")
        ]
        namespaces += list(extra_namespaces)
        for layer in LAYERS:
            module = importlib.import_module(f"{package}.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                wrapper = self.wrap(f"{layer}.{attr}", obj)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is obj:
                            self._patch(ns, key, wrapper)
            for path in METHODS.get(layer, ()):
                cls_name, meth = path.split(".")
                cls = getattr(module, cls_name)
                self._patch(cls, meth, self.wrap(f"{layer}.{path}", vars(cls)[meth]))

    def _patch(self, owner, key: str, value) -> None:
        self._patches.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def take_counts(self) -> Counter:
        counts = Counter(self.counts)
        self.counts.clear()
        return counts

    def self_times(self) -> list[int]:
        """Self time of every span, in clock units."""
        child = [0] * len(self.starts)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        return [self.ends[i] - self.starts[i] - child[i] for i in range(len(self.starts))]

    def write(self, path) -> None:
        """Write every span as one gzipped CSV line: id,name,start_ns,end_ns,parent."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id,name,start_ns,end_ns,parent\n")
            for i in range(len(self.starts)):
                fh.write(
                    f"{i},{self.name(i)},{self.starts[i]},{self.ends[i]},{self.parents[i]}\n"
                )


# boundary counts reported as they are, per op
COUNTED = (
    "montecarlo.trajectories",
    "montecarlo.record_bytes",
    "optimize.objective_evals",
    "cli.output_bytes",
)


def layer_summary(
    tracer: Tracer, lo: int, hi: int, self_ns: list[int], counts: Counter
) -> dict[str, float]:
    """Per-layer figures of one op: call counts and self times (seconds) of
    the spans in [lo, hi), plus the boundary ``counts`` taken during it."""
    calls: Counter = Counter()
    self_by_name: Counter = Counter()
    for i in range(lo, hi):
        name = tracer.name(i)
        calls[name] += 1
        self_by_name[name] += self_ns[i]

    def named(*names: str):
        return sum(calls[n] for n in names), sum(self_by_name[n] for n in names) / 1e9

    out: dict[str, float] = {}
    for prefix in LAYERS:
        layer = [n for n in calls if n.startswith(prefix + ".")]
        out[f"{prefix}.calls"], out[f"{prefix}.self_s"] = named(*layer)
    # a state construction is counted apart from the gaussian function calls
    out["gaussian.state_constructions"] = calls["gaussian.GaussianState.__post_init__"]
    out["gaussian.calls"] -= out["gaussian.state_constructions"]
    out["gaussian.measure_calls"] = calls["gaussian.measure_quadrature"]
    out["cloner.stats_calls"], out["cloner.stats_self_s"] = named(
        "cloner.heisenberg_clone_stats", "cloner.phase_known_clone_stats"
    )
    out["cloner.circuit_shots"], out["cloner.circuit_self_s"] = named("cloner.CloningCircuit.run")
    out["montecarlo.batches"], out["montecarlo.run_batch_self_s"] = named("montecarlo.run_batch")
    out["montecarlo.compare_self_s"] = named("montecarlo.compare_with_analytic")[1]
    out["optimize.gh_integrals"] = named(
        "optimize.heterodyne_reprepare_fidelity", "optimize.homodyne_squeezed_fidelity"
    )[0]
    for name in COUNTED:
        out[name] = counts[name]
    trajectories = out["montecarlo.trajectories"]
    out["montecarlo.ns_per_traj"] = (
        out["montecarlo.run_batch_self_s"] * 1e9 / trajectories if trajectories else 0.0
    )
    return out
