"""The span tracer: self-time arithmetic and binding replacement."""

import contextlib
import io
from collections import Counter

import cvclone
import cvclone.cli
from tracer import Tracer, layer_summary


def _scripted(times):
    ticks = iter(times)
    return lambda: next(ticks)


def test_self_time_subtracts_direct_children_only():
    # a [0, 100] holds b [10, 40], which holds c [15, 30]; then d [50, 70]
    t = Tracer(clock=_scripted([0, 10, 15, 30, 40, 50, 70, 100]))
    a = t.open("bench.op")
    b = t.open("optimize.optimize_t1")
    c = t.open("benchmarks.gaussian_alphabet_fidelity")
    t.close(c)
    t.close(b)
    d = t.open("gaussian.beam_splitter")
    t.close(d)
    t.close(a)

    assert list(t.parents) == [-1, a, b, a]
    assert t.self_times() == [50, 15, 15, 20]
    assert sum(t.self_times()) == t.ends[a] - t.starts[a]


def test_layer_summary_sums_self_time_per_layer():
    t = Tracer(clock=_scripted([0, 1_000, 3_000, 4_000, 9_000, 10_000]))
    root = t.open("bench.op")
    outer = t.open("cloner.CloningCircuit.run")
    inner = t.open("gaussian.GaussianState.__post_init__")
    t.close(inner)
    t.close(outer)
    t.close(root)
    m = layer_summary(t, 0, len(t), t.self_times(), Counter())
    assert m["cloner.circuit_shots"] == 1
    assert m["cloner.circuit_self_s"] == 7_000 / 1e9
    assert m["gaussian.self_s"] == 1_000 / 1e9
    assert m["gaussian.state_constructions"] == 1
    assert m["gaussian.calls"] == 0


def test_closing_out_of_order_is_an_error():
    t = Tracer()
    a = t.open("a")
    t.open("b")
    try:
        t.close(a)
    except RuntimeError:
        return
    raise AssertionError("closing an outer span first must raise")


def test_install_replaces_every_binding_and_uninstall_restores():
    original = cvclone.benchmarks.average_fidelity
    t = Tracer()
    t.install()
    try:
        # bound by `from .benchmarks import average_fidelity` in three places
        for module in (cvclone, cvclone.benchmarks, cvclone.montecarlo, cvclone.cli):
            assert module.average_fidelity is not original
            assert module.average_fidelity.__wrapped__ is original
        with contextlib.redirect_stdout(io.StringIO()):
            assert cvclone.cli.main(["optimize", "--V", "1.72"]) == 0
    finally:
        t.uninstall()
    for module in (cvclone, cvclone.benchmarks, cvclone.montecarlo, cvclone.cli):
        assert module.average_fidelity is original

    names = [t.name(i) for i in range(len(t))]
    assert names[0] == "cli.main"
    opt = names.index("optimize.optimize_t1")
    assert t.name(t.parents[opt]).startswith("cli.")
    evals = [i for i, n in enumerate(names) if n == "benchmarks.gaussian_alphabet_fidelity"]
    assert evals and all(t.name(t.parents[i]).startswith("optimize.") for i in evals)
    assert t.take_counts()["optimize.objective_evals"] == len(evals)
