"""The benchmark's hold on the package: every function perfbench traces exists and binds.

`perfbench/` wraps xlwalk functions by module and attribute name, and its
counters read the wrapped calls' arguments. A rename or a changed signature
would otherwise surface only when the benchmark runs; these tests make it
fail the test suite instead.
"""
import importlib
import inspect
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import bench  # noqa: E402
from tracing import Tracer, summarize_spans  # noqa: E402

from xlwalk import experiment, learner, policy  # noqa: E402

from .test_simulate_reference import UNEVEN  # noqa: E402


def _bindings():
    """Every callable that a loaded xlwalk module binds, keyed by (module, name)."""
    modules = [m for n, m in list(sys.modules.items()) if n == "xlwalk" or n.startswith("xlwalk.")]
    return {(m.__name__, k): v for m in modules for k, v in vars(m).items() if callable(v)}


def _traced(target):
    return getattr(importlib.import_module(target.module), target.attr, None)


@pytest.mark.parametrize("target", bench.TARGETS, ids=lambda t: f"{t.module}.{t.attr}")
def test_target_resolves_to_a_callable(target):
    assert callable(_traced(target))


def test_tracer_restores_every_original_on_exit():
    before = _bindings()
    with Tracer(bench.TARGETS):
        for target in bench.TARGETS:
            assert _traced(target) is not before[(target.module, target.attr)]
    assert _bindings() == before


def test_counters_bind_like_the_functions_they_count():
    counted = {(t.module, t.attr): t for t in bench.TARGETS if t.count is not None}
    assert counted[("xlwalk.learner", "sgd_steps")].count is bench._sgd_count
    assert counted[("xlwalk.policy", "build_transition")].count is bench._rows_count
    assert _traced(counted[("xlwalk.learner", "sgd_steps")]) is learner.sgd_steps
    assert _traced(counted[("xlwalk.policy", "build_transition")]) is policy.build_transition
    for target in counted.values():
        want = inspect.signature(_traced(target)).parameters
        got = inspect.signature(target.count).parameters
        # same names in the same order, optional exactly where the function's are,
        # so any positional or keyword call of the function also binds the counter
        assert list(got) == list(want), target.attr
        for name in want:
            empty = inspect.Parameter.empty
            assert (got[name].default is empty) == (want[name].default is empty), (target.attr, name)
            assert got[name].kind == want[name].kind, (target.attr, name)



def test_traced_steps_match_the_walkers_on_a_lockstep_run():
    """Walkers that train in lockstep still make one counted `sgd_steps` call per non-empty
    visit, so the traced step count is the walkers' own, on unequal budgets and empty nodes."""
    cfg = UNEVEN["softmax-empty-nodes"]
    with Tracer(bench.TARGETS) as tracer:
        results = experiment.run_many([(cfg, 0)], threads=1)
    visits = [ev["iters"] for ev in results[0].events if ev["kind"] == "visit"]
    assert 0 in visits and len(set(visits) - {0}) > 1
    assert tracer.counts["learner.steps"] == bench.total_cum_iters(results) == sum(visits)
    assert summarize_spans(tracer.spans)["learner.sgd_steps"]["calls"] == sum(1 for k in visits if k > 0)
