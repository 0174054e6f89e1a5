"""Tests of the benchmark's own logic. Run with: python3 -m pytest perfbench -q"""
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import bench  # noqa: E402
import xlwalk  # noqa: E402
from tracing import Span, Tracer, self_times, summarize_spans  # noqa: E402
from xlwalk import experiment, learner, preset_configs, swarm, topology, walker  # noqa: E402


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 4.0, 0),
        Span("b", 3.0, 6.0, 0),  # overlaps a: together they cover [1, 6]
        Span("c", 2.0, 3.0, 1),
        Span("d", 8.0, 12.0, 0),  # runs past its parent: only [8, 10] counts
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 3.0, 1.0, 4.0])


def test_busy_time_counts_nested_repeats_once():
    spans = [
        Span("f", 0.0, 10.0, None),
        Span("f", 2.0, 5.0, 0),
        Span("g", 5.0, 7.0, 0),
        Span("f", 20.0, 21.0, None),
    ]
    agg = summarize_spans(spans)
    assert agg["f"]["calls"] == 3
    assert agg["f"]["busy_s"] == pytest.approx(11.0)
    assert agg["f"]["self_s"] == pytest.approx(5.0 + 3.0 + 1.0)
    assert agg["g"] == {"calls": 1, "busy_s": pytest.approx(2.0), "self_s": pytest.approx(2.0)}


def _bindings():
    modules = [m for n, m in sys.modules.items() if n == "xlwalk" or n.startswith("xlwalk.")]
    return {(m.__name__, k): v for m in modules for k, v in vars(m).items() if callable(v)}


def _tiny_cells():
    cfg = replace(preset_configs("fig6", 1)[2], jumps=40)  # strongest attraction: pursuits within 40 jumps
    return [(cfg, 0)]


def test_wrappers_are_restored_after_a_traced_run():
    before = _bindings()
    original = learner.sgd_steps
    tracer = Tracer(bench.TARGETS)
    with tracer:
        assert walker.sgd_steps is learner.sgd_steps is not original
        assert xlwalk.run_many is experiment.run_many is not before[("xlwalk.experiment", "run_many")]
        results = experiment.run_many(_tiny_cells(), threads=1)
    assert _bindings() == before
    assert walker.sgd_steps is learner.sgd_steps and swarm.shortest_path_distances is topology.shortest_path_distances
    names = {s.name for s in tracer.spans}
    # reached only through names bound by import in walker and swarm
    assert {"learner.sgd_steps", "topology.bfs", "experiment.simulate"} <= names
    assert tracer.counts["learner.steps"] == bench.total_cum_iters(results)


def test_wrappers_are_restored_when_the_traced_run_raises():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with Tracer(bench.TARGETS):
            raise RuntimeError("boom")
    assert _bindings() == before


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_seed_s_runs_simulation_seeds_s_to_s_plus_n_minus_1(name):
    w = bench.WORKLOADS[name]
    cells = w.cells(7)
    series = [cfg.series_label for cfg in preset_configs(w.preset, w.n_seeds)]
    expected = [(label, s) for label in series for s in range(7, 7 + w.n_seeds)]
    assert [(cfg.series_label, seed) for cfg, seed in cells] == expected
    assert all(cfg.seeds == tuple(range(7, 7 + w.n_seeds)) for cfg, _ in cells)


def test_default_seed_cells_are_the_cli_preset_cells():
    for w in bench.WORKLOADS.values():
        cli_cells = [(cfg, s) for cfg in preset_configs(w.preset, w.n_seeds) for s in cfg.seeds]
        assert w.cells(bench.DEFAULT_SEED) == cli_cells


def test_cell_checks_flag_broken_results():
    (cfg, seed), = _tiny_cells()
    res = experiment.run_many([(cfg, seed)], threads=1)[0]
    assert bench.cell_problems(cfg, res, None) == []
    assert bench.cell_problems(cfg, res, res.metrics.final_accuracy + 0.5)
    first_visit = next(i for i, ev in enumerate(res.events) if ev["kind"] == "visit")
    dropped = replace(res, events=res.events[:first_visit] + res.events[first_visit + 1:])
    assert bench.cell_problems(cfg, dropped, None)
    t, wid, loss, acc, cum = res.metrics.rows[-1]
    for bad_row in [(t, wid, math.nan, acc, cum), (t, wid, loss, 1.5, cum), (t, wid, loss, acc, cum + 1)]:
        metrics = replace(res.metrics, rows=res.metrics.rows[:-1] + [bad_row])
        assert bench.cell_problems(cfg, replace(res, metrics=metrics), None)


def test_every_metric_in_benchmark_json_is_produced():
    spec = bench.load_spec()
    for trace in (0, 1):
        record = {"trace": trace, "values": {}}
        metrics = bench.result_metrics(record, spec)
        group = spec["per_layer"] if trace else spec["end_to_end"]
        assert list(metrics) == [m["name"] for m in group]


def test_reference_matches_the_workload_table():
    ref = json.loads(bench.REFERENCE.read_text())
    assert ref["default_seed"] == bench.DEFAULT_SEED
    for name, w in bench.WORKLOADS.items():
        assert ref["workloads"][name]["n_seeds"] == w.n_seeds
        assert len(ref["workloads"][name]["final_acc"]) == len(w.cells(bench.DEFAULT_SEED))
