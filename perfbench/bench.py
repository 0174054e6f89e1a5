"""Benchmark driver: run one preset workload through xlwalk's public API.

A run does the work `xlwalk preset` does -- `preset_configs` -> `run_many` ->
events JSONL, `metrics_to_csv`, `summarize` -- in a closed loop: one batch of
(series, seed) cells runs to completion, its artifacts are written, and the
next batch starts, until `--seconds` have passed. Before each batch, a set-up
phase times `build_environment` once per distinct world, repeated for at least
SETUP_PHASE_S; `setup_s` is the median of those timings over the run.

With `--trace 0` the run reports the end-to-end metrics of BENCHMARK.json as
medians over its batches. With `--trace 1` it alternates untraced and traced
batches and reports the per-layer metrics from the traced ones. The last line
of standard output is the JSON result; the lines before it name every metric
with its unit, the operation counts, the checks and a machine block.
"""
from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import pickle
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from xlwalk import cli, experiment, preset_configs

from tracing import Target, Tracer, summarize_spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"
ARTIFACTS = ("events.jsonl", "metrics.csv", "summary.csv")
DEFAULT_SEED = 0
ACC_TOLERANCE = 0.02  # absolute; one validation sample is 0.001
SETUP_PHASE_S = 0.2  # each set-up phase repeats its builds until this much time has passed


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    n_seeds: int

    def cells(self, seed: int) -> list[tuple[experiment.ExperimentConfig, int]]:
        """Every series of the preset over simulation seeds seed..seed+n_seeds-1, in CLI order."""
        seeds = tuple(range(seed, seed + self.n_seeds))
        configs = [replace(cfg, seeds=seeds) for cfg in preset_configs(self.preset, self.n_seeds)]
        return [(cfg, s) for cfg in configs for s in cfg.seeds]


# Sized so one batch takes roughly 3-5 s on one core of a 2.1 GHz Xeon.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("train-single", "fig2", 1),
        Workload("swarm-attract", "fig6", 1),
        Workload("setup-heavy", "fig4", 4),
    )
}


def _sgd_count(m, features, labels, k, cfg, rng):
    return "learner.steps", k


def _rows_count(g, importance, kind=None):
    return "policy.rows_built", g.node_count


TARGETS = [
    Target("xlwalk.learner", "sgd_steps", "learner.sgd_steps", _sgd_count),
    Target("xlwalk.learner", "evaluate", "learner.evaluate"),
    Target("xlwalk.learner", "weighted_average", "learner.weighted_average"),
    Target("xlwalk.walker", "step", "walker.step"),
    Target("xlwalk.walker", "visit", "walker.visit"),
    Target("xlwalk.walker", "perception_refresh", "walker.perception_refresh"),
    Target("xlwalk.walker", "memory_merge", "walker.memory_merge"),
    Target("xlwalk.policy", "build_transition", "policy.build_transition", _rows_count),
    Target("xlwalk.topology", "betweenness", "topology.betweenness"),
    Target("xlwalk.topology", "gen_connected_caveman", "topology.gen"),
    Target("xlwalk.topology", "gen_rgg", "topology.gen"),
    Target("xlwalk.topology", "next_hop_toward", "topology.next_hop_toward"),
    Target("xlwalk.topology", "shortest_path_distances", "topology.bfs"),
    Target("xlwalk.swarm", "tick_attraction", "swarm.tick_attraction"),
    Target("xlwalk.swarm", "collide", "swarm.collide"),
    Target("xlwalk.swarm", "nearest_clique_node", "swarm.nearest_clique_node"),
    Target("xlwalk.swarm", "clique_confined_policy", "swarm.clique_confined_policy"),
    Target("xlwalk.datahub", "gen_synthetic", "datahub.gen_synthetic"),
    Target("xlwalk.datahub", "partition_label_skew", "datahub.partition"),
    Target("xlwalk.datahub", "partition_clique_dominant", "datahub.partition"),
    Target("xlwalk.experiment", "build_environment", "experiment.build_environment"),
    Target("xlwalk.experiment", "simulate", "experiment.simulate"),
    Target("xlwalk.experiment", "run_many", "experiment.run_many"),
]


# Metrics that are not span fields; every span in TARGETS also yields .calls, .busy_s, .self_s.
EXTRA_METRICS = {
    "setup_s", "wall_s", "cpu_s", "jumps_per_s", "peak_rss_mb", "final_acc",
    "learner.steps", "learner.us_per_step", "policy.rows_built", "experiment.result_bytes",
    "output.write_s", "output.artifacts_identical", "output.artifacts_checked", "trace.overhead_s",
}


@dataclass
class Batch:
    """What a run keeps of one batch; the results themselves are dropped once checked."""

    wall_s: float
    cpu_s: float
    write_s: float
    attempted: int
    failed: int
    digests: dict[str, str] | None = None  # None when run_many raised
    final_acc: float = 0.0  # mean over cells
    cum_iters: int = 0  # summed over cells and walkers
    layers: dict[str, float] | None = None


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_reference(workload: Workload) -> dict | None:
    """Digests and final accuracies of `xlwalk preset` at the default seed, if recorded."""
    ref = json.loads(REFERENCE.read_text())["workloads"].get(workload.name)
    if ref is not None and ref["n_seeds"] != workload.n_seeds:
        raise SystemExit(f"{REFERENCE.name} is stale for {workload.name}: rerun `run.py reference`")
    return ref


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def write_artifacts(results: list, out_dir: Path) -> None:
    """The output layer: the same three files, byte for byte, that `xlwalk preset` writes."""
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "events.jsonl", "w") as f:
        for res in results:
            for ev in res.events:
                f.write(json.dumps(ev) + "\n")
    records = [r.metrics for r in results]
    (out_dir / "metrics.csv").write_text(experiment.metrics_to_csv(records))
    (out_dir / "summary.csv").write_text(experiment.summarize(records))


def digests(out_dir: Path) -> dict[str, str]:
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in ARTIFACTS}


def setup_once(cells: list) -> float:
    """Build each distinct world of the batch once, as run_many's sequential path would."""
    worlds = {}
    for cfg, seed in cells:
        worlds.setdefault((cfg.graph, cfg.data, cfg.partition, seed), (cfg, seed))
    t0 = time.perf_counter()
    for cfg, seed in worlds.values():
        experiment.build_environment(cfg, seed)
    return time.perf_counter() - t0


def cell_problems(cfg, res, ref_acc: float | None) -> list[str]:
    """Why one (series, seed) result is wrong; empty when it passes every check."""
    problems = []
    rows = res.metrics.rows
    if not all(math.isfinite(loss) for _, _, loss, _, _ in rows):
        problems.append("non-finite loss")
    if not all(0.0 <= acc <= 1.0 for _, _, _, acc, _ in rows):
        problems.append("accuracy outside [0, 1]")
    visits = [ev for ev in res.events if ev["kind"] == "visit"]
    if len(visits) != cfg.jumps * cfg.walkers:
        problems.append(f"{len(visits)} visit events, expected {cfg.jumps * cfg.walkers}")
    last_t = rows[-1][0]  # rows run in time order
    iters = {wid: 0 for wid in res.metrics.walker_ids}
    for ev in visits:
        if ev["t"] <= last_t:
            iters[ev["walker_id"]] += ev["iters"]
    if {wid: cum for _, wid, _, _, cum in rows} != iters:
        problems.append("final cum_iters differ from the summed visit iters")
    if ref_acc is not None and abs(res.metrics.final_accuracy - ref_acc) > ACC_TOLERANCE:
        problems.append(f"final accuracy {res.metrics.final_accuracy} vs reference {ref_acc}")
    return problems


def _cells_that_raise(cells: list) -> int:
    bad = 0
    for cell in cells:
        try:
            experiment.run_many([cell], threads=1)
        except Exception:
            bad += 1
    return bad


def run_batch(workload: Workload, seed: int, ref: dict | None) -> tuple[Batch, list | None]:
    """One closed-loop batch: run every cell, write the artifacts, then check them.

    Returns the batch record and the results (None when run_many raised).
    """
    cells = workload.cells(seed)
    out_dir = OUT_DIR / workload.name
    gc.collect()  # start every batch from the same heap state
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    try:
        results = experiment.run_many(cells, threads=1)  # the sequential path, whatever XLWALK_THREADS says
    except Exception as exc:
        print(f"batch raised {type(exc).__name__}: {exc}", file=sys.stderr)
        wall = time.perf_counter() - t0
        failed = _cells_that_raise(cells) or len(cells)
        return Batch(wall, _cpu_s() - cpu0, 0.0, len(cells), failed), None
    t1 = time.perf_counter()
    write_artifacts(results, out_dir)
    t2 = time.perf_counter()
    batch = Batch(
        t2 - t0, _cpu_s() - cpu0, t2 - t1, len(cells), 0, digests(out_dir),
        final_acc=statistics.fmean(r.metrics.final_accuracy for r in results),
        cum_iters=total_cum_iters(results),
    )
    ref_accs = ref["final_acc"] if ref is not None and seed == DEFAULT_SEED else {}
    for (cfg, _), res in zip(cells, results):
        problems = cell_problems(cfg, res, ref_accs.get(res.run_id))
        if problems:
            batch.failed += 1
            print(f"cell {res.run_id} failed: {'; '.join(problems)}", file=sys.stderr)
    return batch, results


def traced_batch(workload: Workload, seed: int, ref: dict | None) -> Batch:
    tracer = Tracer(TARGETS)
    with tracer:
        batch, results = run_batch(workload, seed, ref)
    layers = {}
    for span, agg in summarize_spans(tracer.spans).items():
        for field, value in agg.items():
            layers[f"{span}.{field}"] = value
    layers.update(tracer.counts)
    steps = layers.get("learner.steps", 0)
    layers["learner.us_per_step"] = layers.get("learner.sgd_steps.busy_s", 0.0) / steps * 1e6 if steps else 0.0
    layers["experiment.result_bytes"] = len(pickle.dumps(results))
    layers["output.write_s"] = batch.write_s
    batch.layers = layers
    return batch


def total_cum_iters(results: list) -> int:
    total = 0
    for res in results:
        final = {wid: cum for _, wid, _, _, cum in res.metrics.rows}
        total += sum(final.values())
    return total


def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    ref = load_reference(workload)
    cells = workload.cells(seed)
    setup_once(cells[:1])  # untimed warm-up: first-call costs of a fresh process
    setup: list[float] = []
    plain: list[Batch] = []
    traced: list[Batch] = []
    start = time.perf_counter()
    while True:
        # Set-up phases run between batches so their median spans the same stretch of time.
        t = time.perf_counter()
        while time.perf_counter() - t < SETUP_PHASE_S:
            setup.append(setup_once(cells))
        plain.append(run_batch(workload, seed, ref)[0])
        if plain[-1].digests is None:
            break
        if trace:
            traced.append(traced_batch(workload, seed, ref))
            if traced[-1].digests is None:
                break
        now = time.perf_counter()
        if now - start + (now - t) > seconds:
            break

    batches = plain + traced
    first = plain[0]
    checks = {"digests_stable": len({json.dumps(b.digests, sort_keys=True) for b in batches}) == 1
              and first.digests is not None}
    identical = checked = 0
    if ref is not None and seed == DEFAULT_SEED and first.digests is not None:
        checked = len(ARTIFACTS)
        identical = sum(first.digests[n] == ref["sha256"][n] for n in ARTIFACTS)
    if traced and traced[0].digests is not None:
        checks["steps_match_cum_iters"] = traced[0].layers["learner.steps"] == traced[0].cum_iters

    samples = {
        "setup_s": setup,
        "wall_s": [b.wall_s for b in plain],
        "cpu_s": [b.cpu_s for b in plain],
        "jumps_per_s": [sum(c.jumps * c.walkers for c, _ in cells) / b.wall_s for b in plain],
    }
    if trace:
        samples["traced_wall_s"] = [b.wall_s for b in traced]
        values = {}
        if traced:
            values = _layer_medians(traced)
            values["trace.overhead_s"] = statistics.median(samples["traced_wall_s"]) - statistics.median(samples["wall_s"])
    else:
        values = {name: statistics.median(samples[name]) for name in ("setup_s", "wall_s", "cpu_s", "jumps_per_s")}
        values["peak_rss_mb"] = peak_rss_mb()
        if first.digests is not None:
            values["final_acc"] = first.final_acc
    values["output.artifacts_identical"] = identical
    values["output.artifacts_checked"] = checked
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "batches": len(plain),
        "attempted": sum(b.attempted for b in batches),
        "failed": sum(b.failed for b in batches),
        "correct": all(b.failed == 0 for b in batches) and all(checks.values()),
        "checks": checks,
        "values": values,
        "samples": samples,
        "machine": machine(),
    }


def _layer_medians(traced: list[Batch]) -> dict[str, float]:
    names = set().union(*(b.layers for b in traced))
    return {n: statistics.median_low(b.layers.get(n, 0) for b in traced) for n in names}


def result_metrics(record: dict, spec: dict) -> dict:
    """The metrics BENCHMARK.json names for this mode, each with its unit.

    A span metric missing from the record reads 0: the traced batches never
    entered that function. Any other missing metric means a batch failed.
    """
    group = spec["per_layer"] if record["trace"] else spec["end_to_end"]
    spans = {t.span for t in TARGETS}
    out = {}
    for m in group:
        name = m["name"]
        span, _, field = name.rpartition(".")
        produced = name in EXTRA_METRICS or (span in spans and field in ("calls", "busy_s", "self_s"))
        if not produced:
            raise KeyError(f"benchmark does not produce metric {name!r}")
        out[name] = {"value": record["values"].get(name, 0), "unit": m["unit"]}
    return out


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine() -> dict:
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "nproc": os.cpu_count(),
        "blas_threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "commit": git_commit(),
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool, out: str | None) -> int:
    spec = load_spec()
    workload = WORKLOADS[workload_name]
    try:
        record = measure(workload, seed, seconds, trace)
    finally:
        shutil.rmtree(OUT_DIR, ignore_errors=True)
    record["metrics"] = result_metrics(record, spec)
    print("machine " + json.dumps(record["machine"], sort_keys=True))
    for name, m in record["metrics"].items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(f"ops_attempted {record['attempted']} count")
    print(f"ops_failed {record['failed']} count")
    for name in ("output.artifacts_identical", "output.artifacts_checked"):
        if name not in record["metrics"]:
            print(f"{name} {record['values'][name]} count")
    print("checks " + json.dumps(record["checks"], sort_keys=True))
    if out:
        with open(out, "a") as f:
            f.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


def record_reference() -> int:
    """Write reference.json from `xlwalk preset <fig> --seeds <n>` at the default seed."""
    doc = {"default_seed": DEFAULT_SEED, "workloads": {}}
    for w in WORKLOADS.values():
        out_dir = OUT_DIR / "reference" / w.name
        if cli.main(["preset", w.preset, "--seeds", str(w.n_seeds), "--out", str(out_dir)]) != 0:
            raise SystemExit(f"xlwalk preset {w.preset} failed")
        records = experiment.metrics_from_csv((out_dir / "metrics.csv").read_text())
        doc["workloads"][w.name] = {
            "preset": w.preset,
            "n_seeds": w.n_seeds,
            "sha256": digests(out_dir),
            "final_acc": {f"{r.series}:{r.seed}": r.final_accuracy for r in records},
        }
    shutil.rmtree(OUT_DIR, ignore_errors=True)
    REFERENCE.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0
