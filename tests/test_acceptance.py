"""Acceptance gate: one test per shipped guarantee, one printed line each.

Trend criteria run the canned presets at their frozen settings and assert
orderings on across-seed means; unit criteria check exact oracles. Run with
`pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""
import time

import numpy as np
import pytest

from xlwalk.cli import main
from xlwalk.experiment import (
    AttractionSpec,
    DataSpec,
    ExperimentConfig,
    GraphSpec,
    LearnerSpec,
    PartitionSpec,
    PolicySpec,
    build_environment,
    run_many,
    simulate,
)
from xlwalk.learner import ModelParams, init_model, loss_and_grad
from xlwalk.policy import (
    ElasticSpec,
    accuracy_scaled_alpha,
    build_transition,
    elastic_iterations,
    mh_transition,
    uniform_transition,
    validate_policy,
)
from xlwalk.presets import preset_configs
from xlwalk.topology import betweenness, gen_connected_caveman, gen_rgg
from xlwalk.walker import WalkerState, memory_merge

from .test_topology import brute_force_betweenness, random_connected_graph
from .test_policy import policy_matrix


def report(name: str, ok: bool, detail: str, started: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\n[{status}] {name}: {detail} ({time.time() - started:.1f}s)")


def run_preset(name: str):
    configs = preset_configs(name)
    results = run_many([(cfg, seed) for cfg in configs for seed in cfg.seeds])
    by_series: dict[str, list] = {}
    for res in results:
        by_series.setdefault(res.metrics.series, []).append(res.metrics)
    return by_series


def window_mean(metrics, frac: float) -> float:
    """Mean accuracy over the final `frac` share of evaluated jumps."""
    last = max(row[0] for row in metrics.rows)
    cut = (1.0 - frac) * last
    return float(np.mean([row[3] for row in metrics.rows if row[0] >= cut]))


def series_stats(records, frac: float):
    vals = [window_mean(rec, frac) for rec in records]
    return float(np.mean(vals)), float(np.std(vals))


def paired(diffs: dict[int, float]) -> str:
    """A trend's weight: the mean of its per-seed differences, their standard error and sign count."""
    d = np.array([diffs[seed] for seed in sorted(diffs)])
    se = d.std(ddof=1) / np.sqrt(d.size)
    return f"paired {d.mean():+.4f} SE {se:.4f}, positive on {int((d > 0).sum())}/{d.size} seeds"


def test_criterion_1_unit_oracles():
    t0 = time.time()
    rng = np.random.default_rng(99)

    # (a) betweenness equals exhaustive shortest-path enumeration, 50 graphs
    for _ in range(50):
        n = int(rng.integers(4, 13))
        g = random_connected_graph(n, float(rng.uniform(0.25, 0.7)), rng)
        assert list(betweenness(g).raw) == brute_force_betweenness(g)

    # (b) analytic gradients vs central differences, 10 coordinates per arch
    for arch, hidden in (("softmax", 0), ("mlp", 16)):
        x = rng.normal(size=(24, 7))
        y = rng.integers(0, 4, size=24)
        m0 = init_model(arch, 7, 4, seed=12, hidden=hidden)
        m = ModelParams(arch, 7, 4, m0.hidden, rng.normal(0, 0.5, m0.theta.shape))
        _, grad = loss_and_grad(m, x, y, l2=0.01)
        coords = rng.choice(m.theta.size, size=10, replace=False)
        numeric = np.empty(10)
        for pos, c in enumerate(coords):
            up, down = m.theta.copy(), m.theta.copy()
            up[c] += 1e-4
            down[c] -= 1e-4
            lu, _ = loss_and_grad(ModelParams(arch, 7, 4, m.hidden, up), x, y, l2=0.01)
            ld, _ = loss_and_grad(ModelParams(arch, 7, 4, m.hidden, down), x, y, l2=0.01)
            numeric[pos] = (lu - ld) / 2e-4
        rel = np.linalg.norm(grad[coords] - numeric) / np.linalg.norm(numeric)
        assert rel < 1e-5

    # (c) every transition row is a distribution over the node's neighborhood
    for seed in range(4):
        g = gen_connected_caveman(4, 18, seed) if seed % 2 else gen_rgg(24, 0.3, seed)
        validate_policy(uniform_transition(g), g, tol=1e-9)
        validate_policy(mh_transition(g), g, tol=1e-9)
        validate_policy(build_transition(g, rng.random(g.node_count)), g, tol=1e-9)

    # (d) uniform law is stationary for the Metropolis-Hastings rows
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(4, 13))
        g = random_connected_graph(n, 0.5, rng)
        mat = policy_matrix(mh_transition(g))
        pi = np.full(n, 1.0 / n)
        worst = max(worst, float(np.abs(pi @ mat - pi).max()))
    assert worst < 1e-12

    elapsed = time.time() - t0
    report("criterion 1 (unit oracles)", True,
           f"betweenness exact on 50 graphs; grad rel-err < 1e-5; rows sum to 1; "
           f"MH stationarity residual {worst:.2e}", t0)
    assert elapsed < 60


def test_criterion_2_closed_form():
    t0 = time.time()
    p = PolicySpec()
    assert accuracy_scaled_alpha(0.1, p) == 0.10
    assert accuracy_scaled_alpha(0.8, p) == 0.85
    assert elastic_iterations(0.0, ElasticSpec(x_max=20)) == 10

    im = ModelParams("softmax", 0, 1, 0, np.array([1.0]))
    sm = ModelParams("softmax", 0, 1, 0, np.array([3.0]))
    w = WalkerState(id=0, position=0, im=im, sm=sm)
    w0 = memory_merge(w, 0.0)
    assert w0.im.theta[0] == 1.0 and w0.sm.theta[0] == 1.0
    w1 = memory_merge(w, 1.0)
    assert w1.im.theta[0] == 3.0 and w1.sm.theta[0] == 3.0

    report("criterion 2 (closed-form spot checks)", True,
           "alpha map endpoints 0.10/0.85; sigmoid(0) -> 10 of 20; merge boundaries", t0)


def test_criterion_3_fig2_trend():
    t0 = time.time()
    by_series = run_preset("fig2")
    stats = {k: series_stats(v, 0.2) for k, v in by_series.items()}
    a05_mean, a05_std = stats["alpha0.5"]
    dyn_mean, dyn_std = stats["dynamic"]
    baselines = {k: stats[k] for k in ("uniform", "mh", "alpha0.0", "alpha1.0")}
    margin = a05_mean - max(m for m, _ in baselines.values())
    dyn_gap = dyn_mean - a05_mean
    detail = " ".join(f"{k}={m:.4f}±{s:.4f}" for k, (m, s) in sorted(stats.items()))
    ok = margin > 0 and dyn_gap >= 0
    report("criterion 3 (fig2 traversal trend)", ok,
           f"{detail} | alpha0.5 margin {margin:+.4f}, dynamic gap {dyn_gap:+.4f}", t0)
    for name, (mean, _) in baselines.items():
        assert a05_mean > mean, f"alpha0.5 must beat {name}"
    assert dyn_mean >= a05_mean
    assert time.time() - t0 < 600


def test_criterion_4_fig3_trend():
    t0 = time.time()
    by_series = run_preset("fig3")
    finals = {k: float(np.mean([m.final_accuracy for m in v])) for k, v in by_series.items()}
    cum = {
        k: float(np.mean([max(row[4] for row in m.rows) for m in v]))
        for k, v in by_series.items()
    }
    best_fixed = max(finals[k] for k in ("fixed-20", "fixed-40", "fixed-60"))
    acc_ok = finals["elastic"] >= best_fixed - 0.02
    iters_ok = cum["elastic"] < cum["fixed-20"]
    report("criterion 4 (fig3 elastic trend)", acc_ok and iters_ok,
           f"elastic={finals['elastic']:.4f} vs best fixed={best_fixed:.4f}; "
           f"iterations {cum['elastic']:.0f} < {cum['fixed-20']:.0f}", t0)
    assert acc_ok
    assert iters_ok
    assert time.time() - t0 < 600


def test_criterion_5_fig4_trend():
    t0 = time.time()
    by_series = run_preset("fig4")
    mem_mean, mem_std = series_stats(by_series["memory"], 1 / 3)
    nom_mean, nom_std = series_stats(by_series["no-memory"], 1 / 3)
    gap = mem_mean - nom_mean
    nom = {rec.seed: window_mean(rec, 1 / 3) for rec in by_series["no-memory"]}
    diffs = {rec.seed: window_mean(rec, 1 / 3) - nom[rec.seed] for rec in by_series["memory"]}
    report("criterion 5 (fig4 memory trend)", gap >= 0,
           f"memory={mem_mean:.4f}±{mem_std:.4f} no-memory={nom_mean:.4f}±{nom_std:.4f} "
           f"gap {gap:+.4f} | {paired(diffs)}", t0)
    assert gap >= 0
    assert time.time() - t0 < 600


def test_criterion_6_fig5_trend():
    t0 = time.time()
    by_series = run_preset("fig5")
    order = ["walkers-2", "walkers-6", "walkers-10", "walkers-14"]
    means = [float(np.mean([m.final_accuracy for m in by_series[k]])) for k in order]
    mono = all(means[i + 1] >= means[i] - 0.01 for i in range(3))
    gain_lo = means[1] - means[0]
    gain_hi = means[3] - means[2]
    acc = [{m.seed: m.final_accuracy for m in by_series[k]} for k in order]
    diffs = {seed: (acc[1][seed] - acc[0][seed]) - (acc[3][seed] - acc[2][seed]) for seed in acc[0]}
    report("criterion 6 (fig5 walker-count trend)", mono and gain_lo > gain_hi,
           "acc " + " ".join(f"{m:.4f}" for m in means)
           + f" | gain(2->6) {gain_lo:+.4f} > gain(10->14) {gain_hi:+.4f} | {paired(diffs)}", t0)
    assert mono
    assert gain_lo > gain_hi
    assert time.time() - t0 < 900


def test_criterion_7_fig6_trend():
    t0 = time.time()
    by_series = run_preset("fig6")
    a_keys = sorted((k for k in by_series if k.startswith("A-")), key=lambda k: float(k[2:]))
    means = [float(np.mean([m.final_accuracy for m in by_series[k]])) for k in a_keys]
    uplink = float(np.mean([m.final_accuracy for m in by_series["uplink"]]))
    intervals = [
        float(np.mean([np.mean(m.collision_intervals) for m in by_series[k]]))
        for k in a_keys
    ]
    mono = all(means[i + 1] >= means[i] - 0.01 for i in range(len(means) - 1))
    bounded = all(m <= uplink + 0.02 for m in means)
    decreasing = all(intervals[i + 1] < intervals[i] for i in range(len(intervals) - 1))
    report("criterion 7 (fig6 attraction trend)", mono and bounded and decreasing,
           "acc " + " ".join(f"{k}={m:.4f}" for k, m in zip(a_keys, means))
           + f" uplink={uplink:.4f} | intervals "
           + " ".join(f"{v:.1f}" for v in intervals), t0)
    assert mono
    assert bounded
    assert decreasing
    assert time.time() - t0 < 900


def test_criterion_8_cli_determinism(tmp_path):
    t0 = time.time()
    dirs = [tmp_path / "a", tmp_path / "b"]
    for out in dirs:
        assert main(["preset", "fig2", "--seeds", "3", "--out", str(out)]) == 0
    same = all(
        (dirs[0] / f).read_bytes() == (dirs[1] / f).read_bytes()
        for f in ("events.jsonl", "metrics.csv")
    )
    report("criterion 8 (CLI determinism)", same,
           "two `preset fig2 --seeds 3` invocations byte-identical", t0)
    assert same
    assert time.time() - t0 < 300


def test_criterion_9_non_interaction_equivalence():
    t0 = time.time()
    cfg = ExperimentConfig(
        name="independence",
        graph=GraphSpec(kind="caveman", nodes=20, cliques=4),
        data=DataSpec(classes=5, dims=8, per_class=80, val_frac=0.25, sep=2.0),
        partition=PartitionSpec(kind="label_skew", skew_frac=0.8, labels_lo=1, labels_hi=2),
        learner=LearnerSpec(batch_size=16),
        policy=PolicySpec(kind="importance-static", alpha=0.5),
        iters_per_visit=3,
        walkers=4,
        attraction=AttractionSpec(enabled=True, strength=1.0, base_coeff=0.0),
        jumps=80,
        eval_every=20,
        seeds=(0,),
    )
    env = build_environment(cfg, seed=11)
    multi = simulate(env, [(cfg, 11)])[0]
    ok = True
    for wid in range(cfg.walkers):
        solo = simulate(env, [(cfg, 11, [wid])])[0]
        multi_nodes = [ev["node"] for ev in multi.events
                       if ev["kind"] == "visit" and ev["walker_id"] == wid]
        solo_nodes = [ev["node"] for ev in solo.events if ev["kind"] == "visit"]
        ok = ok and multi_nodes == solo_nodes
        assert multi_nodes == solo_nodes
        multi_rows = [r for r in multi.metrics.rows if r[1] == wid]
        assert solo.metrics.rows == multi_rows
    report("criterion 9 (non-interaction equivalence)", ok,
           "4-walker run with zero attraction floor decomposes into solo runs", t0)
    assert time.time() - t0 < 120
