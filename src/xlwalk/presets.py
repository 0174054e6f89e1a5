"""Canned experiment suites, one per headline comparison.

Each preset returns a list of series configs sharing the same world
(graph, data, partition) and differing only in the knob under study.
Scales are desk-sized: the synthetic task trains in seconds, and the
comparisons are about orderings between strategies, not absolute scores.
"""
from __future__ import annotations

from dataclasses import replace

from .errors import ConfigError
from .experiment import (
    AttractionSpec,
    DataSpec,
    ElasticSpec,
    ExperimentConfig,
    GraphSpec,
    LearnerSpec,
    MemorySpec,
    PartitionSpec,
    PolicySpec,
    RendezvousSpec,
)
from .policy import IMPORTANCE_DYNAMIC, IMPORTANCE_STATIC, MH, UNIFORM


def _seeds(n_seeds: int) -> tuple[int, ...]:
    return tuple(range(n_seeds))


def preset_fig2(n_seeds: int = 16) -> list[ExperimentConfig]:
    """Single walker on a clustered graph: traversal strategies head to head.

    The task separation and step sizes keep per-visit updates large enough
    that traversal quality stays visible at the end of the jump budget.
    """
    base = ExperimentConfig(
        name="fig2",
        graph=GraphSpec(kind="caveman", nodes=50, cliques=8),
        data=DataSpec(sep=2.1),
        partition=PartitionSpec(kind="label_skew", skew_frac=0.98, labels_lo=1, labels_hi=2),
        learner=LearnerSpec(learning_rate=0.1),
        iters_per_visit=30,
        walkers=1,
        jumps=400,
        eval_every=1,
        seeds=_seeds(n_seeds),
    )
    series = [
        ("uniform", PolicySpec(kind=UNIFORM)),
        ("mh", PolicySpec(kind=MH)),
        ("alpha0.0", PolicySpec(kind=IMPORTANCE_STATIC, alpha=0.0)),
        ("alpha0.5", PolicySpec(kind=IMPORTANCE_STATIC, alpha=0.5)),
        ("alpha1.0", PolicySpec(kind=IMPORTANCE_STATIC, alpha=1.0)),
        ("dynamic", PolicySpec(kind=IMPORTANCE_DYNAMIC)),
    ]
    return [replace(base, series=label, policy=pol) for label, pol in series]


def preset_fig3(n_seeds: int = 10) -> list[ExperimentConfig]:
    """Fixed SGD budgets per visit versus the quality-scaled elastic budget."""
    base = ExperimentConfig(
        name="fig3",
        graph=GraphSpec(kind="rgg", nodes=100, cliques=0),
        data=DataSpec(),
        partition=PartitionSpec(kind="label_skew", skew_frac=0.90, labels_lo=1, labels_hi=2),
        learner=LearnerSpec(),
        policy=PolicySpec(kind=IMPORTANCE_STATIC, alpha=0.5),
        walkers=1,
        jumps=400,
        eval_every=1,
        seeds=_seeds(n_seeds),
    )
    out = [
        replace(base, series=f"fixed-{k}", iters_per_visit=k) for k in (20, 40, 60)
    ]
    out.append(replace(base, series="elastic", elastic=ElasticSpec(enabled=True)))
    return out


def preset_fig4(n_seeds: int = 10) -> list[ExperimentConfig]:
    """Same trajectory with and without the staged stale-model memory."""
    base = ExperimentConfig(
        name="fig4",
        graph=GraphSpec(kind="rgg", nodes=150, cliques=0),
        data=DataSpec(),
        partition=PartitionSpec(kind="label_skew", skew_frac=0.90, labels_lo=1, labels_hi=2),
        learner=LearnerSpec(),
        policy=PolicySpec(kind=IMPORTANCE_STATIC, alpha=0.5),
        iters_per_visit=5,
        walkers=1,
        jumps=400,
        eval_every=1,
        seeds=_seeds(n_seeds),
    )
    schedule = ((0, 0.0), (133, 0.2), (266, 0.4))  # thirds of the 400 jumps
    return [
        replace(base, series="no-memory"),
        replace(base, series="memory", memory=MemorySpec(enabled=True, schedule=schedule)),
    ]


def preset_fig5(n_seeds: int = 16) -> list[ExperimentConfig]:
    """Walker-count sweep with scheduled rendezvous aggregation.

    The jump budget stays in the coverage-limited phase: with longer runs
    even two walkers eventually sweep every clique and the count stops
    mattering, which buries the scaling signal the sweep is after.
    """
    base = ExperimentConfig(
        name="fig5",
        graph=GraphSpec(kind="caveman", nodes=100, cliques=10),
        data=DataSpec(),
        partition=PartitionSpec(kind="clique_dominant", dominance=1.0),
        learner=LearnerSpec(learning_rate=0.1),
        policy=PolicySpec(kind=UNIFORM),
        iters_per_visit=5,
        rendezvous=RendezvousSpec(enabled=True, every=10, node=0),
        jumps=100,
        eval_every=2,
        seeds=_seeds(n_seeds),
    )
    return [replace(base, series=f"walkers-{k}", walkers=k) for k in (2, 6, 10, 14)]


def preset_fig6(n_seeds: int = 10) -> list[ExperimentConfig]:
    """Clique-confined walkers under increasing attraction, plus the uplink bound.

    The trigger floor is kept small so the attraction exponent, not the
    floor, decides how often pairs chase each other; the strength grid then
    spans nearly-isolated to constantly-colliding walkers.
    """
    base = ExperimentConfig(
        name="fig6",
        graph=GraphSpec(kind="caveman", nodes=64, cliques=8),
        data=DataSpec(),
        partition=PartitionSpec(kind="clique_dominant", dominance=1.0),
        learner=LearnerSpec(),
        policy=PolicySpec(kind=UNIFORM),
        iters_per_visit=5,
        walkers=8,
        start="per_clique",
        confine_cliques=True,
        jumps=300,
        eval_every=5,
        seeds=_seeds(n_seeds),
    )
    out = [
        replace(
            base,
            series=f"A-{a}",
            attraction=AttractionSpec(enabled=True, strength=a, base_coeff=0.001, cooldown_max=5),
        )
        for a in (0.01, 0.05, 0.25)
    ]
    out.append(replace(base, series="uplink", uplink=True))
    return out


PRESETS = {
    "fig2": preset_fig2,
    "fig3": preset_fig3,
    "fig4": preset_fig4,
    "fig5": preset_fig5,
    "fig6": preset_fig6,
}


def preset_configs(name: str, n_seeds: int | None = None) -> list[ExperimentConfig]:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
    return PRESETS[name]() if n_seeds is None else PRESETS[name](n_seeds)
