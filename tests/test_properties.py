"""Property tests for the swarm interaction primitives, the memory merge and config loading."""
import copy

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from xlwalk.errors import ConfigError, GenerationError
from xlwalk.experiment import config_from_dict, run_single
from xlwalk.learner import ModelParams
from xlwalk.swarm import AttractionSpec, collide, new_swarm, tick_attraction
from xlwalk.walker import WalkerState, memory_merge

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)

coords = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


def model(values) -> ModelParams:
    # a softmax model over 0 dims has one bias per class: any vector length fits
    return ModelParams("softmax", 0, len(values), 0, np.array(values, dtype=np.float64))


def symmetric(draw, n: int, hi: int) -> np.ndarray:
    m = np.zeros((n, n), dtype=np.int64)
    for r in range(n):
        for q in range(r + 1, n):
            m[r, q] = m[q, r] = draw(st.integers(0, hi))
    return m


@st.composite
def swarms(draw, min_size: int = 1):
    """A swarm with random models, counters, positions, pair stamps and paired pursuits."""
    n = draw(st.integers(min_size, 6))
    dim = draw(st.integers(1, 4))
    walkers = []
    for wid in range(n):
        im = model(draw(st.lists(coords, min_size=dim, max_size=dim)))
        sm = model(draw(st.lists(coords, min_size=dim, max_size=dim)))
        walkers.append(WalkerState(
            id=wid, position=draw(st.integers(0, 9)), im=im, sm=sm,
            samples_since_agg=draw(st.integers(0, 10_000)),
        ))
    s = new_swarm(walkers)
    s.met_at = symmetric(draw, n, 200)
    s.inert_until = s.met_at + symmetric(draw, n, 6)
    order = draw(st.permutations(range(n)))
    for r, q in zip(order[0::2][:draw(st.integers(0, n // 2))], order[1::2]):
        s.pursuit[r], s.pursuit[q] = q, r
    s.homing = [draw(st.none() | st.integers(0, 9)) for _ in range(n)]
    return s


def pursuits_symmetric(s) -> bool:
    return all(q is None or (q != r and s.pursuit[q] == r) for r, q in enumerate(s.pursuit))


@SETTINGS
@given(data=st.data(), t=st.integers(200, 400), cooldown=st.integers(0, 6))
def test_collide_is_a_group_average(data, t, cooldown):
    s = data.draw(swarms(min_size=2))
    group = sorted(data.draw(st.sets(st.integers(0, s.size - 1), min_size=2)))
    records = list(s.walkers)
    before = [copy.copy(w) for w in s.walkers]  # collide updates the records in place
    met_at, inert_until = s.met_at.copy(), s.inert_until.copy()

    weights = collide(s, group, t, cooldown)

    assert weights == [before[r].samples_since_agg + 1 for r in group]
    merged = s.walkers[group[0]].im
    thetas = np.stack([before[r].im.theta for r in group])
    lo, hi = thetas.min(axis=0), thetas.max(axis=0)
    slack = 8 * np.finfo(np.float64).eps * np.abs(thetas).max(axis=0)
    assert np.all(merged.theta >= lo - slack) and np.all(merged.theta <= hi + slack)
    for r in group:
        w = s.walkers[r]
        assert w.im is w.sm is merged
        assert w.samples_since_agg == 0
        assert (w.id, w.position) == (before[r].id, before[r].position)
    members = np.zeros(s.size, dtype=bool)
    members[group] = True
    inside = np.outer(members, members)
    assert (s.met_at[inside] == t).all() and (s.inert_until[inside] == t + cooldown).all()
    assert np.array_equal(s.met_at, s.met_at.T)
    assert np.array_equal(s.inert_until, s.inert_until.T)
    assert np.array_equal(s.met_at[~inside], met_at[~inside])
    assert np.array_equal(s.inert_until[~inside], inert_until[~inside])
    for r in range(s.size):
        assert s.walkers[r] is records[r]
        if not members[r]:
            assert all(a is b for a, b in zip(vars(s.walkers[r]).values(), vars(before[r]).values()))


@SETTINGS
@given(im=st.lists(coords, min_size=1, max_size=5), data=st.data())
def test_memory_merge_with_zero_beta_keeps_im(im, data):
    sm = data.draw(st.lists(coords, min_size=len(im), max_size=len(im)))
    w = WalkerState(id=0, position=0, im=model(im), sm=model(sm))
    out = memory_merge(w, 0.0)
    assert np.array_equal(out.im.theta, w.im.theta)
    assert out.sm is out.im


@SETTINGS
@given(
    data=st.data(),
    strength=st.floats(0.0, 2.0),
    base_coeff=st.floats(0.0, 1.0),
    cooldown_max=st.integers(0, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_tick_attraction_clocks_and_pursuits(data, strength, base_coeff, cooldown_max, seed):
    s = data.draw(swarms())
    cfg = AttractionSpec(strength=strength, base_coeff=base_coeff, cooldown_max=cooldown_max)
    t = data.draw(st.integers(200, 210))  # every pair met at or before jump 200
    pursuit, homing = list(s.pursuit), list(s.homing)

    pairs = tick_attraction(s, cfg, np.random.default_rng(seed), t)

    assert pursuits_symmetric(s)
    assert s.homing == homing
    assert all(r < q for r, q in pairs) and len(set(pairs)) == len(pairs)
    started = set(pairs)
    for r, q in started:
        assert pursuit[r] is None and pursuit[q] is None
        assert homing[r] is None and homing[q] is None
        assert t >= s.inert_until[r, q]
    for r, q in enumerate(s.pursuit):
        if pursuit[r] is not None:
            assert q == pursuit[r]  # a running pursuit is never replaced
        elif q is not None:
            assert tuple(sorted((r, q))) in started


@SETTINGS
@given(data=st.data(), strength=st.floats(0.0, 2.0), base_coeff=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**32 - 1))
def test_tick_attraction_writes_no_pair_state(data, strength, base_coeff, seed):
    """Only collide writes the pair stamps; a tick at any jump, inert pairs or not, only reads them."""
    s = data.draw(swarms())
    t = data.draw(st.integers(200, 210))
    met_at, inert_until = s.met_at.copy(), s.inert_until.copy()
    cfg = AttractionSpec(strength=strength, base_coeff=base_coeff)
    tick_attraction(s, cfg, np.random.default_rng(seed), t)
    assert np.array_equal(s.met_at, met_at) and np.array_equal(s.inert_until, inert_until)


def unit(lo: float = 0.0, hi: float = 1.0, **kwargs):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, **kwargs)


# Bounds that a generated config may push past its limit; loading must reject each of them.
PAST = ("dims", "labels", "skew_frac", "dominance", "cliques", "clique_options", "node", "every", "tau", "seed")


@st.composite
def config_docs(draw):
    """Config documents over tiny worlds: half keep every bound, each of the others pushes
    one bound of PAST beyond its limit."""
    past = draw(st.sampled_from((None,) * len(PAST) + PAST))

    def pick(bound, inside, outside):
        return draw(outside if past == bound else inside)

    kind = draw(st.sampled_from(["caveman", "rgg"]))
    nodes, classes = draw(st.integers(2, 30)), draw(st.integers(2, 5))
    cliquey = kind == "caveman" or past == "clique_options"
    partition = draw(st.sampled_from(["label_skew", "clique_dominant"] if cliquey else ["label_skew"]))
    cliques = min(nodes // 2, classes) if partition == "clique_dominant" else nodes // 2
    labels_lo = draw(st.integers(1, classes))
    confine = cliquey and draw(st.booleans())
    return {
        "graph": {"kind": kind, "nodes": nodes,
                  "cliques": pick("cliques", st.integers(1, cliques), st.integers(cliques + 1, 16)),
                  "radius": draw(st.none() | unit(0.2, 1.0)), "max_retries": draw(st.integers(1, 3))},
        "data": {"classes": classes, "dims": pick("dims", st.integers(1, 4), st.integers(-1, 0)),
                 "per_class": draw(st.integers(2, 12)), "val_frac": draw(unit(0.05, 0.95)),
                 "sep": draw(unit(0.0, 4.0))},
        "partition": {
            "kind": partition,
            "skew_frac": pick("skew_frac", unit(), unit(-0.5, -1e-9) | unit(1 + 1e-9, 1.5)),
            "labels_lo": labels_lo,
            "labels_hi": pick("labels", st.integers(labels_lo, classes), st.sampled_from([labels_lo - 1, classes + 1])),
            "dominance": pick("dominance", unit(exclude_min=True), unit(-0.5, 0.0) | unit(1 + 1e-9, 1.5)),
        },
        "learner": {"arch": draw(st.sampled_from(["softmax", "mlp"])), "hidden": draw(st.integers(1, 3)),
                    "learning_rate": draw(unit(0.0, 0.5)), "batch_size": draw(st.integers(1, 4))},
        "policy": {"kind": draw(st.sampled_from(["uniform", "importance-static", "importance-dynamic"]
                                                + ([] if confine else ["mh"]))),
                   "alpha": draw(unit())},
        "elastic": {"enabled": draw(st.booleans()), "x_max": draw(st.integers(1, 4)),
                    "tau1": pick("tau", unit(0.0, 20.0), unit(-20.0, 20.0)),
                    "tau2": pick("tau", unit(0.0, 2.0), unit(-20.0, 2.0))},
        "memory": {"enabled": draw(st.booleans()), "schedule": [[0, draw(unit())]]},
        "attraction": {"enabled": draw(st.booleans()), "strength": draw(unit(0.0, 2.0)),
                       "base_coeff": draw(unit()), "cooldown_max": draw(st.integers(0, 3))},
        "rendezvous": {"enabled": draw(st.booleans()), "every": pick("every", st.integers(1, 4), st.just(0)),
                       "node": pick("node", st.integers(0, nodes - 1), st.sampled_from([-1, nodes]))},
        "iters_per_visit": draw(st.integers(1, 3)),
        "walkers": draw(st.integers(1, 4)),
        "start": draw(st.sampled_from(["random", "per_clique"] if cliquey else ["random"])),
        "confine_cliques": confine,
        "uplink": draw(st.booleans()),
        "jumps": draw(st.integers(1, 3)),
        "eval_every": draw(st.integers(1, 3)),
        "seeds": [pick("seed", st.integers(0, 3), st.integers(-3, -1))],
    }


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(doc=config_docs())
def test_a_config_that_loads_runs(doc):
    """Every rule runs at load: a document either fails there or runs to the end."""
    try:
        cfg = config_from_dict(doc)
    except ConfigError:
        return
    try:
        run_single(cfg, cfg.seeds[0])
    except GenerationError:
        assert cfg.graph.kind == "rgg"  # a geometric graph may stay disconnected after its retries
