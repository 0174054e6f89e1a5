"""Command-line entry point.

Subcommands: gen-graph, gen-data, run, sweep, preset, report. Runtime
failures exit 1 with a machine-readable JSON error on stderr; bad usage
exits 2 via argparse. The XLWALK_THREADS env var caps runner parallelism
(0 = one worker per CPU; unset = sequential).
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import datahub, topology
from .errors import ConfigError, GenerationError
from .experiment import (
    GraphSpec,
    RunResult,
    build_graph,
    config_from_dict,
    metrics_from_csv,
    metrics_to_csv,
    run_many,
    run_sweep,
    summarize,
)
from .presets import PRESETS, preset_configs


def _write_outputs(results: list[RunResult], out_dir: Path) -> None:
    """Write the three artifacts; the tables come first, so a failed summary writes no file."""
    records = [r.metrics for r in results]
    summary, metrics = summarize(records), metrics_to_csv(records)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "events.jsonl", "w") as f:
        for res in results:
            for ev in res.events:
                f.write(json.dumps(ev) + "\n")
    (out_dir / "metrics.csv").write_text(metrics)
    (out_dir / "summary.csv").write_text(summary)


def _cmd_gen_graph(args) -> int:
    spec = GraphSpec(kind=args.kind, nodes=args.nodes, cliques=args.cliques,
                     radius=args.radius, max_retries=args.max_retries)
    text = topology.graph_to_json(build_graph(spec, args.seed))
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text)
    return 0


def _cmd_gen_data(args) -> int:
    ds = datahub.gen_synthetic(
        args.classes, args.dims, args.per_class, args.val_frac, args.sep, args.seed
    )
    datahub.save_dataset(ds, args.out, binary_features=args.binary)
    return 0


def _parse_value(raw: str):
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            continue
    if raw.lower() in ("true", "false"):
        return raw.lower() == "true"
    return raw


def _load_config(path: str):
    try:
        doc = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    return config_from_dict(doc)


def _cmd_run(args) -> int:
    cfg = _load_config(args.config)
    seeds = [args.seed] if args.seed is not None else list(cfg.seeds)
    results = run_many([(cfg, s) for s in seeds])
    _write_outputs(results, Path(args.out))
    return 0


def _cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    values = [_parse_value(v) for v in args.values.split(",")]
    seeds = list(cfg.seeds) if args.seeds is None else list(range(args.seeds))
    results = run_sweep(cfg, args.axis, values, seeds)
    _write_outputs(results, Path(args.out))
    return 0


def _cmd_preset(args) -> int:
    configs = preset_configs(args.name, args.seeds)
    if args.show_config:
        print(json.dumps([cfg.to_dict() for cfg in configs], indent=2))
        return 0
    cells = [(cfg, seed) for cfg in configs for seed in cfg.seeds]
    results = run_many(cells)
    _write_outputs(results, Path(args.out))
    return 0


def _cmd_report(args) -> int:
    metrics_path = Path(args.in_dir) / "metrics.csv"
    if not metrics_path.exists():
        raise ConfigError(f"no metrics.csv under {args.in_dir}")
    events_path = Path(args.in_dir) / "events.jsonl"
    try:
        events = None
        if events_path.exists():
            events = [json.loads(line) for line in events_path.read_text().splitlines()]
        records = metrics_from_csv(metrics_path.read_text(), events)
    except (KeyError, TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise ConfigError(f"malformed run outputs under {args.in_dir}: {exc!r}") from None
    (Path(args.in_dir) / "summary.csv").write_text(summarize(records))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xlwalk",
        description="Simulate model-carrying random walkers training on graph-distributed data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-graph", help="generate a graph and emit its JSON")
    p.add_argument("--kind", choices=["caveman", "rgg"], required=True)
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--cliques", type=int, default=8, help="caveman only")
    p.add_argument("--radius", type=float, default=None, help="rgg only; default targets mean degree 6")
    p.add_argument("--max-retries", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write JSON here instead of stdout")
    p.set_defaults(func=_cmd_gen_graph)

    p = sub.add_parser("gen-data", help="generate the synthetic dataset")
    p.add_argument("--classes", type=int, default=10)
    p.add_argument("--dims", type=int, default=32)
    p.add_argument("--per-class", type=int, default=500)
    p.add_argument("--val-frac", type=float, default=0.2)
    p.add_argument("--sep", type=float, default=3.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--binary", action="store_true", help="features to a float32 sidecar file")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("run", help="run one configuration over its seeds")
    p.add_argument("--config", required=True, help="experiment JSON file")
    p.add_argument("--seed", type=int, default=None, help="override: run this single seed")
    p.add_argument("--out", default="out")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sweep", help="sweep one config field across values")
    p.add_argument("--config", required=True)
    p.add_argument("--axis", required=True, help="dotted config field, e.g. attraction.strength")
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--seeds", type=int, default=None, help="use seeds 0..N-1 instead of the config's")
    p.add_argument("--out", default="out")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("preset", help="run a canned scenario end to end")
    p.add_argument("name", choices=sorted(PRESETS))
    p.add_argument("--seeds", type=int, default=None, help="number of seeds (0..N-1)")
    p.add_argument("--out", default="out")
    p.add_argument("--show-config", action="store_true", help="print the full configs and exit")
    p.set_defaults(func=_cmd_preset)

    p = sub.add_parser("report", help="rebuild summary.csv from metrics.csv and events.jsonl")
    p.add_argument("--in", dest="in_dir", required=True)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, GenerationError, OSError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
