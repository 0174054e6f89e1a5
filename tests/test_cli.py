import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import xlwalk
from xlwalk.cli import main
from xlwalk.datahub import load_dataset
from xlwalk import experiment
from xlwalk.experiment import DataSpec, ExperimentConfig, GraphSpec, build_environment
from xlwalk.topology import graph_from_json, graph_to_json

from .test_experiment import SPEC_RULES, reference_summarize


SMALL_CONFIG = {
    "name": "cli-small",
    "graph": {"kind": "caveman", "nodes": 12, "cliques": 3},
    "data": {"classes": 4, "dims": 6, "per_class": 40, "val_frac": 0.25, "sep": 2.0},
    "partition": {"kind": "label_skew", "skew_frac": 0.9, "labels_lo": 1, "labels_hi": 2},
    "learner": {"batch_size": 8},
    "policy": {"kind": "importance-static", "alpha": 0.5},
    "iters_per_visit": 2,
    "jumps": 20,
    "eval_every": 5,
    "seeds": [0, 1],
}


# four attracted walkers on a caveman graph: co-location collisions happen
MULTI_WALKER = {
    "partition": {"kind": "clique_dominant", "dominance": 1.0},
    "policy": {"kind": "uniform"},
    "walkers": 4,
    "start": "per_clique",
    "attraction": {"enabled": True, "strength": 0.2, "base_coeff": 0.05, "cooldown_max": 3},
    "jumps": 60,
}


def write_config(tmp_path, doc=None):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc or SMALL_CONFIG))
    return path


class TestGenGraph:
    def test_deterministic_stdout(self, capsys):
        argv = ["gen-graph", "--kind", "caveman", "--cliques", "8", "--nodes", "50", "--seed", "7"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        g = graph_from_json(first)
        assert g.node_count == 50

    def test_write_to_file(self, tmp_path):
        out = tmp_path / "g.json"
        assert main(["gen-graph", "--kind", "rgg", "--nodes", "30", "--seed", "1",
                     "--out", str(out)]) == 0
        g = graph_from_json(out.read_text())
        assert g.positions is not None

    @pytest.mark.parametrize("argv, spec", [
        (["--kind", "caveman", "--nodes", "30", "--cliques", "5"],
         GraphSpec(kind="caveman", nodes=30, cliques=5)),
        (["--kind", "rgg", "--nodes", "40"], GraphSpec(kind="rgg", nodes=40)),
        (["--kind", "rgg", "--nodes", "40", "--radius", "0.35"],
         GraphSpec(kind="rgg", nodes=40, radius=0.35)),
    ])
    def test_matches_run_world_graph(self, capsys, argv, spec):
        assert main(["gen-graph", *argv, "--seed", "3"]) == 0
        cfg = ExperimentConfig(graph=spec, data=DataSpec(classes=3, dims=4, per_class=30))
        assert capsys.readouterr().out == graph_to_json(build_environment(cfg, 3).graph) + "\n"

    def test_generation_failure_exits_one(self, tmp_path, capsys):
        code = main(["gen-graph", "--kind", "rgg", "--nodes", "50", "--radius", "0.01",
                     "--max-retries", "2", "--seed", "0"])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "GenerationError"


class TestGenData:
    def test_roundtrip(self, tmp_path):
        out = tmp_path / "ds.json"
        assert main(["gen-data", "--classes", "3", "--dims", "4", "--per-class", "10",
                     "--seed", "2", "--out", str(out)]) == 0
        ds = load_dataset(out)
        assert ds.n_samples == 30

    def test_binary_sidecar(self, tmp_path):
        out = tmp_path / "ds.json"
        assert main(["gen-data", "--classes", "3", "--dims", "4", "--per-class", "10",
                     "--seed", "2", "--binary", "--out", str(out)]) == 0
        assert (tmp_path / "ds.features.bin").exists()
        assert load_dataset(out).n_samples == 30


class TestRun:
    def test_outputs_written(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "events.jsonl").exists()
        assert (out / "metrics.csv").exists()
        assert (out / "summary.csv").exists()
        lines = (out / "events.jsonl").read_text().splitlines()
        assert all(json.loads(line) for line in lines)

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
            outs.append(out)
        for fname in ("events.jsonl", "metrics.csv", "summary.csv"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_missing_config_exits_one(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path)])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert "not found" in err["message"]

    def test_invalid_config_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"jumps": 0}))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"

    @pytest.mark.parametrize("batch_size", [-1, 0])
    def test_bad_batch_size_exits_one(self, tmp_path, capsys, batch_size):
        doc = dict(SMALL_CONFIG, learner={"batch_size": batch_size})
        cfg = write_config(tmp_path, doc)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "batch_size" in err["message"]

    def test_bad_thread_count_exits_one(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("XLWALK_THREADS", "abc")
        cfg = write_config(tmp_path)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "XLWALK_THREADS" in err["message"]

    @pytest.mark.parametrize("node", [12, 99, -1])
    def test_rendezvous_node_outside_graph_exits_one(self, tmp_path, capsys, node):
        doc = dict(SMALL_CONFIG, walkers=2, rendezvous={"enabled": True, "node": node})
        cfg = write_config(tmp_path, doc)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "rendezvous node" in err["message"]

    @pytest.mark.parametrize("override,message", [
        ({"walkers": "2"}, "config.walkers must be an integer"),
        ({"walkers": True}, "config.walkers must be an integer"),
        ({"jumps": 20.0}, "config.jumps must be an integer"),
        ({"uplink": 1}, "config.uplink must be true or false"),
        ({"name": 3}, "config.name must be a string"),
        ({"seeds": [0, "1"]}, "config.seeds[1] must be an integer"),
        ({"seeds": 2}, "config.seeds must be a list"),
        ({"learner": {"batch_size": "8"}}, "config.learner.batch_size must be an integer"),
        ({"policy": {"alpha": True}}, "config.policy.alpha must be a number"),
        ({"graph": {"kind": "rgg", "nodes": 12, "radius": "0.3"}}, "config.graph.radius must be a number"),
        ({"graph": "caveman"}, "config.graph must be an object"),
        ({"memory": {"enabled": True, "schedule": [[0, 0.1, 2]]}}, "config.memory.schedule[0] must have 2 entries"),
        ({"memory": {"enabled": True, "schedule": [["0", 0.1]]}}, "config.memory.schedule[0][0] must be an integer"),
        ({"rendezvous": {"enabled": True, "every": 0}}, "rendezvous every must be at least 1"),
        *SPEC_RULES,
    ])
    def test_bad_field_exits_one(self, tmp_path, capsys, override, message):
        cfg = write_config(tmp_path, dict(SMALL_CONFIG, **override))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert err["message"].startswith(message)

    def test_config_not_an_object_exits_one(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"

    def test_seed_override(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--seed", "5", "--out", str(out)]) == 0
        text = (out / "metrics.csv").read_text()
        seeds = {line.split(",")[1] for line in text.splitlines()[1:]}
        assert seeds == {"5"}


class TestSweep:
    def test_axis_sweep(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--axis", "walkers",
                     "--values", "1,2", "--seeds", "2", "--out", str(out)]) == 0
        text = (out / "summary.csv").read_text()
        assert "walkers=1" in text and "walkers=2" in text

    def test_unknown_axis_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        code = main(["sweep", "--config", str(cfg), "--axis", "bogus.field",
                     "--values", "1", "--out", str(tmp_path / "o")])
        assert code == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"


class TestPreset:
    def test_show_config(self, capsys):
        assert main(["preset", "fig2", "--show-config"]) == 0
        docs = json.loads(capsys.readouterr().out)
        assert len(docs) == 6
        series = {d["series"] for d in docs}
        assert series == {"uniform", "mh", "alpha0.0", "alpha0.5", "alpha1.0", "dynamic"}

    def test_unknown_name_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["preset", "fig9"])
        assert exc.value.code == 2

    def test_module_entry_point(self, capsys):
        """`python -m xlwalk` runs the same CLI as `main`."""
        src = str(Path(xlwalk.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-m", "xlwalk", "preset", "fig6", "--show-config"],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert main(["preset", "fig6", "--show-config"]) == 0
        assert proc.stdout == capsys.readouterr().out


class TestReport:
    def test_rebuilds_summary(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        original = (out / "summary.csv").read_text()
        (out / "summary.csv").unlink()
        assert main(["report", "--in", str(out)]) == 0
        assert (out / "summary.csv").read_text() == original

    def test_reproduces_preset_collision_tables(self, tmp_path):
        out = tmp_path / "out"
        assert main(["preset", "fig6", "--seeds", "1", "--out", str(out)]) == 0
        original = (out / "summary.csv").read_bytes()
        assert original.count(b"collision_interval") == 3
        assert main(["report", "--in", str(out)]) == 0
        assert (out / "summary.csv").read_bytes() == original

    @pytest.mark.parametrize("options", [
        {"rendezvous": {"enabled": True, "every": 7, "node": 3}},
        {"uplink": True},
        {"rendezvous": {"enabled": True, "every": 7, "node": 3}, "uplink": True},
    ])
    def test_reproduces_collisions_with_rendezvous_and_uplink(self, tmp_path, options):
        doc = dict(SMALL_CONFIG, **MULTI_WALKER, **options)
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == 0
        original = (out / "summary.csv").read_bytes()
        assert b"collision_interval" in original
        assert main(["report", "--in", str(out)]) == 0
        assert (out / "summary.csv").read_bytes() == original

    def test_deleted_metrics_row_matches_reference(self, tmp_path):
        """A run missing one walker at one jump is summarized, as the per-jump reference does."""
        doc = dict(SMALL_CONFIG, **MULTI_WALKER, eval_every=5)
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == 0
        lines = (out / "metrics.csv").read_text().splitlines(keepends=True)
        text = "".join(lines[:10] + lines[11:])
        (out / "metrics.csv").write_text(text)
        assert main(["report", "--in", str(out)]) == 0
        events = [json.loads(line) for line in (out / "events.jsonl").read_text().splitlines()]
        expected = reference_summarize(experiment.metrics_from_csv(text, events))
        assert (out / "summary.csv").read_text() == expected

    @pytest.mark.parametrize("name,text", [
        ("events.jsonl", "{not json\n"),
        ("events.jsonl", '{"kind": "collide"}\n'),
        ("events.jsonl", "[1, 2]\n"),
        ("metrics.csv", "series,seed\nx,1\n"),
        ("metrics.csv", "series,seed,t,walker,loss,acc,cum_iters\nx,one,0,0,1.0,0.5,0\n"),
    ])
    def test_malformed_outputs_exit_one(self, tmp_path, capsys, name, text):
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_config(tmp_path)), "--out", str(out)]) == 0
        (out / name).write_text(text)
        assert main(["report", "--in", str(out)]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"

    def test_missing_dir_exits_one(self, tmp_path, capsys):
        assert main(["report", "--in", str(tmp_path / "nope")]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"


class TestNoRunsNoArtifacts:
    """A command with no runs to summarize exits 1 before it creates `--out` or any file."""

    def _assert_nothing_written(self, argv, out, capsys):
        assert main(argv) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ConfigError", "message": "nothing to summarize"}
        assert not out.exists()

    def test_preset_with_zero_seeds(self, tmp_path, capsys):
        out = tmp_path / "out"
        self._assert_nothing_written(["preset", "fig6", "--seeds", "0", "--out", str(out)], out, capsys)

    def test_sweep_with_zero_seeds(self, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["sweep", "--config", str(write_config(tmp_path)), "--axis", "policy.alpha",
                "--values", "0.2,0.8", "--seeds", "0", "--out", str(out)]
        self._assert_nothing_written(argv, out, capsys)

    def test_config_without_seeds(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, dict(SMALL_CONFIG, seeds=[]))
        self._assert_nothing_written(["run", "--config", str(cfg), "--out", str(out)], out, capsys)


class TestUsage:
    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_help_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for cmd in ("gen-graph", "gen-data", "run", "sweep", "preset", "report"):
            assert cmd in out
