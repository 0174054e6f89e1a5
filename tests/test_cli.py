import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import xlwalk
from xlwalk.cli import _write_outputs, build_parser, main
from xlwalk import experiment
from xlwalk.errors import GenerationError
from xlwalk.experiment import DataSpec, ExperimentConfig, GraphSpec, build_environment
from xlwalk.topology import graph_to_json

from .readers import graph_from_json, load_dataset
from .test_experiment import SPEC_RULES
from .test_simulate_reference import configs as generated_configs


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


# Config file contents that json.loads or the UTF-8 read reject with a ValueError of its own.
LONG_INTEGER = b'{"jumps": 1' + b"0" * 5000 + b"}"  # past the integer digit limit of json.loads
NOT_UTF8 = b'\xff\xfe{"jumps": 2}'
# Inputs whose parsers fail with errors that are not ValueErrors.
DEEP_NESTING = b"[" * 100_000 + b"]" * 100_000  # json.loads raises RecursionError
LONG_FIELD = b"series,seed\n" + b"x" * 131_073 + b",0\n"  # past the csv module's field size limit
# A first allocation of 2**50 bytes, past any 47-bit address space: it fails before a page is touched.
PIB_OF_FEATURES = {"classes": 2, "per_class": 2 ** 40, "dims": 64}


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

    def test_negative_seed_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen-graph", "--kind", "caveman", "--nodes", "12", "--seed", "-5"])
        assert exc.value.code == 2
        assert "seed must be non-negative, got -5" in capsys.readouterr().err

    def test_zero_radius_exits_one(self, capsys):
        # a radius of 0 is rejected, not replaced by the default radius
        assert main(["gen-graph", "--kind", "rgg", "--nodes", "30", "--radius", "0", "--seed", "0"]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert json.loads(out.err) == {"error": "ConfigError", "message": "radius must be positive, got 0.0"}

    @pytest.mark.parametrize("out", ["", "."])
    def test_out_naming_no_file_exits_one(self, tmp_path, capsys, out):
        with contextlib.chdir(tmp_path):
            assert main(["gen-graph", "--kind", "caveman", "--nodes", "30", "--out", out]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": "ConfigError", "message": "graph path '.' names no file"}
        assert list(tmp_path.iterdir()) == []


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

    def test_negative_dims_exits_one(self, tmp_path, capsys):
        out = tmp_path / "ds.json"
        assert main(["gen-data", "--dims", "-1", "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ConfigError", "message": "need n_classes >= 2 and per_class >= 2, and n_dims >= 1"}
        assert not out.exists()

    def test_failed_allocation_exits_one(self, tmp_path, capsys):
        out = tmp_path / "ds.json"
        argv = ["--classes", "2", "--per-class", str(PIB_OF_FEATURES["per_class"]), "--dims", "64"]
        assert main(["gen-data", *argv, "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "MemoryError" and err["message"].startswith("Unable to allocate")
        assert not out.exists()

    @pytest.mark.parametrize("binary", [[], ["--binary"]])
    def test_failed_write_leaves_no_file(self, tmp_path, capsys, binary):
        out = tmp_path / "outdir"  # an existing directory: the JSON cannot take its name
        out.mkdir()
        assert main(["gen-data", "--classes", "2", "--per-class", "4", *binary, "--out", str(out)]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "IsADirectoryError"
        assert list(tmp_path.iterdir()) == [out]
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("sep", ["nan", "inf", "-inf"])
    def test_non_finite_sep_exits_one(self, tmp_path, capsys, sep):
        out = tmp_path / "ds.json"
        assert main(["gen-data", "--classes", "2", "--per-class", "4", f"--sep={sep}", "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ConfigError", "message": f"sep must be a finite number, got {float(sep)}"}
        assert not out.exists()

    def test_negative_seed_exits_two(self, tmp_path, capsys):
        out = tmp_path / "ds.json"
        with pytest.raises(SystemExit) as exc:
            main(["gen-data", "--classes", "2", "--per-class", "4", "--seed", "-1", "--out", str(out)])
        assert exc.value.code == 2
        assert "seed must be non-negative, got -1" in capsys.readouterr().err
        assert not out.exists()


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

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_number_exits_one(self, tmp_path, capsys, literal):
        path = tmp_path / "nan.json"
        path.write_text('{"learner": {"learning_rate": %s}, "jumps": 2}' % literal)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert err["message"].startswith("config.learner.learning_rate must be a finite number")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("raw", [LONG_INTEGER, NOT_UTF8, DEEP_NESTING],
                             ids=["long-integer", "not-utf8", "deep-nesting"])
    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_unreadable_config_exits_one(self, tmp_path, capsys, raw, command):
        path = tmp_path / "raw.json"
        path.write_bytes(raw)
        extra = ["--axis", "jumps", "--values", "2"] if command == "sweep" else []
        assert main([command, "--config", str(path), *extra, "--out", str(tmp_path / "o")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert err["message"].startswith(f"config file {path} is not valid JSON")
        assert not (tmp_path / "o").exists()

    def test_failed_allocation_exits_one(self, tmp_path, capsys):
        path = write_config(tmp_path, {"data": PIB_OF_FEATURES})
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "MemoryError" and err["message"].startswith("Unable to allocate")
        assert not (tmp_path / "o").exists()

    def test_config_not_an_object_exits_one(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"

    def test_negative_seed_override_exits_one(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["run", "--config", str(write_config(tmp_path)), "--seed", "-1", "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ConfigError", "message": "seeds must be non-negative, got [-1]"}
        assert not out.exists()

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

    def test_repeated_values_exit_one_before_any_world(self, tmp_path, capsys, monkeypatch):
        def no_world(*args):
            raise AssertionError("a world was built")

        monkeypatch.setattr(experiment, "build_environment", no_world)
        cfg = write_config(tmp_path)
        code = main(["sweep", "--config", str(cfg), "--axis", "jumps",
                     "--values", "2,2", "--out", str(tmp_path / "o")])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ConfigError", "message": "sweep values must not repeat, got [2, 2]"}
        assert not (tmp_path / "o").exists()

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


# sha256 of `xlwalk preset figN --show-config`: every key, default, type and order of the config
# schema as the presets fill it in. No simulation runs.
SHOW_CONFIG_DIGESTS = {
    "fig2": "549c18e6b4bd632487167e1b912b0acaf181b7d864b08b4ec1b1c4cdd0f3fa4e",
    "fig3": "a8b44bff699d433e2e9ecc12b9fe4ce729c4a3f26c35b8eada3fac1bfdef728c",
    "fig4": "8604d40ee181526d700e45f5242125f824aa148931b10adc03efd0d5f32aeee8",
    "fig5": "517fca9d6707d7c504b2d8567652187f8d04fb18f5fb94475b6379b62b3fb2aa",
    "fig6": "d34c7b84e11c71e7bddaf3fb33d4d5371f7cc2231d920732cc026c4b15bbefa0",
}


@pytest.mark.parametrize("name", sorted(SHOW_CONFIG_DIGESTS))
def test_show_config_bytes_are_pinned(capsys, name):
    assert main(["preset", name, "--show-config"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == SHOW_CONFIG_DIGESTS[name]


# sha256 of events.jsonl, metrics.csv and summary.csv from `xlwalk preset figN --seeds 2`. Any
# change to these bytes must be deliberate, and recorded with the new digests.
PRESET_DIGESTS = {
    "fig2": ("ecc585bd25fa10219986bfdbdbc2d953b7abeeac7bd76563bb5d9d65cad9e84d",
             "14a26607300686c33b0625f50028eac433591ca6397771c4de83a7c9661d7e13",
             "4ef92077e5cc8be7b66185242f984b68ef8c8a27e033f70d4427c15e23b85111"),
    "fig3": ("1b4e4d607bc902034c7aadaefdd485720b3b1f02c00ff22def766ea3ed3551fb",
             "9e0ffd1a7ee010983403f88c0a0f0ff594bd9894d9384ea4867d2c191c09cc94",
             "b33ec7fb1581f4d7c52605d7441287174b80df2ce3b9c6f68d4953c60ad59fcf"),
    "fig4": ("f706684d44aaa9dd3208b4233474385b89c84c67e48744a2845f4773b285c70e",
             "ec1388bf3c6a77cc540339089cd5c2fd395635806f140b9afd1353caca1effa1",
             "2754bfc95340e06b04ce06ccc677ad618d21ca2cbae3f57d11b14e8c78dd70b5"),
    "fig5": ("9b255d42100cdfb738d8e93b94815a3acc29989c2947a92bdc155958a2ce55b0",
             "8c7181222c9a899e2c89d4f8fb2f2871cc6a0ed9cf905813b975a4ad03a9ba4d",
             "71d2fac2fe6a313eed6ae7f0fae3481847afa45701f8d4bc362ba22791cf2b73"),
    "fig6": ("a1ba5a022ddeed014353d161432f2f5a0f96b54bf5705b2b36f227ee6cb4f866",
             "ad3f0466ab382b527373560d9bf544f8922d44003625fc2d55ee054f7cb1e7bf",
             "cb4cc6aab8716c2723915fff6d66090ba914f7d1379efc254b19c6b8752c0a6b"),
}


@pytest.mark.parametrize("name, threads", [
    pytest.param(name, threads, id=name if threads is None else f"{name}-threads{threads}")
    for name in sorted(PRESET_DIGESTS) for threads in (None, "2")
])
def test_preset_artifacts_are_byte_identical(tmp_path, monkeypatch, name, threads):
    """The digests hold run sequentially and on two worker processes."""
    if threads is None:
        monkeypatch.delenv("XLWALK_THREADS", raising=False)
    else:
        monkeypatch.setenv("XLWALK_THREADS", threads)
    assert main(["preset", name, "--seeds", "2", "--out", str(tmp_path)]) == 0
    files = ("events.jsonl", "metrics.csv", "summary.csv")
    digests = tuple(hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in files)
    assert digests == PRESET_DIGESTS[name]


# sha256 of the trio from `xlwalk run` on two walkers that merge memory and then average over the
# uplink every jump. No preset combines the two, so these bytes alone pin their order in PHASES.
MEMORY_WITH_UPLINK = {**SMALL_CONFIG, "walkers": 2, "jumps": 12, "uplink": True,
                      "memory": {"enabled": True, "schedule": [[0, 0.3]]}}
MEMORY_WITH_UPLINK_DIGESTS = (
    "4e868a7647a15927a7721ef6800133c9b59b768f58067aa4e2dd3764a4fe74b9",
    "347c4c5b2a142458aee6723ddaf73be6c4e3bde5374e214048694b0217e1bb27",
    "4aab725d2020d357acac1fd64287580fff370bcb6ca4f422453c87879d22bb02",
)


@pytest.mark.parametrize("threads", [None, "2"])
def test_memory_with_uplink_artifacts_are_byte_identical(tmp_path, monkeypatch, threads):
    if threads is None:
        monkeypatch.delenv("XLWALK_THREADS", raising=False)
    else:
        monkeypatch.setenv("XLWALK_THREADS", threads)
    out = tmp_path / "out"
    assert main(["run", "--config", str(write_config(tmp_path, MEMORY_WITH_UPLINK)), "--out", str(out)]) == 0
    files = ("events.jsonl", "metrics.csv", "summary.csv")
    assert tuple(hashlib.sha256((out / f).read_bytes()).hexdigest() for f in files) == MEMORY_WITH_UPLINK_DIGESTS


def _bump_digit(line: str) -> str:
    """The metrics.csv line with the last digit of its acc field raised by one, modulo 10."""
    fields = line.split(",")
    fields[5] = fields[5][:-1] + str((int(fields[5][-1]) + 1) % 10)
    return ",".join(fields)


def _without_first(lines: list[str], pick) -> list[str]:
    drop = next(i for i, line in enumerate(lines) if pick(line))
    return lines[:drop] + lines[drop + 1:]


# Edits of one file of a multi-walker run's trio (SMALL_CONFIG with MULTI_WALKER: four walkers,
# rows every 5 jumps, seeds 0 and 1), each of which makes metrics.csv disagree with events.jsonl.
TAMPERINGS = {
    "deleted-metrics-row": ("metrics.csv", lambda lines: lines[:10] + lines[11:]),  # a walker's row at jump 10
    "changed-acc-digit": ("metrics.csv", lambda lines: lines[:6] + [_bump_digit(lines[6])] + lines[7:]),
    "dropped-visit-line": ("events.jsonl", lambda lines: _without_first(lines, lambda line: '"acc"' in line)),
    "removed-run": ("metrics.csv", lambda lines: [line for line in lines if line.split(",")[1] != "1"]),
}


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

    def test_reproduces_summary_of_seeds_out_of_order(self, tmp_path):
        """report summarizes the runs in file order, which is the order the run summarized them in,
        so the float sums inside each mean run in the same order."""
        doc = dict(SMALL_CONFIG, graph={"kind": "caveman", "nodes": 16, "cliques": 4}, walkers=2, jumps=30,
                   seeds=[5, 0, 3, 1, 4, 2, 7, 6])
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == 0
        original = (out / "summary.csv").read_bytes()
        assert main(["report", "--in", str(out)]) == 0
        assert (out / "summary.csv").read_bytes() == original

    @pytest.mark.parametrize("tamper", sorted(TAMPERINGS))
    def test_outputs_that_disagree_exit_one(self, tmp_path, capsys, tamper):
        """metrics.csv must hold the runs of events.jsonl and be what their jump-0 rows and replayed
        visits write; otherwise report exits 1 with a plain message and writes no summary."""
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_config(tmp_path, dict(SMALL_CONFIG, **MULTI_WALKER))),
                     "--out", str(out)]) == 0
        name, edit = TAMPERINGS[tamper]
        lines = (out / name).read_text().splitlines(keepends=True)
        (out / name).write_text("".join(edit(lines)))
        (out / "summary.csv").unlink()
        assert main(["report", "--in", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert set(err) == {"error", "message"} and err["error"] == "ConfigError"
        assert "events.jsonl" in err["message"] and "malformed" not in err["message"]
        assert not (out / "summary.csv").exists()

    @pytest.mark.parametrize("name,text", [
        ("events.jsonl", "{not json\n"),
        ("events.jsonl", '{"kind": "collide"}\n'),
        ("events.jsonl", "[1, 2]\n"),
        ("metrics.csv", "series,seed\nx,1\n"),
        ("metrics.csv", "series,seed,t,walker,loss,acc,cum_iters\nx,one,0,0,1.0,0.5,0\n"),
        pytest.param("events.jsonl", DEEP_NESTING.decode() + "\n", id="events.jsonl-deep-nesting"),
        pytest.param("metrics.csv", LONG_FIELD.decode(), id="metrics.csv-long-field"),
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


class TestAtomicOutputs:
    """A write that fails part-way leaves the previous trio byte for byte, and no temporary file."""

    @pytest.mark.parametrize("nth", [0, -1])
    def test_unserializable_event_keeps_the_old_trio(self, tmp_path, nth):
        cfg = experiment.config_from_dict(dict(SMALL_CONFIG, **MULTI_WALKER))
        out = tmp_path / "out"
        _write_outputs(experiment.run_many([(cfg, 0)]), out)
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        results = experiment.run_many([(cfg, 1)])
        events = results[0].events
        events[nth] = dict(events[nth], bad=object())  # json.dumps raises TypeError on this event
        with pytest.raises(TypeError):
            _write_outputs(results, out)
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before


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


def test_run_never_ends_in_a_traceback(tmp_path):
    """Whatever bytes the config file holds, `run` returns 0 or 1, and on 1 prints the JSON error."""
    pytest.importorskip("hypothesis")
    from hypothesis import example, given, settings
    from hypothesis import strategies as st

    path, out = tmp_path / "config.json", tmp_path / "out"

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @example(raw=NOT_UTF8)
    @example(raw=LONG_INTEGER)
    @given(raw=st.binary(max_size=64))
    def check(raw):
        path.write_bytes(raw)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["run", "--config", str(path), "--out", str(out)])
        assert code in (0, 1)
        if code == 1:
            assert set(json.loads(err.getvalue())) == {"error", "message"}

    check()


def test_run_writes_generated_configs_that_report_reproduces(tmp_path):
    """Generated small configs of 1-2 seeds, written to disk: `run --config` exits 0 and writes the
    trio, and `report --in` rewrites summary.csv byte for byte."""
    pytest.importorskip("hypothesis")
    from hypothesis import assume, given, settings
    from hypothesis import strategies as st

    path, out = tmp_path / "config.json", tmp_path / "out"

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(cfg=generated_configs(), seeds=st.lists(st.integers(0, 3), min_size=1, max_size=2, unique=True))
    def check(cfg, seeds):
        for seed in seeds:
            try:
                experiment.build_graph(cfg.graph, seed)
            except GenerationError:  # a geometric graph may stay disconnected after its retries
                assume(False)
        path.write_text(json.dumps(dict(cfg.to_dict(), seeds=seeds)))
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        summary = (out / "summary.csv").read_bytes()
        assert (out / "events.jsonl").stat().st_size and (out / "metrics.csv").stat().st_size and summary
        (out / "summary.csv").unlink()
        assert main(["report", "--in", str(out)]) == 0
        assert (out / "summary.csv").read_bytes() == summary

    check()


def test_report_never_ends_in_a_traceback(tmp_path):
    """Whatever bytes replace metrics.csv or events.jsonl of a run, `report` returns 0 or 1, and on 1
    prints the JSON error."""
    pytest.importorskip("hypothesis")
    from hypothesis import example, given, settings
    from hypothesis import strategies as st

    out = tmp_path / "out"
    assert main(["run", "--config", str(write_config(tmp_path)), "--seed", "0", "--out", str(out)]) == 0
    written = {name: (out / name).read_bytes() for name in ("metrics.csv", "events.jsonl")}

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @example(name="events.jsonl", raw=DEEP_NESTING)
    @example(name="metrics.csv", raw=DEEP_NESTING)
    @example(name="events.jsonl", raw=LONG_FIELD)
    @example(name="metrics.csv", raw=LONG_FIELD)
    @given(name=st.sampled_from(sorted(written)), raw=st.binary(max_size=64))
    def check(name, raw):
        for other, data in written.items():
            (out / other).write_bytes(raw if other == name else data)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["report", "--in", str(out)])
        assert code in (0, 1)
        if code == 1:
            assert set(json.loads(err.getvalue())) == {"error", "message"}

    check()


def test_every_subcommand_exits_zero_one_or_two(tmp_path):
    """Whatever flags and values each of the six subcommands gets, `main` returns 0 or 1, or argparse
    exits 2; on 1 the last stderr line is the JSON error, a dataset `gen-data` writes loads finite, and
    `gen-graph --out` writes its graph to that file.

    Values are small integers, floats with nan and inf, and short strings, so every run stays tiny:
    at most 20 nodes, 20 samples per class, 20 jumps and 3 sweep seeds. Junk strings hold no '.' or
    '/', so every path stays inside tmp_path.
    """
    pytest.importorskip("hypothesis")
    from hypothesis import example, given, settings
    from hypothesis import strategies as st

    write_config(tmp_path, dict(SMALL_CONFIG, data=dict(SMALL_CONFIG["data"], per_class=10)))
    ints = st.integers(-3, 20).map(str)
    floats = st.sampled_from(["nan", "inf", "-inf"]) | st.floats(-2, 2).map(repr)
    junk = st.text(alphabet="ab1-_ ", max_size=4)
    names = {name: st.sampled_from(choices) for name, choices in {
        "config": ["config.json"], "out": ["out", "ds.json"], "kind": ["caveman", "rgg"],
        "axis": ["jumps", "walkers", "data.sep", "policy.alpha", "graph.nodes", "seeds"],
    }.items()}
    values = st.lists(ints | floats, min_size=1, max_size=3).map(",".join)
    # per subcommand: (flags it requires, optional flags), each with the values it usually gets
    commands = {
        "gen-graph": ({"--kind": names["kind"], "--nodes": ints},
                      {"--cliques": ints, "--radius": floats, "--max-retries": ints, "--seed": ints,
                       "--out": names["out"]}),
        "gen-data": ({"--out": names["out"]},
                     {"--classes": ints, "--dims": ints, "--per-class": ints, "--val-frac": floats,
                      "--sep": floats, "--seed": ints}),
        "run": ({"--config": names["config"]}, {"--seed": ints, "--out": names["out"]}),
        "sweep": ({"--config": names["config"], "--axis": names["axis"], "--values": values},
                  {"--seeds": st.integers(-3, 3).map(str), "--out": names["out"]}),
        "preset": ({}, {"--out": names["out"]}),
        "report": ({"--in": names["out"]}, {}),
    }

    @st.composite
    def argvs(draw):
        command = draw(st.sampled_from(sorted(commands)))
        required, optional = commands[command]
        argv = [command]
        if command == "preset":
            argv.append(draw(st.sampled_from(["fig2", "fig5", "fig9"])))
            show = draw(st.booleans())  # a preset that runs must have no seeds: its runs are not tiny
            argv += ["--show-config"] * show + ["--seeds", str(draw(st.integers(-3, 20 if show else 0)))]
        if command == "gen-data" and draw(st.booleans()):
            argv.append("--binary")
        flags = list(required) + [flag for flag in sorted(optional) if draw(st.booleans())]
        for flag in draw(st.permutations(flags)):
            usual = required.get(flag, optional.get(flag))
            value = draw(usual if draw(st.integers(0, 4)) else ints | floats | junk)  # one in five is wild
            argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
        return argv

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @example(argv=["gen-data", "--classes", "2", "--per-class", "4", "--sep", "nan", "--out", "ds.json"])
    @example(argv=["gen-data", "--classes", "2", "--per-class", "4", "--seed", "-1", "--out", "ds.json"])
    @example(argv=["gen-data", "--classes", "2", "--per-class", "4", "--binary", "--out", ""])
    @example(argv=["gen-graph", "--kind", "caveman", "--nodes", "12", "--seed", "-5"])
    @example(argv=["gen-graph", "--kind", "caveman", "--nodes", "30", "--out", ""])
    @example(argv=["run", "--config", "config.json", "--seed", "-1", "--out", "out"])
    @given(argv=argvs())
    def check(argv):
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:
                assert exc.code == 2, argv
                return
        assert code in (0, 1), argv
        if code == 1:
            assert set(json.loads(err.getvalue().splitlines()[-1])) == {"error", "message"}, argv
        elif argv[0] == "gen-data":
            assert np.isfinite(load_dataset(build_parser().parse_args(argv).out).features).all()
        elif argv[0] == "gen-graph" and (args := build_parser().parse_args(argv)).out is not None:
            assert graph_from_json(Path(args.out).read_text()).node_count == args.nodes, argv  # not printed

    with contextlib.chdir(tmp_path):
        check()


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
