import importlib
import importlib.util
import json
import os
import shutil
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import pointseg
from pointseg import I2SConfig, cli
from pointseg.cli import FNV_BLOCK, FNV_OFFSET, FNV_PRIME, dispatch, fnv1a64
from pointseg.grids import (
    LabelGrid,
    decode_label_pgm,
    decode_points_csv,
    decode_tensor,
    encode_label_pgm,
    encode_tensor,
)

# An MDMT header of rank 4 with each dim 65536 and no payload.
OVERFLOWING_TENSOR = b"MDMT" + np.array([4, *[65536] * 4], dtype="<u4").tobytes()


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("scenes")
    code = dispatch(["synth", "--out", str(root), "--seed", "7", "--count", "1",
                     "--instances", "3"])
    assert code == 0
    return root / "scene_00000007"


class TestDispatch:
    def test_unknown_subcommand_exit_1(self, capsys):
        assert dispatch(["bogus"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_no_args_exit_1(self, capsys):
        assert dispatch([]) == 1
        assert "usage" in capsys.readouterr().err

    def test_help_exit_0(self, capsys):
        assert dispatch(["--help"]) == 0

    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_subcommand_help_exit_0(self, capsys, command):
        # argparse formats a help string only when it prints the help.
        assert dispatch([command, "--help"]) == 0
        assert capsys.readouterr().out.startswith(f"usage: pointseg {command}")

    def test_missing_flag_exit_1(self, capsys):
        assert dispatch(["render", "--input", "x.pgm"]) == 1

    def test_missing_file_exit_2(self, capsys, tmp_path):
        assert dispatch(["render", "--input", str(tmp_path / "nope.pgm"),
                         "--out", str(tmp_path / "o.ppm")]) == 2


class TestSynth:
    def test_outputs_and_manifest(self, scene_dir):
        for name in ("gt_instances.pgm", "gt_semantic.pgm", "semantic_in.pgm",
                     "points.csv", "intensity.mdmt", "scene.json", "manifest.json"):
            assert (scene_dir / name).exists(), name
        manifest = json.loads((scene_dir / "manifest.json").read_text())
        assert manifest["subcommand"] == "synth"
        assert manifest["tool"] == "pointseg"

    def test_deterministic_outputs(self, tmp_path):
        for sub in ("a", "b"):
            assert dispatch(["synth", "--out", str(tmp_path / sub), "--seed", "5"]) == 0
        for name in ("gt_instances.pgm", "semantic_in.pgm", "points.csv", "intensity.mdmt"):
            a = (tmp_path / "a" / "scene_00000005" / name).read_bytes()
            b = (tmp_path / "b" / "scene_00000005" / name).read_bytes()
            assert a == b, name


    @pytest.mark.parametrize("flags,file_value,merged", [
        ([], None, True),
        (["--merge-adjacent"], None, True),
        (["--no-merge-adjacent"], None, False),
        ([], False, False),
        (["--merge-adjacent"], False, True),
        (["--no-merge-adjacent"], True, False),
    ], ids=["default", "flag", "no-flag", "file-off", "flag-beats-file", "no-flag-beats-file"])
    def test_merge_adjacent_switches_both_ways(self, tmp_path, flags, file_value, merged):
        config = []
        if file_value is not None:
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps({"merge_adjacent": file_value}))
            config = ["--config", str(cfg_path)]
        for name, argv in (("run", [*flags, *config]), ("on", ["--merge-adjacent"]),
                           ("off", ["--no-merge-adjacent"])):
            assert dispatch(["synth", "--out", str(tmp_path / name), "--seed", "0", *argv]) == 0
        scene = tmp_path / "run" / "scene_00000000"
        echoed = json.loads((scene / "scene.json").read_text())["corruption"]["merge_adjacent"]
        assert echoed is merged
        semantic = {name: (tmp_path / name / "scene_00000000" / "semantic_in.pgm").read_bytes()
                    for name in ("run", "on", "off")}
        assert semantic["on"] != semantic["off"]  # seed 0: merging moves 40 pixels
        assert semantic["run"] == semantic["on" if merged else "off"]


class TestS2iCli:
    def test_outputs(self, scene_dir, tmp_path):
        out = tmp_path / "s2i"
        code = dispatch([
            "s2i",
            "--semantic", str(scene_dir / "semantic_in.pgm"),
            "--points", str(scene_dir / "points.csv"),
            "--out", str(out),
        ])
        assert code == 0
        instances = decode_label_pgm((out / "instances.pgm").read_bytes())
        offsets = decode_tensor((out / "offsets.mdmt").read_bytes())
        assert offsets.shape == (instances.height, instances.width, 3)
        header = (out / "classes.csv").read_text().splitlines()[0]
        assert header == "instance_id,class_id"


class TestTrainEvalCli:
    def test_pipeline_and_identity_eval(self, scene_dir, tmp_path):
        train_out = tmp_path / "train"
        code = dispatch([
            "train", "--scene", str(scene_dir), "--out", str(train_out),
            "--stages", "1", "--warmup", "5", "--iters", "10",
        ])
        assert code == 0
        stage = train_out / "stage_00"
        for name in ("pseudo_instances.pgm", "semantic_out.pgm", "classmap.mdmt",
                     "classes.csv", "metrics.json", "losses.jsonl"):
            assert (stage / name).exists(), name
        metrics = json.loads((stage / "metrics.json").read_text())
        assert set(metrics["counts"]) == {"iou50", "iou70", "iou90"}
        inputs = json.loads((train_out / "manifest.json").read_text())["inputs"]
        assert [Path(p).name for p in inputs] == [
            "gt_instances.pgm", "gt_semantic.pgm", "semantic_in.pgm", "points.csv",
            "intensity.mdmt",
        ]

        eval_out = tmp_path / "eval"
        code = dispatch([
            "eval",
            "--pred", str(scene_dir / "gt_instances.pgm"),
            "--gt", str(scene_dir / "gt_instances.pgm"),
            "--out", str(eval_out),
        ])
        assert code == 0
        metrics = json.loads((eval_out / "metrics.json").read_text())
        assert metrics["overall_iou"] == 100.0
        assert metrics["map50"] == 1.0

    def test_config_file_with_flag_override(self, scene_dir, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"stages": 2, "warmup": 5, "iters": 8}))
        out = tmp_path / "train_cfg"
        code = dispatch([
            "train", "--scene", str(scene_dir), "--out", str(out),
            "--config", str(cfg_path), "--stages", "1",
        ])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["stages"] == 1  # flag wins
        assert manifest["config"]["iters"] == 8  # file fills the rest
        assert not (out / "stage_01").exists()

    def test_train_deterministic_pseudo_labels(self, scene_dir, tmp_path):
        blobs = []
        for sub in ("r1", "r2"):
            out = tmp_path / sub
            assert dispatch([
                "train", "--scene", str(scene_dir), "--out", str(out),
                "--stages", "1", "--warmup", "5", "--iters", "10",
            ]) == 0
            blobs.append((out / "stage_00" / "pseudo_instances.pgm").read_bytes())
        assert blobs[0] == blobs[1]

    def test_eval_multi_pair_with_jobs(self, scene_dir, tmp_path):
        out = tmp_path / "multi"
        gt = str(scene_dir / "gt_instances.pgm")
        code = dispatch([
            "eval", "--pred", gt, "--gt", gt, "--pred", gt, "--gt", gt,
            "--out", str(out), "--jobs", "2",
        ])
        assert code == 0
        for sub in ("pair_000", "pair_001"):
            metrics = json.loads((out / sub / "metrics.json").read_text())
            assert metrics["overall_iou"] == 100.0

    def test_eval_reads_one_overlap_table_per_pair(self, scene_dir, tmp_path, monkeypatch):
        # Matching and AP share one table; both are still called through
        # the names cli imports, where perfbench's tracer rebinds them.
        from pointseg import metrics

        calls = []
        for module, name in ((cli, "_overlaps"), (metrics, "_overlaps"),
                             (cli, "greedy_match"), (cli, "ap_report")):
            def spy(*args, _real=getattr(module, name), _key=f"{module.__name__}.{name}",
                    **kwargs):
                calls.append(_key)
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, name, spy)
        s2i = tmp_path / "s2i"
        assert dispatch(["s2i", "--semantic", str(scene_dir / "semantic_in.pgm"),
                         "--points", str(scene_dir / "points.csv"), "--out", str(s2i)]) == 0
        classes = str(s2i / "classes.csv")
        for flags in ([], ["--pred-classes", classes, "--gt-classes", classes]):
            calls.clear()
            assert dispatch(["eval", "--pred", str(s2i / "instances.pgm"),
                             "--gt", str(scene_dir / "gt_instances.pgm"), *flags,
                             "--out", str(tmp_path / f"eval{len(flags)}")]) == 0
            assert calls == ["pointseg.cli._overlaps", "pointseg.cli.greedy_match",
                             "pointseg.cli.ap_report"]

    def test_jobs_2_writes_what_jobs_1_writes(self, tmp_path):
        # Each scene's config crosses the process pool; the outputs must not
        # depend on which side of it the scene ran.
        scenes = tmp_path / "scenes"
        assert dispatch(["synth", "--out", str(scenes), "--seed", "11", "--count", "2",
                         "--height", "24", "--width", "24"]) == 0
        scene_flags = [f for d in sorted(scenes.iterdir()) for f in ("--scene", str(d))]
        for jobs in ("1", "2"):
            assert dispatch(["train", *scene_flags, "--out", str(tmp_path / f"jobs{jobs}"),
                             "--stages", "2", "--warmup", "3", "--iters", "4",
                             "--jobs", jobs]) == 0
        one, two = tmp_path / "jobs1", tmp_path / "jobs2"
        files = sorted(p.relative_to(one) for p in one.rglob("*") if p.is_file())
        assert files == sorted(p.relative_to(two) for p in two.rglob("*") if p.is_file())
        assert len([f for f in files if f.name == "pseudo_instances.pgm"]) == 4
        for rel in files:
            if rel.name == "manifest.json":
                configs = [json.loads((d / rel).read_text())["config"] for d in (one, two)]
                assert configs[0] == configs[1], rel
            else:
                assert (one / rel).read_bytes() == (two / rel).read_bytes(), rel

    @pytest.mark.parametrize("row", ["1,x", "1"])
    def test_malformed_classes_row_exit_2(self, scene_dir, tmp_path, capsys, row):
        classes = tmp_path / "classes.csv"
        classes.write_text(f"instance_id,class_id\n{row}\n")
        gt = str(scene_dir / "gt_instances.pgm")
        code = dispatch(["eval", "--pred", gt, "--gt", gt, "--pred-classes", str(classes),
                         "--gt-classes", str(classes), "--out", str(tmp_path / "ev")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "line 2" in err

    @pytest.mark.parametrize("short", ["--pred-classes", "--gt-classes"])
    def test_classes_file_repeating_an_instance_exit_2(
        self, scene_dir, tmp_path, capsys, short
    ):
        # A second row for an id would otherwise silently win over the first.
        s2i = tmp_path / "s2i"
        assert dispatch(["s2i", "--semantic", str(scene_dir / "semantic_in.pgm"),
                         "--points", str(scene_dir / "points.csv"), "--out", str(s2i)]) == 0
        instances = s2i / "instances.pgm"
        full = s2i / "classes.csv"
        lines = full.read_text().splitlines()
        assert lines[1].startswith("1,") and len(lines) == 4
        repeated = tmp_path / "repeated.csv"
        repeated.write_text("\n".join([*lines, "", "1,3"]) + "\n")
        tables = {"--pred-classes": full, "--gt-classes": full, short: repeated}
        code = dispatch(["eval", "--pred", str(instances), "--gt", str(instances),
                         *(str(a) for flag in tables.items() for a in flag),
                         "--out", str(tmp_path / "ev")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "lines 2 and 6" in err and "instance_id 1" in err
        assert not (tmp_path / "ev").exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exit_1(self, scene_dir, tmp_path, capsys, command, jobs):
        gt = str(scene_dir / "gt_instances.pgm")
        inputs = {"train": ["--scene", str(scene_dir)], "eval": ["--pred", gt, "--gt", gt]}
        code = dispatch([command, *inputs[command], "--jobs", jobs,
                         "--out", str(tmp_path / "t")])
        assert code == 1
        err = capsys.readouterr().err
        assert f"--jobs must be >= 1, got {jobs}" in err and err.count("\n") == 1
        assert not (tmp_path / "t").exists()

    def test_scenes_sharing_a_basename_exit_1(self, scene_dir, tmp_path, capsys):
        # Both would write into --out/scene_3, and under --jobs 2 they would race.
        for parent in ("a", "b"):
            shutil.copytree(scene_dir, tmp_path / parent / "scene_3")
        code = dispatch(["train", "--scene", str(tmp_path / "a" / "scene_3"),
                         "--scene", str(tmp_path / "b" / "scene_3"), "--jobs", "2",
                         "--out", str(tmp_path / "t")])
        assert code == 1
        err = capsys.readouterr().err
        assert "share the basename 'scene_3'" in err and err.count("\n") == 1
        assert not (tmp_path / "t").exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_pool_has_no_more_workers_than_tasks(
        self, scene_dir, tmp_path, monkeypatch, capsys, command
    ):
        # A fork pool starts every worker up front, so a huge --jobs must not
        # reach it. The fake pool records its size and runs the tasks in
        # this process.
        sizes = []

        class FakePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, worker, tasks):
                return map(worker, tasks)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", FakePool)
        gt = str(scene_dir / "gt_instances.pgm")
        # Two scenes with distinct basenames: a shared one is a usage error.
        scenes = [shutil.copytree(scene_dir, tmp_path / name) for name in ("s1", "s2")]
        inputs = {
            "train": ["--scene", str(scenes[0]), "--scene", str(scenes[1]),
                      "--stages", "1", "--warmup", "1", "--iters", "1"],
            "eval": ["--pred", gt, "--gt", gt, "--pred", gt, "--gt", gt],
        }[command]
        assert dispatch([command, *inputs, "--jobs", "50000",
                         "--out", str(tmp_path / "t")]) == 0
        assert sizes == [2]
        assert capsys.readouterr().out.count("\n") == 2

    @pytest.mark.parametrize("short", ["--pred-classes", "--gt-classes"])
    def test_classes_file_missing_an_instance_exit_2(self, scene_dir, tmp_path, capsys, short):
        s2i = tmp_path / "s2i"
        assert dispatch(["s2i", "--semantic", str(scene_dir / "semantic_in.pgm"),
                         "--points", str(scene_dir / "points.csv"), "--out", str(s2i)]) == 0
        instances = s2i / "instances.pgm"
        assert decode_label_pgm(instances.read_bytes()).ids() == [1, 2, 3]
        full = s2i / "classes.csv"
        one_row = tmp_path / "one_row.csv"
        one_row.write_text("\n".join(full.read_text().splitlines()[:2]) + "\n")
        tables = {"--pred-classes": full, "--gt-classes": full, short: one_row}
        code = dispatch(["eval", "--pred", str(instances), "--gt", str(instances),
                         *(str(a) for flag in tables.items() for a in flag),
                         "--out", str(tmp_path / "ev")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "[2, 3]" in err

    @pytest.mark.parametrize("lone", ["--pred-classes", "--gt-classes"])
    def test_lone_classes_flag_exit_1(self, scene_dir, tmp_path, capsys, lone):
        # With one side's classes only, the other side would count every
        # instance as class 1 and score a wrong mAP.
        s2i = tmp_path / "s2i"
        assert dispatch(["s2i", "--semantic", str(scene_dir / "semantic_in.pgm"),
                         "--points", str(scene_dir / "points.csv"), "--out", str(s2i)]) == 0
        gt = str(scene_dir / "gt_instances.pgm")
        code = dispatch(["eval", "--pred", gt, "--gt", gt, lone, str(s2i / "classes.csv"),
                         "--out", str(tmp_path / "ev")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "--pred-classes" in err and "--gt-classes" in err
        assert not (tmp_path / "ev").exists()

    @pytest.mark.parametrize("argv,value", [
        (["synth", "--seed", "-1"], "got -1"),
        (["synth", "--height", "-5"], "got -5 x 64"),
        (["synth", "--width", "0"], "got 64 x 0"),
        (["train", "--seed", "-1"], "got -1"),
        (["synth", "--count", "0"], "count must be >= 1, got 0"),
        (["synth", "--count", "-1"], "count must be >= 1, got -1"),
    ], ids=["synth-seed", "synth-height", "synth-width", "train-seed", "synth-count-0",
            "synth-count-neg"])
    def test_negative_seed_or_empty_grid_exit_2(self, scene_dir, tmp_path, capsys, argv, value):
        scene = ["--scene", str(scene_dir)] if argv[0] == "train" else []
        assert dispatch([*argv, *scene, "--out", str(tmp_path / "t")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert value in err
        assert not (tmp_path / "t").exists()

    @pytest.mark.parametrize("command,key,value,kind", [
        ("train", "stages", "x", "int"),
        ("train", "lr", "abc", "float"),
        ("synth", "merge_adjacent", "false", "bool"),
        ("train", "stages", 2.7, "int"),
        ("train", "stages", True, "int"),
        ("train", "lr", True, "float"),
        ("synth", "shapes", 5, "str"),
        # A file value must be one of the flag's choices, as a flag value must.
        ("s2i", "connectivity", 6, "one of 4, 8"),
        ("synth", "shapes", "hex", "one of 'rect', 'ellipse', 'mixed'"),
    ])
    def test_config_value_of_wrong_type_exit_1(
        self, scene_dir, tmp_path, capsys, command, key, value, kind
    ):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({key: value}))
        inputs = {
            "synth": [],
            "s2i": ["--semantic", str(scene_dir / "semantic_in.pgm"),
                    "--points", str(scene_dir / "points.csv")],
            "train": ["--scene", str(scene_dir)],
        }[command]
        code = dispatch([command, *inputs, "--out", str(tmp_path / "t"),
                         "--config", str(cfg_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert repr(key) in err and f"expected {kind}" in err
        assert not (tmp_path / "t").exists()

    @pytest.mark.parametrize("command,config,named", [
        ("synth", {"seeds": 3, "seed": 2}, ["'seeds'"]),
        ("s2i", {"connectivty": 8}, ["'connectivty'"]),
        ("i2s", {"beta": 5, "pair_radius": 3}, ["'beta'"]),
        ("train", {"stagez": 1, "beta": 5}, ["'stagez'"]),
        ("eval", {"class_aware": True, "jobs": 1}, ["'class_aware'"]),
        ("train", {"tua": 1.0, "stagez": 1}, ["'stagez'", "'tua'"]),
        ("synth", {"out": "elsewhere"}, ["'out'"]),
        ("s2i", {"semantic": "a.pgm", "points": "a.csv"}, ["'points'", "'semantic'"]),
        ("i2s", {"instances": "a.pgm", "classmap": "a.mdmt"}, ["'classmap'", "'instances'"]),
        ("train", {"scene": ["elsewhere"], "config": "a.json"}, ["'config'", "'scene'"]),
        ("eval", {"pred": ["a.pgm"], "gt_classes": ["a.csv"]}, ["'gt_classes'", "'pred'"]),
        ("train", {"tau": 5}, ["'tau'"]),
        ("train", {"box_side": 16}, ["'box_side'"]),
    ], ids=["synth", "s2i", "i2s-beta", "train", "eval", "train-two-keys", "synth-out",
            "s2i-paths", "i2s-paths", "train-paths", "eval-paths", "train-tau",
            "train-box-side"])
    def test_config_key_naming_no_flag_exit_1(
        self, scene_dir, tmp_path, capsys, command, config, named
    ):
        # A misspelt or stale key would otherwise leave its default in force
        # without a word, and a path key would lose to its required flag.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        classmap = tmp_path / "classmap_in.mdmt"
        semantic = decode_label_pgm((scene_dir / "semantic_in.pgm").read_bytes())
        classmap.write_bytes(encode_tensor(np.eye(int(semantic.data.max()) + 1)[semantic.data]))
        inputs = {
            "synth": [],
            "s2i": ["--semantic", str(scene_dir / "semantic_in.pgm"),
                    "--points", str(scene_dir / "points.csv")],
            "i2s": ["--instances", str(scene_dir / "gt_instances.pgm"),
                    "--classmap", str(classmap)],
            "train": ["--scene", str(scene_dir)],
            "eval": ["--pred", str(scene_dir / "gt_instances.pgm"),
                     "--gt", str(scene_dir / "gt_instances.pgm")],
        }[command]
        code = dispatch([command, *inputs, "--out", str(tmp_path / "t"),
                         "--config", str(cfg_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert "name no flag" in err
        assert err.count("'") == 2 * len(named) and all(key in err for key in named)
        assert not (tmp_path / "t").exists()

    def test_removed_tau_flag_exit_1(self, scene_dir, tmp_path, capsys):
        # Grouping needs no vote radius, so --tau is no flag of train.
        code = dispatch(["train", "--scene", str(scene_dir), "--out", str(tmp_path / "t"),
                         "--tau", "5"])
        assert code == 1
        err = capsys.readouterr().err
        assert "unrecognized arguments: --tau 5" in err and "Traceback" not in err
        assert not (tmp_path / "t").exists()

    def test_removed_box_side_flag_exit_1(self, scene_dir, tmp_path, capsys):
        # Targets read a map pinned at the points, so no point needs a
        # fallback box, and --box-side is no flag of train.
        code = dispatch(["train", "--scene", str(scene_dir), "--out", str(tmp_path / "t"),
                         "--box-side", "16"])
        assert code == 1
        err = capsys.readouterr().err
        assert "unrecognized arguments: --box-side 16" in err and "Traceback" not in err
        assert not (tmp_path / "t").exists()

    @pytest.mark.parametrize("flag,name", [("--beta", "beta"), ("--lr", "learning rate")])
    def test_nan_parameter_exit_2(self, scene_dir, tmp_path, capsys, flag, name):
        code = dispatch(["train", "--scene", str(scene_dir), "--out", str(tmp_path / "t"),
                         "--stages", "1", "--warmup", "1", "--iters", "1", flag, "nan"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert name in err and "nan" in err
        assert not (tmp_path / "t").exists()


    @pytest.mark.parametrize("lr", ["inf", "1e300"])
    def test_unusable_learning_rate_exit_2(self, scene_dir, tmp_path, lr):
        # Run apart so that anything NumPy prints reaches the captured stderr.
        src = Path(pointseg.__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "-m", "pointseg.cli", "train", "--scene", str(scene_dir),
             "--out", str(tmp_path / "t"), "--stages", "1", "--warmup", "1",
             "--iters", "2", "--lr", lr],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 2
        assert done.stderr.startswith("error:") and done.stderr.count("\n") == 1
        assert "learning rate" in done.stderr
        assert not (tmp_path / "t").exists()


def _ordered(value):
    """`value` with each dict as its list of items, so that == checks key order."""
    if isinstance(value, dict):
        return [(key, _ordered(item)) for key, item in value.items()]
    return value


class TestConfigEcho:
    """The manifest's config echo, and the --config keys that feed it."""

    DEFAULTS = {
        "synth": {"seed": 0, "height": 64, "width": 64, "n_instances": 6, "n_classes": 3,
                  "shapes": "mixed",
                  "corruption": {"dilation_px": 2, "erosion_px": 0, "merge_adjacent": True,
                                 "flip_rate": 0.02, "rng_seed": 1},
                  "count_index": 0},
        "s2i": {"connectivity": 8},
        "i2s": {"pair_radius": 8},
        "train": {"stages": 3, "warmup": 25, "iters": 100, "lr": 0.01, "hard_pixel_ratio": 0.2,
                  "beta": 2.0, "pair_radius": 8, "max_pairs": 4096, "seed": 0},
        "eval": {"class_aware": False},
    }

    @pytest.fixture(scope="class")
    def small_scenes(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("small_scenes")
        assert dispatch(["synth", "--out", str(root), "--seed", "3", "--count", "2",
                         "--height", "24", "--width", "24", "--instances", "2"]) == 0
        return sorted(root.iterdir())

    @pytest.mark.parametrize("command", list(DEFAULTS))
    def test_echo_at_defaults(self, scene_dir, tmp_path, capsys, command):
        classmap = tmp_path / "classmap.mdmt"
        semantic = decode_label_pgm((scene_dir / "semantic_in.pgm").read_bytes())
        classmap.write_bytes(encode_tensor(np.eye(int(semantic.data.max()) + 1)[semantic.data]))
        inputs = {
            "synth": [],
            "s2i": ["--semantic", str(scene_dir / "semantic_in.pgm"),
                    "--points", str(scene_dir / "points.csv")],
            "i2s": ["--instances", str(scene_dir / "gt_instances.pgm"),
                    "--classmap", str(classmap)],
            "train": ["--scene", str(scene_dir)],
            "eval": ["--pred", str(scene_dir / "gt_instances.pgm"),
                     "--gt", str(scene_dir / "gt_instances.pgm")],
        }[command]
        out = tmp_path / "out"
        assert dispatch([command, *inputs, "--out", str(out)]) == 0
        manifest = (out / "scene_00000000" if command == "synth" else out) / "manifest.json"
        config = json.loads(manifest.read_text())["config"]
        assert _ordered(config) == _ordered(self.DEFAULTS[command])

    def test_each_train_key_echoes_alike_from_file_and_flag(self, small_scenes, tmp_path, capsys):
        short = {"stages": 1, "warmup": 1, "iters": 1}
        echoed = [flag for flag in cli._TRAIN_FLAGS if flag.path]
        assert [flag.name for flag in cli._TRAIN_FLAGS if not flag.path] == ["--jobs"]
        for flag in echoed:
            key = flag.name[2:].replace("-", "_")
            value = flag.default + 1 if flag.kind is int else (flag.default or 1.0) * 1.5
            rest = {k: v for k, v in short.items() if k != key}
            configs = []
            for source, file_cfg, flags in (("file", {**rest, key: value}, []),
                                            ("flag", rest, [flag.name, str(value)])):
                cfg_path = tmp_path / f"{key}_{source}.json"
                cfg_path.write_text(json.dumps(file_cfg))
                out = tmp_path / f"{key}_{source}"
                assert dispatch(["train", "--scene", str(small_scenes[0]), "--out", str(out),
                                 "--config", str(cfg_path), *flags]) == 0, (key, source)
                configs.append(json.loads((out / "manifest.json").read_text())["config"])
            assert configs[0][key] == value, key
            assert _ordered(configs[0]) == _ordered(configs[1]), key
        assert list(configs[0]) == [flag.name[2:].replace("-", "_") for flag in echoed]

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_jobs_from_config_file_reaches_the_pool(
        self, small_scenes, tmp_path, monkeypatch, capsys, command
    ):
        seen = []
        run_tasks = cli._run_tasks

        def record(worker, tasks, jobs):
            seen.append((len(tasks), jobs))
            run_tasks(worker, tasks, 1)

        monkeypatch.setattr(cli, "_run_tasks", record)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"jobs": 2}))
        gt = [str(d / "gt_instances.pgm") for d in small_scenes]
        inputs = {
            "train": ["--scene", str(small_scenes[0]), "--scene", str(small_scenes[1]),
                      "--stages", "1", "--warmup", "1", "--iters", "1"],
            "eval": ["--pred", gt[0], "--gt", gt[0], "--pred", gt[1], "--gt", gt[1]],
        }[command]
        assert dispatch([command, *inputs, "--out", str(tmp_path / "t"),
                         "--config", str(cfg_path)]) == 0
        assert seen == [(2, 2)]


_LABEL_WITHOUT_SCIPY = """
import sys
from pathlib import Path

import numpy as np

from pointseg.cli import dispatch
from pointseg.grids import decode_label_pgm, encode_tensor

scene, out = Path(sys.argv[1]), Path(sys.argv[2])
semantic = decode_label_pgm((scene / "semantic_in.pgm").read_bytes())
onehot = np.eye(int(semantic.data.max()) + 1)[semantic.data]
(out / "classmap_in.mdmt").write_bytes(encode_tensor(onehot))
assert dispatch(["s2i", "--semantic", str(scene / "semantic_in.pgm"),
                 "--points", str(scene / "points.csv"), "--out", str(out / "s2i")]) == 0
assert dispatch(["i2s", "--instances", str(out / "s2i" / "instances.pgm"),
                 "--classmap", str(out / "classmap_in.mdmt"), "--out", str(out / "i2s")]) == 0
print("scipy loaded:", any(m.split(".")[0] == "scipy" for m in sys.modules))
"""


class TestI2sCli:
    def test_beta_flag_is_a_usage_error(self, scene_dir, tmp_path, capsys):
        # The 0/1 same-instance affinity is the same under every power, so
        # i2s has no --beta; the manifest echoes the pair radius alone.
        semantic = decode_label_pgm((scene_dir / "semantic_in.pgm").read_bytes())
        classmap = tmp_path / "classmap_in.mdmt"
        classmap.write_bytes(encode_tensor(np.eye(int(semantic.data.max()) + 1)[semantic.data]))
        base = ["i2s", "--instances", str(scene_dir / "gt_instances.pgm"),
                "--classmap", str(classmap)]
        # Exit 1 is pointseg's code for every argparse usage error.
        assert dispatch([*base, "--beta", "2", "--out", str(tmp_path / "beta")]) == 1
        err = capsys.readouterr().err
        assert "unrecognized arguments: --beta 2" in err and "usage: pointseg i2s" in err
        assert not (tmp_path / "beta").exists()
        assert dispatch([*base, "--out", str(tmp_path / "plain")]) == 0
        manifest = json.loads((tmp_path / "plain" / "manifest.json").read_text())
        assert manifest["config"] == {"pair_radius": I2SConfig.pair_radius}

    def test_classmap_dims_overflowing_int64_exit_2(self, scene_dir, tmp_path, capsys):
        # The dims' product is 2**64, which a NumPy int64 product wraps to 0:
        # the empty payload passed the length check and reshape raised.
        classmap = tmp_path / "classmap_in.mdmt"
        classmap.write_bytes(OVERFLOWING_TENSOR)
        code = dispatch(["i2s", "--instances", str(scene_dir / "gt_instances.pgm"),
                         "--classmap", str(classmap), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: dim/payload mismatch") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()


class TestRuntimeImports:
    def test_s2i_and_i2s_do_not_import_scipy(self, scene_dir, tmp_path):
        # SciPy is a test-only extra: importing scipy.ndimage alone costs
        # about 27 MiB of resident memory per process.
        src = Path(pointseg.__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "-c", _LABEL_WITHOUT_SCIPY, str(scene_dir), str(tmp_path)],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "scipy loaded: False"


# The two _damage_features cases break the image the predictor's features
# are built from, intensity.mdmt.
def _damage_features(scene: Path) -> None:
    image = decode_tensor((scene / "intensity.mdmt").read_bytes())
    (scene / "intensity.mdmt").write_bytes(encode_tensor(image[1:]))


def _damage_features_nan(scene: Path) -> None:
    # encode_tensor refuses NaN, so the float32 is written as raw bytes.
    blob = bytearray((scene / "intensity.mdmt").read_bytes())
    blob[-4:] = np.array([np.nan], dtype="<f4").tobytes()
    (scene / "intensity.mdmt").write_bytes(bytes(blob))


def _damage_intensity_dims(scene: Path) -> None:
    # A NumPy int64 product of these dims wrapped to 0, so the empty payload
    # passed the length check and reshape raised.
    (scene / "intensity.mdmt").write_bytes(OVERFLOWING_TENSOR)


def _damage_point_class(scene: Path) -> None:
    rows = (scene / "points.csv").read_text().splitlines()
    y, x, _, inst = rows[1].split(",")
    rows[1] = f"{y},{x},7,{inst}"
    (scene / "points.csv").write_text("\n".join(rows) + "\n")


def _damage_gt_semantic(scene: Path) -> None:
    sem = decode_label_pgm((scene / "gt_semantic.pgm").read_bytes())
    (scene / "gt_semantic.pgm").write_bytes(encode_label_pgm(LabelGrid(sem.data[:, 2:])))


def _damage_gt_instance_id(scene: Path) -> None:
    # An id with no point used to end in a KeyError from greedy_match.
    inst = decode_label_pgm((scene / "gt_instances.pgm").read_bytes())
    data = inst.data.copy()
    data[0, 0] = 119
    (scene / "gt_instances.pgm").write_bytes(encode_label_pgm(LabelGrid(data)))


def _damage_point_position(scene: Path) -> None:
    rows = (scene / "points.csv").read_text().splitlines()
    _, x, cls, inst = rows[1].split(",")
    rows[1] = f"500,{x},{cls},{inst}"
    (scene / "points.csv").write_text("\n".join(rows) + "\n")


class TestSceneValidationCli:
    @pytest.mark.parametrize("damage", [
        _damage_features, _damage_point_class, _damage_gt_semantic, _damage_point_position,
        _damage_gt_instance_id, _damage_features_nan, _damage_intensity_dims,
    ])
    def test_broken_scene_exit_2(self, scene_dir, tmp_path, capsys, damage):
        scene = tmp_path / "scene"
        shutil.copytree(scene_dir, scene)
        damage(scene)
        code = dispatch(["train", "--scene", str(scene), "--out", str(tmp_path / "t"),
                         "--stages", "1", "--warmup", "1", "--iters", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "--lr" not in err
        if damage is _damage_features_nan:
            assert "intensity" in err
        assert not (tmp_path / "t").exists()

    @pytest.mark.parametrize("meta", [
        "[]", '{"n_classes": "x"}', "{}", '{"n_classes": 0}', '{"n_classes": 2.5}',
        '{"n_classes": true}',
    ])
    def test_malformed_scene_json_exit_2(self, scene_dir, tmp_path, capsys, meta):
        scene = tmp_path / "scene"
        shutil.copytree(scene_dir, scene)
        (scene / "scene.json").write_text(meta)
        code = dispatch(["train", "--scene", str(scene), "--out", str(tmp_path / "t"),
                         "--stages", "1", "--warmup", "1", "--iters", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "scene.json" in err
        assert not (tmp_path / "t").exists()


    @pytest.mark.parametrize("n_classes", [65536, 10**12])
    def test_n_classes_no_label_pgm_can_carry_exit_2_at_once(
        self, scene_dir, tmp_path, capsys, n_classes
    ):
        # Refused before any array is sized by it.
        scene = tmp_path / "scene"
        shutil.copytree(scene_dir, scene)
        (scene / "scene.json").write_text(json.dumps({"n_classes": n_classes}))
        start = time.perf_counter()
        code = dispatch(["train", "--scene", str(scene), "--out", str(tmp_path / "t")])
        assert code == 2 and time.perf_counter() - start < 0.5
        err = capsys.readouterr().err
        assert err.startswith("error:") and "n_classes 1..65535" in err
        assert not (tmp_path / "t").exists()


class TestRenderCli:
    def test_two_distinct_colors(self, scene_dir, tmp_path):
        out = tmp_path / "img.ppm"
        # gt for seed-7 scene has multiple instances; render must colorize
        code = dispatch(["render", "--input", str(scene_dir / "gt_instances.pgm"),
                         "--out", str(out)])
        assert code == 0
        blob = out.read_bytes()
        assert blob.startswith(b"P6\n")
        body = blob.split(b"255\n", 1)[1]
        pixels = {tuple(body[i : i + 3]) for i in range(0, len(body), 3)}
        assert (0, 0, 0) in pixels
        assert len(pixels) >= 2


def _fnv1a64_loop(data: bytes) -> int:
    """FNV-1a one byte at a time: the definition `fnv1a64` must equal."""
    acc = FNV_OFFSET
    for byte in data:
        acc = ((acc ^ byte) * FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return acc


@pytest.fixture(scope="module")
def labelled_256(tmp_path_factory):
    """A 256x256 synth scene labelled by s2i, i2s and eval, as perfbench's
    label_256 workload does: the i2s input is a one-hot class map of the
    corrupted semantic map, and eval is class-aware."""
    root = tmp_path_factory.mktemp("labelled_256")
    assert dispatch(["synth", "--out", str(root), "--seed", "100",
                     "--height", "256", "--width", "256"]) == 0
    scene = root / "scene_00000100"
    n_classes = json.loads((scene / "scene.json").read_text())["n_classes"]
    semantic = decode_label_pgm((scene / "semantic_in.pgm").read_bytes())
    (scene / "classmap_in.mdmt").write_bytes(encode_tensor(np.eye(n_classes + 1)[semantic.data]))
    points = decode_points_csv((scene / "points.csv").read_text())
    rows = ["instance_id,class_id"] + [f"{p.instance_id},{p.class_id}" for p in points]
    (scene / "gt_classes.csv").write_text("\n".join(rows) + "\n")
    s2i = root / "s2i"
    assert dispatch(["s2i", "--semantic", str(scene / "semantic_in.pgm"),
                     "--points", str(scene / "points.csv"), "--out", str(s2i)]) == 0
    assert dispatch(["i2s", "--instances", str(s2i / "instances.pgm"),
                     "--classmap", str(scene / "classmap_in.mdmt"),
                     "--out", str(root / "i2s")]) == 0
    assert dispatch(["eval", "--pred", str(s2i / "instances.pgm"),
                     "--gt", str(scene / "gt_instances.pgm"),
                     "--pred-classes", str(s2i / "classes.csv"),
                     "--gt-classes", str(scene / "gt_classes.csv"),
                     "--out", str(root / "eval")]) == 0
    return root


class TestFnv:
    """`fnv1a64` hashes in NumPy blocks; the byte loop is its oracle."""

    def test_known_vectors(self):
        # standard FNV-1a 64-bit test vectors
        assert fnv1a64(b"") == 0xCBF29CE484222325
        assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C

    @pytest.mark.parametrize("fill", ["random", "zeros", "ones"])
    @pytest.mark.parametrize("length", [
        0, 1, 2, 63, 64, 65, FNV_BLOCK - 1, FNV_BLOCK, FNV_BLOCK + 1, 3 * FNV_BLOCK + 17,
    ])
    def test_equals_byte_loop(self, length, fill):
        data = {
            "random": np.random.default_rng(length).integers(0, 256, length, dtype=np.uint8),
            "zeros": np.zeros(length, dtype=np.uint8),
            "ones": np.full(length, 0xFF, dtype=np.uint8),
        }[fill].tobytes()
        assert fnv1a64(data) == _fnv1a64_loop(data)

    def test_equals_byte_loop_on_a_256_class_map(self, labelled_256):
        data = (labelled_256 / "scene_00000100" / "classmap_in.mdmt").read_bytes()
        assert len(data) > 8 * FNV_BLOCK
        assert fnv1a64(data) == _fnv1a64_loop(data)

    def test_manifest_digests_equal_byte_loop(self, labelled_256):
        for command, n_inputs in (("s2i", 2), ("i2s", 2), ("eval", 4)):
            manifest = json.loads((labelled_256 / command / "manifest.json").read_text())
            assert len(manifest["inputs"]) == n_inputs, command
            for path, digest in manifest["inputs"].items():
                assert digest == f"fnv1a64:{_fnv1a64_loop(Path(path).read_bytes()):016x}", path

    def test_memory_is_bounded_by_the_block(self):
        # The largest temporary is one block's int64 deltas, 8 * FNV_BLOCK
        # bytes (512 KiB); an 8 MiB input must not raise the peak past four
        # of those, a quarter of the input's own size.
        data = np.random.default_rng(8).integers(0, 256, 8 << 20, dtype=np.uint8).tobytes()
        tracemalloc.start()
        try:
            fnv1a64(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 8 * FNV_BLOCK, peak


class TestOutputDigests:
    """Label outputs pinned by digest. A change that moves any of these
    labels must update the digest and say why."""

    S2I_256 = {4: 0x411FF0355396E288, 8: 0x09BA5F476AFC25E3}
    TRAIN_64_STAGE_02 = {
        "pseudo_instances.pgm": 0x0D7477E029F86565,
        "semantic_out.pgm": 0x4D60478A06E83EAE,
    }
    # The warm-up's losses and stage 0's outputs besides its labels.
    TRAIN_64_EARLY = {
        "warmup_losses.jsonl": 0xD9BC190F85EBEA0F,
        "stage_00/losses.jsonl": 0x7A2946CF0EAAEFFB,
        "stage_00/classes.csv": 0x443CEC1530BD4168,
        "stage_00/metrics.json": 0x9749AFA456D5EA34,
    }

    @pytest.fixture(scope="class")
    def train_64(self, tmp_path_factory):
        """The default train of the 64x64 seed-100 scene, run once."""
        tmp = tmp_path_factory.mktemp("train_64")
        assert dispatch(["synth", "--out", str(tmp), "--seed", "100"]) == 0
        assert dispatch(["train", "--scene", str(tmp / "scene_00000100"),
                         "--out", str(tmp / "train")]) == 0
        return tmp / "train"

    @pytest.mark.parametrize("connectivity", sorted(S2I_256))
    def test_s2i_instances_256(self, tmp_path, connectivity):
        assert dispatch(["synth", "--out", str(tmp_path), "--seed", "100",
                         "--height", "256", "--width", "256"]) == 0
        scene = tmp_path / "scene_00000100"
        assert dispatch(["s2i", "--semantic", str(scene / "semantic_in.pgm"),
                         "--points", str(scene / "points.csv"),
                         "--connectivity", str(connectivity),
                         "--out", str(tmp_path / "s2i")]) == 0
        digest = fnv1a64((tmp_path / "s2i" / "instances.pgm").read_bytes())
        assert digest == self.S2I_256[connectivity], f"{digest:016x}"

    def test_train_64_last_stage(self, train_64):
        for name, expected in self.TRAIN_64_STAGE_02.items():
            digest = fnv1a64((train_64 / "stage_02" / name).read_bytes())
            assert digest == expected, f"{name}: {digest:016x}"

    def test_train_64_warmup_and_first_stage(self, train_64):
        for name, expected in self.TRAIN_64_EARLY.items():
            digest = fnv1a64((train_64 / name).read_bytes())
            assert digest == expected, f"{name}: {digest:016x}"


@pytest.mark.parametrize("target", ["points", "scene_json", "scene_points", "classes", "config"])
def test_non_utf8_text_input_exit_2(scene_dir, tmp_path, capsys, target):
    scene = tmp_path / "scene"
    shutil.copytree(scene_dir, scene)
    s2i = tmp_path / "s2i"
    assert dispatch(["s2i", "--semantic", str(scene / "semantic_in.pgm"),
                     "--points", str(scene / "points.csv"), "--out", str(s2i)]) == 0
    config = tmp_path / "cfg.json"
    config.write_text("{}")
    train = ["train", "--scene", str(scene), "--out", str(tmp_path / "t"),
             "--stages", "1", "--warmup", "1", "--iters", "1"]
    bad, argv = {
        "points": (scene / "points.csv", ["s2i", "--semantic", str(scene / "semantic_in.pgm"),
                                          "--points", str(scene / "points.csv"),
                                          "--out", str(tmp_path / "t")]),
        "scene_json": (scene / "scene.json", train),
        "scene_points": (scene / "points.csv", train),
        "classes": (s2i / "classes.csv", ["eval", "--pred", str(s2i / "instances.pgm"),
                                          "--gt", str(s2i / "instances.pgm"),
                                          "--pred-classes", str(s2i / "classes.csv"),
                                          "--gt-classes", str(s2i / "classes.csv"),
                                          "--out", str(tmp_path / "t")]),
        "config": (config, [*train, "--config", str(config)]),
    }[target]
    bad.write_bytes(bad.read_bytes() + b"\xff")
    assert dispatch(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert str(bad) in err and "not UTF-8" in err
    assert not (tmp_path / "t").exists()


def _mutate(blob: bytes, rng: np.random.Generator) -> bytes:
    """Overwrite one to three bytes, half of them within the first 16, where
    the headers are."""
    data = bytearray(blob)
    for _ in range(int(rng.integers(1, 4))):
        span = min(16, len(data)) if rng.random() < 0.5 else len(data)
        data[int(rng.integers(span))] = int(rng.integers(256))
    return bytes(data)


class TestCliFuzz:
    """Mutated input bytes must end in exit code 0, 1 or 2, never in an
    exception that escapes dispatch."""

    CASES = 200

    def test_mutated_inputs_exit_cleanly(self, tmp_path, capsys):
        clean = tmp_path / "clean"
        assert dispatch(["synth", "--out", str(clean), "--seed", "11", "--height", "24",
                         "--width", "24", "--instances", "3"]) == 0
        scene = clean / "scene_00000011"
        assert dispatch(["s2i", "--semantic", str(scene / "semantic_in.pgm"),
                         "--points", str(scene / "points.csv"),
                         "--out", str(clean / "s2i")]) == 0
        semantic = decode_label_pgm((scene / "semantic_in.pgm").read_bytes())
        (clean / "classmap.mdmt").write_bytes(
            encode_tensor(np.eye(int(semantic.data.max()) + 1)[semantic.data])
        )

        def commands(root: Path, out: str) -> dict[str, list[str]]:
            sc, s2i = root / scene.name, root / "s2i"
            return {
                "s2i": ["s2i", "--semantic", str(sc / "semantic_in.pgm"),
                        "--points", str(sc / "points.csv"), "--out", out],
                "i2s": ["i2s", "--instances", str(sc / "gt_instances.pgm"),
                        "--classmap", str(root / "classmap.mdmt"), "--out", out],
                "train": ["train", "--scene", str(sc), "--out", out,
                          "--stages", "1", "--warmup", "1", "--iters", "1"],
                "eval": ["eval", "--pred", str(s2i / "instances.pgm"),
                         "--gt", str(sc / "gt_instances.pgm"),
                         "--pred-classes", str(s2i / "classes.csv"),
                         "--gt-classes", str(s2i / "classes.csv"), "--out", out],
            }

        readers = {
            f"{scene.name}/semantic_in.pgm": ["s2i", "train"],
            f"{scene.name}/points.csv": ["s2i", "train"],
            f"{scene.name}/intensity.mdmt": ["train"],
            "classmap.mdmt": ["i2s"],
            f"{scene.name}/gt_instances.pgm": ["i2s", "train", "eval"],
            f"{scene.name}/scene.json": ["train"],
            "s2i/classes.csv": ["eval"],
        }
        rng = np.random.default_rng(2024)
        names = sorted(readers)
        for case in range(self.CASES):
            root = tmp_path / f"case_{case:03d}"
            shutil.copytree(clean, root)
            name = names[case % len(names)]
            target = root / name
            target.write_bytes(_mutate(target.read_bytes(), rng))
            command = readers[name][int(rng.integers(len(readers[name])))]
            code = dispatch(commands(root, str(root / "out"))[command])
            assert code in (0, 1, 2), (name, command, code)
        capsys.readouterr()


def _numeric_flags() -> dict[str, list[str]]:
    """The int and float flags of each subcommand's flag table, but --jobs."""
    tables = {"synth": cli._SYNTH_FLAGS, "s2i": cli._S2I_FLAGS, "i2s": cli._I2S_FLAGS,
              "train": cli._TRAIN_FLAGS, "eval": cli._EVAL_FLAGS}
    flags = {
        command: [f.name for f in table if f.kind in (int, float) and f.name != "--jobs"]
        for command, table in tables.items()
    }
    return {command: names for command, names in flags.items() if names}


class TestCliFlagFuzz:
    """Each numeric flag, set alone to -1, 0, nan or inf, must end in exit
    code 0, 1 or 2, never in an exception that escapes dispatch. --jobs is
    left out so that no fuzzed value sizes a process pool, and no value is
    large, since --count, --height and --instances allocate or loop in
    proportion to theirs. PINNED holds the codes some values must give."""

    VALUES = ("-1", "0", "nan", "inf")
    PINNED = {
        ("synth", "--count", "-1"): 2,
        ("synth", "--count", "0"): 2,
        ("train", "--beta", "inf"): 2,
    }
    FLAGS = _numeric_flags()

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("flag_fuzz")
        assert dispatch(["synth", "--out", str(root), "--seed", "11", "--height", "24",
                         "--width", "24", "--instances", "3"]) == 0
        scene = root / "scene_00000011"
        semantic = decode_label_pgm((scene / "semantic_in.pgm").read_bytes())
        (root / "classmap.mdmt").write_bytes(
            encode_tensor(np.eye(int(semantic.data.max()) + 1)[semantic.data])
        )
        return scene, root / "classmap.mdmt"

    @pytest.mark.parametrize("command", sorted(FLAGS))
    def test_numeric_flags_exit_cleanly(self, inputs, tmp_path, capsys, command):
        scene, classmap = inputs
        base = {
            "synth": ["--height", "24", "--width", "24", "--instances", "3"],
            "s2i": ["--semantic", str(scene / "semantic_in.pgm"),
                    "--points", str(scene / "points.csv")],
            "i2s": ["--instances", str(scene / "gt_instances.pgm"),
                    "--classmap", str(classmap)],
            "train": ["--scene", str(scene), "--stages", "1", "--warmup", "1", "--iters", "1"],
        }[command]
        for flag in self.FLAGS[command]:
            for value in self.VALUES:
                out = tmp_path / f"{flag.strip('-')}_{value}"
                code = dispatch([command, *base, flag, value, "--out", str(out)])
                assert code in (0, 1, 2), (flag, value, code)
                pinned = self.PINNED.get((command, flag, value))
                assert pinned in (None, code), (flag, value, code)
        capsys.readouterr()


def _load_perfbench_tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestPerfbenchLayerNames:
    """perfbench traces pointseg by rebinding the names its LAYERS list; a
    name deleted from pointseg would break the benchmark, not the suite."""

    def test_every_layer_resolves(self):
        tracer = _load_perfbench_tracer()
        for module_name, attr, *_ in tracer.LAYERS:
            assert callable(getattr(importlib.import_module(module_name), attr, None)), (
                module_name, attr
            )

    def test_every_subcommand_is_registered(self):
        tracer = _load_perfbench_tracer()
        from pointseg.cli import _COMMANDS

        assert set(tracer.SUBCOMMANDS) <= set(_COMMANDS)


class TestPerfbenchTracerSpans:
    """A layer name that resolves but is no longer called would record no
    span, and perfbench would report that layer as 0 s."""

    def test_label_pipeline_records_every_label_layer(self, tmp_path, capsys):
        tracer = _load_perfbench_tracer()
        scene = tmp_path / "scene_00000005"
        with tracer.Tracer().installed() as trace:
            assert dispatch(["synth", "--out", str(tmp_path), "--seed", "5", "--height", "32",
                             "--width", "32", "--instances", "3"]) == 0
            semantic = decode_label_pgm((scene / "semantic_in.pgm").read_bytes())
            onehot = np.eye(int(semantic.data.max()) + 1)[semantic.data]
            (tmp_path / "classmap_in.mdmt").write_bytes(encode_tensor(onehot))
            assert dispatch(["s2i", "--semantic", str(scene / "semantic_in.pgm"),
                             "--points", str(scene / "points.csv"),
                             "--out", str(tmp_path / "s2i")]) == 0
            assert dispatch(["i2s", "--instances", str(tmp_path / "s2i" / "instances.pgm"),
                             "--classmap", str(tmp_path / "classmap_in.mdmt"),
                             "--out", str(tmp_path / "i2s")]) == 0
            assert dispatch(["eval", "--pred", str(tmp_path / "s2i" / "instances.pgm"),
                             "--gt", str(scene / "gt_instances.pgm"),
                             "--out", str(tmp_path / "eval")]) == 0
        capsys.readouterr()
        names = [span[0] for span in trace.spans]
        refresh = [span for span in trace.spans if span[0] == "i2s.refresh_semantic"]
        assert len(refresh) == 1
        assert trace.spans[refresh[0][3]][0] == "cli.i2s"
        assert trace.counts["i2s.affinity_values"] == 0  # an instance map, not a callable
        label_layers = {
            name for module, attr, name, _ in tracer.LAYERS
            if module in ("pointseg.cli", "pointseg.s2i") and attr != "run_mdm"
        }
        assert label_layers <= set(names), label_layers - set(names)

    def test_train_records_every_loop_layer_and_one_feature_expansion(self, tmp_path, capsys):
        tracer = _load_perfbench_tracer()
        assert dispatch(["synth", "--out", str(tmp_path), "--seed", "5", "--height", "24",
                         "--width", "24", "--count", "2"]) == 0
        scenes = [f for d in sorted(tmp_path.glob("scene_*")) for f in ("--scene", str(d))]
        with tracer.Tracer().installed() as trace:
            assert dispatch(["train", *scenes, "--out", str(tmp_path / "train"),
                             "--stages", "2", "--warmup", "2", "--iters", "3"]) == 0
        capsys.readouterr()
        names = [span[0] for span in trace.spans]
        loop_layers = {name for module, _, name, _ in tracer.LAYERS if module == "pointseg.loop"}
        assert loop_layers <= set(names), loop_layers - set(names)
        assert names.count("loop.run_mdm") == names.count("loop.expand_features") == 2
        assert names.count("losses.seg_loss_ohem") == 2 * (2 + 2 * 3)
