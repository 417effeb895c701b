import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pointseg
from pointseg.cli import dispatch, fnv1a64
from pointseg.grids import (
    LabelGrid,
    decode_label_pgm,
    decode_tensor,
    encode_label_pgm,
    encode_tensor,
)


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

    def test_missing_flag_exit_1(self, capsys):
        assert dispatch(["render", "--input", "x.pgm"]) == 1

    def test_missing_file_exit_2(self, capsys, tmp_path):
        assert dispatch(["render", "--input", str(tmp_path / "nope.pgm"),
                         "--out", str(tmp_path / "o.ppm")]) == 2


class TestSynth:
    def test_outputs_and_manifest(self, scene_dir):
        for name in ("gt_instances.pgm", "gt_semantic.pgm", "semantic_in.pgm",
                     "points.csv", "features.mdmt", "scene.json", "manifest.json"):
            assert (scene_dir / name).exists(), name
        manifest = json.loads((scene_dir / "manifest.json").read_text())
        assert manifest["subcommand"] == "synth"
        assert manifest["tool"] == "pointseg"

    def test_deterministic_outputs(self, tmp_path):
        for sub in ("a", "b"):
            assert dispatch(["synth", "--out", str(tmp_path / sub), "--seed", "5"]) == 0
        for name in ("gt_instances.pgm", "semantic_in.pgm", "points.csv", "features.mdmt"):
            a = (tmp_path / "a" / "scene_00000005" / name).read_bytes()
            b = (tmp_path / "b" / "scene_00000005" / name).read_bytes()
            assert a == b, name


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

    @pytest.mark.parametrize("command,key,value,kind", [
        ("train", "stages", "x", "int"),
        ("train", "tau", "abc", "float"),
        ("synth", "merge_adjacent", "false", "bool"),
        ("train", "stages", 2.7, "int"),
        ("train", "stages", True, "int"),
        ("train", "tau", True, "float"),
    ])
    def test_config_value_of_wrong_type_exit_1(
        self, scene_dir, tmp_path, capsys, command, key, value, kind
    ):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({key: value}))
        scene = ["--scene", str(scene_dir)] if command == "train" else []
        code = dispatch([command, *scene, "--out", str(tmp_path / "t"),
                         "--config", str(cfg_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert repr(key) in err and f"expected {kind}" in err
        assert not (tmp_path / "t").exists()

    @pytest.mark.parametrize("flag,name", [
        ("--tau", "tau"), ("--beta", "beta"), ("--lr", "learning rate"),
    ])
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


def _damage_features(scene: Path) -> None:
    feats = decode_tensor((scene / "features.mdmt").read_bytes())
    (scene / "features.mdmt").write_bytes(encode_tensor(feats[1:]))


def _damage_point_class(scene: Path) -> None:
    rows = (scene / "points.csv").read_text().splitlines()
    y, x, _, inst = rows[1].split(",")
    rows[1] = f"{y},{x},7,{inst}"
    (scene / "points.csv").write_text("\n".join(rows) + "\n")


def _damage_gt_semantic(scene: Path) -> None:
    sem = decode_label_pgm((scene / "gt_semantic.pgm").read_bytes())
    (scene / "gt_semantic.pgm").write_bytes(encode_label_pgm(LabelGrid(sem.data[:, 2:])))


def _damage_point_position(scene: Path) -> None:
    rows = (scene / "points.csv").read_text().splitlines()
    _, x, cls, inst = rows[1].split(",")
    rows[1] = f"500,{x},{cls},{inst}"
    (scene / "points.csv").write_text("\n".join(rows) + "\n")


class TestSceneValidationCli:
    @pytest.mark.parametrize("damage", [
        _damage_features, _damage_point_class, _damage_gt_semantic, _damage_point_position,
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
        assert not (tmp_path / "t").exists()

    @pytest.mark.parametrize("meta", ["[]", '{"n_classes": "x"}'])
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


class TestFnv:
    def test_known_vectors(self):
        # standard FNV-1a 64-bit test vectors
        assert fnv1a64(b"") == 0xCBF29CE484222325
        assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
