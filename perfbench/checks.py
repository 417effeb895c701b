"""Checks on the files pointseg subcommands write.

Each function returns a list of problems; an empty list means the outputs
pass. The checks decode with pointseg's own codecs and recompute metrics with
``pointseg.metrics``, reached through their defining modules, which the
tracer never rebinds.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from pointseg.grids import decode_label_pgm, decode_points_csv, decode_tensor
from pointseg.metrics import ap_report, greedy_match

# Rows of a float32-stored class map sum to 1 within a few float32 ulps per
# channel.
ROW_SUM_TOL = 1e-5
IOU_TOL = 1e-9


def read_classes_csv(path: Path) -> dict[int, int]:
    rows = [r.strip() for r in path.read_text().splitlines() if r.strip()]
    if not rows or rows[0] != "instance_id,class_id":
        raise ValueError(f"{path.name}: bad header")
    return {int(a): int(b) for a, b in (row.split(",") for row in rows[1:])}


class SceneFiles:
    """The inputs `pointseg synth` wrote for one scene, decoded."""

    def __init__(self, scene_dir: Path):
        self.dir = scene_dir
        meta = json.loads((scene_dir / "scene.json").read_text())
        self.shape = (int(meta["height"]), int(meta["width"]))
        self.gt_instances = decode_label_pgm((scene_dir / "gt_instances.pgm").read_bytes())
        self.gt_semantic = decode_label_pgm((scene_dir / "gt_semantic.pgm").read_bytes())
        self.semantic_in = decode_label_pgm((scene_dir / "semantic_in.pgm").read_bytes())
        self.points = decode_points_csv((scene_dir / "points.csv").read_text())
        self.point_class = self.points.class_of()
        self.class_lut = np.zeros(len(self.points) + 1, dtype=np.int64)
        for inst, cls in self.point_class.items():
            self.class_lut[inst] = cls


def _label(path: Path, shape, problems: list[str]):
    grid = decode_label_pgm(path.read_bytes())
    if grid.shape != shape:
        problems.append(f"{path.name}: shape {grid.shape}, scene is {shape}")
        return None
    return grid


def _classmap(path: Path, shape, problems: list[str]):
    data = decode_tensor(path.read_bytes())
    if data.ndim != 3 or data.shape[:2] != shape:
        problems.append(f"{path.name}: shape {data.shape}, scene is {shape}")
        return None
    if not np.all(np.isfinite(data)):
        problems.append(f"{path.name}: non-finite values")
    elif np.abs(data.sum(axis=2) - 1.0).max() > ROW_SUM_TOL:
        problems.append(f"{path.name}: rows do not sum to 1")
    return data


def _instances_match_classes(
    instances, classes_csv: Path, semantic, scene: SceneFiles, problems: list[str]
) -> dict[int, int]:
    """classes.csv lists exactly the grid's ids with their points' classes, and
    every instance pixel carries its point's class in the semantic map."""
    classes = read_classes_csv(classes_csv)
    if sorted(classes) != instances.ids():
        problems.append(f"{classes_csv.name}: ids {sorted(classes)} != grid ids {instances.ids()}")
    if any(scene.point_class.get(i) != c for i, c in classes.items()):
        problems.append(f"{classes_csv.name}: a class differs from its point's class")
    fg = instances.data > 0
    if np.any(semantic.data[fg] != scene.class_lut[instances.data[fg]]):
        problems.append("instance pixel outside its point's class in the input semantic map")
    return classes


def _iou_matches(reported: float, pred, classes, scene: SceneFiles, what: str, problems):
    recomputed = greedy_match(
        pred, scene.gt_instances, pred_classes=classes,
        gt_classes=scene.point_class, class_aware=True,
    ).overall_iou
    if abs(reported - recomputed) > IOU_TOL:
        problems.append(f"{what}: IoU {reported} != recomputed {recomputed}")


def check_train(scene: SceneFiles, out_dir: Path, n_stages: int) -> list[str]:
    """Every stage of one `pointseg train` scene output."""
    problems: list[str] = []
    semantic_prev = scene.semantic_in
    for stage in range(n_stages):
        stage_dir = out_dir / f"stage_{stage:02d}"
        tag = f"{scene.dir.name}/stage_{stage:02d}"
        pseudo = _label(stage_dir / "pseudo_instances.pgm", scene.shape, problems)
        semantic_out = _label(stage_dir / "semantic_out.pgm", scene.shape, problems)
        _classmap(stage_dir / "classmap.mdmt", scene.shape, problems)
        if pseudo is None or semantic_out is None:
            return [f"{tag}: {p}" for p in problems]
        classes = _instances_match_classes(
            pseudo, stage_dir / "classes.csv", semantic_prev, scene, problems
        )
        for p in scene.points:
            if semantic_out.data[p.y, p.x] != p.class_id:
                problems.append(f"{tag}: semantic_out differs from point {p}")
        reported = json.loads((stage_dir / "metrics.json").read_text())["overall_iou"]
        _iou_matches(reported, pseudo, classes, scene, f"{tag}/metrics.json", problems)
        semantic_prev = semantic_out
    return problems


def check_s2i(scene: SceneFiles, out_dir: Path) -> list[str]:
    """`pointseg s2i` outputs: instances, classes and offsets to the points."""
    problems: list[str] = []
    instances = _label(out_dir / "instances.pgm", scene.shape, problems)
    if instances is None:
        return problems
    _instances_match_classes(instances, out_dir / "classes.csv", scene.semantic_in, scene, problems)
    packed = decode_tensor((out_dir / "offsets.mdmt").read_bytes())
    if packed.shape != (*scene.shape, 3):
        return problems + [f"offsets.mdmt: shape {packed.shape}"]
    valid = instances.data > 0
    if np.any((packed[:, :, 2] > 0.5) != valid):
        problems.append("offsets.mdmt: valid flags differ from the instance mask")
    anchors = np.zeros((len(scene.points) + 1, 2))
    for p in scene.points:
        anchors[p.instance_id] = (p.y, p.x)
    yy, xx = np.nonzero(valid)
    ids = instances.data[valid]
    if np.any(yy + packed[yy, xx, 0] != anchors[ids, 0]) or np.any(
        xx + packed[yy, xx, 1] != anchors[ids, 1]
    ):
        problems.append("offsets.mdmt: pixel + offset misses its point")
    return problems


def check_i2s(scene: SceneFiles, out_dir: Path, s2i_dir: Path) -> list[str]:
    """`pointseg i2s` outputs: a stochastic class map, and the annotated class
    kept at every point that S2I placed inside its own instance."""
    problems: list[str] = []
    _classmap(out_dir / "classmap.mdmt", scene.shape, problems)
    semantic_out = _label(out_dir / "semantic_out.pgm", scene.shape, problems)
    if semantic_out is None:
        return problems
    instances = decode_label_pgm((s2i_dir / "instances.pgm").read_bytes())
    for p in scene.points:
        if instances.data[p.y, p.x] == p.instance_id and semantic_out.data[p.y, p.x] != p.class_id:
            problems.append(f"semantic_out differs from point {p}")
    return problems


def check_eval(scene: SceneFiles, eval_dir: Path, pred_pgm: Path, pred_classes: Path) -> list[str]:
    """`pointseg eval` metrics equal a recompute from the files it read."""
    problems: list[str] = []
    reported = json.loads((eval_dir / "metrics.json").read_text())
    pred = decode_label_pgm(pred_pgm.read_bytes())
    classes = read_classes_csv(pred_classes)
    _iou_matches(reported["overall_iou"], pred, classes, scene, "eval metrics.json", problems)
    map50 = ap_report(
        pred, scene.gt_instances, pred_classes=classes, gt_classes=scene.point_class
    ).map50
    if abs(reported["map50"] - map50) > IOU_TOL:
        problems.append(f"eval metrics.json: map50 {reported['map50']} != recomputed {map50}")
    return problems
