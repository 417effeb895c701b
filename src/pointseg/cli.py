"""Command-line entry point binding all modules into reproducible pipelines.

Subcommands: synth | s2i | i2s | train | eval | render. Every
output directory receives a manifest.json with the tool version, the full
configuration echo, FNV-1a digests of the inputs as read, and wall-clock
seconds. Exit codes: 0 success, 1 usage error, 2 data error (or out of
memory). Every refusal of an input reads `<path>: <reason>`; only `_decoded`
adds the path, as each check of an input runs in the callable that decodes
it. A broken scene, or a run that fails on one, names its directory.

Every setting is a flag; there is no settings file. The manifest echoes
the settings in flag order: all of i2s's, all but `--jobs` of train's, so
a run is repeated by passing the echoed values back as flags. synth echoes
each scene's parameters and eval whether it was class-aware. s2i and render
take paths only: s2i's regions are the 8-connected ones that train matches
points to too, and its manifest echoes {}.

A scene directory, as synth writes it and train reads it, holds
gt_instances.pgm, gt_semantic.pgm, semantic_in.pgm (the corrupted semantic
map), points.csv, intensity.mdmt (the (H, W) image) and scene.json (the
scene's parameters; train reads its n_classes, an integer from 1 to 65535,
the largest id a label PGM can carry). train needs at least one point in
points.csv.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .errors import CliUsageError, GridError, PointsegError, SceneError
from .grids import (
    PGM_MAX_ID,
    ClassScoreMap,
    LabelGrid,
    PointAnnotationSet,
    decode_int_csv,
    decode_label_pgm,
    decode_points_csv,
    decode_tensor,
    encode_int_csv,
    encode_label_pgm,
    encode_label_ppm,
    encode_points_csv,
    encode_tensor,
)
from .i2s import I2SConfig, refresh_semantic
from .loop import MdmConfig, run_mdm
from .metrics import ap_report, greedy_match
from .s2i import (
    assign_points,
    attach_points,
    class_grid_from_instances,
    compute_offset_field,
    extract_regions,
)
from .synth import CorruptionConfig, Scene, corrupt_semantic, generate_scene

CLASSES_HEADER = "instance_id,class_id"
FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
_U64 = 0xFFFFFFFFFFFFFFFF
FNV_BLOCK = 1 << 16  # bytes per NumPy pass; bounds the temporaries to a few MiB


# FNV_PRIME**(FNV_BLOCK - j) modulo 2**64 at j: the last c entries weigh a
# c-byte block. A uint64 array product wraps without a warning.
_WEIGHTS = np.cumprod(np.full(FNV_BLOCK, FNV_PRIME, dtype=np.uint64))[::-1].copy()


def _prefix_xor(bits: np.ndarray) -> np.ndarray:
    """Inclusive prefix XOR of a non-empty 0/1 uint8 vector.

    Bit i of the input is bit i % 64 of little-endian word i // 64. Six
    shift-XORs scan within the words; an XOR accumulate of each word's top
    bit (its parity) carries the scan across them.
    """
    n = len(bits)
    packed = np.zeros(-(-n // 64) * 8, dtype=np.uint8)
    packed[: -(-n // 8)] = np.packbits(bits, bitorder="little")
    words = packed.view("<u8")
    for shift in (1, 2, 4, 8, 16, 32):
        words ^= words << np.uint64(shift)
    carry = np.bitwise_xor.accumulate(words >> np.uint64(63))
    words[1:] ^= carry[:-1] * np.uint64(_U64)
    return np.unpackbits(packed, count=n, bitorder="little")


def _fnv1a64_block(acc: int, block: np.ndarray) -> int:
    """The FNV-1a state after `block` (non-empty uint8), from state `acc`."""
    low = np.zeros(len(block), dtype=np.uint8)  # state's low byte before each byte
    for k in range(8):
        # Bit k of low flips, at each byte, by bit k of
        # byte ^ ((low ^ byte) mod 2**k) * 0xB3, which the earlier passes fix.
        flip = (low ^ block) & np.uint8((1 << k) - 1)
        flip *= np.uint8(FNV_PRIME & 0xFF)
        flip ^= block
        flip >>= np.uint8(k)
        flip &= np.uint8(1)
        bit = _prefix_xor(flip) ^ flip  # exclusive: the flips before each byte
        if acc >> k & 1:
            bit ^= np.uint8(1)
        low |= bit << np.uint8(k)
    delta = (low ^ block).astype(np.int64)
    delta -= low  # acc ^ byte == acc + delta, with delta in [-255, 255]
    weights = _WEIGHTS[FNV_BLOCK - len(block) :]  # FNV_PRIME**c ... FNV_PRIME**1
    tail = int(np.dot(delta.view(np.uint64), weights))
    return (acc * int(weights[0]) + tail) & _U64


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a of `data`, equal to the byte loop
    `acc = ((acc ^ byte) * FNV_PRIME) mod 2**64` from FNV_OFFSET.

    The loop runs in NumPy over FNV_BLOCK-byte blocks, carrying only the
    state from one block to the next, in a Python int. Within a block:

    - Only the low byte is sequential. With `l` the state's low byte,
      `acc ^ byte == acc + delta` for `delta = (l ^ byte) - l`, and the low
      byte of the next state is `((l ^ byte) * 0xB3) mod 256`, because
      FNV_PRIME is 0xB3 modulo 256.
    - That 8-bit chain splits into eight prefix XORs. The prime is odd, so
      bit k of the next low byte is bit k of `l ^ byte` XOR bit k of
      `((l ^ byte) mod 2**k) * 0xB3`. The second term depends only on bits
      below k, so once those are known for every byte, bit k is a prefix
      XOR, solved in one vector pass.
    - The state is then one wrapping sum. With P = FNV_PRIME and a block
      of c bytes, `acc_end = acc * P**c + sum(delta_i * P**(c - i))` modulo
      2**64, a uint64 dot product against a table of prime powers.

    Each step is integer arithmetic modulo 2**64 (or mod 2 per bit), so the
    result equals the byte loop's for every input. Scalars stay Python ints:
    a NumPy uint64 scalar that overflows warns.
    """
    acc = FNV_OFFSET
    stream = np.frombuffer(data, dtype=np.uint8)
    for start in range(0, len(stream), FNV_BLOCK):
        acc = _fnv1a64_block(acc, stream[start : start + FNV_BLOCK])
    return acc


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliUsageError(f"{self.prog}: {message}\n{self.format_usage()}")


def _read_inputs(paths: list[Path]) -> dict[str, bytes]:
    """The bytes of each input file, read once, before any output is
    written. Every input is decoded from them and the manifest digests
    them, so an input that an output overwrites is digested as it was read."""
    return {str(p): p.read_bytes() for p in paths}


def _text(blob: bytes) -> str:
    """UTF-8 `blob` as text, each CRLF or CR read as LF, as a text-mode read gives them."""
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as err:
        raise PointsegError(f"not UTF-8 text ({err.reason} at byte {err.start})") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _decoded(path: str | Path, inputs: dict[str, bytes], decode):
    """decode(the bytes read of the input file `path`). The one place that
    names an input file: an error decode raises gains the prefix `<path>: `,
    and JSON that does not parse reads `<path>: not JSON (...)`."""
    try:
        return decode(inputs[str(Path(path))])
    except json.JSONDecodeError as err:
        raise PointsegError(f"{path}: not JSON ({err})") from None
    except PointsegError as err:
        raise type(err)(f"{path}: {err}") from None


def _on_grid(value, grid: LabelGrid, path: str):
    """`value`, a LabelGrid or ClassScoreMap, if it lies on `grid`, read from `path`."""
    shape = value.data.shape[:2]
    if shape != grid.shape:
        raise GridError(f"grid {shape} differs from the grid {grid.shape} of {path}")
    return value


def _write(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    if isinstance(payload, bytes):
        path.write_bytes(payload)
    else:
        path.write_text(payload)


def _write_manifest(out_dir: Path, subcommand: str, config: dict, inputs: dict[str, bytes], t0: float) -> None:
    manifest = {
        "tool": "pointseg",
        "version": __version__,
        "subcommand": subcommand,
        "config": config,
        "inputs": {p: f"fnv1a64:{fnv1a64(blob):016x}" for p, blob in inputs.items()},
        "wall_seconds": round(time.time() - t0, 3),
    }
    _write(out_dir / "manifest.json", json.dumps(manifest, indent=2) + "\n")


def _run_tasks(worker, tasks: list, jobs: int) -> None:
    """Print each task's line in task order, over a process pool when jobs > 1,
    of at most one worker per task: a fork pool starts all its workers at once."""
    if jobs < 1:
        raise CliUsageError(f"--jobs must be >= 1, got {jobs}")
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            for line in pool.map(worker, tasks):
                print(line)
    else:
        for task in tasks:
            print(worker(task))


# ---------------------------------------------------------------- synth


def _cmd_synth(argv: list[str]) -> int:
    parser = _Parser(prog="pointseg synth")
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--count", type=int, default=1)
    parser.add_argument("--height", type=int, default=64)
    parser.add_argument("--width", type=int, default=64)
    parser.add_argument("--instances", type=int, help="fixed count; default draws 2-6 per scene")
    parser.add_argument("--classes", type=int, default=3)
    parser.add_argument("--shapes", default="mixed", choices=["rect", "ellipse", "mixed"])
    parser.add_argument("--dilation", type=int, default=2)
    parser.add_argument("--erosion", type=int, default=0)
    parser.add_argument("--merge-adjacent", action=argparse.BooleanOptionalAction, default=True)
    parser.add_argument("--flip-rate", type=float, default=0.02)
    args = parser.parse_args(argv)

    t0 = time.time()
    corruption = {"dilation_px": args.dilation, "erosion_px": args.erosion,
                  "merge_adjacent": args.merge_adjacent, "flip_rate": args.flip_rate}
    if args.count < 1:
        raise SceneError(f"count must be >= 1, got {args.count}")
    out_root = Path(args.out)
    for index in range(args.count):
        scene_seed = args.seed + index
        scene = generate_scene(scene_seed, args.height, args.width, args.instances,
                               args.classes, args.shapes)
        corr_cfg = CorruptionConfig(rng_seed=scene_seed + 1, **corruption)
        corrupted = corrupt_semantic(scene, corr_cfg)
        scene_dir = out_root / f"scene_{scene_seed:08d}"
        _write(scene_dir / "gt_instances.pgm", encode_label_pgm(scene.gt_instances))
        _write(scene_dir / "gt_semantic.pgm", encode_label_pgm(scene.gt_semantic))
        _write(scene_dir / "semantic_in.pgm", encode_label_pgm(corrupted))
        _write(scene_dir / "points.csv", encode_points_csv(scene.points))
        _write(scene_dir / "intensity.mdmt", encode_tensor(scene.intensity))
        scene_json = {
            "seed": scene_seed,
            "height": args.height,
            "width": args.width,
            "n_instances": len(scene.points),
            "n_classes": args.classes,
            "shapes": args.shapes,
            "corruption": {**corruption, "rng_seed": scene_seed + 1},
        }
        _write(scene_dir / "scene.json", json.dumps(scene_json, indent=2) + "\n")
        _write_manifest(
            scene_dir, "synth",
            {**scene_json, "count_index": index},
            {}, t0,
        )
        print(f"synth: wrote {scene_dir}")
    return 0


# ---------------------------------------------------------------- s2i


def _cmd_s2i(argv: list[str]) -> int:
    parser = _Parser(prog="pointseg s2i")
    parser.add_argument("--semantic", required=True)
    parser.add_argument("--points", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    t0 = time.time()

    inputs = _read_inputs([Path(args.semantic), Path(args.points)])
    semantic = _decoded(args.semantic, inputs, decode_label_pgm)

    def points_on_grid(blob: bytes) -> PointAnnotationSet:
        points = decode_points_csv(_text(blob))
        points.validate_on(*semantic.shape)
        return points

    points = _decoded(args.points, inputs, points_on_grid)
    regions = attach_points(extract_regions(semantic), points)
    instances = assign_points(regions, points)
    offsets = compute_offset_field(instances, points)
    classes = class_grid_from_instances(instances, points)

    out_dir = Path(args.out)
    _write(out_dir / "instances.pgm", encode_label_pgm(instances))
    _write(out_dir / "offsets.mdmt", encode_tensor(offsets.to_tensor()))
    _write(out_dir / "classes.csv", _classes_csv(instances, points))
    _write(out_dir / "class_grid.pgm", encode_label_pgm(classes))
    _write_manifest(out_dir, "s2i", {}, inputs, t0)
    print(f"s2i: wrote {out_dir}")
    return 0


# ---------------------------------------------------------------- i2s


def _cmd_i2s(argv: list[str]) -> int:
    parser = _Parser(prog="pointseg i2s")
    parser.add_argument("--instances", required=True)
    parser.add_argument("--classmap", required=True)
    parser.add_argument("--out", required=True)
    # The 0/1 same-instance affinity of --instances is the same under every
    # power, so the affinity's beta has no flag here.
    parser.add_argument("--pair-radius", type=int, default=I2SConfig.pair_radius)
    args = parser.parse_args(argv)
    t0 = time.time()

    inputs = _read_inputs([Path(args.instances), Path(args.classmap)])
    instances = _decoded(args.instances, inputs, decode_label_pgm)
    class_map = _decoded(args.classmap, inputs, lambda blob: _on_grid(
        ClassScoreMap(decode_tensor(blob)), instances, args.instances))
    refreshed = refresh_semantic(instances, class_map, I2SConfig(pair_radius=args.pair_radius))
    out_dir = Path(args.out)
    _write(out_dir / "classmap.mdmt", encode_tensor(refreshed.data))
    _write(out_dir / "semantic_out.pgm", encode_label_pgm(refreshed.argmax_grid()))
    _write_manifest(out_dir, "i2s", {"pair_radius": args.pair_radius}, inputs, t0)
    print(f"i2s: wrote {out_dir}")
    return 0


# ---------------------------------------------------------------- train


# The files of a scene directory that train reads, in the manifest's order.
_SCENE_FILES = (
    "gt_instances.pgm", "gt_semantic.pgm", "semantic_in.pgm", "points.csv", "intensity.mdmt",
    "scene.json",
)


def _n_classes(blob: bytes) -> int:
    """The n_classes of a scene.json, refused before any array is sized by it."""
    meta = json.loads(_text(blob))
    n_classes = meta.get("n_classes") if isinstance(meta, dict) else None
    if type(n_classes) is not int or not 1 <= n_classes <= PGM_MAX_ID:
        raise PointsegError(f"expected a JSON object with n_classes 1..{PGM_MAX_ID}")
    return n_classes


def _classes_csv(grid: LabelGrid, points: PointAnnotationSet) -> str:
    """classes.csv: an instance_id,class_id row per id of the grid, by id,
    with its point's class."""
    lut = points.class_table()
    return encode_int_csv(CLASSES_HEADER, ((i, lut[i]) for i in grid.ids()))


def _counts_json(counts: dict[float, int]) -> dict[str, int]:
    """metrics.json's counts block: matched instances above each IoU threshold."""
    return {f"iou{round(t * 100)}": n for t, n in counts.items()}


def _train_one(task: tuple[str, str, MdmConfig, dict]) -> str:
    scene_path, out_path, cfg, echo = task
    scene_dir, out_dir = Path(scene_path), Path(out_path)
    t0 = time.time()
    path = {name: scene_dir / name for name in _SCENE_FILES}
    inputs = _read_inputs(list(path.values()))
    n_classes = _decoded(path["scene.json"], inputs, _n_classes)
    gt_instances = _decoded(path["gt_instances.pgm"], inputs, decode_label_pgm)
    gt_semantic = _decoded(path["gt_semantic.pgm"], inputs, decode_label_pgm)
    semantic_in = _decoded(path["semantic_in.pgm"], inputs, decode_label_pgm)
    points = _decoded(path["points.csv"], inputs, lambda blob: decode_points_csv(_text(blob)))
    intensity = _decoded(path["intensity.mdmt"], inputs, decode_tensor)
    try:  # a broken scene, or a run that fails on it, names its directory
        scene = Scene(gt_instances, gt_semantic, points, intensity, n_classes)
        result = run_mdm(scene, semantic_in, cfg)
    except PointsegError as err:
        raise type(err)(f"{scene_dir}: {err}") from None
    for stage in result.stages:
        stage_dir = out_dir / f"stage_{stage.stage_idx:02d}"
        _write(stage_dir / "pseudo_instances.pgm", encode_label_pgm(stage.pseudo_instances))
        _write(stage_dir / "semantic_out.pgm", encode_label_pgm(stage.semantic_out))
        _write(stage_dir / "classmap.mdmt", encode_tensor(stage.refreshed_class_map.data))
        _write(stage_dir / "classes.csv", _classes_csv(stage.pseudo_instances, scene.points))
        metrics = {
            "overall_iou": stage.metrics.overall_iou,
            "counts": _counts_json(stage.metrics.counts),
            "per_instance_iou": {str(k): v for k, v in stage.metrics.ious.items()},
        }
        _write(stage_dir / "metrics.json", json.dumps(metrics, indent=2) + "\n")
        lines = [json.dumps(r.as_dict()) for r in stage.losses]
        _write(stage_dir / "losses.jsonl", "\n".join(lines) + "\n")
    warm = [json.dumps(r.as_dict()) for r in result.warmup_losses]
    _write(out_dir / "warmup_losses.jsonl", "\n".join(warm) + ("\n" if warm else ""))
    _write_manifest(out_dir, "train", echo, inputs, t0)
    final = result.final.metrics.overall_iou
    return f"train: {scene_dir.name} final overall_iou {final:.2f} -> {out_dir}"


def _cmd_train(argv: list[str]) -> int:
    parser = _Parser(prog="pointseg train")
    parser.add_argument("--scene", action="append", required=True,
                        help="scene directory (repeatable)")
    parser.add_argument("--out", required=True)
    parser.add_argument("--stages", type=int, default=MdmConfig.n_stages)
    parser.add_argument("--warmup", type=int, default=MdmConfig.warmup_iters,
                        help="Adam steps before stage 0 (default %(default)s)")
    parser.add_argument("--iters", type=int, default=MdmConfig.iters_per_stage,
                        help="Adam steps per stage (default %(default)s)")
    parser.add_argument("--lr", type=float, default=MdmConfig.learning_rate,
                        help="Adam step size (default %(default)s)")
    parser.add_argument("--hard-pixel-ratio", type=float, default=MdmConfig.hard_pixel_ratio)
    parser.add_argument("--beta", type=float, default=I2SConfig.beta)
    parser.add_argument("--pair-radius", type=int, default=I2SConfig.pair_radius)
    parser.add_argument("--max-pairs", type=int, default=I2SConfig.max_pairs)
    parser.add_argument("--seed", type=int, default=MdmConfig.seed)
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args(argv)
    mdm_cfg = MdmConfig(
        n_stages=args.stages,
        warmup_iters=args.warmup,
        iters_per_stage=args.iters,
        learning_rate=args.lr,
        hard_pixel_ratio=args.hard_pixel_ratio,
        i2s=I2SConfig(beta=args.beta, pair_radius=args.pair_radius, max_pairs=args.max_pairs),
        seed=args.seed,
    )
    # The settings in flag order are the manifest's echo.
    echo = {k: v for k, v in vars(args).items() if k not in ("scene", "out", "jobs")}

    names = [Path(p).name for p in args.scene]
    clash = sorted({n for n in names if names.count(n) > 1})
    if clash:  # each scene writes to --out/<basename>
        raise CliUsageError(f"--scene directories share the basename {clash[0]!r}")
    out_root = Path(args.out)
    tasks = []
    for scene_path in args.scene:
        scene_dir = Path(scene_path)
        out_dir = out_root / scene_dir.name if len(args.scene) > 1 else out_root
        tasks.append((str(scene_dir), str(out_dir), mdm_cfg, echo))

    _run_tasks(_train_one, tasks, args.jobs)
    return 0


# ---------------------------------------------------------------- eval


def _class_table(blob: bytes, grid: LabelGrid) -> dict[int, int]:
    """The instance -> class table of `grid` in a classes.csv: a row per id, each
    instance and class id 1..PGM_MAX_ID, an id a label PGM carries."""
    table, line = {}, {}
    for n, (inst, cls) in decode_int_csv(_text(blob), CLASSES_HEADER):
        if inst in line:
            raise PointsegError(f"lines {line[inst]} and {n}: both give instance_id {inst}")
        for name, value in (("instance_id", inst), ("class_id", cls)):
            if not 1 <= value <= PGM_MAX_ID:
                raise PointsegError(f"line {n}: {name} must be 1..{PGM_MAX_ID}, got {value}")
        table[inst], line[inst] = cls, n
    missing = sorted(set(grid.ids()) - table.keys())
    if missing:
        raise PointsegError(f"no row for instance ids {missing} of the label grid")
    return table


def _eval_one(task: tuple[str, str, str | None, str | None, str]) -> str:
    pred_path, gt_path, pred_cls_path, gt_cls_path, out_path = task
    t0 = time.time()
    inputs = _read_inputs([Path(p) for p in (pred_path, gt_path, pred_cls_path, gt_cls_path) if p])
    pred = _decoded(pred_path, inputs, decode_label_pgm)
    gt = _decoded(gt_path, inputs, lambda blob: _on_grid(decode_label_pgm(blob), pred, pred_path))
    pred_classes = gt_classes = None
    if pred_cls_path:  # eval's flags give both tables or neither
        pred_classes = _decoded(pred_cls_path, inputs, lambda blob: _class_table(blob, pred))
        gt_classes = _decoded(gt_cls_path, inputs, lambda blob: _class_table(blob, gt))
    class_aware = pred_classes is not None
    match = greedy_match(pred, gt, pred_classes, gt_classes, class_aware)
    ap = ap_report(pred, gt, pred_classes, gt_classes)  # reads the table matching counted
    metrics = {
        "counts": _counts_json(match.counts),
        "overall_iou": match.overall_iou,
        **vars(ap),  # map50, map70, map75: ApReport's fields in their order
    }
    out_dir = Path(out_path)
    _write(out_dir / "metrics.json", json.dumps(metrics, indent=2) + "\n")
    _write_manifest(out_dir, "eval", {"class_aware": class_aware}, inputs, t0)
    return f"eval: overall_iou {match.overall_iou:.2f} -> {out_dir / 'metrics.json'}"


def _cmd_eval(argv: list[str]) -> int:
    parser = _Parser(prog="pointseg eval")
    parser.add_argument("--pred", action="append", required=True)
    parser.add_argument("--gt", action="append", required=True)
    parser.add_argument("--pred-classes", action="append", dest="pred_classes")
    parser.add_argument("--gt-classes", action="append", dest="gt_classes")
    parser.add_argument("--out", required=True)
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args(argv)
    if len(args.pred) != len(args.gt):
        raise CliUsageError("--pred and --gt must be given the same number of times")
    if (args.pred_classes is None) != (args.gt_classes is None):
        raise CliUsageError("--pred-classes and --gt-classes must be given together")
    n = len(args.pred)
    pred_cls = args.pred_classes or [None] * n
    gt_cls = args.gt_classes or [None] * n
    if len(pred_cls) != n or len(gt_cls) != n:
        raise CliUsageError("classes flags must match the number of pred/gt pairs")

    out_root = Path(args.out)
    tasks = []
    for i in range(n):
        out_dir = out_root / f"pair_{i:03d}" if n > 1 else out_root
        tasks.append((args.pred[i], args.gt[i], pred_cls[i], gt_cls[i], str(out_dir)))
    _run_tasks(_eval_one, tasks, args.jobs)
    return 0


# ---------------------------------------------------------------- render


def _cmd_render(argv: list[str]) -> int:
    parser = _Parser(prog="pointseg render")
    parser.add_argument("--input", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    grid = _decoded(args.input, _read_inputs([Path(args.input)]), decode_label_pgm)
    _write(Path(args.out), encode_label_ppm(grid))
    print(f"render: wrote {args.out}")
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "s2i": _cmd_s2i,
    "i2s": _cmd_i2s,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "render": _cmd_render,
}

_USAGE = (
    "usage: pointseg <subcommand> [options]\n"
    "subcommands: synth | s2i | i2s | train | eval | render\n"
    "run `pointseg <subcommand> --help` for details\n"
)


def dispatch(argv: list[str]) -> int:
    """Route to a subcommand; 0 success, 1 usage error, 2 data error."""
    if not argv or argv[0] in ("-h", "--help"):
        stream = sys.stderr if not argv else sys.stdout
        stream.write(_USAGE)
        return 1 if not argv else 0
    command = _COMMANDS.get(argv[0])
    if command is None:
        sys.stderr.write(f"unknown subcommand: {argv[0]}\n{_USAGE}")
        return 1
    try:
        return command(argv[1:])
    except CliUsageError as err:
        sys.stderr.write(f"{err}\n")
        return 1
    except SystemExit as err:  # argparse -h lands here
        return int(err.code or 0)
    except (PointsegError, OSError, MemoryError) as err:
        # NumPy's MemoryError names the array it could not allocate.
        sys.stderr.write(f"error: {str(err) or 'out of memory'}\n")
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
