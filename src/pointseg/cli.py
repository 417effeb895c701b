"""Command-line entry point binding all modules into reproducible pipelines.

Subcommands: synth | s2i | i2s | train | eval | render. Every
output directory receives a manifest.json with the tool version, the full
configuration echo, FNV-1a digests of the inputs, and wall-clock seconds.
Exit codes: 0 success, 1 usage error, 2 data error.
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
from .errors import CliUsageError, PointsegError, SceneError
from .grids import (
    DEFAULT_CONNECTIVITY,
    ClassScoreMap,
    LabelGrid,
    decode_label_pgm,
    decode_points_csv,
    decode_tensor,
    encode_label_pgm,
    encode_label_ppm,
    encode_points_csv,
    encode_tensor,
)
from .i2s import I2SConfig, refresh_semantic
from .loop import MdmConfig, run_mdm
from .metrics import ap_report, greedy_match
from .s2i import (
    GroupingConfig,
    assign_points,
    class_grid_from_instances,
    compute_offset_field,
    extract_regions,
)
from .synth import CorruptionConfig, Scene, corrupt_semantic, generate_scene

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


def _read_text(path: Path) -> str:
    """The text of an input file, which must be UTF-8."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise PointsegError(f"{path}: not UTF-8 text ({err.reason} at byte {err.start})") from None


def _write(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    if isinstance(payload, bytes):
        path.write_bytes(payload)
    else:
        path.write_text(payload)


def _write_manifest(out_dir: Path, subcommand: str, config: dict, inputs: list[Path], t0: float) -> None:
    manifest = {
        "tool": "pointseg",
        "version": __version__,
        "subcommand": subcommand,
        "config": config,
        "inputs": {
            str(p): f"fnv1a64:{fnv1a64(Path(p).read_bytes()):016x}" for p in inputs
        },
        "wall_seconds": round(time.time() - t0, 3),
    }
    _write(out_dir / "manifest.json", json.dumps(manifest, indent=2) + "\n")


def _load_config_file(args: argparse.Namespace) -> dict:
    """The JSON object of `--config`. Its keys are flag names (argparse
    dests) of the subcommand; any other key is a usage error, so a misspelt
    or stale key cannot pass unused."""
    if args.config is None:
        return {}
    blob = json.loads(_read_text(Path(args.config)))
    if not isinstance(blob, dict):
        raise CliUsageError("config file must hold a JSON object")
    unknown = sorted(blob.keys() - vars(args).keys())
    if unknown:
        raise CliUsageError(
            f"config file keys name no flag of this subcommand: {', '.join(map(repr, unknown))}"
        )
    return blob


def _resolve(args: argparse.Namespace, file_cfg: dict, key: str, kind: type, default):
    """Flags beat the config file, which beats the built-in default.

    A config-file value is converted to `kind`; one that does not convert
    exactly is a usage error naming the key. A JSON null counts as unset.
    """
    value = getattr(args, key, None)
    if value is not None:
        return value
    value = file_cfg.get(key)
    if value is None:
        return default
    try:
        # bool("false") would read as true, int(True) as 1 and int(2.7) as 2
        if isinstance(value, bool) != (kind is bool) or (
            kind is int and isinstance(value, float) and not value.is_integer()
        ):
            raise ValueError
        return kind(value)
    except (TypeError, ValueError):
        raise CliUsageError(
            f"config key {key!r}: expected {kind.__name__}, got {value!r}"
        ) from None


def _add_config_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON file with defaults for any flag")


def _run_tasks(worker, tasks: list, jobs: int) -> None:
    """Print each task's line in task order, over a process pool when jobs > 1."""
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for line in pool.map(worker, tasks):
                print(line)
    else:
        for task in tasks:
            print(worker(task))


# ---------------------------------------------------------------- synth


def _cmd_synth(argv: list[str]) -> int:
    parser = _Parser(prog="pointseg synth")
    _add_config_flag(parser)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--count", type=int)
    parser.add_argument("--height", type=int)
    parser.add_argument("--width", type=int)
    parser.add_argument("--instances", type=int, help="fixed count; default draws 2-6 per scene")
    parser.add_argument("--classes", type=int)
    parser.add_argument("--shapes", choices=["rect", "ellipse", "mixed"])
    parser.add_argument("--dilation", type=int)
    parser.add_argument("--erosion", type=int)
    parser.add_argument("--merge-adjacent", action="store_const", const=True, dest="merge_adjacent")
    parser.add_argument("--flip-rate", type=float, dest="flip_rate")
    args = parser.parse_args(argv)
    cfg = _load_config_file(args)

    t0 = time.time()
    seed = _resolve(args, cfg, "seed", int, 0)
    count = _resolve(args, cfg, "count", int, 1)
    height = _resolve(args, cfg, "height", int, 64)
    width = _resolve(args, cfg, "width", int, 64)
    n_classes = _resolve(args, cfg, "classes", int, 3)
    shapes = _resolve(args, cfg, "shapes", str, "mixed")
    fixed_instances = _resolve(args, cfg, "instances", int, None)
    corruption = dict(
        dilation_px=_resolve(args, cfg, "dilation", int, 2),
        erosion_px=_resolve(args, cfg, "erosion", int, 0),
        merge_adjacent=_resolve(args, cfg, "merge_adjacent", bool, True),
        flip_rate=_resolve(args, cfg, "flip_rate", float, 0.02),
    )

    if seed < 0:  # before generate_scene checks it: the instance count is drawn from it
        raise SceneError(f"seed must be >= 0, got {seed}")
    if count < 1:
        raise SceneError(f"count must be >= 1, got {count}")
    out_root = Path(_resolve(args, cfg, "out", str, None))
    for index in range(count):
        scene_seed = seed + index
        rng = np.random.default_rng(scene_seed)
        n_instances = (
            fixed_instances if fixed_instances is not None else int(rng.integers(2, 7))
        )
        scene = generate_scene(scene_seed, height, width, n_instances, n_classes, shapes)
        corr_cfg = CorruptionConfig(rng_seed=scene_seed + 1, **corruption)
        corrupted = corrupt_semantic(scene, corr_cfg)
        scene_dir = out_root / f"scene_{scene_seed:08d}"
        _write(scene_dir / "gt_instances.pgm", encode_label_pgm(scene.gt_instances))
        _write(scene_dir / "gt_semantic.pgm", encode_label_pgm(scene.gt_semantic))
        _write(scene_dir / "semantic_in.pgm", encode_label_pgm(corrupted))
        _write(scene_dir / "points.csv", encode_points_csv(scene.points))
        _write(scene_dir / "features.mdmt", encode_tensor(scene.features))
        scene_json = {
            "seed": scene_seed,
            "height": height,
            "width": width,
            "n_instances": n_instances,
            "n_classes": n_classes,
            "shapes": shapes,
            "corruption": {**corruption, "rng_seed": scene_seed + 1},
        }
        _write(scene_dir / "scene.json", json.dumps(scene_json, indent=2) + "\n")
        _write_manifest(
            scene_dir, "synth",
            {**scene_json, "count_index": index},
            [], t0,
        )
        print(f"synth: wrote {scene_dir}")
    return 0


# ---------------------------------------------------------------- s2i


def _cmd_s2i(argv: list[str]) -> int:
    parser = _Parser(prog="pointseg s2i")
    _add_config_flag(parser)
    parser.add_argument("--semantic", required=True)
    parser.add_argument("--points", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--connectivity", type=int, choices=[4, 8])
    args = parser.parse_args(argv)
    cfg = _load_config_file(args)
    t0 = time.time()

    semantic = decode_label_pgm(Path(args.semantic).read_bytes())
    points = decode_points_csv(_read_text(Path(args.points)))
    connectivity = _resolve(args, cfg, "connectivity", int, DEFAULT_CONNECTIVITY)

    regions = extract_regions(semantic, connectivity)
    instances = assign_points(regions, points, semantic.shape)
    offsets = compute_offset_field(instances, points)
    classes = class_grid_from_instances(instances, points)

    out_dir = Path(args.out)
    _write(out_dir / "instances.pgm", encode_label_pgm(instances))
    _write(out_dir / "offsets.mdmt", encode_tensor(offsets.to_tensor()))
    class_rows = ["instance_id,class_id"] + [
        f"{i},{points.class_of()[i]}" for i in instances.ids()
    ]
    _write(out_dir / "classes.csv", "\n".join(class_rows) + "\n")
    _write(out_dir / "class_grid.pgm", encode_label_pgm(classes))
    _write_manifest(
        out_dir, "s2i", {"connectivity": connectivity},
        [Path(args.semantic), Path(args.points)], t0,
    )
    print(f"s2i: wrote {out_dir}")
    return 0


# ---------------------------------------------------------------- i2s


def _cmd_i2s(argv: list[str]) -> int:
    parser = _Parser(prog="pointseg i2s")
    _add_config_flag(parser)
    parser.add_argument("--instances", required=True)
    parser.add_argument("--classmap", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--pair-radius", type=int, dest="pair_radius")
    args = parser.parse_args(argv)
    cfg = _load_config_file(args)
    t0 = time.time()

    instances = decode_label_pgm(Path(args.instances).read_bytes())
    class_map = ClassScoreMap(decode_tensor(Path(args.classmap).read_bytes()))
    # The 0/1 same-instance affinity of --instances is the same under every
    # power, so the affinity's beta has no flag here.
    i2s_cfg = I2SConfig(
        pair_radius=_resolve(args, cfg, "pair_radius", int, I2SConfig.pair_radius),
    )
    refreshed = refresh_semantic(instances, class_map, i2s_cfg)
    out_dir = Path(args.out)
    _write(out_dir / "classmap.mdmt", encode_tensor(refreshed.data))
    _write(out_dir / "semantic_out.pgm", encode_label_pgm(refreshed.argmax_grid()))
    _write_manifest(
        out_dir, "i2s",
        {"pair_radius": i2s_cfg.pair_radius},
        [Path(args.instances), Path(args.classmap)], t0,
    )
    print(f"i2s: wrote {out_dir}")
    return 0


# ---------------------------------------------------------------- train


def _load_scene_dir(scene_dir: Path) -> tuple[Scene, LabelGrid]:
    meta_path = scene_dir / "scene.json"
    meta = json.loads(_read_text(meta_path))
    try:
        declared = meta.get("n_classes")
        declared = None if declared is None else int(declared)
    except (AttributeError, TypeError, ValueError):
        raise PointsegError(
            f"{meta_path}: expected a JSON object with an integer n_classes"
        ) from None
    gt_instances = decode_label_pgm((scene_dir / "gt_instances.pgm").read_bytes())
    gt_semantic = decode_label_pgm((scene_dir / "gt_semantic.pgm").read_bytes())
    semantic_in = decode_label_pgm((scene_dir / "semantic_in.pgm").read_bytes())
    points = decode_points_csv(_read_text(scene_dir / "points.csv"))
    features = decode_tensor((scene_dir / "features.mdmt").read_bytes())
    scene = Scene(gt_instances, gt_semantic, points, features)
    if declared is not None and scene.n_classes != declared:
        raise PointsegError(f"{scene_dir}: feature channels disagree with scene.json")
    return scene, semantic_in


def _mdm_config_from(args, cfg) -> MdmConfig:
    """Flags and config-file keys over the dataclass defaults."""
    return MdmConfig(
        n_stages=_resolve(args, cfg, "stages", int, MdmConfig.n_stages),
        warmup_iters=_resolve(args, cfg, "warmup", int, MdmConfig.warmup_iters),
        iters_per_stage=_resolve(args, cfg, "iters", int, MdmConfig.iters_per_stage),
        learning_rate=_resolve(args, cfg, "lr", float, MdmConfig.learning_rate),
        hard_pixel_ratio=_resolve(
            args, cfg, "hard_pixel_ratio", float, MdmConfig.hard_pixel_ratio
        ),
        grouping=GroupingConfig(
            vote_radius_tau=_resolve(args, cfg, "tau", float, GroupingConfig.vote_radius_tau),
            pseudo_box_side=_resolve(args, cfg, "box_side", int, GroupingConfig.pseudo_box_side),
        ),
        i2s=I2SConfig(
            beta=_resolve(args, cfg, "beta", float, I2SConfig.beta),
            pair_radius=_resolve(args, cfg, "pair_radius", int, I2SConfig.pair_radius),
            max_pairs=_resolve(args, cfg, "max_pairs", int, I2SConfig.max_pairs),
        ),
        seed=_resolve(args, cfg, "seed", int, MdmConfig.seed),
    )


def _train_echo(cfg: MdmConfig) -> dict:
    """The manifest's config record, keyed by the train flags that set it."""
    return {
        "stages": cfg.n_stages,
        "warmup": cfg.warmup_iters,
        "iters": cfg.iters_per_stage,
        "lr": cfg.learning_rate,
        "hard_pixel_ratio": cfg.hard_pixel_ratio,
        "tau": cfg.grouping.vote_radius_tau,
        "box_side": cfg.grouping.pseudo_box_side,
        "beta": cfg.i2s.beta,
        "pair_radius": cfg.i2s.pair_radius,
        "max_pairs": cfg.i2s.max_pairs,
        "seed": cfg.seed,
    }


def _train_one(task: tuple[str, str, MdmConfig]) -> str:
    scene_path, out_path, cfg = task
    scene_dir, out_dir = Path(scene_path), Path(out_path)
    t0 = time.time()
    scene, semantic_in = _load_scene_dir(scene_dir)
    result = run_mdm(scene, semantic_in, cfg)
    gt_classes = scene.points.class_of()
    for stage in result.stages:
        stage_dir = out_dir / f"stage_{stage.stage_idx:02d}"
        _write(stage_dir / "pseudo_instances.pgm", encode_label_pgm(stage.pseudo_instances))
        _write(stage_dir / "semantic_out.pgm", encode_label_pgm(stage.semantic_out))
        _write(stage_dir / "classmap.mdmt", encode_tensor(stage.refreshed_class_map.data))
        rows = ["instance_id,class_id"] + [
            f"{i},{c}" for i, c in sorted(stage.instance_classes.items())
        ]
        _write(stage_dir / "classes.csv", "\n".join(rows) + "\n")
        metrics = {
            "overall_iou": stage.metrics.overall_iou,
            "counts": {
                "iou50": stage.metrics.counts[0.5],
                "iou70": stage.metrics.counts[0.7],
                "iou90": stage.metrics.counts[0.9],
            },
            "per_instance_iou": {str(k): v for k, v in stage.metrics.ious.items()},
        }
        _write(stage_dir / "metrics.json", json.dumps(metrics, indent=2) + "\n")
        lines = [json.dumps(r.as_dict()) for r in stage.losses]
        _write(stage_dir / "losses.jsonl", "\n".join(lines) + "\n")
    warm = [json.dumps(r.as_dict()) for r in result.warmup_losses]
    _write(out_dir / "warmup_losses.jsonl", "\n".join(warm) + ("\n" if warm else ""))
    _write_manifest(
        out_dir, "train", _train_echo(cfg),
        [scene_dir / name for name in (
            "gt_instances.pgm", "gt_semantic.pgm", "semantic_in.pgm",
            "points.csv", "features.mdmt",
        )],
        t0,
    )
    final = result.final.metrics.overall_iou
    return f"train: {scene_dir.name} final overall_iou {final:.2f} -> {out_dir}"


def _cmd_train(argv: list[str]) -> int:
    parser = _Parser(prog="pointseg train")
    _add_config_flag(parser)
    parser.add_argument("--scene", action="append", required=True,
                        help="scene directory (repeatable)")
    parser.add_argument("--out", required=True)
    parser.add_argument("--stages", type=int)
    parser.add_argument("--warmup", type=int,
                        help=f"Adam steps before stage 0 (default {MdmConfig.warmup_iters})")
    parser.add_argument("--iters", type=int,
                        help=f"Adam steps per stage (default {MdmConfig.iters_per_stage})")
    parser.add_argument("--lr", type=float,
                        help=f"Adam step size (default {MdmConfig.learning_rate})")
    parser.add_argument("--hard-pixel-ratio", type=float, dest="hard_pixel_ratio")
    parser.add_argument("--tau", type=float)
    parser.add_argument("--box-side", type=int, dest="box_side")
    parser.add_argument("--beta", type=float)
    parser.add_argument("--pair-radius", type=int, dest="pair_radius")
    parser.add_argument("--max-pairs", type=int, dest="max_pairs")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args(argv)
    cfg = _load_config_file(args)
    mdm_cfg = _mdm_config_from(args, cfg)

    out_root = Path(args.out)
    tasks = []
    for scene_path in args.scene:
        scene_dir = Path(scene_path)
        out_dir = out_root / scene_dir.name if len(args.scene) > 1 else out_root
        tasks.append((str(scene_dir), str(out_dir), mdm_cfg))

    _run_tasks(_train_one, tasks, args.jobs)
    return 0


# ---------------------------------------------------------------- eval


def _read_classes_csv(path: Path, grid: LabelGrid) -> dict[int, int]:
    """The instance -> class table of `grid`; every id of the grid needs a row."""
    rows = [(n, r.strip()) for n, r in enumerate(_read_text(path).splitlines(), 1) if r.strip()]
    if not rows or rows[0][1].replace(" ", "") != "instance_id,class_id":
        raise PointsegError(f"{path}: expected header instance_id,class_id")
    table = {}
    for n, row in rows[1:]:
        try:
            inst, cls = (int(f) for f in row.split(","))
        except ValueError:
            raise PointsegError(
                f"{path} line {n}: expected two integers instance_id,class_id, got {row!r}"
            ) from None
        table[inst] = cls
    missing = sorted(set(grid.ids()) - table.keys())
    if missing:
        raise PointsegError(f"{path}: no row for instance ids {missing} of the label grid")
    return table


def _eval_one(task: tuple[str, str, str | None, str | None, str]) -> str:
    pred_path, gt_path, pred_cls_path, gt_cls_path, out_path = task
    t0 = time.time()
    pred = decode_label_pgm(Path(pred_path).read_bytes())
    gt = decode_label_pgm(Path(gt_path).read_bytes())
    pred_classes = _read_classes_csv(Path(pred_cls_path), pred) if pred_cls_path else None
    gt_classes = _read_classes_csv(Path(gt_cls_path), gt) if gt_cls_path else None
    class_aware = pred_classes is not None and gt_classes is not None
    match = greedy_match(
        pred, gt, pred_classes=pred_classes, gt_classes=gt_classes, class_aware=class_aware
    )
    ap = ap_report(pred, gt, pred_classes=pred_classes, gt_classes=gt_classes)
    metrics = {
        "counts": {
            "iou50": match.counts[0.5],
            "iou70": match.counts[0.7],
            "iou90": match.counts[0.9],
        },
        "overall_iou": match.overall_iou,
        "map50": ap.map50,
        "map70": ap.map70,
        "map75": ap.map75,
    }
    out_dir = Path(out_path)
    _write(out_dir / "metrics.json", json.dumps(metrics, indent=2) + "\n")
    inputs = [Path(pred_path), Path(gt_path)]
    if pred_cls_path:
        inputs.append(Path(pred_cls_path))
    if gt_cls_path:
        inputs.append(Path(gt_cls_path))
    _write_manifest(out_dir, "eval", {"class_aware": class_aware}, inputs, t0)
    return f"eval: overall_iou {match.overall_iou:.2f} -> {out_dir / 'metrics.json'}"


def _cmd_eval(argv: list[str]) -> int:
    parser = _Parser(prog="pointseg eval")
    _add_config_flag(parser)
    parser.add_argument("--pred", action="append", required=True)
    parser.add_argument("--gt", action="append", required=True)
    parser.add_argument("--pred-classes", action="append", dest="pred_classes")
    parser.add_argument("--gt-classes", action="append", dest="gt_classes")
    parser.add_argument("--out", required=True)
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args(argv)
    _load_config_file(args)  # no key is read from it, but each must name a flag
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
    grid = decode_label_pgm(Path(args.input).read_bytes())
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
    except (PointsegError, OSError, json.JSONDecodeError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
