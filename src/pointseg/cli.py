"""Command-line entry point binding all modules into reproducible pipelines.

Subcommands: synth | s2i | i2s | train | eval | render. Every
output directory receives a manifest.json with the tool version, the full
configuration echo, FNV-1a digests of the inputs as read, and wall-clock
seconds. Exit codes: 0 success, 1 usage error, 2 data error (or out of
memory); an input file that fails to decode is named in its error.

synth, i2s, train and eval declare their settings once, in a flag table.
`--config` names a JSON object whose keys are exactly that table's flags
(argparse dests such as `pair_radius`); any other key, an input or output
path among them, is a usage error. A flag beats the file, which beats the
table's default. The manifest echoes the resolved table in its order: all
of it for i2s, all but `jobs` for train; synth echoes each scene's
parameters and eval whether it was class-aware. s2i and render take paths
only: s2i's regions are the 8-connected ones that train matches points to
too, and its manifest echoes {}.

A scene directory, as synth writes it and train reads it, holds
gt_instances.pgm, gt_semantic.pgm, semantic_in.pgm (the corrupted semantic
map), points.csv, intensity.mdmt (the (H, W) image) and scene.json (the
scene's parameters; train reads its n_classes, an integer from 1 to 65535,
the largest id a label PGM can carry). train needs at least one point in
points.csv; a point-less scene is a data error that names its directory.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import NamedTuple

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


def _text(path: Path, inputs: dict[str, bytes]) -> str:
    """The text of the input file `path` from its bytes read, which must be
    UTF-8; CRLF and CR line ends read as LF, as a text-mode read gives them."""
    try:
        text = inputs[str(path)].decode("utf-8")
    except UnicodeDecodeError as err:
        raise PointsegError(f"{path}: not UTF-8 text ({err.reason} at byte {err.start})") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _json(path: Path, inputs: dict[str, bytes]):
    """The value of the JSON input file `path` from its bytes read."""
    try:
        return json.loads(_text(path, inputs))
    except json.JSONDecodeError as err:
        raise PointsegError(f"{path}: not JSON ({err})") from None


def _decoded(path: str | Path, inputs: dict[str, bytes], decode):
    """decode(the bytes read of the input file `path`); a payload it refuses
    is a GridError that names the file."""
    try:
        return decode(inputs[str(Path(path))])
    except GridError as err:
        raise GridError(f"{path}: {err}") from None


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


def _resolve(args: argparse.Namespace, file_cfg: dict, key: str, flag: _Flag):
    """Flags beat the config file, which beats the flag's default.

    A config-file value is converted to the flag's kind and must be one of
    its choices, if it has them, as a flag's value must; one that does not
    convert exactly or is not a choice is a usage error naming the key. A
    JSON null counts as unset.
    """
    value = getattr(args, key, None)
    if value is not None:
        return value
    value = file_cfg.get(key)
    if value is None:
        return flag.default
    kind = flag.kind
    try:
        # bool("false") would read as true, int(True) as 1, int(2.7) as 2
        # and str(5) as "5"
        if (
            isinstance(value, bool) != (kind is bool)
            or (kind is int and isinstance(value, float) and not value.is_integer())
            or (kind is str and not isinstance(value, str))
        ):
            raise ValueError
        value = kind(value)
    except (TypeError, ValueError):
        raise CliUsageError(
            f"config key {key!r}: expected {kind.__name__}, got {value!r}"
        ) from None
    choices = flag.kw.get("choices")
    if choices is not None and value not in choices:
        raise CliUsageError(
            f"config key {key!r}: expected one of {', '.join(map(repr, choices))}, got {value!r}"
        )
    return value


class _Flag(NamedTuple):
    """One file-settable flag of a subcommand: its type, its default, the
    field it sets of the subcommand's config dataclass (dotted where nested)
    if any, and its further add_argument keywords."""

    name: str
    kind: type
    default: object
    path: str | None = None
    kw: dict = {}


def _parse(parser: _Parser, argv: list[str], flags: list[_Flag]) -> tuple[argparse.Namespace, dict]:
    """Add `--config` and the table's flags to `parser`, parse `argv`, and
    resolve each flag: the parsed args and {dest: value} in table order.

    The config file's keys must be table dests, so a misspelt or stale key,
    or one naming a path flag, cannot pass unused."""
    parser.add_argument("--config", help="JSON file with values for the flags below")
    dests = []
    for flag in flags:
        kw = flag.kw if "action" in flag.kw else {"type": flag.kind, **flag.kw}
        dests.append(parser.add_argument(flag.name, **kw).dest)
    args = parser.parse_args(argv)
    file_cfg = {}
    if args.config is not None:
        config = Path(args.config)
        file_cfg = _json(config, _read_inputs([config]))
        if not isinstance(file_cfg, dict):
            raise CliUsageError("config file must hold a JSON object")
        unknown = sorted(file_cfg.keys() - set(dests))
        if unknown:
            raise CliUsageError(
                f"config file keys name no flag of this subcommand: {', '.join(map(repr, unknown))}"
            )
    return args, {d: _resolve(args, file_cfg, d, f) for d, f in zip(dests, flags)}


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


_SYNTH_FLAGS = [
    _Flag("--seed", int, 0),
    _Flag("--count", int, 1),
    _Flag("--height", int, 64),
    _Flag("--width", int, 64),
    _Flag("--instances", int, None, kw={"help": "fixed count; default draws 2-6 per scene"}),
    _Flag("--classes", int, 3),
    _Flag("--shapes", str, "mixed", kw={"choices": ["rect", "ellipse", "mixed"]}),
    _Flag("--dilation", int, 2, "dilation_px"),
    _Flag("--erosion", int, 0, "erosion_px"),
    _Flag("--merge-adjacent", bool, True, "merge_adjacent",
          {"action": argparse.BooleanOptionalAction}),
    _Flag("--flip-rate", float, 0.02, "flip_rate"),
]


def _cmd_synth(argv: list[str]) -> int:
    parser = _Parser(prog="pointseg synth")
    parser.add_argument("--out", required=True)
    args, opt = _parse(parser, argv, _SYNTH_FLAGS)

    t0 = time.time()
    seed, count, height, width = opt["seed"], opt["count"], opt["height"], opt["width"]
    n_classes, shapes = opt["classes"], opt["shapes"]
    corruption = {f.path: v for f, v in zip(_SYNTH_FLAGS, opt.values(), strict=True) if f.path}

    if count < 1:
        raise SceneError(f"count must be >= 1, got {count}")
    out_root = Path(args.out)
    for index in range(count):
        scene_seed = seed + index
        scene = generate_scene(scene_seed, height, width, opt["instances"], n_classes, shapes)
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
            "height": height,
            "width": width,
            "n_instances": len(scene.points),
            "n_classes": n_classes,
            "shapes": shapes,
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
    points = decode_points_csv(_text(Path(args.points), inputs), args.points)
    try:
        points.validate_on(*semantic.shape)
    except GridError as err:
        raise GridError(f"{args.points}: {err}") from None

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


# The 0/1 same-instance affinity of --instances is the same under every
# power, so the affinity's beta has no flag here.
_I2S_FLAGS = [_Flag("--pair-radius", int, I2SConfig.pair_radius)]


def _cmd_i2s(argv: list[str]) -> int:
    parser = _Parser(prog="pointseg i2s")
    parser.add_argument("--instances", required=True)
    parser.add_argument("--classmap", required=True)
    parser.add_argument("--out", required=True)
    args, opt = _parse(parser, argv, _I2S_FLAGS)
    t0 = time.time()

    inputs = _read_inputs([Path(args.instances), Path(args.classmap)])
    instances = _decoded(args.instances, inputs, decode_label_pgm)
    class_map = _decoded(args.classmap, inputs, lambda blob: ClassScoreMap(decode_tensor(blob)))
    refreshed = refresh_semantic(instances, class_map, I2SConfig(**opt))
    out_dir = Path(args.out)
    _write(out_dir / "classmap.mdmt", encode_tensor(refreshed.data))
    _write(out_dir / "semantic_out.pgm", encode_label_pgm(refreshed.argmax_grid()))
    _write_manifest(out_dir, "i2s", opt, inputs, t0)
    print(f"i2s: wrote {out_dir}")
    return 0


# ---------------------------------------------------------------- train


# The files of a scene directory that train reads, in the manifest's order.
_SCENE_FILES = (
    "gt_instances.pgm", "gt_semantic.pgm", "semantic_in.pgm", "points.csv", "intensity.mdmt",
    "scene.json",
)


def _load_scene_dir(scene_dir: Path) -> tuple[Scene, LabelGrid, dict[str, bytes]]:
    """The scene, its corrupted semantic map and the bytes of its files."""
    path = {name: scene_dir / name for name in _SCENE_FILES}
    inputs = _read_inputs(list(path.values()))
    meta = _json(path["scene.json"], inputs)
    n_classes = meta.get("n_classes") if isinstance(meta, dict) else None
    # Refused before any array is sized by it.
    if type(n_classes) is not int or not 1 <= n_classes <= PGM_MAX_ID:
        raise PointsegError(
            f"{path['scene.json']}: expected a JSON object with n_classes 1..{PGM_MAX_ID}"
        )
    gt_instances = _decoded(path["gt_instances.pgm"], inputs, decode_label_pgm)
    gt_semantic = _decoded(path["gt_semantic.pgm"], inputs, decode_label_pgm)
    semantic_in = _decoded(path["semantic_in.pgm"], inputs, decode_label_pgm)
    points = decode_points_csv(_text(path["points.csv"], inputs), str(path["points.csv"]))
    intensity = _decoded(path["intensity.mdmt"], inputs, decode_tensor)
    scene = Scene(gt_instances, gt_semantic, points, intensity, n_classes)
    return scene, semantic_in, inputs


_TRAIN_FLAGS = [
    _Flag("--stages", int, MdmConfig.n_stages, "n_stages"),
    _Flag("--warmup", int, MdmConfig.warmup_iters, "warmup_iters",
          {"help": f"Adam steps before stage 0 (default {MdmConfig.warmup_iters})"}),
    _Flag("--iters", int, MdmConfig.iters_per_stage, "iters_per_stage",
          {"help": f"Adam steps per stage (default {MdmConfig.iters_per_stage})"}),
    _Flag("--lr", float, MdmConfig.learning_rate, "learning_rate",
          {"help": f"Adam step size (default {MdmConfig.learning_rate})"}),
    _Flag("--hard-pixel-ratio", float, MdmConfig.hard_pixel_ratio, "hard_pixel_ratio"),
    _Flag("--beta", float, I2SConfig.beta, "i2s.beta"),
    _Flag("--pair-radius", int, I2SConfig.pair_radius, "i2s.pair_radius"),
    _Flag("--max-pairs", int, I2SConfig.max_pairs, "i2s.max_pairs"),
    _Flag("--seed", int, MdmConfig.seed, "seed"),
    _Flag("--jobs", int, 1),
]


def _mdm_config(opt: dict) -> MdmConfig:
    """The MdmConfig that sets each value of the resolved train table at its
    row's path."""
    fields = {"": {}, "i2s": {}}
    for flag, value in zip(_TRAIN_FLAGS, opt.values(), strict=True):
        if flag.path:
            head, _, leaf = flag.path.rpartition(".")
            fields[head][leaf] = value
    return MdmConfig(i2s=I2SConfig(**fields["i2s"]), **fields[""])


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
    try:
        scene, semantic_in, inputs = _load_scene_dir(scene_dir)
        result = run_mdm(scene, semantic_in, cfg)
    except SceneError as err:  # a broken scene names its directory
        raise SceneError(f"{scene_dir}: {err}") from None
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
    args, opt = _parse(parser, argv, _TRAIN_FLAGS)
    mdm_cfg = _mdm_config(opt)
    jobs = opt.pop("jobs")  # the rest is the manifest's echo

    names = [Path(p).name for p in args.scene]
    clash = sorted({n for n in names if names.count(n) > 1})
    if clash:  # each scene writes to --out/<basename>
        raise CliUsageError(f"--scene directories share the basename {clash[0]!r}")
    out_root = Path(args.out)
    tasks = []
    for scene_path in args.scene:
        scene_dir = Path(scene_path)
        out_dir = out_root / scene_dir.name if len(args.scene) > 1 else out_root
        tasks.append((str(scene_dir), str(out_dir), mdm_cfg, opt))

    _run_tasks(_train_one, tasks, jobs)
    return 0


# ---------------------------------------------------------------- eval


def _read_classes_csv(path: Path, grid: LabelGrid, inputs: dict[str, bytes]) -> dict[int, int]:
    """The instance -> class table of `grid` from `path`'s bytes read: a row for each id."""
    table, line = {}, {}
    for n, (inst, cls) in decode_int_csv(_text(path, inputs), CLASSES_HEADER, str(path)):
        if inst in line:
            raise PointsegError(f"{path} lines {line[inst]} and {n}: both give instance_id {inst}")
        table[inst], line[inst] = cls, n
    missing = sorted(set(grid.ids()) - table.keys())
    if missing:
        raise PointsegError(f"{path}: no row for instance ids {missing} of the label grid")
    return table


def _eval_one(task: tuple[str, str, str | None, str | None, str]) -> str:
    pred_path, gt_path, pred_cls_path, gt_cls_path, out_path = task
    t0 = time.time()
    inputs = _read_inputs([Path(p) for p in (pred_path, gt_path, pred_cls_path, gt_cls_path) if p])
    pred = _decoded(pred_path, inputs, decode_label_pgm)
    gt = _decoded(gt_path, inputs, decode_label_pgm)
    pred_classes = _read_classes_csv(Path(pred_cls_path), pred, inputs) if pred_cls_path else None
    gt_classes = _read_classes_csv(Path(gt_cls_path), gt, inputs) if gt_cls_path else None
    class_aware = pred_classes is not None and gt_classes is not None
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


_EVAL_FLAGS = [_Flag("--jobs", int, 1)]


def _cmd_eval(argv: list[str]) -> int:
    parser = _Parser(prog="pointseg eval")
    parser.add_argument("--pred", action="append", required=True)
    parser.add_argument("--gt", action="append", required=True)
    parser.add_argument("--pred-classes", action="append", dest="pred_classes")
    parser.add_argument("--gt-classes", action="append", dest="gt_classes")
    parser.add_argument("--out", required=True)
    args, opt = _parse(parser, argv, _EVAL_FLAGS)
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
    _run_tasks(_eval_one, tasks, opt["jobs"])
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
