"""In-memory spans around calls into pointseg's layers.

A span is recorded by rebinding a function under the name its caller looks
up (``pointseg.loop.seg_loss_ohem``, ``pointseg.cli.refresh_semantic``), so
nothing under ``src/`` changes. Spans hold a name, start, end, parent index
and the scene they belong to; they stay in memory until ``dump`` writes them.
A span's self time is its duration minus the durations of its direct
children, which nest inside it because the traced run is single-threaded.
"""
from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path


def _codec_bytes(args, result) -> int:
    """Bytes a codec call read (decode) or produced (encode)."""
    blob = args[0] if isinstance(args[0], (bytes, str)) else result
    return len(blob)


# (caller module, attribute, span name, byte counter or None). One span name
# may cover several callers: the CLI and the loop both call into s2i and i2s.
LAYERS = [
    ("pointseg.cli", "run_mdm", "loop.run_mdm", None),
    ("pointseg.loop", "run_stage", "loop.run_stage", None),
    ("pointseg.loop", "expand_features", "loop.expand_features", None),
    ("pointseg.loop", "build_stage_targets", "loop.build_stage_targets", None),
    ("pointseg.loop", "predict", "loop.predict", None),
    ("pointseg.loop", "seg_loss_ohem", "losses.seg_loss_ohem", None),
    ("pointseg.loop", "offset_loss", "losses.offset_loss", None),
    ("pointseg.loop", "affinity_loss", "losses.affinity_loss", None),
    ("pointseg.loop", "total_loss", "losses.total_loss", None),
    ("pointseg.loop", "refresh_semantic", "i2s.refresh_semantic", None),
    ("pointseg.cli", "refresh_semantic", "i2s.refresh_semantic", None),
    ("pointseg.loop", "build_affinity_targets", "i2s.build_affinity_targets", None),
    ("pointseg.loop", "extract_regions", "s2i.extract_regions", None),
    ("pointseg.cli", "extract_regions", "s2i.extract_regions", None),
    ("pointseg.s2i", "connected_components", "grids.connected_components", None),
    ("pointseg.loop", "assign_points", "s2i.assign_points", None),
    ("pointseg.cli", "assign_points", "s2i.assign_points", None),
    ("pointseg.loop", "compute_offset_field", "s2i.compute_offset_field", None),
    ("pointseg.cli", "compute_offset_field", "s2i.compute_offset_field", None),
    ("pointseg.loop", "group_instances", "s2i.group_instances", None),
    ("pointseg.loop", "finalize_pseudo_labels", "s2i.finalize_pseudo_labels", None),
    ("pointseg.loop", "greedy_match", "metrics.greedy_match", None),
    ("pointseg.cli", "greedy_match", "metrics.greedy_match", None),
    ("pointseg.cli", "ap_report", "metrics.ap_report", None),
    ("pointseg.cli", "generate_scene", "synth.generate_scene", None),
    ("pointseg.cli", "corrupt_semantic", "synth.corrupt_semantic", None),
    ("pointseg.cli", "fnv1a64", "cli.fnv1a64", lambda args, result: len(args[0])),
    *(
        ("pointseg.cli", codec, "grids.codec", _codec_bytes)
        for codec in (
            "decode_label_pgm", "encode_label_pgm", "decode_tensor",
            "encode_tensor", "decode_points_csv", "encode_points_csv",
        )
    ),
]

SUBCOMMANDS = ("synth", "s2i", "i2s", "train", "eval")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, scene]
        self.counts: Counter = Counter()
        self.scene: str | None = None
        self._stack: list[int] = []

    def _traced(self, fn, name: str, count_bytes=None, adapt=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if adapt is not None:
                args = adapt(args)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, time.perf_counter(), 0.0, parent, self.scene])
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[index][2] = time.perf_counter()
                self._stack.pop()
            if count_bytes is not None:
                self.counts[f"{name}.bytes"] += count_bytes(args, result)
            return result

        return traced

    def _count_affinity(self, args):
        """Count the values a callable affinity returns inside the refresh."""
        affinity = args[0]
        if not callable(affinity):
            return args

        def counted(i_idx, j_idx):
            values = affinity(i_idx, j_idx)
            self.counts["i2s.affinity_values"] += len(values)
            return values

        return (counted, *args[1:])

    @contextmanager
    def installed(self):
        """Rebind every layer function for the duration of the block."""
        patches = []
        try:
            for module_name, attr, name, count_bytes in LAYERS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                adapt = self._count_affinity if attr == "refresh_semantic" else None
                patches.append((module, attr, original))
                setattr(module, attr, self._traced(original, name, count_bytes, adapt))
            commands = importlib.import_module("pointseg.cli")._COMMANDS
            for sub in SUBCOMMANDS:
                patches.append((commands, sub, commands[sub]))
                commands[sub] = self._traced(commands[sub], f"cli.{sub}")
            yield self
        finally:
            for target, key, original in reversed(patches):
                if isinstance(target, dict):
                    target[key] = original
                else:
                    setattr(target, key, original)

    def self_times(self) -> dict[str, tuple[float, int]]:
        """Per span name: (summed self seconds, call count)."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for index, (name, start, end, _, _) in enumerate(self.spans):
            out[name][0] += end - start - child[index]
            out[name][1] += 1
        return {name: (secs, calls) for name, (secs, calls) in out.items()}

    def total_seconds(self) -> float:
        """Wall time covered by top-level spans."""
        return sum(end - start for _, start, end, parent, _ in self.spans if parent < 0)

    def dump(self, path: Path) -> None:
        """Write every span, times relative to the first, as JSON lines."""
        t0 = self.spans[0][1] if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for index, (name, start, end, parent, scene) in enumerate(self.spans):
                out.write(json.dumps({
                    "id": index, "name": name, "scene": scene, "parent": parent,
                    "start_s": round(start - t0, 9), "end_s": round(end - t0, 9),
                }) + "\n")
