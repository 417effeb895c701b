"""Workloads, timed phases, output checks and the result line.

Every workload drives the real CLI in-process through
``pointseg.cli.dispatch``, so ``pointseg train --jobs N`` starts its process
pool inside the timing, as it does for users on every call. Load is a closed
loop from one process: the next call starts when the previous one returns.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from pointseg.cli import dispatch
from pointseg.grids import decode_label_pgm, decode_points_csv, encode_tensor

from checks import SceneFiles, check_eval, check_i2s, check_s2i, check_train
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
BENCHMARK = ROOT / "BENCHMARK.json"
SETUP_EVERY_S = 10.0  # timed-phase seconds between two set-up points
N_STAGES = 3  # `pointseg train` default
QUALITY = ("final_iou", "s2i_iou", "map50", "refresh_px_acc")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "train": `pointseg train`; "label": s2i -> i2s -> eval per scene
    size: int  # grid side in pixels
    scenes: int  # scenes `pointseg synth` writes at set-up
    scored: int  # quality is the mean over the first this many distinct scenes
    batch: int = 1  # scenes per `pointseg train` call
    setup_repeats: int = 1  # set-ups timed at each set-up point of a run
    train_flags: tuple[str, ...] = ()  # the self-test shrinks the config here


# Why each workload exists is recorded in BENCHMARK.json. Scene counts cover
# one run of `run_seconds` on a 2-core host with room to spare; the loop
# reuses scenes in order if a faster host gets through them. A train call of
# 4 scenes at --jobs 2 takes 22-33 s there, so a 38 s run makes two (one if
# a slow spell of the host stretches the first past 38 s).
# Labeling gets through 13-21 scenes; scoring a fixed 12 keeps the quality
# numbers a function of the seed alone. A train_64 set-up takes about 0.07 s
# and a label_256 one about 1 s, hence the repeats per set-up point.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("train_64", "train", 64, scenes=8, scored=8, batch=4, setup_repeats=12),
        Workload("label_256", "label", 256, scenes=20, scored=12),
    )
}


@dataclass
class Call:
    """One CLI invocation; it fails on a non-zero exit or a failed check."""

    argv: list[str]
    seconds: float
    rc: int
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.rc == 0 and not self.problems


class Cli:
    """Runs subcommands in-process, keeping every call for the tally."""

    def __init__(self) -> None:
        self.calls: list[Call] = []

    def __call__(self, *argv) -> Call:
        args = [str(a) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            rc = dispatch(args)
        call = Call(args, time.perf_counter() - t0, rc)
        if rc != 0:
            call.problems.append(f"exit {rc}: {err.getvalue().strip()[-400:]}")
        self.calls.append(call)
        return call


def run_check(call: Call, check, *args) -> None:
    """Record `check(*args)`'s problems against the call that wrote the files."""
    if call.rc != 0:
        return
    try:
        call.problems += check(*args)
    except Exception as err:  # an unreadable or malformed output fails the call
        call.problems.append(f"{check.__name__}: {type(err).__name__}: {err}")


# ------------------------------------------------------------------ set-up


def set_up(w: Workload, seed: int, root: Path, cli: Cli, count: int | None = None) -> list[Path]:
    """`pointseg synth` with its defaults, then the inputs the workload reads:
    a GT classes table per scene and, for labeling, a one-hot class map of
    the corrupted semantic map."""
    synth = cli("synth", "--out", root, "--seed", seed, "--count", count or w.scenes,
                "--height", w.size, "--width", w.size)
    if synth.rc != 0:
        raise RuntimeError(f"set-up failed: {synth.problems}")
    scene_dirs = sorted(root.glob("scene_*"))
    for scene_dir in scene_dirs:
        points = decode_points_csv((scene_dir / "points.csv").read_text())
        rows = ["instance_id,class_id"] + [f"{p.instance_id},{p.class_id}" for p in points]
        (scene_dir / "gt_classes.csv").write_text("\n".join(rows) + "\n")
        if w.kind == "label":
            n_classes = json.loads((scene_dir / "scene.json").read_text())["n_classes"]
            semantic = decode_label_pgm((scene_dir / "semantic_in.pgm").read_bytes())
            onehot = np.eye(n_classes + 1)[semantic.data]
            (scene_dir / "classmap_in.mdmt").write_bytes(encode_tensor(onehot))
    return scene_dirs


class SetupTimer:
    """Times set-up at points spread through a run: before the timed phase,
    after every SETUP_EVERY_S seconds of it, and after it. A set-up takes a
    fraction of a second, so timing it only at the start would sample the
    host at one instant; spread out, a minute of slow host weighs on setup_s
    no more than on scene_s."""

    def __init__(self, w: Workload, seed: int, work: Path, cli: Cli) -> None:
        self.w, self.seed, self.work, self.cli = w, seed, work, cli
        self.times: list[float] = []
        set_up(w, seed, work / "setup_warmup", cli, count=1)  # untimed warm-up

    def point(self, name: str = "setup_again") -> list[Path]:
        """Set up `setup_repeats` times into a fresh `work / name`; returns
        the last repetition's scenes."""
        root = self.work / name
        for _ in range(self.w.setup_repeats):
            shutil.rmtree(root, ignore_errors=True)
            t0 = time.perf_counter()
            scene_dirs = set_up(self.w, self.seed, root, self.cli)
            self.times.append(time.perf_counter() - t0)
        return scene_dirs


# ------------------------------------------------------------------ phases


def _keep_going(t_start: float, seconds: float) -> bool:
    """Closed loop: the next unit starts while the run's time is not up."""
    return time.perf_counter() - t_start < seconds


class PhaseClock:
    """Closed-loop clock of a timed phase that stops while set-up is timed
    between units."""

    def __init__(self, seconds: float, setups: SetupTimer) -> None:
        self.seconds, self.setups = seconds, setups
        self.wall = 0.0
        self.next_setup = SETUP_EVERY_S

    def time(self, fn, *args):
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.wall += time.perf_counter() - t0

    def keep_going(self) -> bool:
        """The next unit starts while the phase's time is not up; a set-up
        point comes first if SETUP_EVERY_S seconds have passed since the last."""
        if self.wall >= self.seconds:
            return False
        if self.wall >= self.next_setup:
            self.setups.point()
            self.next_setup = self.wall + SETUP_EVERY_S
        return True


def _scene_out(call_dir: Path, scene_dir: Path, batch: int) -> Path:
    # `pointseg train` writes a lone scene straight into --out.
    return call_dir / scene_dir.name if batch > 1 else call_dir


def _manifest_seconds(out_dir: Path) -> float:
    return float(_json(out_dir / "manifest.json")["wall_seconds"])


@dataclass
class SceneRun:
    scene_dir: Path
    out_dir: Path  # train: the scene's output; label: parent of s2i/, i2s/, eval/
    calls: list[Call]  # train: the batch's one call; label: s2i, i2s, eval

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.calls)

    @property
    def is_train(self) -> bool:
        return self.calls[0].argv[0] == "train"

    @property
    def seconds(self) -> float:
        """Per-scene latency: the scene's manifest wall time for train, the
        summed call times for labeling."""
        if self.is_train:
            return _manifest_seconds(self.out_dir)
        return sum(c.seconds for c in self.calls)

    @property
    def busy_seconds(self) -> float:
        """Seconds the subcommands' own manifests report for this scene."""
        if self.is_train:
            return _manifest_seconds(self.out_dir)
        return sum(_manifest_seconds(self.out_dir / d) for d in ("s2i", "i2s", "eval"))


def train_phase(w, scene_dirs, out, jobs, cli, clock: PhaseClock) -> list[SceneRun]:
    runs: list[SceneRun] = []
    index = 0
    while True:
        batch = [scene_dirs[(index + i) % len(scene_dirs)] for i in range(w.batch)]
        call_dir = out / f"call_{index // w.batch:03d}"
        scene_flags = [arg for s in batch for arg in ("--scene", s)]
        call = clock.time(cli, "train", *scene_flags, "--out", call_dir, "--jobs", jobs,
                          *w.train_flags)
        for scene_dir in batch:
            scene_out = _scene_out(call_dir, scene_dir, w.batch)
            runs.append(SceneRun(scene_dir, scene_out, [call]))
        index += w.batch
        if not clock.keep_going():
            return runs


def label_scene(scene_dir: Path, out: Path, cli: Cli) -> SceneRun:
    s2i, i2s, ev = out / "s2i", out / "i2s", out / "eval"
    calls = [cli("s2i", "--semantic", scene_dir / "semantic_in.pgm",
                 "--points", scene_dir / "points.csv", "--out", s2i)]
    if calls[0].rc == 0:
        calls.append(cli("i2s", "--instances", s2i / "instances.pgm",
                         "--classmap", scene_dir / "classmap_in.mdmt", "--out", i2s))
        calls.append(cli("eval", "--pred", s2i / "instances.pgm",
                         "--gt", scene_dir / "gt_instances.pgm",
                         "--pred-classes", s2i / "classes.csv",
                         "--gt-classes", scene_dir / "gt_classes.csv", "--out", ev))
    return SceneRun(scene_dir, out, calls)


def label_phase(scene_dirs, out, cli, clock: PhaseClock) -> list[SceneRun]:
    runs: list[SceneRun] = []
    while True:
        scene_dir = scene_dirs[len(runs) % len(scene_dirs)]
        runs.append(clock.time(label_scene, scene_dir,
                               out / f"{len(runs):03d}_{scene_dir.name}", cli))
        if not clock.keep_going():
            return runs


# ------------------------------------------------------------------ checks and quality


def _accuracy(pred_pgm: Path, scene: SceneFiles) -> float:
    pred = decode_label_pgm(pred_pgm.read_bytes())
    return float(np.mean(pred.data == scene.gt_semantic.data))


def _json(path: Path) -> dict:
    return json.loads(path.read_text())


def check_run(run: SceneRun) -> None:
    """Apply the output checks to one scene's calls."""
    scene = SceneFiles(run.scene_dir)
    if run.is_train:
        run_check(run.calls[0], check_train, scene, run.out_dir, N_STAGES)
        return
    s2i, i2s, ev = (run.out_dir / d for d in ("s2i", "i2s", "eval"))
    run_check(run.calls[0], check_s2i, scene, s2i)
    if len(run.calls) == 3:
        run_check(run.calls[1], check_i2s, scene, i2s, s2i)
        run_check(run.calls[2], check_eval, scene, ev, s2i / "instances.pgm", s2i / "classes.csv")


def score_train(runs: list[SceneRun], limit: int, work: Path, cli: Cli) -> dict[str, list[float]]:
    """Quality of the first passing run of each scene, against S2I-only labels
    from `pointseg s2i` + `pointseg eval` on the same scene."""
    quality = {k: [] for k in QUALITY}
    for run in _first_passing(runs, limit):
        scene = SceneFiles(run.scene_dir)
        final = run.out_dir / f"stage_{N_STAGES - 1:02d}"
        ref = work / "reference" / run.scene_dir.name
        s2i = cli("s2i", "--semantic", scene.dir / "semantic_in.pgm",
                  "--points", scene.dir / "points.csv", "--out", ref / "s2i")
        run_check(s2i, check_s2i, scene, ref / "s2i")
        calls = [s2i]
        for tag, pred_dir, pred_name in (("s2i", ref / "s2i", "instances.pgm"),
                                         ("final", final, "pseudo_instances.pgm")):
            call = cli("eval", "--pred", pred_dir / pred_name, "--gt", scene.dir / "gt_instances.pgm",
                       "--pred-classes", pred_dir / "classes.csv",
                       "--gt-classes", scene.dir / "gt_classes.csv", "--out", ref / f"eval_{tag}")
            run_check(call, check_eval, scene, ref / f"eval_{tag}", pred_dir / pred_name,
                      pred_dir / "classes.csv")
            calls.append(call)
        if not all(c.ok for c in calls):
            continue
        quality["final_iou"].append(_json(final / "metrics.json")["overall_iou"])
        quality["s2i_iou"].append(_json(ref / "eval_s2i" / "metrics.json")["overall_iou"])
        quality["map50"].append(_json(ref / "eval_final" / "metrics.json")["map50"])
        quality["refresh_px_acc"].append(_accuracy(final / "semantic_out.pgm", scene))
    return quality


def score_label(runs: list[SceneRun], limit: int) -> dict[str, list[float]]:
    """Quality of the first passing run of each scene. The labels the
    labeling path ends with are its S2I labels, so its final IoU is its S2I
    IoU."""
    quality = {k: [] for k in QUALITY}
    for run in _first_passing(runs, limit):
        metrics = _json(run.out_dir / "eval" / "metrics.json")
        quality["final_iou"].append(metrics["overall_iou"])
        quality["s2i_iou"].append(metrics["overall_iou"])
        quality["map50"].append(metrics["map50"])
        quality["refresh_px_acc"].append(
            _accuracy(run.out_dir / "i2s" / "semantic_out.pgm", SceneFiles(run.scene_dir))
        )
    return quality


def _first_passing(runs: list[SceneRun], limit: int) -> list[SceneRun]:
    """The first run of each of the first `limit` scenes, if it passed."""
    firsts: dict[Path, SceneRun] = {}
    for run in runs:
        firsts.setdefault(run.scene_dir, run)
    return [run for run in list(firsts.values())[:limit] if run.ok]


# ------------------------------------------------------------------ traced run


def _one_scene(w: Workload, scene_dir: Path, out: Path, cli: Cli) -> SceneRun:
    """One scene through the workload's calls, in this process (--jobs 1)."""
    if w.kind == "train":
        call = cli("train", "--scene", scene_dir, "--out", out, "--jobs", 1, *w.train_flags)
        return SceneRun(scene_dir, out, [call])
    return label_scene(scene_dir, out, cli)


def traced_phase(w, seed, runs, work, seconds, cli) -> tuple[dict, list[float], int, list[Tracer]]:
    """Run the timed scenes again at --jobs 1, each once untraced and once
    traced, back to back and alternating which goes first, until the run's
    time is up (two scenes at least).

    Returns the per-layer sums over the traced runs, the per-scene tracing
    overheads (traced over untraced latency, minus one), the traced scene
    count, and the tracers: one for the scenes and one for a traced set-up of
    as many scenes.
    """
    tracer = Tracer()
    overheads, traced_dirs = [], []
    scene_dirs = list(dict.fromkeys(r.scene_dir for r in runs))
    t_start = time.perf_counter()
    for i, scene_dir in enumerate(scene_dirs):
        latency = {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            out = work / "trace" / f"{i:03d}_{'traced' if traced else 'untraced'}"
            tracer.scene = scene_dir.name
            with tracer.installed() if traced else nullcontext():
                run = _one_scene(w, scene_dir, out, cli)
            check_run(run)
            latency[traced] = run.seconds if run.ok else None
            if traced:
                traced_dirs.append(out)
        if None not in latency.values():
            overheads.append(latency[True] / latency[False] - 1)
        if i >= 1 and not _keep_going(t_start, seconds):
            break
    n_scenes = len(traced_dirs)
    setup_tracer = Tracer()
    setup_tracer.scene = "setup"
    with setup_tracer.installed():
        set_up(w, seed, work / "trace_setup", cli, count=n_scenes)

    sums = {"cli.bytes_written": float(sum(
        p.stat().st_size for d in traced_dirs for p in d.rglob("*") if p.is_file()
    ))}
    for t in (tracer, setup_tracer):
        for name, (secs, calls) in t.self_times().items():
            sums[f"{name}.s"] = sums.get(f"{name}.s", 0.0) + secs
            sums[f"{name}.calls"] = sums.get(f"{name}.calls", 0.0) + calls
        for name, count in t.counts.items():
            sums[name] = sums.get(name, 0.0) + count
    return sums, overheads, n_scenes, [tracer, setup_tracer]


# Per-layer metrics read straight from span sums; a layer the workload never
# calls reads 0.
SPAN_METRICS = (
    "loop.expand_features.calls", "loop.expand_features.s", "loop.build_stage_targets.s",
    "loop.predict.s", "losses.seg_loss_ohem.s", "losses.affinity_loss.s",
    "losses.offset_loss.s", "losses.total_loss.s",
    "i2s.refresh_semantic.s", "i2s.refresh_semantic.calls", "i2s.affinity_values",
    "i2s.build_affinity_targets.s",
    "s2i.extract_regions.s", "grids.connected_components.s", "grids.connected_components.calls",
    "s2i.assign_points.s", "s2i.compute_offset_field.s", "s2i.group_instances.s",
    "s2i.finalize_pseudo_labels.s", "grids.codec.s", "grids.codec.bytes",
    "cli.synth.s", "cli.s2i.s", "cli.i2s.s", "cli.train.s", "cli.eval.s",
    "cli.fnv1a64.s", "cli.fnv1a64.bytes", "cli.bytes_written",
    "metrics.greedy_match.s", "metrics.ap_report.s",
    "synth.generate_scene.s", "synth.corrupt_semantic.s",
)
LOSSES = ("seg_loss_ohem", "affinity_loss", "offset_loss", "total_loss")


def per_layer_metrics(sums: dict, n_scenes: int, busy_frac: float, overhead: float,
                      failed_frac: float) -> dict[str, float]:
    """Per traced scene, except the fractions."""
    per = {name: sums.get(name, 0.0) / n_scenes for name in SPAN_METRICS}
    train_self = (sums.get("loop.run_mdm.s", 0.0) + sums.get("loop.run_stage.s", 0.0)) / n_scenes
    evals = sums.get("losses.seg_loss_ohem.calls", 0.0) / n_scenes
    objective = train_self + sum(per[f"losses.{n}.s"] for n in LOSSES)
    return {
        "loop.objective_evals": evals,
        "loop.train_self_s": train_self,
        "loop.per_eval_ms": 1000.0 * objective / evals if evals else 0.0,
        **per,
        "cli.pool_busy_frac": busy_frac,
        "trace.overhead_frac": overhead,
        "failed_frac": failed_frac,
    }


def trace_shares(tracer: Tracer) -> dict[str, float]:
    """Shares of the traced scenes' time (set-up excluded) by layer group."""
    st = tracer.self_times()
    wall = tracer.total_seconds()

    def share(*names):
        return sum(st.get(n, (0.0, 0))[0] for n in names) / wall if wall else 0.0

    return {
        "objective": share("loop.run_mdm", "loop.run_stage", *(f"losses.{n}" for n in LOSSES)),
        "refresh": share("i2s.refresh_semantic"),
        "regions": share("s2i.extract_regions", "grids.connected_components"),
        "targets_and_grouping": share("loop.build_stage_targets", "s2i.assign_points",
                                      "s2i.compute_offset_field", "i2s.build_affinity_targets",
                                      "s2i.group_instances", "s2i.finalize_pseudo_labels"),
        "features_and_predict": share("loop.expand_features", "loop.predict"),
        "io_and_hashing": share("grids.codec", "cli.fnv1a64", "cli.train", "cli.s2i",
                                "cli.i2s", "cli.eval"),
        "metrics": share("metrics.greedy_match", "metrics.ap_report"),
    }


# ------------------------------------------------------------------ result


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {
            k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
        "platform": platform.platform(),
    }


def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def _peak_rss_mb() -> tuple[float, float]:
    """Peak resident set of this process and of its largest reaped child
    (a pool worker), in MiB."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return self_kb / 1024.0, child_kb / 1024.0


def run(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object the last line prints."""
    spec = json.loads(BENCHMARK.read_text())
    env = environment()
    work = OUT / w.name
    shutil.rmtree(work, ignore_errors=True)
    cli = Cli()
    jobs = min(w.batch, env["nproc"])

    setups = SetupTimer(w, seed, work, cli)
    scene_dirs = setups.point("setup")
    clock = PhaseClock(seconds, setups)
    if w.kind == "train":
        runs = train_phase(w, scene_dirs, work / "timed", jobs, cli, clock)
    else:
        runs = label_phase(scene_dirs, work / "timed", cli, clock)
    wall = clock.wall
    peak_rss = _peak_rss_mb()
    setups.point()
    setup_times = setups.times
    for r in runs:
        check_run(r)
    quality = (score_train(runs, w.scored, work, cli) if w.kind == "train"
               else score_label(runs, w.scored))
    ok_runs = [r for r in runs if r.ok]
    busy = sum(r.busy_seconds for r in ok_runs) / (jobs * wall)
    final, s2i = _mean(quality["final_iou"]), _mean(quality["s2i_iou"])
    values = {
        "setup_s": statistics.median(setup_times),
        "scene_s": wall / len(runs),
        "scene_p50_s": statistics.median([r.seconds for r in ok_runs]) if ok_runs else 0.0,
        "final_iou": final,
        "gain_iou": final / s2i if s2i else 0.0,
        "s2i_iou": s2i,
        "map50": _mean(quality["map50"]),
        "refresh_px_acc": _mean(quality["refresh_px_acc"]),
        "peak_rss_mb": sum(peak_rss),
    }
    details = {
        "env": env,
        "workload": w.name, "seed": seed, "seconds": seconds, "jobs": jobs,
        "scenes_timed": len(runs), "scenes_scored": len(quality["final_iou"]),
        "timed_wall_s": wall, "setup_times_s": setup_times,
        "scene_seconds": [r.seconds for r in ok_runs],
        "quality_per_scene": quality,
        "gain_iou_points": _mean([f - s for f, s in zip(quality["final_iou"], quality["s2i_iou"])]),
        "pool_busy_frac": busy,
        "peak_rss_self_child_mb": peak_rss,
        "end_to_end": dict(values),
    }
    metric_specs = spec["end_to_end"]
    if trace:
        sums, overheads, n_traced, tracers = traced_phase(w, seed, runs, work, seconds, cli)
        for i, t in enumerate(tracers):
            t.dump(work / f"spans_{i}.jsonl")
        details.update(scenes_traced=n_traced, trace_overheads=overheads,
                       trace_shares=trace_shares(tracers[0]))
    failed = sum(not c.ok for c in cli.calls)
    if trace:
        values = per_layer_metrics(
            sums, n_traced, busy, statistics.median(overheads) if overheads else 0.0,
            failed / len(cli.calls),
        )
        metric_specs = spec["per_layer"]
    details["problems"] = [p for c in cli.calls for p in c.problems][:50]
    (work / "result.json").write_text(json.dumps({**details, "metrics": values}, indent=2) + "\n")
    for line in summary_lines(details):
        print(line)
    return {
        "correct": failed == 0,
        "attempted": len(cli.calls),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_specs},
    }


def summary_lines(d: dict) -> list[str]:
    q = d["quality_per_scene"]
    lines = [
        "env " + json.dumps(d["env"], sort_keys=True),
        f"{d['workload']} seed {d['seed']}: {d['scenes_timed']} scenes timed in "
        f"{d['timed_wall_s']:.2f} s at --jobs {d['jobs']}, {d['scenes_scored']} scored; "
        f"pool busy {d['pool_busy_frac']:.3f}",
        "per-scene seconds " + " ".join(f"{s:.3f}" for s in d["scene_seconds"]),
        "final IoU " + " ".join(f"{v:.2f}" for v in q["final_iou"])
        + " | S2I-only IoU " + " ".join(f"{v:.2f}" for v in q["s2i_iou"])
        + f" | mean final - S2I {d['gain_iou_points']:+.2f} IoU points",
    ]
    if "trace_shares" in d:
        lines.append(
            f"traced {d['scenes_traced']} scenes at --jobs 1; overhead per scene "
            + " ".join(f"{o:+.4f}" for o in d["trace_overheads"])
        )
        lines.append("traced shares " + " ".join(
            f"{k} {v:.3f}" for k, v in d["trace_shares"].items()))
    lines += [f"problem: {p}" for p in d["problems"]]
    return lines


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfbench")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=100,
                        help="seed base: scenes are synthesised from seeds base, base+1, ...")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, allow_nan=False))
    return 0
