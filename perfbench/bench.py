"""Workloads, timing and metrics of the gcdp benchmark (see README.md).

Every operation is one call of `gcdp.cli.main(argv)`, as a user would make
it from the shell, timed with its argument parsing, file reads and file
writes. A run sets up (dataset generation, plus a short training run that
writes the checkpoint `sample` and `outpaint` read) several times, once
before the first operation and then at even intervals through the run, and
reports the median. After one untimed warm-up round it runs timed rounds of
the workload's operations until `seconds` have passed. Every round holds
the same operations, so the share of failed operations never depends on
the run length. The result line holds the same metric names on every
workload; each phase's own rate and layer totals are printed before it.
"""

import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from checks import (
    CheckFailed,
    check_bound_fell,
    check_equal,
    check_labels,
    check_loss_trace,
    heldout_bound,
    read_samples_dir,
    tree_digest,
)
from gcdp import cli
from gcdp import io as gio
from gcdp.scenes import SceneConfig
from tracing import CLI_LAYER, Tracer

HERE = Path(__file__).resolve().parent

# The criterion-5 configuration: 8x8 scenes with K=4 classes and both scene
# types, a 680,556-parameter denoiser, batch 64, T=100, lambda_cat=5.
HEIGHT = WIDTH = 8
N_CLASSES = 4
SCENE_ARGS = ["--height", "8", "--width", "8", "--classes", "4", "--sigma-data", "0.05",
              "--grammar", "horizon,horizon+blob"]
MODEL_ARGS = ["--T", "100", "--batch", "64", "--lr", "0.001", "--cond-dropout", "0.1",
              "--lambda-cat", "5", "--loss", "vlb", "--hidden", "256", "--blocks", "4",
              "--label-emb", "3", "--time-emb", "16", "--cond-emb", "8"]
N_PARAMS = 680_556
LAMBDA_CAT = 5.0
N_TRAIN_SCENES = 4096
N_HELDOUT = 256

SETUP_REPS = 5
SETUP_TRAIN_STEPS = 30
TRAIN_STEPS = 100
LOG_EVERY = 10
SAMPLE_COUNT = 64
STRIDE = 100
GUIDE_W = 2
OUTPAINT_COUNT = 32
CHECK_COUNT = 8

BOUND_RNG_SEED = 10_000
# Training for TRAIN_STEPS cuts the held-out bound to well under 1% of its
# value at the initial parameters on every seed tried; 10% leaves a wide margin.
MAX_BOUND_RATIO = 0.1

# (metric suffix, layer, field of the layer's per-operation totals, unit)
LAYER_METRICS = (
    ("denoiser.forward_ms", "denoiser.forward", "self_ms", "ms"),
    ("denoiser.forward_calls", "denoiser.forward", "calls", "count"),
    ("denoiser.forward_rows", "denoiser.forward", "rows", "count"),
    ("denoiser.forward_gflop", "denoiser.forward", "gflop", "GFLOP"),
    ("denoiser.backward_ms", "denoiser.backward", "self_ms", "ms"),
    ("denoiser.backward_calls", "denoiser.backward", "calls", "count"),
    ("training.loss_ms", "training.loss", "self_ms", "ms"),
    ("training.adam_ms", "training.adam", "self_ms", "ms"),
    ("process.posterior_ms", "process.posterior", "self_ms", "ms"),
    ("process.posterior_calls", "process.posterior", "calls", "count"),
    ("distribution.draw_ms", "distribution.draw", "self_ms", "ms"),
    ("distribution.draw_calls", "distribution.draw", "calls", "count"),
    ("process.marginal_ms", "process.marginal", "self_ms", "ms"),
    ("process.renoise_ms", "process.renoise", "self_ms", "ms"),
    ("sampler.self_ms", "sampler", "self_ms", "ms"),
    ("io.checkpoint_write_ms", "io.checkpoint_write", "self_ms", "ms"),
    ("io.checkpoint_read_ms", "io.checkpoint_read", "self_ms", "ms"),
    ("io.checkpoint_bytes", "io.checkpoint_write", "bytes", "bytes"),
    ("io.dataset_read_ms", "io.dataset_read", "self_ms", "ms"),
    ("io.pgm_write_ms", "io.pgm_write", "self_ms", "ms"),
    ("io.pgm_files", "io.pgm_write", "calls", "count"),
    ("scenes.generate_ms", "scenes.generate", "self_ms", "ms"),
    ("cli.self_ms", CLI_LAYER, "self_ms", "ms"),
)


# The layers that run in one workload and in no other: the training step's
# backward pass, loss and Adam, or the reverse chain's loop, posterior,
# marginals and re-noising.
WORKLOAD_LAYERS = ("denoiser.backward", "training.loss", "training.adam", "sampler",
                   "process.posterior", "process.marginal", "process.renoise")

# The per-layer metrics of the result line. Every workload runs each of these
# layers, so each metric is measured on every workload. A metric is the total
# over the calls of one traced round, median over the traced rounds.
# (metric, layers summed, field of the layer totals, unit)
ROUND_METRICS = (
    ("denoiser.forward_ms", ("denoiser.forward",), "self_ms", "ms"),
    ("denoiser.forward_calls", ("denoiser.forward",), "calls", "count"),
    ("denoiser.forward_rows", ("denoiser.forward",), "rows", "count"),
    ("denoiser.forward_gflop", ("denoiser.forward",), "gflop", "GFLOP"),
    ("distribution.draw_ms", ("distribution.draw",), "self_ms", "ms"),
    ("distribution.draw_calls", ("distribution.draw",), "calls", "count"),
    ("io.read_ms", ("io.checkpoint_read", "io.dataset_read"), "self_ms", "ms"),
    ("io.write_ms", ("io.checkpoint_write", "io.pgm_write"), "self_ms", "ms"),
    ("cli.self_ms", (CLI_LAYER,), "self_ms", "ms"),
    ("workload_layers_ms", WORKLOAD_LAYERS, "self_ms", "ms"),
)


class SetupFailed(Exception):
    pass


@dataclass(frozen=True)
class Seeds:
    data: int
    heldout: int
    train: int
    gen: int
    cond: int


def derive_seeds(seed: int) -> Seeds:
    """Every input of a run comes from these; the held-out scenes use a seed
    that training never sees."""
    rng = np.random.default_rng(seed)
    data, heldout, train, gen = (int(v) for v in rng.choice(2**31, size=4, replace=False))
    n_conds = SceneConfig(height=HEIGHT, width=WIDTH, n_classes=N_CLASSES).n_conds
    return Seeds(data, heldout, train, gen, int(rng.integers(n_conds)))


@dataclass
class Phase:
    """One kind of operation: a CLI call repeated once per round."""

    name: str
    metric: str
    unit: str
    items: int  # steps or samples per operation
    argv: list[str]
    out: Path
    check: Callable[[Path], None]
    digest: str | None = None
    walls: list[float] = field(default_factory=list)
    untraced_walls: list[float] = field(default_factory=list)


class Runner:
    def __init__(self, tracer: Tracer | None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def cli(self, argv, trace_op=None) -> tuple[int | None, float, str]:
        """Call `gcdp <argv>` in this process, traced as operation trace_op
        if given; return (exit code, or None if it raised; seconds; output)."""
        argv = [str(a) for a in argv]
        out = io.StringIO()
        traced = self.tracer is not None and trace_op is not None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                if traced:
                    with self.tracer.operation(*trace_op), self.tracer.span(CLI_LAYER):
                        rc = cli.main(argv)
                else:
                    rc = cli.main(argv)
        except Exception:
            rc = None
            out.write(traceback.format_exc())
        return rc, time.perf_counter() - t0, out.getvalue()

    def check_call(self, argv, what: str):
        """A CLI call made only to check outputs; it must succeed."""
        rc, _, text = self.cli(argv)
        if rc != 0:
            raise CheckFailed(f"{what}: gcdp {argv[0]} exited with {rc}: {text.strip()[-300:]}")

    def operation(self, phase: Phase, trace_op=None) -> float | None:
        """One counted operation with its output checks; its wall time, or
        None if it failed."""
        self.attempted += 1
        rc, wall, text = self.cli(phase.argv, trace_op)
        if rc != 0:
            self.failed += 1
            self.problems.append(f"{phase.name}: gcdp exited with {rc}: {text.strip()[-300:]}")
            return None
        try:
            phase.check(phase.out)
            digest = tree_digest(phase.out)
            if phase.digest is None:
                phase.digest = digest
            elif digest != phase.digest:
                raise CheckFailed(f"{phase.out}: files differ from an earlier call with the same seed")
        except Exception as e:  # a malformed output fails its check, not the run
            self.problems.append(f"check failed: {phase.name}: {type(e).__name__}: {e}")
        return wall


def setup(runner: Runner, root: Path, seeds: Seeds, with_model: bool, trace_op) -> dict:
    data, heldout, model = root / "data", root / "heldout", root / "model"
    calls = [
        ["generate-data", *SCENE_ARGS, "--count", N_TRAIN_SCENES, "--seed", seeds.data, "--out", data],
        ["generate-data", *SCENE_ARGS, "--count", N_HELDOUT, "--seed", seeds.heldout, "--out", heldout],
    ]
    if with_model:
        calls.append(["train", "--data", data / "dataset.gcds", *MODEL_ARGS, "--steps", SETUP_TRAIN_STEPS,
                      "--log-every", LOG_EVERY, "--seed", seeds.train, "--out", model])
    for argv in calls:
        rc, _, text = runner.cli(argv, trace_op)
        if rc != 0:
            raise SetupFailed(f"set-up call gcdp {argv[0]} exited with {rc}: {text.strip()[-500:]}")
    return {"data": data / "dataset.gcds", "heldout": heldout / "dataset.gcds", "ckpt": model / "model.gcdp"}


def train_phases(work: Path, files: dict, seeds: Seeds) -> tuple[list[Phase], Callable]:
    out = work / "train"

    def check(out_dir: Path):
        check_loss_trace(out_dir / "loss_trace.txt", TRAIN_STEPS, LOG_EVERY)

    phase = Phase(
        "train", "train_steps_per_s", "steps/s", TRAIN_STEPS,
        ["train", "--data", files["data"], *MODEL_ARGS, "--steps", TRAIN_STEPS, "--log-every", LOG_EVERY,
         "--seed", seeds.train, "--out", out],
        out, check,
    )

    def final(runner: Runner, info: dict):
        init = work / "init"
        runner.check_call(["train", "--data", files["data"], *MODEL_ARGS, "--steps", 0,
                           "--seed", seeds.train, "--out", init], "initial-parameter checkpoint")
        n_params = gio.load_checkpoint(out / "model.gcdp").model.n_params
        if n_params != N_PARAMS:
            raise CheckFailed(f"model has {n_params} parameters, expected {N_PARAMS}")
        b0 = heldout_bound(init / "model.gcdp", files["heldout"], LAMBDA_CAT, BOUND_RNG_SEED)
        b1 = heldout_bound(out / "model.gcdp", files["heldout"], LAMBDA_CAT, BOUND_RNG_SEED)
        info["heldout_bound"] = {"initial": b0, "trained": b1, "steps": TRAIN_STEPS}
        check_bound_fell(b0, b1, MAX_BOUND_RATIO)

    return [phase], final


def sample_phases(work: Path, files: dict, seeds: Seeds) -> tuple[list[Phase], Callable]:
    def checker(cond):
        def check(out_dir: Path):
            _, layouts = read_samples_dir(out_dir, SAMPLE_COUNT, HEIGHT, WIDTH, cond)
            check_labels(layouts, N_CLASSES, str(out_dir))
        return check

    base = ["sample", "--ckpt", files["ckpt"], "--count", SAMPLE_COUNT, "--stride", STRIDE, "--seed", seeds.gen]
    phases = [
        Phase("unguided", "samples_per_s", "samples/s", SAMPLE_COUNT,
              [*base, "--cond", -1, "--out", work / "unguided"], work / "unguided", checker(-1)),
        Phase("guided", "guided_samples_per_s", "samples/s", SAMPLE_COUNT,
              [*base, "--cond", seeds.cond, "--guidance-w", GUIDE_W, "--out", work / "guided"],
              work / "guided", checker(seeds.cond)),
    ]

    def final(runner: Runner, info: dict):
        # w = 0 is the unconditional prediction, so guided sampling at w = 0
        # must reproduce unguided sampling from the same seed exactly.
        short = ["sample", "--ckpt", files["ckpt"], "--count", CHECK_COUNT, "--stride", STRIDE,
                 "--seed", seeds.gen + 1]
        runner.check_call([*short, "--cond", -1, "--out", work / "w_ref"], "unguided reference")
        runner.check_call([*short, "--cond", seeds.cond, "--guidance-w", 0, "--out", work / "w0"], "guided at w=0")
        ref = read_samples_dir(work / "w_ref", CHECK_COUNT, HEIGHT, WIDTH, -1)
        w0 = read_samples_dir(work / "w0", CHECK_COUNT, HEIGHT, WIDTH, seeds.cond)
        check_equal(w0[0], ref[0], "images of guided sampling at w=0 against unguided")
        check_equal(w0[1], ref[1], "layouts of guided sampling at w=0 against unguided")

    return phases, final


def outpaint_phases(work: Path, files: dict, seeds: Seeds) -> tuple[list[Phase], Callable]:
    _, known = gio.load_dataset(files["heldout"])
    known = known[:OUTPAINT_COUNT]
    known_img = np.stack([gio.image_to_u8(s.sample.x) for s in known])
    known_lay = np.stack([s.sample.y for s in known]).astype(np.uint8)
    conds = np.array([s.cond for s in known])

    def check_i2l(out_dir: Path):
        images, layouts = read_samples_dir(out_dir, OUTPAINT_COUNT, HEIGHT, WIDTH, conds)
        check_equal(images, known_img, f"{out_dir}: known images")
        check_labels(layouts, N_CLASSES, f"{out_dir}: generated layouts")

    def check_l2i(out_dir: Path):
        _, layouts = read_samples_dir(out_dir, OUTPAINT_COUNT, HEIGHT, WIDTH, conds)
        check_equal(layouts, known_lay, f"{out_dir}: known layouts")

    base = ["outpaint", "--ckpt", files["ckpt"], "--known", files["heldout"], "--count", OUTPAINT_COUNT,
            "--seed", seeds.gen]
    phases = [
        Phase("image_to_layout", "image_to_layout_per_s", "items/s", OUTPAINT_COUNT,
              [*base, "--mask-mode", "layout", "--resample-n", 1, "--out", work / "image_to_layout"],
              work / "image_to_layout", check_i2l),
        Phase("layout_to_image", "layout_to_image_per_s", "items/s", OUTPAINT_COUNT,
              [*base, "--mask-mode", "image", "--resample-n", 5, "--out", work / "layout_to_image"],
              work / "layout_to_image", check_l2i),
    ]
    return phases, lambda runner, info: None


WORKLOADS = {"train": train_phases, "sample": sample_phases, "outpaint": outpaint_phases}


def layer_metrics(per_op: dict, phase: str, items: int | None) -> dict:
    """Median over the phase's traced operations of each layer total, and
    forward rows per item (per sample, or per step when training)."""
    ops = [layers for (p, _), layers in per_op.items() if p == phase]
    metrics = {}
    for suffix, layer, key, unit in LAYER_METRICS:
        values = [layers[layer][key] for layers in ops if key in layers.get(layer, {})]
        if values:
            metrics[f"{phase}.{suffix}"] = {"value": statistics.median(values), "unit": unit}
    rows = metrics.get(f"{phase}.denoiser.forward_rows")
    if items and rows:
        metrics[f"{phase}.denoiser.forward_rows_per_item"] = {"value": rows["value"] / items, "unit": "rows/item"}
    return metrics


def round_metrics(per_op: dict, phases: list[Phase]) -> dict:
    """The result line's per-layer metrics: each ROUND_METRICS total over the
    calls of one traced round, median over the rounds; forward rows per item
    and forward GFLOP/s from those; and the median scene generation time of
    a set-up."""
    names = {p.name for p in phases}
    rounds: dict = {}
    for (phase, index), layers in per_op.items():
        if phase in names:
            rounds.setdefault(index, []).append(layers)
    totals = {name: [] for name, *_ in ROUND_METRICS}
    for calls in rounds.values():
        for name, group, key, _ in ROUND_METRICS:
            totals[name].append(sum(layers.get(layer, {}).get(key, 0) for layers in calls for layer in group))
    metrics = {name: {"value": statistics.median(totals[name]), "unit": unit}
               for name, _, _, unit in ROUND_METRICS if totals[name]}
    if "denoiser.forward_rows" in metrics:
        items = sum(p.items for p in phases)
        metrics["denoiser.forward_rows_per_item"] = {
            "value": metrics["denoiser.forward_rows"]["value"] / items, "unit": "rows/item"}
        rates = [g / (1e-3 * ms) for g, ms in zip(totals["denoiser.forward_gflop"], totals["denoiser.forward_ms"])
                 if ms > 0]
        if rates:
            metrics["denoiser.forward_gflop_per_s"] = {"value": statistics.median(rates), "unit": "GFLOP/s"}
    generate = [layers["scenes.generate"]["self_ms"] for (phase, _), layers in per_op.items()
                if phase == "setup" and "scenes.generate" in layers]
    if generate:
        metrics["setup.scenes.generate_ms"] = {"value": statistics.median(generate), "unit": "ms"}
    return metrics


def machine_info(threads: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "threads": threads,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas": blas,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, threads: int) -> int:
    tracer = Tracer() if trace else None
    runner = Runner(tracer)
    seeds = derive_seeds(seed)
    work = HERE / "_work" / f"{workload}-seed{seed}-pid{os.getpid()}"
    info = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "machine": machine_info(threads)}
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup_walls = []

        def setup_rep() -> dict:
            i = len(setup_walls)
            t0 = time.perf_counter()
            files = setup(runner, work / f"setup{i}", seeds, workload != "train", ("setup", i))
            setup_walls.append(time.perf_counter() - t0)
            return files

        files = setup_rep()
        phases, final = WORKLOADS[workload](work, files, seeds)
        for p in phases:  # warm-up round: fills caches, records the reference digests
            runner.operation(p)
        start = time.perf_counter()
        deadline = start + seconds
        rounds = 0
        round_walls = []

        def later_setup_rep():
            setup_rep()
            shutil.rmtree(work / f"setup{len(setup_walls) - 1}")

        while True:
            # The other set-ups run between rounds at even intervals, the
            # last at the end, so that their median spans the run like the
            # rates do instead of a few seconds at its start.
            if len(setup_walls) < SETUP_REPS and \
                    time.perf_counter() >= start + len(setup_walls) * seconds / (SETUP_REPS - 1):
                later_setup_rep()
            traced = trace and rounds % 2 == 0
            walls = []
            for p in phases:
                wall = runner.operation(p, (p.name, rounds) if traced else None)
                if wall is not None:
                    (p.walls if traced or not trace else p.untraced_walls).append(wall)
                    walls.append(wall)
            if len(walls) == len(phases):
                round_walls.append(sum(walls))
            rounds += 1
            if time.perf_counter() >= deadline and (rounds >= 2 or not trace):
                break
        while len(setup_walls) < SETUP_REPS:
            later_setup_rep()
        try:
            final(runner, info)
        except Exception as e:
            runner.problems.append(f"check failed: {type(e).__name__}: {e}")
    except SetupFailed as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # Each workload's own phases and layers differ, so the result line holds
    # only metrics that every workload measures; the lines before it also give
    # each phase's rate or layer totals under the phase's name.
    if trace:
        per_op = tracer.per_op()
        details = layer_metrics(per_op, "setup", None)
        for p in phases:
            details.update(layer_metrics(per_op, p.name, p.items))
        metrics = round_metrics(per_op, phases)
        info["trace_overhead_pct"] = {
            p.name: 100.0 * (statistics.median(p.walls) / statistics.median(p.untraced_walls) - 1.0)
            for p in phases if p.walls and p.untraced_walls
        }
        info["absent_layers"] = sorted(tracer.absent)
    else:
        metrics = {"setup_s": {"value": statistics.median(setup_walls), "unit": "s"},
                   "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                                   "unit": "MB"}}
        if round_walls:
            # medians, so that a burst of load on the host moves few rounds
            metrics["items_per_s"] = {"value": sum(p.items for p in phases) / statistics.median(round_walls),
                                      "unit": "items/s"}
        details = {p.metric: {"value": p.items / statistics.median(p.walls), "unit": p.unit}
                   for p in phases if p.walls}
    info.update(rounds=rounds, setup_walls_s=setup_walls, problems=runner.problems,
                walls_s={p.name: p.walls for p in phases}, round_walls_s=round_walls)
    if trace:
        trace_dir = HERE / "_traces"
        trace_dir.mkdir(exist_ok=True)
        path = trace_dir / f"{workload}-seed{seed}.json"
        path.write_text(json.dumps({"info": info, **tracer.to_json()}), encoding="utf-8")
        info["trace_file"] = str(path.relative_to(HERE.parent))

    print(json.dumps({"info": info}))
    for name, m in {**details, **metrics}.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    for problem in runner.problems:
        print(problem, file=sys.stderr)
    correct = not any(p.startswith("check failed") for p in runner.problems)
    print(json.dumps({"correct": correct, "attempted": runner.attempted, "failed": runner.failed,
                      "metrics": metrics}))
    return 0
