"""Command-line entry points and run configuration.

Commands: generate-data | train | sample | outpaint | evaluate | verify.
Every command accepts --config PATH (flat UTF-8 key=value lines, '#'
comments, unknown keys rejected), --seed, and --out DIR; explicit flags
override config-file values, which override the built-in defaults. Each
artifact-producing command writes the merged configuration back to
<out>/config.txt in canonical form.

Exit codes: 0 success, 1 usage error, 2 validation failure (including
malformed files), 3 numerical failure (including failed verify oracles).
"""

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import io as gio
from .denoiser import DenoiserConfig, ReferenceDenoiser
from .distribution import ShapeSpec
from .errors import NumericalError, UsageError, ValidationError
from .metrics import EvalReport, fsd, joint_tv, miou, semantic_f, semantic_precision, semantic_recall
from .sampler import GuidanceConfig, default_stride, outpaint_batch, sample_batch
from .scenes import SceneConfig, generate, oracle_segment
from .schedules import cosine_schedule
from .training import TrainConfig, train


@dataclass(frozen=True)
class Key:
    name: str
    type: type
    default: object
    help: str = ""


SHARED = (
    Key("seed", int, 0, "random seed"),
    Key("out", str, "out", "output directory"),
)

SCHEMAS: dict[str, tuple[Key, ...]] = {
    "generate-data": SHARED + (
        Key("height", int, 8, "scene height in pixels"),
        Key("width", int, 8, "scene width in pixels"),
        Key("classes", int, 4, "number of label classes"),
        Key("sigma_data", float, 0.05, "texture noise level"),
        Key("palette", str, "", "comma-separated levels in [-1,1]; empty = evenly spaced"),
        Key("grammar", str, "horizon,horizon+blob", "comma-separated scene types"),
        Key("count", int, 512, "number of samples"),
    ),
    "train": SHARED + (
        Key("data", str, "", "dataset file from generate-data"),
        Key("steps", int, 20000, "optimizer steps"),
        Key("batch", int, 64, "batch size"),
        Key("lr", float, 1e-3, "learning rate"),
        Key("cond_dropout", float, 0.1, "condition dropout probability"),
        Key("lambda_cat", float, 1.0, "categorical loss weight"),
        Key("loss", str, "vlb", "loss mode: vlb | simple"),
        Key("p_power", float, 1.0, "categorical-noise exponent beta_cat = beta_gauss**p"),
        Key("T", int, 1000, "diffusion steps"),
        Key("cosine_s", float, 0.008, "cosine schedule offset"),
        Key("hidden", int, 256, "trunk width"),
        Key("blocks", int, 4, "residual blocks"),
        Key("label_emb", int, 3, "label embedding width"),
        Key("time_emb", int, 16, "time embedding width"),
        Key("cond_emb", int, 8, "condition embedding width"),
        Key("log_every", int, 100, "loss trace interval"),
    ),
    "sample": SHARED + (
        Key("ckpt", str, "", "checkpoint file from train"),
        Key("count", int, 16, "number of samples"),
        Key("guidance_w", float, 1.0, "guidance scale; 1 = purely conditional"),
        Key("stride", int, 100, "number of sampling steps (subset of 1..T)"),
        Key("cond", int, -1, "condition ID; -1 = unconditional"),
    ),
    "outpaint": SHARED + (
        Key("ckpt", str, "", "checkpoint file from train"),
        Key("known", str, "", "dataset file holding the known samples"),
        Key("mask_mode", str, "layout", "layout | image | file (which part is generated)"),
        Key("mask", str, "", "mask file for mask_mode=file"),
        Key("resample_n", int, 1, "inner resampling iterations per timestep"),
        Key("guidance_w", float, 1.0, "guidance scale"),
        Key("cond", int, -1, "condition override; -1 = use each sample's own"),
        Key("count", int, 0, "samples to outpaint; 0 = all"),
    ),
    "evaluate": SHARED + (
        Key("samples", str, "", "directory with a manifest from sample/outpaint"),
        Key("data", str, "", "reference dataset file"),
    ),
    "verify": SHARED + (
        Key("fast", bool, False, "reduced case counts for smoke testing"),
    ),
}


def _parse_value(key: Key, raw: str):
    raw = raw.strip()
    try:
        if key.type is bool:
            if raw not in ("true", "false"):
                raise ValueError(raw)
            return raw == "true"
        return key.type(raw)
    except ValueError:
        raise UsageError(f"key '{key.name}' expects {key.type.__name__}, got {raw!r}") from None


def parse_config_text(text: str, command: str) -> dict:
    schema = {k.name: k for k in SCHEMAS[command]}
    out = {}
    for ln, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        name, sep, raw = line.partition("=")
        name = name.strip()
        if not sep:
            raise UsageError(f"config line {ln}: expected key=value, got {line!r}")
        if name not in schema:
            raise UsageError(f"config line {ln}: unknown key '{name}' for command {command}")
        out[name] = _parse_value(schema[name], raw)
    return out


def canonical_config_text(cfg: dict, command: str) -> str:
    return "".join(f"{k.name}={gio.format_value(cfg[k.name])}\n" for k in SCHEMAS[command])


def merged_config(command: str, args: argparse.Namespace) -> dict:
    cfg = {k.name: k.default for k in SCHEMAS[command]}
    if args.config:
        cfg.update(parse_config_text(Path(args.config).read_text(encoding="utf-8"), command))
    for k in SCHEMAS[command]:
        v = getattr(args, k.name, None)
        if v is not None:
            cfg[k.name] = v
    return cfg


def _out_dir(cfg: dict, command: str) -> Path:
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.txt").write_text(canonical_config_text(cfg, command), encoding="utf-8")
    return out


def _require(cfg: dict, key: str) -> str:
    if not cfg[key]:
        raise UsageError(f"--{key.replace('_', '-')} is required")
    return cfg[key]


def _parse_palette(raw: str, n_classes: int) -> tuple[float, ...]:
    if not raw:
        return ()
    try:
        values = tuple(float(v) for v in raw.split(","))
    except ValueError:
        raise UsageError(f"palette must be comma-separated floats, got {raw!r}") from None
    if len(values) != n_classes:
        raise ValidationError(f"palette lists {len(values)} levels for {n_classes} classes")
    return values


def cmd_generate_data(cfg: dict) -> int:
    scene = SceneConfig(
        height=cfg["height"],
        width=cfg["width"],
        n_classes=cfg["classes"],
        palette=_parse_palette(cfg["palette"], cfg["classes"]),
        sigma_data=cfg["sigma_data"],
        grammar=tuple(cfg["grammar"].split(",")),
        seed=cfg["seed"],
    )
    arrays = generate(scene, cfg["count"])
    out = _out_dir(cfg, "generate-data")
    path = out / "dataset.gcds"
    gio.save_dataset(path, scene, arrays)
    print(f"wrote {cfg['count']} samples to {path}")
    return 0


def cmd_train(cfg: dict) -> int:
    scene, data = gio.load_dataset_arrays(_require(cfg, "data"))
    sched = cosine_schedule(cfg["T"], cfg["cosine_s"], cfg["p_power"])
    shape = ShapeSpec(n_gauss=scene.n_pixels, n_cat=scene.n_pixels, n_classes=scene.n_classes)
    dcfg = DenoiserConfig(
        shape=shape,
        n_conds=scene.n_conds,
        hidden=cfg["hidden"],
        n_blocks=cfg["blocks"],
        label_emb_dim=cfg["label_emb"],
        time_emb_dim=cfg["time_emb"],
        cond_emb_dim=cfg["cond_emb"],
    )
    model = ReferenceDenoiser.init(dcfg, seed=cfg["seed"])
    tc = TrainConfig(
        steps=cfg["steps"],
        batch_size=cfg["batch"],
        lr=cfg["lr"],
        cond_dropout=cfg["cond_dropout"],
        lambda_cat=cfg["lambda_cat"],
        loss_mode=cfg["loss"],
        seed=cfg["seed"],
        log_every=cfg["log_every"],
    )
    model, _, trace = train(data, model, sched, tc)
    out = _out_dir(cfg, "train")
    ck = gio.Checkpoint(
        model=model, sched=sched, train_steps=cfg["steps"], seed=cfg["seed"],
        height=scene.height, width=scene.width,
    )
    gio.save_checkpoint(out / "model.gcdp", ck)
    gio.save_trace(out / "loss_trace.txt", trace)
    last = trace[-1][1] if trace else float("nan")
    print(f"trained {cfg['steps']} steps ({model.n_params} params), final loss {last:.4f}")
    print(f"wrote {out / 'model.gcdp'}")
    return 0


def _write_samples(out: Path, images: np.ndarray, layouts: np.ndarray, conds, height: int, width: int):
    rows = []
    for i in range(images.shape[0]):
        img_name = f"sample_{i:04d}_image.pgm"
        lay_name = f"sample_{i:04d}_layout.pgm"
        gio.write_pgm(out / img_name, gio.image_to_u8(images[i]).reshape(height, width))
        gio.write_pgm(out / lay_name, layouts[i].astype(np.uint8).reshape(height, width))
        rows.append((i, img_name, lay_name, int(conds[i])))
    gio.write_manifest(out / "manifest.txt", rows)


def cmd_sample(cfg: dict) -> int:
    ck = gio.load_checkpoint(_require(cfg, "ckpt"))
    if cfg["count"] < 1 or cfg["cond"] < -1:
        raise ValidationError("count must be >= 1 and cond >= -1 (-1 = unconditional)")
    steps = default_stride(ck.sched.total_steps, cfg["stride"])
    conds = np.full(cfg["count"], cfg["cond"], dtype=np.int64)
    guidance = GuidanceConfig(scale=cfg["guidance_w"], enabled=cfg["cond"] >= 0)
    rng = np.random.default_rng(cfg["seed"])
    images, layouts = sample_batch(ck.model, ck.sched, conds, guidance, steps, rng)
    out = _out_dir(cfg, "sample")
    _write_samples(out, images, layouts, conds, ck.height, ck.width)
    print(f"wrote {cfg['count']} samples to {out} ({len(steps)} of {ck.sched.total_steps} steps)")
    return 0


def _build_mask(mode: str, mask_path: str, n: int, m: int) -> np.ndarray:
    if mode == "layout":  # generate the layout; the image is known
        return np.concatenate([np.ones(n, bool), np.zeros(m, bool)])
    if mode == "image":  # generate the image; the layout is known
        return np.concatenate([np.zeros(n, bool), np.ones(m, bool)])
    if mode == "file":
        if not mask_path:
            raise UsageError("--mask is required with mask-mode=file")
        mask = gio.load_mask(mask_path)
        if mask.shape != (n + m,):
            raise ValidationError(f"mask length {mask.shape[0]} does not match N+M={n + m}")
        return mask
    raise UsageError(f"unknown mask mode {mode!r}")


def cmd_outpaint(cfg: dict) -> int:
    ck = gio.load_checkpoint(_require(cfg, "ckpt"))
    if cfg["count"] < 0 or cfg["cond"] < -1:
        raise ValidationError("count must be >= 0 (0 = all) and cond >= -1 (-1 = each sample's own)")
    scene, (known_x, known_y, conds) = gio.load_dataset_arrays(_require(cfg, "known"))
    shape = ck.model.config.shape
    if (scene.height, scene.width, scene.n_classes) != (ck.height, ck.width, shape.n_classes):
        raise ValidationError(
            f"the known set's scenes are {scene.width}x{scene.height} with K={scene.n_classes}, "
            f"but the checkpoint's are {ck.width}x{ck.height} with K={shape.n_classes}"
        )
    n_known = known_x.shape[0]
    count = cfg["count"] if cfg["count"] > 0 else n_known
    if count > n_known:
        raise ValidationError(f"requested {count} samples but the known file holds {n_known}")
    known_x, known_y, conds = known_x[:count], known_y[:count], conds[:count]
    mask = _build_mask(cfg["mask_mode"], cfg["mask"], shape.n_gauss, shape.n_cat)
    if cfg["cond"] >= 0:
        conds = np.full(count, cfg["cond"], dtype=np.int64)
    guidance = GuidanceConfig(scale=cfg["guidance_w"], enabled=bool(np.all(conds >= 0)))
    rng = np.random.default_rng(cfg["seed"])
    images, layouts = outpaint_batch(
        ck.model, ck.sched, known_x, known_y, mask, cfg["resample_n"], conds, guidance, rng
    )
    out = _out_dir(cfg, "outpaint")
    _write_samples(out, images, layouts, conds, ck.height, ck.width)
    print(f"outpainted {count} samples ({cfg['mask_mode']} mode, n={cfg['resample_n']}) to {out}")
    return 0


def _load_sample_dir(samples_dir: Path, scene: SceneConfig | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(images, layouts, conds) of the manifest's rows; every PGM must have
    the size of the first. Given the dataset's scene, that size must be the
    scene's, and every condition must lie in -1..scene.n_conds-1."""
    rows = gio.read_manifest(samples_dir / "manifest.txt", None if scene is None else scene.n_conds)
    paths = [samples_dir / name for _, img_name, lay_name, _ in rows for name in (img_name, lay_name)]
    pgms = [gio.read_pgm(path) for path in paths]
    h, w = pgms[0].shape
    if scene is not None and (h, w) != (scene.height, scene.width):
        raise ValidationError(f"{paths[0]}: {w}x{h} PGM, but the dataset's scenes are {scene.width}x{scene.height}")
    for path, pgm in zip(paths, pgms):
        if pgm.shape != (h, w):
            raise ValidationError(f"{path}: {pgm.shape[1]}x{pgm.shape[0]} PGM, expected {w}x{h} as in {paths[0].name}")
    pixels = np.stack(pgms).reshape(len(rows), 2, h * w)
    conds = np.array([cond for *_, cond in rows], dtype=np.int64)
    return gio.u8_to_image(pixels[:, 0]), pixels[:, 1].astype(np.int64), conds


def evaluate_samples(
    images: np.ndarray, layouts: np.ndarray, conds: np.ndarray, scene: SceneConfig, ref_layouts: np.ndarray
) -> EvalReport:
    n = images.shape[0]
    seg = oracle_segment(images, scene)
    align = float(np.mean([miou(layouts[i], seg[i], scene.n_classes) for i in range(n)]))
    fsd_val = fsd(layouts, ref_layouts, scene.n_classes)
    try:
        tv = joint_tv(layouts, scene)
    except ValidationError:
        tv = float("nan")
    if np.all(conds >= 0):
        # seg and the layouts are label maps already: np.asarray segments them as they are
        gts = [scene.class_sets[c] for c in conds]
        recall, table = semantic_recall(list(zip(seg, gts)), np.asarray)
        precision = semantic_precision(list(zip(seg, gts)), np.asarray)
        recall_layout, _ = semantic_recall(list(zip(layouts, gts)), np.asarray)
    else:
        recall = precision = recall_layout = float("nan")
        table = {}
    f = semantic_f(recall, precision) if np.isfinite(recall) else float("nan")
    return EvalReport(
        semantic_recall=recall,
        semantic_precision=precision,
        semantic_f=f,
        fsd=fsd_val,
        miou=align,
        tv_distance=tv,
        per_class_recall=table,
        semantic_recall_layout=recall_layout,
    )


def cmd_evaluate(cfg: dict) -> int:
    scene, (_, ref_layouts, _) = gio.load_dataset_arrays(_require(cfg, "data"))
    images, layouts, conds = _load_sample_dir(Path(_require(cfg, "samples")), scene)
    report = evaluate_samples(images, layouts, conds, scene, ref_layouts)
    out = _out_dir(cfg, "evaluate")
    text = gio.report_to_text(report)
    (out / "report.txt").write_text(text, encoding="utf-8")
    print(text, end="")
    return 0


def cmd_verify(cfg: dict) -> int:
    # The oracle stack pulls in scipy.integrate; no other command needs it.
    from .verify import run_all

    results = run_all(seed=cfg["seed"], fast=cfg["fast"])
    lines = [r.line() for r in results]
    print("\n".join(lines))
    if cfg["out"]:
        out = Path(cfg["out"])
        out.mkdir(parents=True, exist_ok=True)
        (out / "verify_report.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    if all(r.ok for r in results):
        print(f"all {len(results)} oracle checks passed")
        return 0
    raise NumericalError(f"{sum(not r.ok for r in results)} oracle check(s) failed")


COMMANDS = {
    "generate-data": cmd_generate_data,
    "train": cmd_train,
    "sample": cmd_sample,
    "outpaint": cmd_outpaint,
    "evaluate": cmd_evaluate,
    "verify": cmd_verify,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gcdp", description="Joint image-layout diffusion engine")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    for command, schema in SCHEMAS.items():
        p = sub.add_parser(command, help=f"{command} command")
        p.add_argument("--config", type=str, default=None, help="key=value config file")
        for k in schema:
            flag = "--" + k.name.replace("_", "-")
            if k.type is bool:
                p.add_argument(flag, dest=k.name, action="store_const", const=True, default=None, help=k.help)
            else:
                p.add_argument(flag, dest=k.name, type=k.type, default=None, help=k.help)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.command:
            parser.print_help()
            return 1
        cfg = merged_config(args.command, args)
        return COMMANDS[args.command](cfg)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except ValidationError as e:
        print(f"validation failure: {e}", file=sys.stderr)
        return 2
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3
    except FileNotFoundError as e:
        print(f"validation failure: missing file {e.filename}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
