"""Persistent formats: binary containers, PGM export, and text configs.

Binary containers share one discipline: a 4-byte magic, a u16 format
version, little-endian fixed-width integers, length-prefixed arrays
(u32 count, then payload), 32-bit IEEE-754 floats for numeric data, u16
for label data, and a trailing CRC-32 over every preceding byte. Readers
verify the checksum before parsing and report malformed content with the
byte offset and field name.

Checkpoints (format version 2) store both noise schedules as 64-bit
floats and the flat parameter and optimizer arrays as 32-bit floats, the
dtype the denoiser trains in, so a loaded checkpoint reproduces the saved
float32 model exactly. Loading builds the model directly on the stored
arrays. Datasets and masks keep format version 1.

Images are exported as binary PGM (P5, maxval 255) with pixel values
mapped linearly from [-1, 1]; layouts as P5 with the pixel value equal to
the 1-based class index. A samples directory carries a plain-text
manifest mapping each sample index to its image file, layout file, and
condition ID.
"""

import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .denoiser import DenoiserConfig, ReferenceDenoiser
from .distribution import JointSample, ShapeSpec
from .errors import FormatError, ValidationError
from .metrics import EvalReport
from .scenes import SCENE_TYPES, SceneConfig, SceneSample
from .schedules import NoiseSchedule
from .training import AdamState

CHECKPOINT_MAGIC = b"GCDP"
DATASET_MAGIC = b"GCDS"
MASK_MAGIC = b"GCMK"
FORMAT_VERSION = 1  # datasets and masks
CHECKPOINT_VERSION = 2


class Writer:
    def __init__(self):
        self.buf = bytearray()

    def raw(self, data: bytes):
        self.buf += data

    def u8(self, v: int):
        self.buf += struct.pack("<B", v)

    def u16(self, v: int):
        self.buf += struct.pack("<H", v)

    def u32(self, v: int):
        self.buf += struct.pack("<I", v)

    def u64(self, v: int):
        self.buf += struct.pack("<Q", v)

    def f32(self, v: float):
        self.buf += struct.pack("<f", v)

    def f32_array(self, arr: np.ndarray):
        arr = np.ascontiguousarray(arr, dtype="<f4")
        self.u32(arr.size)
        self.buf += arr.tobytes()

    def f64_array(self, arr: np.ndarray):
        arr = np.ascontiguousarray(arr, dtype="<f8")
        self.u32(arr.size)
        self.buf += arr.tobytes()

    def u16_array(self, arr: np.ndarray):
        arr = np.ascontiguousarray(arr, dtype="<u2")
        self.u32(arr.size)
        self.buf += arr.tobytes()

    def finish(self) -> bytes:
        crc = zlib.crc32(bytes(self.buf)) & 0xFFFFFFFF
        return bytes(self.buf) + struct.pack("<I", crc)


class Reader:
    def __init__(self, data: bytes, name: str):
        self.data = data
        self.name = name
        self.off = 0

    def _take(self, n: int, field: str) -> bytes:
        if self.off + n > len(self.data):
            raise FormatError(
                f"{self.name}: truncated while reading {n} bytes", offset=self.off, field=field
            )
        out = self.data[self.off : self.off + n]
        self.off += n
        return out

    def _scalar(self, fmt: str, field: str):
        n = struct.calcsize(fmt)
        return struct.unpack(fmt, self._take(n, field))[0]

    def u8(self, field: str) -> int:
        return self._scalar("<B", field)

    def u16(self, field: str) -> int:
        return self._scalar("<H", field)

    def u32(self, field: str) -> int:
        return self._scalar("<I", field)

    def u64(self, field: str) -> int:
        return self._scalar("<Q", field)

    def f32(self, field: str) -> float:
        return self._scalar("<f", field)

    def f32_array(self, field: str) -> np.ndarray:
        """A stored float32 array, as a new writable float32 array."""
        n = self.u32(field + ".len")
        raw = self._take(4 * n, field)
        return np.frombuffer(raw, dtype="<f4").astype(np.float32)

    def f64_array(self, field: str) -> np.ndarray:
        n = self.u32(field + ".len")
        raw = self._take(8 * n, field)
        return np.frombuffer(raw, dtype="<f8").astype(np.float64)

    def u16_array(self, field: str) -> np.ndarray:
        n = self.u32(field + ".len")
        raw = self._take(2 * n, field)
        return np.frombuffer(raw, dtype="<u2").astype(np.int64)

    def expect_magic(self, magic: bytes):
        got = self._take(len(magic), "magic")
        if got != magic:
            raise FormatError(f"{self.name}: bad magic {got!r}, expected {magic!r}", offset=0, field="magic")

    def expect_version(self, version: int = FORMAT_VERSION):
        v = self.u16("version")
        if v != version:
            raise FormatError(f"{self.name}: unsupported format version {v}", offset=self.off - 2, field="version")

    def done(self):
        if self.off != len(self.data):
            raise FormatError(
                f"{self.name}: {len(self.data) - self.off} trailing bytes", offset=self.off, field="end"
            )


def _checked_payload(data: bytes, name: str) -> bytes:
    if len(data) < 4:
        raise FormatError(f"{name}: too short to hold a checksum", offset=len(data), field="crc32")
    payload, stored = data[:-4], struct.unpack("<I", data[-4:])[0]
    actual = zlib.crc32(payload) & 0xFFFFFFFF
    if actual != stored:
        raise FormatError(
            f"{name}: checksum mismatch (stored {stored:#010x}, computed {actual:#010x})",
            offset=len(data) - 4,
            field="crc32",
        )
    return payload


@dataclass
class Checkpoint:
    """Self-describing training state; loadable without the source config."""

    model: ReferenceDenoiser
    sched: NoiseSchedule
    opt: AdamState
    train_steps: int
    seed: int
    height: int
    width: int


def checkpoint_bytes(ck: Checkpoint) -> bytes:
    w = Writer()
    w.raw(CHECKPOINT_MAGIC)
    w.u16(CHECKPOINT_VERSION)
    s = ck.model.config.shape
    w.u32(s.n_gauss)
    w.u32(s.n_cat)
    w.u32(s.n_classes)
    w.u32(ck.sched.total_steps)
    w.f64_array(ck.sched.beta_gauss)
    w.f64_array(ck.sched.beta_cat)
    cfg = ck.model.config
    for v in (cfg.n_conds, cfg.hidden, cfg.n_blocks, cfg.label_emb_dim, cfg.time_emb_dim, cfg.cond_emb_dim):
        w.u32(v)
    w.u32(ck.height)
    w.u32(ck.width)
    w.f32_array(ck.model.flat)
    w.f32_array(ck.opt.m)
    w.f32_array(ck.opt.v)
    w.u64(ck.opt.step)
    w.u64(ck.train_steps)
    w.u64(ck.seed)
    return w.finish()


def checkpoint_from_bytes(data: bytes, name: str = "checkpoint") -> Checkpoint:
    r = Reader(_checked_payload(data, name), name)
    r.expect_magic(CHECKPOINT_MAGIC)
    r.expect_version(CHECKPOINT_VERSION)
    shape = ShapeSpec(n_gauss=r.u32("n_gauss"), n_cat=r.u32("n_cat"), n_classes=r.u32("n_classes"))
    total = r.u32("schedule.T")
    bg = r.f64_array("schedule.beta_gauss")
    bc = r.f64_array("schedule.beta_cat")
    if bg.size != total or bc.size != total:
        raise FormatError(f"{name}: schedule arrays do not match T={total}", offset=r.off, field="schedule")
    sched = NoiseSchedule(beta_gauss=bg, beta_cat=bc, check_terminal=False)
    cfg = DenoiserConfig(
        shape=shape,
        n_conds=r.u32("arch.n_conds"),
        hidden=r.u32("arch.hidden"),
        n_blocks=r.u32("arch.n_blocks"),
        label_emb_dim=r.u32("arch.label_emb_dim"),
        time_emb_dim=r.u32("arch.time_emb_dim"),
        cond_emb_dim=r.u32("arch.cond_emb_dim"),
    )
    height = r.u32("arch.height")
    width = r.u32("arch.width")
    n_params = ReferenceDenoiser.param_count(cfg)
    flat = r.f32_array("params")
    if flat.size != n_params:
        raise FormatError(
            f"{name}: {flat.size} parameters, architecture needs {n_params}",
            offset=r.off,
            field="params",
        )
    model = ReferenceDenoiser(cfg, flat)
    m = r.f32_array("opt.m")
    v = r.f32_array("opt.v")
    if m.size != n_params or v.size != n_params:
        raise FormatError(f"{name}: optimizer state size mismatch", offset=r.off, field="opt")
    opt = AdamState(m, v, r.u64("opt.step"))
    train_steps = r.u64("train_steps")
    seed = r.u64("seed")
    r.done()
    return Checkpoint(model, sched, opt, train_steps, seed, height, width)


def save_checkpoint(path, ck: Checkpoint):
    Path(path).write_bytes(checkpoint_bytes(ck))


def load_checkpoint(path) -> Checkpoint:
    return checkpoint_from_bytes(Path(path).read_bytes(), name=str(path))


def dataset_bytes(cfg: SceneConfig, samples: list[SceneSample]) -> bytes:
    w = Writer()
    w.raw(DATASET_MAGIC)
    w.u16(FORMAT_VERSION)
    w.u32(cfg.height)
    w.u32(cfg.width)
    w.u32(cfg.n_classes)
    w.f32_array(np.asarray(cfg.palette))
    w.f32(cfg.sigma_data)
    w.u32(len(cfg.grammar))
    for g in cfg.grammar:
        w.u8(SCENE_TYPES.index(g))
    w.u64(cfg.seed)
    w.u32(len(samples))
    for s in samples:
        w.f32_array(s.sample.x)
        w.u16_array(s.sample.y)
        w.u32(s.cond)
    return w.finish()


def dataset_from_bytes(data: bytes, name: str = "dataset") -> tuple[SceneConfig, list[SceneSample]]:
    r = Reader(_checked_payload(data, name), name)
    r.expect_magic(DATASET_MAGIC)
    r.expect_version()
    height = r.u32("height")
    width = r.u32("width")
    n_classes = r.u32("n_classes")
    palette = tuple(float(v) for v in r.f32_array("palette"))
    sigma = r.f32("sigma_data")
    n_grammar = r.u32("grammar.len")
    grammar = []
    for i in range(n_grammar):
        code = r.u8(f"grammar[{i}]")
        if code >= len(SCENE_TYPES):
            raise FormatError(f"{name}: unknown scene-type code {code}", offset=r.off - 1, field="grammar")
        grammar.append(SCENE_TYPES[code])
    seed = r.u64("seed")
    cfg = SceneConfig(
        height=height, width=width, n_classes=n_classes, palette=palette,
        sigma_data=sigma, grammar=tuple(grammar), seed=seed,
    )
    count = r.u32("count")
    samples = []
    for i in range(count):
        x = r.f32_array(f"sample[{i}].x").astype(np.float64)
        y = r.u16_array(f"sample[{i}].y")
        cond = r.u32(f"sample[{i}].cond")
        if x.size != cfg.n_pixels or y.size != cfg.n_pixels:
            raise FormatError(f"{name}: sample {i} has wrong length", offset=r.off, field=f"sample[{i}]")
        samples.append(SceneSample(sample=JointSample(x=x, y=y), cond=int(cond)))
    r.done()
    return cfg, samples


def save_dataset(path, cfg: SceneConfig, samples: list[SceneSample]):
    Path(path).write_bytes(dataset_bytes(cfg, samples))


def load_dataset(path) -> tuple[SceneConfig, list[SceneSample]]:
    return dataset_from_bytes(Path(path).read_bytes(), name=str(path))


def mask_bytes(mask: np.ndarray) -> bytes:
    w = Writer()
    w.raw(MASK_MAGIC)
    w.u16(FORMAT_VERSION)
    mask = np.asarray(mask, dtype=bool)
    w.u32(mask.size)
    w.raw(mask.astype(np.uint8).tobytes())
    return w.finish()


def mask_from_bytes(data: bytes, name: str = "mask") -> np.ndarray:
    r = Reader(_checked_payload(data, name), name)
    r.expect_magic(MASK_MAGIC)
    r.expect_version()
    n = r.u32("length")
    raw = r._take(n, "mask")
    r.done()
    arr = np.frombuffer(raw, dtype=np.uint8)
    if np.any(arr > 1):
        raise FormatError(f"{name}: mask bytes must be 0 or 1", offset=len(data) - 4 - n, field="mask")
    return arr.astype(bool)


def save_mask(path, mask: np.ndarray):
    Path(path).write_bytes(mask_bytes(mask))


def load_mask(path) -> np.ndarray:
    return mask_from_bytes(Path(path).read_bytes(), name=str(path))


def image_to_u8(x: np.ndarray) -> np.ndarray:
    """[-1, 1] -> {0..255} by clipping and linear rounding."""
    return np.rint((np.clip(x, -1.0, 1.0) + 1.0) * 0.5 * 255.0).astype(np.uint8)


def u8_to_image(v: np.ndarray) -> np.ndarray:
    return v.astype(np.float64) / 255.0 * 2.0 - 1.0


def write_pgm(path, arr: np.ndarray):
    arr = np.asarray(arr)
    if arr.ndim != 2 or arr.dtype != np.uint8:
        raise ValidationError("PGM export expects a 2-D uint8 array")
    header = f"P5\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode("ascii")
    Path(path).write_bytes(header + arr.tobytes())


def read_pgm(path) -> np.ndarray:
    data = Path(path).read_bytes()
    name = str(path)
    parts = data.split(b"\n", 3)
    if len(parts) != 4 or parts[0] != b"P5":
        raise FormatError(f"{name}: not a binary PGM", offset=0, field="header")
    try:
        w, h = (int(v) for v in parts[1].split())
        maxval = int(parts[2])
    except ValueError:
        raise FormatError(f"{name}: malformed PGM dimensions", offset=3, field="header") from None
    if maxval != 255:
        raise FormatError(f"{name}: unsupported maxval {maxval}", offset=len(parts[0]) + len(parts[1]) + 2, field="maxval")
    body = parts[3]
    if len(body) != w * h:
        raise FormatError(
            f"{name}: payload holds {len(body)} bytes, expected {w * h}",
            offset=len(data) - len(body),
            field="pixels",
        )
    return np.frombuffer(body, dtype=np.uint8).reshape(h, w)


def write_manifest(path, rows: list[tuple[int, str, str, int]]):
    lines = [f"{i} {img} {lay} {cond}" for i, img, lay, cond in rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_manifest(path) -> list[tuple[int, str, str, int]]:
    rows = []
    for ln, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 4:
            raise FormatError(f"{path}: manifest line {ln} needs 4 fields", field=f"line {ln}")
        rows.append((int(parts[0]), parts[1], parts[2], int(parts[3])))
    return rows


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def report_to_text(rep: EvalReport) -> str:
    lines = [
        f"semantic_recall={_fmt(rep.semantic_recall)}",
        f"semantic_precision={_fmt(rep.semantic_precision)}",
        f"semantic_f={_fmt(rep.semantic_f)}",
        f"fsd={_fmt(rep.fsd)}",
        f"miou={_fmt(rep.miou)}",
        f"tv_distance={_fmt(rep.tv_distance)}",
        f"semantic_recall_layout={_fmt(rep.semantic_recall_layout)}",
    ]
    lines += [f"per_class_recall_{k}={_fmt(v)}" for k, v in sorted(rep.per_class_recall.items())]
    return "\n".join(lines) + "\n"


def report_from_text(text: str) -> EvalReport:
    vals: dict[str, float] = {}
    per_class: dict[int, float] = {}
    for line in text.splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        key, _, raw = line.partition("=")
        if key.startswith("per_class_recall_"):
            per_class[int(key.rsplit("_", 1)[1])] = float(raw)
        else:
            vals[key] = float(raw)
    return EvalReport(
        semantic_recall=vals["semantic_recall"],
        semantic_precision=vals["semantic_precision"],
        semantic_f=vals["semantic_f"],
        fsd=vals["fsd"],
        miou=vals["miou"],
        tv_distance=vals["tv_distance"],
        per_class_recall=per_class,
        semantic_recall_layout=vals.get("semantic_recall_layout", float("nan")),
    )


def save_trace(path, trace: list[tuple[int, float]]):
    Path(path).write_text("".join(f"{s} {_fmt(float(v))}\n" for s, v in trace), encoding="utf-8")
