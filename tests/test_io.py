import struct
import zlib

import numpy as np
import pytest

from gcdp import io as gio
from gcdp.denoiser import DenoiserConfig, ReferenceDenoiser
from gcdp.distribution import ShapeSpec
from gcdp.errors import FormatError, ValidationError
from gcdp.metrics import EvalReport
from gcdp.scenes import SCENE_TYPES, SceneConfig, generate
from gcdp.schedules import cosine_schedule
from gcdp.cli import main as cli_main
from gcdp.sampler import GuidanceConfig, sample_batch
from gcdp.scenes import dataset_arrays
from gcdp.training import TrainConfig, train


@pytest.fixture
def checkpoint():
    shape = ShapeSpec(n_gauss=4, n_cat=4, n_classes=3)
    cfg = DenoiserConfig(shape=shape, n_conds=2, hidden=8, n_blocks=1, label_emb_dim=2, time_emb_dim=4, cond_emb_dim=2)
    model = ReferenceDenoiser.init(cfg, seed=3)
    return gio.Checkpoint(model=model, sched=cosine_schedule(20), train_steps=123, seed=9, height=2, width=2)


class TestCheckpoint:
    def test_round_trip_is_byte_identical(self, checkpoint, tmp_path):
        path = tmp_path / "model.gcdp"
        gio.save_checkpoint(path, checkpoint)
        first = path.read_bytes()
        loaded = gio.load_checkpoint(path)
        gio.save_checkpoint(path, loaded)
        assert path.read_bytes() == first

    def test_fields_survive(self, checkpoint, tmp_path):
        path = tmp_path / "model.gcdp"
        gio.save_checkpoint(path, checkpoint)
        ck = gio.load_checkpoint(path)
        assert ck.train_steps == 123 and ck.seed == 9
        assert ck.height == 2 and ck.width == 2
        assert ck.model.config == checkpoint.model.config
        assert ck.model.flat.dtype == np.float32
        assert np.array_equal(ck.model.flat, checkpoint.model.flat)
        assert np.array_equal(ck.sched.beta_gauss, checkpoint.sched.beta_gauss)
        assert np.array_equal(ck.sched.beta_cat, checkpoint.sched.beta_cat)

    def test_reloaded_model_samples_byte_identically(self, tmp_path):
        scene = SceneConfig(height=4, width=4, n_classes=3, grammar=("horizon",), seed=2)
        shape = ShapeSpec(n_gauss=scene.n_pixels, n_cat=scene.n_pixels, n_classes=3)
        cfg = DenoiserConfig(shape=shape, n_conds=scene.n_conds, hidden=32, n_blocks=2)
        sched = cosine_schedule(50, p=2.0)
        model, _, _ = train(generate(scene, 64), ReferenceDenoiser.init(cfg, seed=1), sched,
                              TrainConfig(steps=50, batch_size=16, seed=4))
        path = tmp_path / "model.gcdp"
        gio.save_checkpoint(path, gio.Checkpoint(model, sched, 50, 4, 4, 4))
        ck = gio.load_checkpoint(path)
        conds = np.arange(16) % scene.n_conds
        guidance = GuidanceConfig(scale=2.0, enabled=True)
        a = sample_batch(model, sched, conds, guidance, range(1, 51), np.random.default_rng(5))
        b = sample_batch(ck.model, ck.sched, conds, guidance, range(1, 51), np.random.default_rng(5))
        assert a[0].tobytes() == b[0].tobytes() and a[1].tobytes() == b[1].tobytes()

    def test_version_1_checkpoint_is_rejected(self, checkpoint, tmp_path):
        blob = bytearray(gio.checkpoint_bytes(checkpoint)[:-4])
        blob[4:6] = (1).to_bytes(2, "little")
        w = gio.Writer()
        w.raw(bytes(blob))
        path = tmp_path / "old.gcdp"
        path.write_bytes(w.finish())
        with pytest.raises(FormatError, match="unsupported format version 1"):
            gio.load_checkpoint(path)
        assert cli_main(["sample", "--ckpt", str(path), "--out", str(tmp_path / "s")]) == 2

    def test_version_2_checkpoint_is_rejected(self, checkpoint, tmp_path):
        # version 2 also stored the Adam moments and step after the parameters
        blob = bytearray(gio.checkpoint_bytes(checkpoint)[:-4])
        blob[4:6] = (2).to_bytes(2, "little")
        w = gio.Writer()
        w.raw(bytes(blob[:-16]))
        w.f32_array(np.zeros(checkpoint.model.n_params))
        w.f32_array(np.zeros(checkpoint.model.n_params))
        w.u64(17)
        w.raw(bytes(blob[-16:]))
        path = tmp_path / "v2.gcdp"
        path.write_bytes(w.finish())
        with pytest.raises(FormatError, match="unsupported format version 2"):
            gio.load_checkpoint(path)
        assert cli_main(["sample", "--ckpt", str(path), "--out", str(tmp_path / "s")]) == 2

    def test_every_corrupted_byte_is_detected(self, checkpoint):
        blob = bytearray(gio.checkpoint_bytes(checkpoint))
        rng = np.random.default_rng(1)
        for pos in sorted(rng.choice(len(blob), size=40, replace=False).tolist()):
            orig = blob[pos]
            blob[pos] ^= 0xFF
            with pytest.raises(FormatError):
                gio.checkpoint_from_bytes(bytes(blob))
            blob[pos] = orig

    def test_truncation_reports_offset(self, checkpoint):
        blob = gio.checkpoint_bytes(checkpoint)
        with pytest.raises(FormatError, match="byte"):
            gio.checkpoint_from_bytes(blob[:10])


def reference_dataset_bytes(cfg: SceneConfig, arrays) -> bytes:
    """The dataset writer as first written: the header, then each record
    field written on its own."""
    w = gio.Writer()
    w.raw(gio.DATASET_MAGIC)
    w.u16(gio.FORMAT_VERSION)
    w.u32(cfg.height)
    w.u32(cfg.width)
    w.u32(cfg.n_classes)
    w.f32_array(np.asarray(cfg.palette))
    w.f32(cfg.sigma_data)
    w.u32(len(cfg.grammar))
    for g in cfg.grammar:
        w.u8(SCENE_TYPES.index(g))
    w.u64(cfg.seed)
    x, y, c = arrays
    w.u32(len(c))
    for xi, yi, ci in zip(x, y, c):
        w.f32_array(xi)
        w.u32(len(yi))
        w.raw(np.asarray(yi, dtype="<u2").tobytes())
        w.u32(int(ci))
    payload = bytes(w.buf)
    return payload + struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF)


class TestDataset:
    @pytest.mark.parametrize("kw,count", [
        ({}, 0), ({}, 1), ({}, 33),
        ({"grammar": ("horizon",), "height": 3, "width": 7}, 9),
        ({"n_classes": 6, "height": 6, "width": 9, "seed": 2}, 17),
        ({"sigma_data": 0.0, "palette": (-1.0, 0.2, 0.4, 0.9), "seed": 3}, 5),
    ])
    def test_bytes_are_the_per_record_writer(self, kw, count):
        cfg = SceneConfig(**kw)
        arrays = generate(cfg, count)
        assert gio.dataset_bytes(cfg, arrays) == reference_dataset_bytes(cfg, arrays)

    @pytest.mark.parametrize("fault,match", [
        ("x_row", "pixels"), ("y_row", "labels"), ("inf", "not finite"), ("f32_overflow", "not finite"),
        ("label_0", "label outside 1..4"), ("label_above_k", "label outside 1..4"),
        ("cond_n", "condition ID outside 0..2"), ("cond_negative", "condition ID outside 0..2"),
    ])
    def test_writer_refuses_what_the_reader_rejects(self, fault, match):
        cfg = SceneConfig(seed=10)
        x, y, c = generate(cfg, 4)
        if fault == "x_row":
            x = x[:, :-1]
        elif fault == "y_row":
            y = np.concatenate([y, y[:, :1]], axis=1)
        elif fault in ("inf", "f32_overflow"):
            x[2, 5] = np.inf if fault == "inf" else 1e300
        elif fault in ("label_0", "label_above_k"):
            y[1, 3] = 0 if fault == "label_0" else cfg.n_classes + 1
        else:
            c[3] = cfg.n_conds if fault == "cond_n" else -1
        with pytest.raises(ValidationError, match=match), np.errstate(over="ignore"):
            gio.dataset_bytes(cfg, (x, y, c))

    def test_writer_refuses_a_label_that_wraps_in_u16(self):
        cfg = SceneConfig(n_classes=70_000, grammar=("horizon",), sigma_data=0.0)
        x, y, c = generate(cfg, 2)
        y[0, 0] = 65_537  # a valid class of cfg, stored as u16 it would read back as 1
        with pytest.raises(ValidationError, match="label outside 1..65535"):
            gio.dataset_bytes(cfg, (x, y, c))

    def test_round_trip_byte_identical(self, tmp_path):
        cfg = SceneConfig(seed=4)
        samples = generate(cfg, 8)
        path = tmp_path / "d.gcds"
        gio.save_dataset(path, cfg, samples)
        first = path.read_bytes()
        cfg2, samples2 = gio.load_dataset(path)
        gio.save_dataset(path, cfg2, dataset_arrays(samples2))
        assert path.read_bytes() == first
        assert cfg2.grammar == cfg.grammar and cfg2.n_classes == cfg.n_classes
        assert len(samples2) == 8
        assert np.array_equal(samples2[3].sample.y, samples[1][3])

    def test_corruption_detected(self, tmp_path):
        cfg = SceneConfig(seed=5)
        blob = bytearray(gio.dataset_bytes(cfg, generate(cfg, 2)))
        blob[len(blob) // 2] ^= 0x01
        with pytest.raises(FormatError, match="checksum"):
            gio.dataset_from_bytes(bytes(blob))

    def test_arrays_match_the_samples(self):
        cfg = SceneConfig(seed=6)
        blob = gio.dataset_bytes(cfg, generate(cfg, 9))
        cfg2, (x, y, c) = gio.dataset_arrays_from_bytes(blob)
        _, samples = gio.dataset_from_bytes(blob)
        assert (cfg2.height, cfg2.width, cfg2.n_classes, cfg2.seed) == (cfg.height, cfg.width, cfg.n_classes, cfg.seed)
        assert (x.dtype, y.dtype, c.dtype) == (np.float64, np.int64, np.int64)
        for got, want in zip((x, y, c), dataset_arrays(samples)):
            assert np.array_equal(got, want)

    @staticmethod
    def _bad_record(fault):
        """A 5-record 8x8 dataset with one record field rewritten as fault
        names, re-checksummed; returns (file bytes, offset, field)."""
        cfg = SceneConfig(seed=7)
        payload = bytearray(gio.dataset_bytes(cfg, generate(cfg, 5))[:-4])
        n = cfg.n_pixels
        size = 12 + 6 * n
        base = len(payload) - 5 * size
        if fault == "length":
            off, field = base + 2 * size + 4 + 4 * n, "sample[2].y.len"
            struct.pack_into("<I", payload, off, n + 1)
        elif fault == "nan":
            off, field = base + 3 * size + 4 + 4 * 7, "sample[3].x"
            struct.pack_into("<f", payload, off, float("nan"))
        elif fault in ("label", "label_above_k"):
            off, field = base + size + 8 + 4 * n + 2 * 9, "sample[1].y"
            struct.pack_into("<H", payload, off, 0 if fault == "label" else cfg.n_classes + 1)
        else:
            off, field = base + 4 * size + 8 + 6 * n, "sample[4].cond"
            struct.pack_into("<I", payload, off, cfg.n_conds)
        payload += struct.pack("<I", zlib.crc32(bytes(payload)) & 0xFFFFFFFF)
        return bytes(payload), off, field

    @pytest.mark.parametrize("fault", ["length", "nan", "label", "label_above_k", "cond"])
    def test_bad_record_reports_offset_and_field(self, fault, tmp_path):
        blob, off, field = self._bad_record(fault)
        for read in (gio.dataset_arrays_from_bytes, gio.dataset_from_bytes):
            with pytest.raises(FormatError) as e:
                read(blob)
            assert (e.value.offset, e.value.field) == (off, field)
        path = tmp_path / "bad.gcds"
        path.write_bytes(blob)
        assert cli_main(["train", "--data", str(path), "--steps", "0", "--out", str(tmp_path / "t")]) == 2

    def test_first_bad_record_is_reported(self):
        cfg = SceneConfig(seed=8)
        payload = bytearray(gio.dataset_bytes(cfg, generate(cfg, 4))[:-4])
        n = cfg.n_pixels
        size = 12 + 6 * n
        base = len(payload) - 4 * size
        struct.pack_into("<I", payload, base + 3 * size, n - 1)  # record 3: x length
        struct.pack_into("<H", payload, base + size + 8 + 4 * n, 0)  # record 1: label
        payload += struct.pack("<I", zlib.crc32(bytes(payload)) & 0xFFFFFFFF)
        with pytest.raises(FormatError) as e:
            gio.dataset_arrays_from_bytes(bytes(payload))
        assert e.value.field == "sample[1].y"

    def test_truncated_record_reports_offset(self):
        cfg = SceneConfig(seed=9)
        payload = gio.dataset_bytes(cfg, generate(cfg, 3))[:-4][:-3]
        blob = payload + struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF)
        with pytest.raises(FormatError, match="truncated") as e:
            gio.dataset_arrays_from_bytes(blob)
        assert e.value.field == "sample[2].cond"


class TestMask:
    def test_round_trip(self, tmp_path):
        mask = np.random.default_rng(0).random(37) < 0.4
        path = tmp_path / "m.gcmk"
        gio.save_mask(path, mask)
        assert np.array_equal(gio.load_mask(path), mask)
        first = path.read_bytes()
        gio.save_mask(path, gio.load_mask(path))
        assert path.read_bytes() == first

    def test_rejects_non_binary_payload(self):
        blob = bytearray(gio.mask_bytes(np.ones(4, bool)))
        # corrupting a mask byte also breaks the checksum; rebuild instead
        w = gio.Writer()
        w.raw(gio.MASK_MAGIC)
        w.u16(gio.FORMAT_VERSION)
        w.u32(1)
        w.raw(b"\x07")
        with pytest.raises(FormatError, match="0 or 1"):
            gio.mask_from_bytes(w.finish())


class TestPgm:
    def test_image_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        img = rng.integers(0, 256, (6, 5)).astype(np.uint8)
        path = tmp_path / "x.pgm"
        gio.write_pgm(path, img)
        assert np.array_equal(gio.read_pgm(path), img)

    def test_value_mapping_is_inverse_consistent(self):
        u8 = np.arange(256, dtype=np.uint8)
        assert np.array_equal(gio.image_to_u8(gio.u8_to_image(u8)), u8)

    def test_clipping_and_endpoints(self):
        assert gio.image_to_u8(np.array([-2.0, -1.0, 1.0, 2.0])).tolist() == [0, 0, 255, 255]

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P6\n2 2\n255\n0000")
        with pytest.raises(FormatError, match="PGM"):
            gio.read_pgm(path)

    def test_short_payload_reports_field(self, tmp_path):
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P5\n4 4\n255\nabc")
        with pytest.raises(FormatError, match="pixels"):
            gio.read_pgm(path)


class TestReportAndManifest:
    def test_report_round_trip(self):
        rep = EvalReport(
            semantic_recall=0.95, semantic_precision=0.9, semantic_f=0.924, fsd=1.25,
            miou=0.88, tv_distance=0.07, per_class_recall={1: 1.0, 2: 0.5},
            semantic_recall_layout=0.97,
        )
        text = gio.report_to_text(rep)
        back = gio.report_from_text(text)
        assert back == rep
        assert gio.report_to_text(back) == text

    def test_manifest_round_trip(self, tmp_path):
        rows = [(0, "a.pgm", "b.pgm", 2), (1, "c.pgm", "d.pgm", -1)]
        path = tmp_path / "manifest.txt"
        gio.write_manifest(path, rows)
        assert gio.read_manifest(path) == rows

    def test_trace_format(self, tmp_path):
        path = tmp_path / "trace.txt"
        gio.save_trace(path, [(0, 1.5), (10, 0.25)])
        assert path.read_text() == "0 1.5\n10 0.25\n"
