import numpy as np
import pytest

from gcdp import io as gio
from gcdp.denoiser import DenoiserConfig, ReferenceDenoiser
from gcdp.distribution import ShapeSpec
from gcdp.errors import FormatError, ValidationError
from gcdp.metrics import EvalReport
from gcdp.scenes import SceneConfig, generate
from gcdp.schedules import cosine_schedule
from gcdp.cli import main as cli_main
from gcdp.sampler import GuidanceConfig, sample_batch
from gcdp.scenes import dataset_arrays
from gcdp.training import AdamState, TrainConfig, train


@pytest.fixture
def checkpoint():
    shape = ShapeSpec(n_gauss=4, n_cat=4, n_classes=3)
    cfg = DenoiserConfig(shape=shape, n_conds=2, hidden=8, n_blocks=1, label_emb_dim=2, time_emb_dim=4, cond_emb_dim=2)
    model = ReferenceDenoiser.init(cfg, seed=3)
    rng = np.random.default_rng(0)
    opt = AdamState(
        rng.standard_normal(model.n_params).astype(np.float32), rng.random(model.n_params).astype(np.float32), 17
    )
    return gio.Checkpoint(
        model=model, sched=cosine_schedule(20), opt=opt, train_steps=123, seed=9, height=2, width=2
    )


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
        assert ck.train_steps == 123 and ck.seed == 9 and ck.opt.step == 17
        assert ck.height == 2 and ck.width == 2
        assert ck.model.config == checkpoint.model.config
        assert ck.model.flat.dtype == np.float32
        assert np.array_equal(ck.model.flat, checkpoint.model.flat)
        assert np.array_equal(ck.opt.m, checkpoint.opt.m) and np.array_equal(ck.opt.v, checkpoint.opt.v)
        assert np.array_equal(ck.sched.beta_gauss, checkpoint.sched.beta_gauss)
        assert np.array_equal(ck.sched.beta_cat, checkpoint.sched.beta_cat)

    def test_reloaded_model_samples_byte_identically(self, tmp_path):
        scene = SceneConfig(height=4, width=4, n_classes=3, grammar=("horizon",), seed=2)
        shape = ShapeSpec(n_gauss=scene.n_pixels, n_cat=scene.n_pixels, n_classes=3)
        cfg = DenoiserConfig(shape=shape, n_conds=scene.n_conds, hidden=32, n_blocks=2)
        sched = cosine_schedule(50, p=2.0)
        model, opt, _ = train(dataset_arrays(generate(scene, 64)), ReferenceDenoiser.init(cfg, seed=1), sched,
                              TrainConfig(steps=50, batch_size=16, seed=4))
        path = tmp_path / "model.gcdp"
        gio.save_checkpoint(path, gio.Checkpoint(model, sched, opt, 50, 4, 4, 4))
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


class TestDataset:
    def test_round_trip_byte_identical(self, tmp_path):
        cfg = SceneConfig(seed=4)
        samples = generate(cfg, 8)
        path = tmp_path / "d.gcds"
        gio.save_dataset(path, cfg, samples)
        first = path.read_bytes()
        cfg2, samples2 = gio.load_dataset(path)
        gio.save_dataset(path, cfg2, samples2)
        assert path.read_bytes() == first
        assert cfg2.grammar == cfg.grammar and cfg2.n_classes == cfg.n_classes
        assert len(samples2) == 8
        assert np.array_equal(samples2[3].sample.y, samples[3].sample.y)

    def test_corruption_detected(self, tmp_path):
        cfg = SceneConfig(seed=5)
        blob = bytearray(gio.dataset_bytes(cfg, generate(cfg, 2)))
        blob[len(blob) // 2] ^= 0x01
        with pytest.raises(FormatError, match="checksum"):
            gio.dataset_from_bytes(bytes(blob))


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
