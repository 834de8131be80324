import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from gcdp import cli
from gcdp import io as gio
from gcdp.cli import SCHEMAS, _load_sample_dir, _write_samples, canonical_config_text, main, parse_config_text
from gcdp.errors import UsageError
from gcdp.metrics import EvalReport, fsd, miou, semantic_f
from gcdp.scenes import oracle_segment


def run(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One tiny end-to-end run shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    data_dir, train_dir = root / "data", root / "train"
    assert run("generate-data", "--out", str(data_dir), "--count", "64", "--seed", "3") == 0
    assert run(
        "train", "--data", str(data_dir / "dataset.gcds"), "--out", str(train_dir),
        "--steps", "40", "--batch", "8", "--T", "12", "--hidden", "16", "--blocks", "1",
        "--log-every", "10", "--seed", "3",
    ) == 0
    return root


class TestPipeline:
    def test_artifacts_exist(self, pipeline):
        assert (pipeline / "data" / "dataset.gcds").exists()
        assert (pipeline / "train" / "model.gcdp").exists()
        assert (pipeline / "train" / "loss_trace.txt").exists()
        assert (pipeline / "train" / "config.txt").exists()

    def test_sample_outputs_and_ranges(self, pipeline):
        out = pipeline / "samples"
        assert run(
            "sample", "--ckpt", str(pipeline / "train" / "model.gcdp"), "--out", str(out),
            "--count", "5", "--cond", "1", "--guidance-w", "1.5", "--seed", "4",
        ) == 0
        rows = gio.read_manifest(out / "manifest.txt")
        assert len(rows) == 5
        for _, img, lay, cond in rows:
            assert cond == 1
            layout = gio.read_pgm(out / lay)
            assert layout.shape == (8, 8)
            assert np.all((layout >= 1) & (layout <= 4))

    def test_sample_from_untrained_model_keeps_ranges(self, pipeline, tmp_path):
        train0 = tmp_path / "t0"
        assert run(
            "train", "--data", str(pipeline / "data" / "dataset.gcds"), "--out", str(train0),
            "--steps", "0", "--T", "12", "--hidden", "16", "--blocks", "1", "--seed", "0",
        ) == 0
        out = tmp_path / "s0"
        assert run("sample", "--ckpt", str(train0 / "model.gcdp"), "--out", str(out), "--count", "3") == 0
        for _, img, lay, _ in gio.read_manifest(out / "manifest.txt"):
            layout = gio.read_pgm(out / lay)
            assert np.all((layout >= 1) & (layout <= 4))

    def test_outpaint_modes(self, pipeline, tmp_path):
        ckpt = str(pipeline / "train" / "model.gcdp")
        known = str(pipeline / "data" / "dataset.gcds")
        out_lay = tmp_path / "op_layout"
        assert run(
            "outpaint", "--ckpt", ckpt, "--known", known, "--out", str(out_lay),
            "--mask-mode", "layout", "--resample-n", "2", "--count", "2", "--seed", "5",
        ) == 0
        # layout mode keeps the image modality bit-exact through PGM export
        _, scene_samples = gio.load_dataset(known)
        rows = gio.read_manifest(out_lay / "manifest.txt")
        for i, img, lay, cond in rows[:2]:
            exported = gio.read_pgm(out_lay / img).reshape(-1)
            expected = gio.image_to_u8(scene_samples[i].sample.x)
            assert np.array_equal(exported, expected)
        out_img = tmp_path / "op_image"
        assert run(
            "outpaint", "--ckpt", ckpt, "--known", known, "--out", str(out_img),
            "--mask-mode", "image", "--resample-n", "1", "--count", "2", "--seed", "5",
        ) == 0
        for i, img, lay, cond in gio.read_manifest(out_img / "manifest.txt")[:2]:
            assert np.array_equal(
                gio.read_pgm(out_img / lay).reshape(-1).astype(np.int64), scene_samples[i].sample.y
            )

    def test_outpaint_mask_file_mode(self, pipeline, tmp_path):
        mask = np.zeros(128, bool)
        mask[:64] = True
        mask_path = tmp_path / "m.gcmk"
        gio.save_mask(mask_path, mask)
        out = tmp_path / "op_file"
        assert run(
            "outpaint", "--ckpt", str(pipeline / "train" / "model.gcdp"),
            "--known", str(pipeline / "data" / "dataset.gcds"), "--out", str(out),
            "--mask-mode", "file", "--mask", str(mask_path), "--count", "1", "--seed", "6",
        ) == 0
        assert (out / "manifest.txt").exists()

    def test_evaluate_writes_report(self, pipeline, tmp_path):
        out = tmp_path / "samples"
        assert run(
            "sample", "--ckpt", str(pipeline / "train" / "model.gcdp"), "--out", str(out),
            "--count", "6", "--cond", "0", "--seed", "7",
        ) == 0
        rep_dir = tmp_path / "eval"
        assert run(
            "evaluate", "--samples", str(out), "--data", str(pipeline / "data" / "dataset.gcds"),
            "--out", str(rep_dir),
        ) == 0
        rep = gio.report_from_text((rep_dir / "report.txt").read_text())
        assert 0.0 <= rep.semantic_recall <= 1.0
        assert 0.0 <= rep.miou <= 1.0
        assert np.isnan(rep.tv_distance)  # too few samples for the TV check
        if rep.semantic_recall > 0 and rep.semantic_precision > 0:
            expected_f = 2 / (1 / rep.semantic_recall + 1 / rep.semantic_precision)
            assert rep.semantic_f == pytest.approx(expected_f, abs=1e-12)

    def test_evaluate_report_matches_per_sample_detection_scores(self, pipeline, tmp_path):
        scene, ref = gio.load_dataset(pipeline / "data" / "dataset.gcds")
        rng = np.random.default_rng(8)
        n = 12
        images = rng.uniform(-1, 1, (n, scene.n_pixels))
        layouts = rng.integers(1, scene.n_classes + 1, (n, scene.n_pixels))
        conds = rng.integers(0, scene.n_conds, n)
        out = tmp_path / "samples"
        out.mkdir()
        _write_samples(out, images, layouts, conds, scene.height, scene.width)
        assert run("evaluate", "--samples", str(out), "--data", str(pipeline / "data" / "dataset.gcds"),
                   "--out", str(tmp_path / "eval")) == 0

        # reference: the detection scores written out per sample
        images, layouts, conds = _load_sample_dir(out)
        seg = oracle_segment(images, scene)
        recalls, precisions, recalls_layout, hits = [], [], [], {}
        for i in range(n):
            gt = set(scene.class_sets[conds[i]])
            det = {int(c) for c in np.unique(seg[i])}
            det_lay = {int(c) for c in np.unique(layouts[i])}
            recalls.append(len(det & gt) / len(gt))
            recalls_layout.append(len(det_lay & gt) / len(gt))
            precisions.append(len(det & gt) / len(det))
            for c in gt:
                hits.setdefault(c, []).append(c in det)
        recall, precision = float(np.mean(recalls)), float(np.mean(precisions))
        expected = EvalReport(
            semantic_recall=recall,
            semantic_precision=precision,
            semantic_f=semantic_f(recall, precision),
            fsd=fsd(layouts, np.stack([s.sample.y for s in ref]), scene.n_classes),
            miou=float(np.mean([miou(layouts[i], seg[i], scene.n_classes) for i in range(n)])),
            tv_distance=float("nan"),
            per_class_recall={c: float(np.mean(v)) for c, v in sorted(hits.items())},
            semantic_recall_layout=float(np.mean(recalls_layout)),
        )
        assert 0.0 < precision < 1.0
        assert (tmp_path / "eval" / "report.txt").read_bytes() == gio.report_to_text(expected).encode()


class TestDeterminism:
    def test_train_is_byte_deterministic(self, pipeline, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run(
                "train", "--data", str(pipeline / "data" / "dataset.gcds"), "--out", str(out),
                "--steps", "25", "--batch", "8", "--T", "12", "--hidden", "16", "--blocks", "1",
                "--seed", "11",
            ) == 0
            outs.append((out / "model.gcdp").read_bytes() + (out / "loss_trace.txt").read_bytes())
        assert outs[0] == outs[1]

    def test_sample_is_byte_deterministic(self, pipeline, tmp_path):
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run(
                "sample", "--ckpt", str(pipeline / "train" / "model.gcdp"), "--out", str(out),
                "--count", "4", "--cond", "0", "--seed", "13",
            ) == 0
            # config.txt records the out path and legitimately differs
            names = sorted(p.name for p in out.iterdir() if p.name != "config.txt")
            blobs.append(b"".join((out / f).read_bytes() for f in names))
        assert blobs[0] == blobs[1]


class TestConfig:
    @pytest.mark.parametrize("command", sorted(SCHEMAS))
    def test_canonical_round_trip(self, command):
        defaults = {k.name: k.default for k in SCHEMAS[command]}
        text = canonical_config_text(defaults, command)
        assert canonical_config_text(parse_config_text(text, command) | defaults, command) == text
        parsed = parse_config_text(text, command)
        assert parsed == defaults

    def test_unknown_key_rejected(self):
        with pytest.raises(UsageError):
            parse_config_text("nonsense=1\n", "train")

    def test_comments_and_blanks_ignored(self):
        parsed = parse_config_text("# comment\n\nsteps=5 # trailing\n", "train")
        assert parsed == {"steps": 5}

    def test_bad_value_rejected(self):
        with pytest.raises(UsageError):
            parse_config_text("steps=many\n", "train")

    def test_config_file_feeds_command(self, tmp_path):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("count=3\nseed=9\n")
        out = tmp_path / "out"
        assert run("generate-data", "--config", str(cfg), "--out", str(out)) == 0
        _, samples = gio.load_dataset(out / "dataset.gcds")
        assert len(samples) == 3

    def test_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("count=3\n")
        out = tmp_path / "out"
        assert run("generate-data", "--config", str(cfg), "--out", str(out), "--count", "5") == 0
        _, samples = gio.load_dataset(out / "dataset.gcds")
        assert len(samples) == 5


class TestExitCodes:
    def test_usage_errors(self):
        assert run("train") == 1  # missing --data
        assert run("no-such-command") == 1
        assert run("sample", "--count", "notanint") == 1

    def test_validation_failures(self, pipeline, tmp_path):
        blob = bytearray((pipeline / "train" / "model.gcdp").read_bytes())
        blob[7] ^= 0xFF
        bad = tmp_path / "bad.gcdp"
        bad.write_bytes(bytes(blob))
        assert run("sample", "--ckpt", str(bad), "--out", str(tmp_path / "s")) == 2
        assert run("sample", "--ckpt", str(tmp_path / "missing.gcdp"), "--out", str(tmp_path / "s2")) == 2

    @pytest.mark.parametrize(
        "case, named",
        [
            ("index", "manifest line 2"),
            ("cond", "manifest line 3"),
            ("cond_high", "manifest line 3 has condition 3 outside -1..2"),
            ("cond_low", "manifest line 3 has condition -2 outside -1..2"),
            ("empty", "manifest lists no samples"),
            ("size", "sample_0002_layout.pgm: 4x2 PGM, expected 8x8"),
            ("scene", "sample_0000_image.pgm: 5x5 PGM, but the dataset's scenes are 8x8"),
        ],
    )
    def test_malformed_samples_dir(self, pipeline, tmp_path, capsys, case, named):
        out = tmp_path / "samples"
        out.mkdir()
        n, side = 4, 5 if case == "scene" else 8
        pixels = side * side
        _write_samples(out, np.zeros((n, pixels)), np.ones((n, pixels), dtype=np.int64), np.zeros(n, dtype=np.int64),
                       side, side)
        lines = (out / "manifest.txt").read_text().splitlines()
        if case == "index":
            lines[1] = lines[1].replace("1 ", "one ", 1)
        elif case == "cond":
            lines[2] = lines[2][:-1] + "0.5"
        elif case in ("cond_high", "cond_low"):
            # the default grammar's dataset has 3 class sets: conditions -1..2
            lines[2] = lines[2][:-1] + ("3" if case == "cond_high" else "-2")
        elif case == "empty":
            lines = [""]
        elif case == "size":
            gio.write_pgm(out / "sample_0002_layout.pgm", np.ones((2, 4), dtype=np.uint8))
        (out / "manifest.txt").write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run("evaluate", "--samples", str(out), "--data", str(pipeline / "data" / "dataset.gcds"),
                   "--out", str(tmp_path / "eval")) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["train", "--data", "{data}", "--steps", "2", "--batch", "4", "--T", "4", "--hidden", "8",
              "--blocks", "1", "--log-every", "0"], "log_every >= 1"),
            (["train", "--data", "{data}", "--steps", "2", "--batch", "4", "--T", "4", "--hidden", "8",
              "--blocks", "1", "--lr", "-1"], "lr must be finite and > 0"),
            (["train", "--data", "{data}", "--steps", "2", "--batch", "4", "--T", "4", "--hidden", "8",
              "--blocks", "1", "--lr", "inf"], "lr must be finite and > 0"),
            (["train", "--data", "{data}", "--steps", "2", "--batch", "4", "--T", "4", "--hidden", "8",
              "--blocks", "1", "--lambda-cat", "-1"], "lambda_cat must be finite and >= 0"),
            (["train", "--data", "{data}", "--steps", "2", "--batch", "4", "--T", "4", "--hidden", "8",
              "--blocks", "1", "--lambda-cat", "nan"], "lambda_cat must be finite and >= 0"),
            (["sample", "--ckpt", "{ckpt}", "--count", "2", "--cond", "-5"], "cond >= -1 (-1 = unconditional)"),
            (["outpaint", "--ckpt", "{ckpt}", "--known", "{data}", "--count", "-3"], "count must be >= 0"),
            (["outpaint", "--ckpt", "{ckpt}", "--known", "{data}", "--count", "1", "--cond", "-2"],
             "cond >= -1 (-1 = each sample's own)"),
        ],
    )
    def test_values_below_their_documented_floor_fail_validation(self, pipeline, tmp_path, capsys, argv, named):
        paths = {"data": pipeline / "data" / "dataset.gcds", "ckpt": pipeline / "train" / "model.gcdp"}
        argv = [a.format(**paths) for a in argv]
        capsys.readouterr()
        assert run(*argv, "--out", str(tmp_path / "out")) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "scene, named",
        [
            (["--height", "6", "--width", "9"], "scenes are 9x6 with K=4, but the checkpoint's are 8x8 with K=4"),
            (["--classes", "3"], "scenes are 8x8 with K=3, but the checkpoint's are 8x8 with K=4"),
        ],
    )
    @pytest.mark.parametrize("mask_mode", ["layout", "image"])
    def test_outpaint_known_scene_must_match_the_checkpoint(self, pipeline, tmp_path, capsys, scene, named, mask_mode):
        known = tmp_path / "known"
        assert run("generate-data", "--out", str(known), "--count", "4", "--seed", "6", *scene) == 0
        capsys.readouterr()
        assert run(
            "outpaint", "--ckpt", str(pipeline / "train" / "model.gcdp"), "--known", str(known / "dataset.gcds"),
            "--out", str(tmp_path / "out"), "--mask-mode", mask_mode,
        ) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_importing_the_cli_leaves_the_oracle_stack_unloaded(self, tmp_path):
        """Importing the CLI loads neither gcdp.verify nor any scipy module, and
        neither does a tiny run of every command but verify, in one process;
        the training run reaches the t = 1 decoder term."""
        code = textwrap.dedent(
            """
            import sys
            from pathlib import Path

            import gcdp.cli
            from gcdp import training

            def loaded():
                return sorted(m for m in sys.modules if m == "gcdp.verify" or m.partition(".")[0] == "scipy")

            print("@", loaded())
            out = Path(sys.argv[1])
            decoder_calls = []
            cdf = training.normal_cdf
            training.normal_cdf = lambda x: decoder_calls.append(1) or cdf(x)
            data, known, ckpt = out / "data" / "dataset.gcds", out / "known" / "dataset.gcds", out / "t" / "model.gcdp"
            for argv in [
                ["generate-data", "--out", out / "data", "--count", 64, "--seed", 3],
                ["generate-data", "--out", out / "known", "--count", 2, "--seed", 4],
                ["train", "--data", data, "--out", out / "t", "--steps", 4, "--batch", 8, "--T", 4,
                 "--hidden", 16, "--blocks", 1, "--seed", 3],
                ["sample", "--ckpt", ckpt, "--out", out / "s", "--count", 1000, "--seed", 4],
                ["sample", "--ckpt", ckpt, "--out", out / "sw", "--count", 2, "--cond", 1, "--guidance-w", 2],
                ["outpaint", "--ckpt", ckpt, "--known", known, "--out", out / "o", "--mask-mode", "image",
                 "--resample-n", 2],
                ["evaluate", "--samples", out / "s", "--data", data, "--out", out / "e"],
                ["evaluate", "--samples", out / "o", "--data", data, "--out", out / "eo"],
            ]:
                assert gcdp.cli.main([str(a) for a in argv]) == 0, argv
            assert "tv_distance=nan" not in (out / "e" / "report.txt").read_text()
            print("@", len(decoder_calls) > 0)
            print("@", loaded())
            """
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert [line for line in proc.stdout.splitlines() if line.startswith("@")] == ["@ []", "@ True", "@ []"]

    def test_verify_fast_passes(self, tmp_path, capsys):
        assert run("verify", "--fast", "--out", str(tmp_path / "v")) == 0
        assert (tmp_path / "v" / "verify_report.txt").read_text().count("PASS") >= 10
