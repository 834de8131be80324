"""Tests of the benchmark's own checks and tracing.

Each check must reject a deliberately broken result. Run from the
repository root with `python3 -m pytest -q perfbench`.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import bench  # noqa: E402
from checks import (  # noqa: E402
    CheckFailed,
    check_bound_fell,
    check_equal,
    check_labels,
    check_loss_trace,
    heldout_bound,
    read_samples_dir,
    tree_digest,
)
from gcdp import cli  # noqa: E402
from gcdp import io as gio  # noqa: E402
from gcdp import sampler  # noqa: E402
import tracing  # noqa: E402
from tracing import Tracer  # noqa: E402

TINY_MODEL = ["--T", "12", "--batch", "8", "--hidden", "16", "--blocks", "1", "--lambda-cat", "5"]


def run_cli(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([str(a) for a in argv]) == 0


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """A small dataset, a held-out set and a briefly trained tiny model."""
    root = tmp_path_factory.mktemp("tiny")
    run_cli("generate-data", "--count", 64, "--seed", 3, "--out", root / "data")
    run_cli("generate-data", "--count", 16, "--seed", 4, "--out", root / "heldout")
    run_cli("train", "--data", root / "data/dataset.gcds", *TINY_MODEL, "--steps", 20, "--log-every", 5,
            "--seed", 5, "--out", root / "model")
    return root


def outpaint(tiny, out, mode):
    run_cli("outpaint", "--ckpt", tiny / "model/model.gcdp", "--known", tiny / "heldout/dataset.gcds",
            "--count", 4, "--mask-mode", mode, "--seed", 6, "--out", out)
    _, known = gio.load_dataset(tiny / "heldout/dataset.gcds")
    conds = [s.cond for s in known[:4]]
    images, layouts = read_samples_dir(out, 4, 8, 8, conds)
    return known[:4], images, layouts


def test_known_image_check_rejects_a_perturbed_coordinate(tiny, tmp_path):
    known, images, layouts = outpaint(tiny, tmp_path, "layout")
    known_img = np.stack([gio.image_to_u8(s.sample.x) for s in known])
    check_equal(images, known_img, "known images")
    check_labels(layouts, 4, "generated layouts")

    pgm = tmp_path / "sample_0002_image.pgm"
    data = bytearray(pgm.read_bytes())
    data[-5] ^= 1
    pgm.write_bytes(bytes(data))
    images, _ = read_samples_dir(tmp_path, 4, 8, 8, [s.cond for s in known])
    with pytest.raises(CheckFailed, match="1 of 256 values differ"):
        check_equal(images, known_img, "known images")


def test_known_layout_check_rejects_a_changed_label(tiny, tmp_path):
    known, _, layouts = outpaint(tiny, tmp_path, "image")
    known_lay = np.stack([s.sample.y for s in known]).astype(np.uint8)
    check_equal(layouts, known_lay, "known layouts")
    layouts[1, 7] = known_lay[1, 7] % 4 + 1
    with pytest.raises(CheckFailed):
        check_equal(layouts, known_lay, "known layouts")


@pytest.mark.parametrize("bad", [0, 5])
def test_label_check_rejects_labels_outside_1_to_k(bad):
    layouts = np.full((3, 64), 2, dtype=np.uint8)
    check_labels(layouts, 4, "layouts")
    layouts[2, 10] = bad
    with pytest.raises(CheckFailed, match="outside 1..4"):
        check_labels(layouts, 4, "layouts")


def test_samples_dir_check_rejects_missing_rows_files_and_wrong_conditions(tiny, tmp_path):
    run_cli("sample", "--ckpt", tiny / "model/model.gcdp", "--count", 3, "--stride", 5, "--cond", 1,
            "--guidance-w", 2, "--seed", 7, "--out", tmp_path)
    read_samples_dir(tmp_path, 3, 8, 8, 1)
    with pytest.raises(CheckFailed, match="rows, expected 4"):
        read_samples_dir(tmp_path, 4, 8, 8, 1)
    with pytest.raises(CheckFailed, match="condition"):
        read_samples_dir(tmp_path, 3, 8, 8, 0)
    (tmp_path / "sample_0001_layout.pgm").unlink()
    with pytest.raises(CheckFailed, match="sample_0001_layout.pgm"):
        read_samples_dir(tmp_path, 3, 8, 8, 1)


def test_equal_seed_repeat_gives_equal_digest_and_a_change_shows(tiny, tmp_path):
    argv = ["sample", "--ckpt", tiny / "model/model.gcdp", "--count", 2, "--stride", 4, "--seed", 8]
    run_cli(*argv, "--out", tmp_path / "a")
    run_cli(*argv, "--out", tmp_path / "b")
    assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")
    run_cli(*argv[:-1], 9, "--out", tmp_path / "b")
    assert tree_digest(tmp_path / "a") != tree_digest(tmp_path / "b")


def test_loss_trace_check_rejects_missing_and_non_finite_entries(tmp_path):
    path = tmp_path / "loss_trace.txt"
    path.write_text("".join(f"{s} 1.5\n" for s in (0, 10, 20, 24)))
    check_loss_trace(path, 25, 10)
    path.write_text("0 1.5\n10 1.5\n24 1.5\n")
    with pytest.raises(CheckFailed, match="logged steps"):
        check_loss_trace(path, 25, 10)
    path.write_text("0 1.5\n10 nan\n20 1.5\n24 1.5\n")
    with pytest.raises(CheckFailed, match="non-finite"):
        check_loss_trace(path, 25, 10)


def test_bound_check_rejects_a_training_run_that_never_updates(tiny, tmp_path):
    data, held = tiny / "data/dataset.gcds", tiny / "heldout/dataset.gcds"
    for name, steps in (("init", 0), ("frozen", 0)):
        run_cli("train", "--data", data, *TINY_MODEL, "--steps", steps, "--seed", 5, "--out", tmp_path / name)
    b0 = heldout_bound(tmp_path / "init/model.gcdp", held, 5.0, 0)
    frozen = heldout_bound(tmp_path / "frozen/model.gcdp", held, 5.0, 0)
    with pytest.raises(CheckFailed, match="not below"):
        check_bound_fell(b0, frozen, bench.MAX_BOUND_RATIO)
    trained = heldout_bound(tiny / "model/model.gcdp", held, 5.0, 0)
    assert trained < b0
    with pytest.raises(CheckFailed, match="not finite"):
        check_bound_fell(b0, float("nan"), bench.MAX_BOUND_RATIO)
    check_bound_fell(1000.0, 50.0, bench.MAX_BOUND_RATIO)


def test_guidance_at_w0_reproduces_unguided_sampling(tiny, tmp_path):
    argv = ["sample", "--ckpt", tiny / "model/model.gcdp", "--count", 3, "--stride", 6, "--seed", 2]
    run_cli(*argv, "--cond", -1, "--out", tmp_path / "ref")
    run_cli(*argv, "--cond", 1, "--guidance-w", 0, "--out", tmp_path / "w0")
    run_cli(*argv, "--cond", 1, "--guidance-w", 2, "--out", tmp_path / "w2")
    ref = read_samples_dir(tmp_path / "ref", 3, 8, 8, -1)
    w0 = read_samples_dir(tmp_path / "w0", 3, 8, 8, 1)
    w2 = read_samples_dir(tmp_path / "w2", 3, 8, 8, 1)
    check_equal(w0[0], ref[0], "images")
    check_equal(w0[1], ref[1], "layouts")
    with pytest.raises(CheckFailed):
        check_equal(w2[0], ref[0], "images")


def test_tracer_counts_layers_restores_targets_and_reports_absent_ones(tiny, monkeypatch):
    original = sampler.posterior_arrays
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (("gcdp.sampler", "no_such_function", "gone", None),))
    tracer = Tracer()
    with tracer.operation("unguided", 0), tracer.span("cli"):
        cli_out = io.StringIO()
        with contextlib.redirect_stdout(cli_out):
            cli.main(["sample", "--ckpt", str(tiny / "model/model.gcdp"), "--count", "4", "--stride", "6",
                      "--seed", "1", "--out", str(tiny / "traced")])
    assert sampler.posterior_arrays is original
    assert tracer.absent == {"gcdp.sampler.no_such_function"}
    layers = tracer.per_op()[("unguided", 0)]
    assert layers["denoiser.forward"]["calls"] == 6
    assert layers["denoiser.forward"]["rows"] == 24
    assert layers["process.posterior"]["calls"] == 5
    assert layers["io.pgm_write"]["calls"] == 8
    root = tracer.spans[0]
    total_self = sum(layer["self_ms"] for layer in layers.values())
    assert total_self == pytest.approx(1e3 * (root.end - root.start))

    metrics = bench.layer_metrics(tracer.per_op(), "unguided", 4)
    assert metrics["unguided.denoiser.forward_rows_per_item"]["value"] == 6
    assert metrics["unguided.distribution.draw_calls"]["value"] == 6

    # The result line's metrics sum the layers over the round's calls.
    phase = bench.Phase("unguided", "samples_per_s", "samples/s", 4, [], tiny / "traced", lambda out: None)
    round_metrics = bench.round_metrics(tracer.per_op(), [phase])
    assert round_metrics["denoiser.forward_calls"]["value"] == 6
    assert round_metrics["denoiser.forward_rows_per_item"]["value"] == 6
    assert round_metrics["workload_layers_ms"]["value"] > 0


def test_every_workload_reports_every_metric_of_the_manifest(tiny):
    """The result line of every workload holds the same metric names: the
    manifest's end-to-end ones untraced, its per-layer ones traced."""
    manifest = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in manifest["workloads"]} == set(bench.WORKLOADS)
    per_layer = {m["name"] for m in manifest["per_layer"]}
    # A traced round of one call of each kind of phase, and one set-up call.
    tracer = Tracer()
    with tracer.operation("setup", 0), tracer.span("cli"):
        run_cli("generate-data", "--count", 8, "--seed", 3, "--out", tiny / "setup_traced")
    with tracer.operation("train", 0), tracer.span("cli"):
        run_cli("train", "--data", tiny / "data/dataset.gcds", *TINY_MODEL, "--steps", 2,
                "--seed", 5, "--out", tiny / "train_traced")
    phase = bench.Phase("train", "train_steps_per_s", "steps/s", 2, [], tiny / "train_traced", lambda out: None)
    assert set(bench.round_metrics(tracer.per_op(), [phase])) == per_layer
    assert {m["name"] for m in manifest["end_to_end"]} == {"setup_s", "peak_rss_mb", "items_per_s"}
