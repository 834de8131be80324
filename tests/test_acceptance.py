"""Acceptance criteria, one numbered test per criterion.

Each test prints an `ACCEPTANCE n: PASS/FAIL` line with the measured
quantities. Criteria 5-7 share one real training run (session fixture) and
take tens of minutes combined; criteria 1-4, 8, and 9 are fast. Run with
`pytest tests/test_acceptance.py -v -s`.
"""

import time

import numpy as np
import pytest

from gcdp import io as gio
from gcdp.cli import main as cli_main
from gcdp.denoiser import DenoiserConfig, ReferenceDenoiser
from gcdp.distribution import ShapeSpec
from gcdp.metrics import (
    frechet_gaussians,
    fsd,
    joint_tv,
    miou,
    semantic_f,
    semantic_precision,
    semantic_recall,
)
from gcdp.sampler import GuidanceConfig, default_stride, outpaint_batch, sample_batch
from gcdp.scenes import SceneConfig, dataset_arrays, generate, oracle_segment, scene_samples
from gcdp.schedules import cosine_schedule
from gcdp.training import TrainConfig, train, vlb_loss
from gcdp.verify import (
    check_bayes_posterior,
    check_gradients,
    check_kl_decomposition,
    check_marginal_induction,
    check_marginal_monte_carlo,
)

# Pinned end-to-end configuration. The criterion fixes the training budget
# (20k steps, batch 64) and the dataset (8x8, K=4, two scene types); the
# schedule length and loss weighting are free knobs, calibrated so the plain
# uniform-timestep VLB trains reliably at desk scale.
TOY = SceneConfig(height=8, width=8, n_classes=4, sigma_data=0.05, seed=7)
TRAIN_STEPS = 20_000
TRAIN_BATCH = 64
TOTAL_T = 100
LAMBDA_CAT = 5.0
LEARN_RATE = 1e-3
SAMPLE_STRIDE = 100
GUIDE_W = 2.0  # conditional generation at w >= 1
SWEEP_STEPS = 6_000
N_EVAL = 2000


def report(n, ok: bool, detail: str) -> bool:
    print(f"\nACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_1_bayes_posterior_oracle():
    res = check_bayes_posterior(n_cases=1000, seed=0)
    ok = res.ok and res.seconds < 10.0
    assert report(1, ok, f"{res.detail}; runtime {res.seconds:.2f}s < 10s")


def test_criterion_2_marginal_consistency():
    t0 = time.perf_counter()
    exact = check_marginal_induction(seed=0)
    mc = check_marginal_monte_carlo(seed=0, n_chains=100_000)
    dt = time.perf_counter() - t0
    ok = exact.ok and mc.ok and dt < 60.0
    assert report(2, ok, f"{exact.detail}; {mc.detail}; runtime {dt:.1f}s < 60s")


def test_criterion_3_kl_decomposition():
    res = check_kl_decomposition(n_cases=200, seed=0)
    assert report(3, res.ok, res.detail)


def test_criterion_4_gradient_check():
    res = check_gradients(n_points=100, seed=0)
    assert report(4, res.ok, f"{res.detail}; runtime {res.seconds:.1f}s")


@pytest.fixture(scope="session")
def toy_data():
    return scene_samples(generate(TOY, 4096))


@pytest.fixture(scope="session")
def trained_model(toy_data):
    """The criterion-5 training run, shared with criterion 6."""
    data = dataset_arrays(toy_data)
    shape = ShapeSpec(n_gauss=TOY.n_pixels, n_cat=TOY.n_pixels, n_classes=TOY.n_classes)
    dcfg = DenoiserConfig(shape=shape, n_conds=TOY.n_conds)
    model = ReferenceDenoiser.init(dcfg, seed=0)
    sched = cosine_schedule(TOTAL_T)

    eval_rng_seed = 10_000
    eval_idx = np.random.default_rng(5).integers(0, data[0].shape[0], 256)
    eval_batch = (data[0][eval_idx], data[1][eval_idx], data[2][eval_idx])

    def eval_loss(m):
        return vlb_loss(
            *eval_batch, m, sched, np.random.default_rng(eval_rng_seed), lambda_cat=LAMBDA_CAT
        )[0]

    baseline = eval_loss(model)
    cfg = TrainConfig(
        steps=TRAIN_STEPS, batch_size=TRAIN_BATCH, lr=LEARN_RATE, cond_dropout=0.1,
        lambda_cat=LAMBDA_CAT, seed=0, log_every=500,
    )
    t0 = time.perf_counter()
    model, _, trace = train(data, model, sched, cfg)
    train_seconds = time.perf_counter() - t0
    final = eval_loss(model)
    return dict(
        model=model, sched=sched, baseline_loss=baseline, final_loss=final,
        train_seconds=train_seconds, trace=trace,
    )


@pytest.fixture(scope="session")
def uncond_samples(trained_model):
    rng = np.random.default_rng(123)
    stride = default_stride(TOTAL_T, SAMPLE_STRIDE)
    images, layouts = sample_batch(
        trained_model["model"], trained_model["sched"], np.full(N_EVAL, -1),
        GuidanceConfig(), stride, rng,
    )
    return images, layouts


def test_criterion_5_end_to_end_toy_recovery(trained_model, uncond_samples):
    model, sched = trained_model["model"], trained_model["sched"]
    images, layouts = uncond_samples

    tv = joint_tv(layouts, TOY)
    seg = oracle_segment(images, TOY)
    align = float((seg == layouts).mean())

    conds = np.arange(N_EVAL) % TOY.n_conds
    rng = np.random.default_rng(321)
    stride = default_stride(TOTAL_T, SAMPLE_STRIDE)
    c_images, _ = sample_batch(
        model, sched, conds, GuidanceConfig(scale=GUIDE_W, enabled=True), stride, rng
    )
    pairs = [(c_images[i], set(TOY.class_sets[conds[i]])) for i in range(N_EVAL)]
    segment = lambda img: oracle_segment(img, TOY)
    recall, _ = semantic_recall(pairs, segment)
    precision = semantic_precision(pairs, segment)
    f_score = semantic_f(recall, precision)

    vlb_drop = 1.0 - trained_model["final_loss"] / trained_model["baseline_loss"]
    minutes = trained_model["train_seconds"] / 60.0

    ok_a = tv <= 0.10
    ok_b = align >= 0.90
    ok_c = recall >= 0.95 and f_score >= 0.90
    ok_vlb = vlb_drop >= 0.50
    detail = (
        f"(a) joint TV {tv:.4f} <= 0.10: {ok_a}; "
        f"(b) alignment {align:.4f} >= 0.90: {ok_b}; "
        f"(c) recall {recall:.4f} >= 0.95 and F {f_score:.4f} >= 0.90 at w={GUIDE_W}: {ok_c}; "
        f"VLB drop {100 * vlb_drop:.1f}% >= 50%: {ok_vlb}; "
        f"train {minutes:.1f} min (target < 30)"
    )
    assert report(5, ok_a and ok_b and ok_c and ok_vlb, detail)


def test_criterion_6_outpainting(trained_model, toy_data):
    model, sched = trained_model["model"], trained_model["sched"]
    shape = model.config.shape
    n = 64
    kx, ky, conds = generate(
        SceneConfig(height=8, width=8, n_classes=4, sigma_data=0.05, seed=99), n
    )

    # image known, layout generated (n=1)
    mask_img_known = np.concatenate([np.ones(shape.n_gauss, bool), np.zeros(shape.n_cat, bool)])
    x1, y1 = outpaint_batch(
        model, sched, kx, ky, mask_img_known, 1, conds, GuidanceConfig(), np.random.default_rng(11)
    )
    seg_known = oracle_segment(kx, TOY)
    layout_agree = float((y1 == seg_known).mean())
    known_img_exact = np.array_equal(x1, kx)

    # layout known, image generated (n=5)
    mask_lay_known = np.concatenate([np.zeros(shape.n_gauss, bool), np.ones(shape.n_cat, bool)])
    x2, y2 = outpaint_batch(
        model, sched, kx, ky, mask_lay_known, 5, conds, GuidanceConfig(), np.random.default_rng(12)
    )
    image_agree = float((oracle_segment(x2, TOY) == ky).mean())
    known_lay_exact = np.array_equal(y2, ky)

    ok = layout_agree >= 0.85 and image_agree >= 0.85 and known_img_exact and known_lay_exact
    assert report(
        6,
        ok,
        f"image->layout (n=1) agreement {layout_agree:.4f} >= 0.85; "
        f"layout->image (n=5) agreement {image_agree:.4f} >= 0.85; "
        f"known regions bit-exact: {known_img_exact and known_lay_exact} ({n} samples)",
    )


def test_criterion_7_power_sweep(toy_data):
    data = dataset_arrays(toy_data)
    shape = ShapeSpec(n_gauss=TOY.n_pixels, n_cat=TOY.n_pixels, n_classes=TOY.n_classes)
    rows = []
    ok = True
    for p in (0.5, 1.0, 3.0):
        sched = cosine_schedule(TOTAL_T, p=p)
        model = ReferenceDenoiser.init(DenoiserConfig(shape=shape, n_conds=TOY.n_conds), seed=0)
        cfg = TrainConfig(
            steps=SWEEP_STEPS, batch_size=TRAIN_BATCH, lr=LEARN_RATE, cond_dropout=0.1,
            lambda_cat=LAMBDA_CAT, seed=0, log_every=2000,
        )
        model, _, trace = train(data, model, sched, cfg)
        images, layouts = sample_batch(
            model, sched, np.full(500, -1), GuidanceConfig(),
            default_stride(TOTAL_T, SAMPLE_STRIDE), np.random.default_rng(77),
        )
        align = float((oracle_segment(images, TOY) == layouts).mean())
        rows.append((p, align, trace[-1][1]))
        ok = ok and align >= 0.85
    table = ["  p     alignment  final-loss"] + [
        f"  {p:<5} {align:.4f}     {loss:.3f}" for p, align, loss in rows
    ]
    aligns = [r[1] for r in rows]
    trend = "higher p -> " + (
        "higher alignment" if aligns[-1] > aligns[0] else "lower or flat alignment"
    )
    print("\n" + "\n".join(table))
    print(f"  trend (reported, not asserted): {trend}")
    assert report(7, ok, f"alignments at p=0.5/1/3: {[f'{a:.3f}' for a in aligns]} all >= 0.85 ({SWEEP_STEPS} steps each)")


def test_criterion_8_metric_unit_suite():
    segment = lambda layout: layout
    recall, _ = semantic_recall([(np.array([1, 3, 3]), {1, 2, 3})], segment)
    checks = [abs(recall - 2 / 3) < 1e-12]
    r2, _ = semantic_recall([(np.array([1, 2, 3, 4]), {1, 2}), (np.array([2, 3]), {2, 3})], segment)
    checks.append(r2 == 1.0)
    r3, _ = semantic_recall([(np.array([1]), {1, 2}), (np.array([1, 2, 3]), {1, 2, 3, 4})], segment)
    checks.append(abs(r3 - 0.625) < 1e-12)
    checks.append(semantic_f(1.0, 1.0) == 1.0)
    checks.append(semantic_f(1.0, 0.0) == 0.0)
    checks.append(abs(semantic_f(0.5, 0.75) - 0.6) < 1e-12)
    rng = np.random.default_rng(0)
    lays = rng.integers(1, 4, (40, 16))
    checks.append(abs(fsd(lays, lays.copy(), 3)) < 1e-8)
    checks.append(
        abs(frechet_gaussians(np.array([10.0]), np.array([[4.0]]), np.array([12.0]), np.array([[4.0]])) - 4.0) < 1e-12
    )
    mu1, mu2 = np.array([1.0, -2.0]), np.array([0.5, 1.0])
    s1, s2 = np.diag([2.0, 5.0]), np.diag([3.0, 1.0])
    brute = np.sum((mu1 - mu2) ** 2) + np.sum((np.sqrt([2.0, 5.0]) - np.sqrt([3.0, 1.0])) ** 2)
    checks.append(abs(frechet_gaussians(mu1, s1, mu2, s2) - brute) < 1e-8)
    a = np.array([1, 1, 2, 2])
    b = np.array([1, 2, 2, 2])
    checks.append(miou(a, a, 2) == 1.0)
    checks.append(miou(np.ones(4, int), np.full(4, 2), 2) == 0.0)
    checks.append(abs(miou(a, b, 2) - 7 / 12) < 1e-12)

    from gcdp.scenes import analytic_statistic_distribution, scene_statistic

    _, grammar_layouts, _ = generate(TOY, 2000)
    dist = analytic_statistic_distribution(TOY)
    self_bound = 1.5 * sum(np.sqrt(p * (1 - p) / 2000) for p in dist.values())
    checks.append(joint_tv(grammar_layouts, TOY) < self_bound)
    one = grammar_layouts[0]
    p_bin = dist[scene_statistic(one, TOY)]
    checks.append(abs(joint_tv(np.tile(one, (1000, 1)), TOY) - (1.0 - p_bin)) < 1e-12)
    checks.append(abs(joint_tv(np.full((1000, TOY.n_pixels), 3, dtype=int), TOY) - 1.0) < 1e-12)

    sym_ok = True
    for _ in range(100):
        k = int(rng.integers(2, 6))
        la = rng.integers(1, k + 1, (20, 12))
        lb = rng.integers(1, k + 1, (30, 12))
        sym_ok = sym_ok and fsd(la, lb, k) == fsd(lb, la, k) and abs(fsd(la, la, k)) < 1e-8
    checks.append(sym_ok)
    assert report(8, all(checks), f"{sum(checks)}/{len(checks)} metric example groups pass; "
                                  "FSD symmetry/self-distance on 100 random layout sets")


def test_criterion_9_cli_determinism(tmp_path):
    def run(*argv):
        assert cli_main(list(argv)) == 0

    def tree_bytes(d):
        return b"".join(
            (d / n).read_bytes() for n in sorted(p.name for p in d.iterdir()) if n != "config.txt"
        )

    blobs = {"train": [], "sample": [], "outpaint": []}
    data_dir = tmp_path / "data"
    run("generate-data", "--out", str(data_dir), "--count", "48", "--seed", "21")
    for rep_name in ("a", "b"):
        td = tmp_path / f"train_{rep_name}"
        run(
            "train", "--data", str(data_dir / "dataset.gcds"), "--out", str(td),
            "--steps", "30", "--batch", "8", "--T", "12", "--hidden", "16", "--blocks", "1",
            "--seed", "17",
        )
        blobs["train"].append(tree_bytes(td))
        sd = tmp_path / f"sample_{rep_name}"
        run("sample", "--ckpt", str(td / "model.gcdp"), "--out", str(sd), "--count", "4",
            "--cond", "1", "--guidance-w", "2.0", "--seed", "19")
        blobs["sample"].append(tree_bytes(sd))
        od = tmp_path / f"outpaint_{rep_name}"
        run("outpaint", "--ckpt", str(td / "model.gcdp"), "--known", str(data_dir / "dataset.gcds"),
            "--out", str(od), "--mask-mode", "layout", "--resample-n", "2", "--count", "2",
            "--seed", "23")
        blobs["outpaint"].append(tree_bytes(od))
    ok = all(blobs[k][0] == blobs[k][1] for k in blobs)
    assert report(9, ok, "train/sample/outpaint outputs byte-identical across two equal-seed runs")
