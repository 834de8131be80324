import numpy as np
import pytest
from scipy.stats import norm

from gcdp.errors import ValidationError
from gcdp.metrics import joint_tv
from gcdp.scenes import (
    BLOB_SIDES,
    SceneConfig,
    SceneSample,
    analytic_statistic_distribution,
    dataset_arrays,
    generate,
    oracle_segment,
    scene_samples,
    scene_statistic,
)


def reference_generate(cfg: SceneConfig, count: int):
    """generate as first written: one layout, image and condition per scene,
    from the scene's own stream. Returns the stacked arrays."""
    palette = np.asarray(cfg.palette)
    xs, ys, cs = [], [], []
    for child in np.random.SeedSequence(cfg.seed).spawn(count):
        rng = np.random.default_rng(child)
        scene_type = cfg.grammar[rng.integers(len(cfg.grammar))]
        horizon = int(rng.integers(1, cfg.height))
        blob = None
        if scene_type == "horizon+blob":
            cls = int(rng.integers(3, cfg.n_classes + 1))
            bh = BLOB_SIDES[rng.integers(len(BLOB_SIDES))]
            bw = BLOB_SIDES[rng.integers(len(BLOB_SIDES))]
            top = int(rng.integers(0, cfg.height - bh + 1))
            left = int(rng.integers(0, cfg.width - bw + 1))
            blob = (cls, bh, bw, top, left)
        y = reference_layout(cfg, horizon, blob)
        x = palette[y - 1] + cfg.sigma_data * rng.standard_normal(cfg.n_pixels)
        np.clip(x, -1.0, 1.0, out=x)
        xs.append(x)
        ys.append(y)
        cs.append(cfg.cond_of_class_set(np.unique(y)))
    n = cfg.n_pixels
    return (np.array(xs, dtype=np.float64).reshape(count, n), np.array(ys, dtype=np.int64).reshape(count, n),
            np.array(cs, dtype=np.int64))


def reference_layout(cfg: SceneConfig, horizon: int, blob=None) -> np.ndarray:
    lay = np.full((cfg.height, cfg.width), 2, dtype=np.int64)
    lay[:horizon, :] = 1
    if blob is not None:
        cls, bh, bw, top, left = blob
        lay[top : top + bh, left : left + bw] = cls
    return lay.reshape(-1)


def reference_statistic_distribution(cfg: SceneConfig) -> dict[tuple, float]:
    """The grammar's law as first enumerated, one layout at a time."""
    dist: dict[tuple, float] = {}
    p_type = 1.0 / len(cfg.grammar)
    p_horizon = 1.0 / (cfg.height - 1)
    for scene_type in cfg.grammar:
        for horizon in range(1, cfg.height):
            if scene_type == "horizon":
                key = scene_statistic(reference_layout(cfg, horizon), cfg)
                dist[key] = dist.get(key, 0.0) + p_type * p_horizon
                continue
            p_geom = 1.0 / ((cfg.n_classes - 2) * len(BLOB_SIDES) ** 2)
            for cls in range(3, cfg.n_classes + 1):
                for bh in BLOB_SIDES:
                    for bw in BLOB_SIDES:
                        n_top, n_left = cfg.height - bh + 1, cfg.width - bw + 1
                        p_pos = 1.0 / (n_top * n_left)
                        for top in range(n_top):
                            for left in range(n_left):
                                lay = reference_layout(cfg, horizon, (cls, bh, bw, top, left))
                                key = scene_statistic(lay, cfg)
                                dist[key] = dist.get(key, 0.0) + p_type * p_horizon * p_geom * p_pos
    return dist


CONFIGS = [
    {},
    {"grammar": ("horizon",)},
    {"grammar": ("horizon+blob",)},
    {"n_classes": 3},
    {"n_classes": 6},
    {"height": 5, "width": 5},
    {"height": 6, "width": 9},
    {"sigma_data": 0.0, "palette": (-1.0, 0.2, 0.4, 0.9)},
]


class TestGenerate:
    def test_noiseless_pixels_sit_on_palette(self):
        cfg = SceneConfig(sigma_data=0.0, seed=1)
        x, y, _ = generate(cfg, 20)
        assert np.array_equal(x, np.asarray(cfg.palette)[y - 1])

    def test_same_seed_identical_datasets(self):
        a = generate(SceneConfig(seed=5), 10)
        b = generate(SceneConfig(seed=5), 10)
        for got, want in zip(a, b):
            assert np.array_equal(got, want)

    def test_scene_type_frequency_within_3_sigma(self):
        n = 10_000
        _, y, _ = generate(SceneConfig(seed=2), n)
        # blob scenes are exactly those with a class beyond {1, 2}
        blob_frac = np.mean((y > 2).any(axis=1))
        assert abs(blob_frac - 0.5) < 3 * np.sqrt(0.25 / n)

    def test_cond_matches_present_classes(self):
        cfg = SceneConfig(seed=3)
        _, y, c = generate(cfg, 200)
        for row, cond in zip(y, c):
            assert cfg.class_sets[cond] == tuple(sorted(np.unique(row)))

    def test_horizon_classes_always_visible(self):
        _, y, _ = generate(SceneConfig(seed=4), 500)
        assert (y == 1).any(axis=1).all() and (y == 2).any(axis=1).all()

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            SceneConfig(palette=(0.0, 0.1), n_classes=2, sigma_data=0.05)  # separation < 4 sigma
        with pytest.raises(ValidationError):
            SceneConfig(grammar=("volcano",))
        with pytest.raises(ValidationError):
            SceneConfig(height=4, width=4)  # blob needs > 4
        with pytest.raises(ValidationError):
            SceneConfig(n_classes=2)  # blob needs a third class
        assert SceneConfig(n_classes=2, grammar=("horizon",), height=2, width=2).n_conds == 1

    def test_dataset_arrays_shapes(self):
        cfg = SceneConfig(seed=6)
        arrays = generate(cfg, 7)
        samples = scene_samples(arrays)
        assert len(samples) == 7 and all(isinstance(s, SceneSample) for s in samples)
        x, y, c = dataset_arrays(samples)
        assert x.shape == (7, 64) and y.shape == (7, 64) and c.shape == (7,)
        assert (x.dtype, y.dtype, c.dtype) == (np.float64, np.int64, np.int64)
        assert np.all((y >= 1) & (y <= 4))
        for got, want in zip((x, y, c), arrays):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_bitwise_the_per_scene_loop_with_many_classes(self):
        cfg = SceneConfig(n_classes=300, sigma_data=0.0, seed=14)
        for got, want in zip(generate(cfg, 200), reference_generate(cfg, 200)):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("kw", CONFIGS)
    @pytest.mark.parametrize("count", [0, 1, 40])
    def test_bitwise_the_per_scene_loop(self, kw, count):
        cfg = SceneConfig(seed=13, **kw)
        for got, want in zip(generate(cfg, count), reference_generate(cfg, count)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)

    def test_prefix_does_not_depend_on_count(self):
        cfg = SceneConfig(seed=14)
        full = generate(cfg, 30)
        for k in (0, 1, 7, 30):
            for got, want in zip(generate(cfg, k), full):
                assert np.array_equal(got, want[:k])

    def test_negative_count_rejected(self):
        with pytest.raises(ValidationError):
            generate(SceneConfig(), -1)


class TestOracleSegment:
    def test_noiseless_recovery_is_exact(self):
        cfg = SceneConfig(sigma_data=0.0, seed=7)
        x, y, _ = generate(cfg, 20)
        assert np.array_equal(oracle_segment(x, cfg), y)

    def test_midpoint_ties_break_to_lower_class(self):
        cfg = SceneConfig(seed=0)
        midpoint = 0.5 * (cfg.palette[0] + cfg.palette[1])
        assert oracle_segment(np.array([midpoint]), cfg)[0] == 1

    def test_default_config_accuracy_bound(self):
        # at the default separation (10 sigma) accuracy far exceeds 1 - Phi(-2)
        cfg = SceneConfig(seed=8)
        x, y, _ = generate(cfg, 200)
        assert np.mean(oracle_segment(x, cfg) != y) <= norm.sf(2.0)

    def test_misclassification_at_separation_bound(self):
        # edge class at exactly 4-sigma separation: one-sided 2-sigma tail
        rng = np.random.default_rng(9)
        cfg = SceneConfig(palette=(-0.75, -0.25, 0.25, 0.75), sigma_data=0.125, seed=9)
        n = 400_000
        pixels = np.clip(cfg.palette[0] + cfg.sigma_data * rng.standard_normal(n), -1.0, 1.0)
        rate = np.mean(oracle_segment(pixels, cfg) != 1)
        p = norm.sf(2.0)
        mc_bound = 3 * np.sqrt(p * (1 - p) / n)
        assert rate <= 2.3e-2 + mc_bound

    def test_batched_segmentation(self):
        cfg = SceneConfig(seed=10)
        x, y, _ = generate(cfg, 5)
        seg = oracle_segment(x, cfg)
        assert seg.shape == y.shape


class TestStatistic:
    def test_analytic_distribution_sums_to_one(self):
        dist = analytic_statistic_distribution(SceneConfig())
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)
        assert all(p > 0 for p in dist.values())

    def test_statistic_keys_match_grammar(self):
        cfg = SceneConfig(seed=11)
        dist = analytic_statistic_distribution(cfg)
        for row in generate(cfg, 300)[1]:
            assert scene_statistic(row, cfg) in dist

    def test_self_tv_is_small(self):
        cfg = SceneConfig(seed=12)
        n = 4000
        _, layouts, _ = generate(cfg, n)
        tv = joint_tv(layouts, cfg)
        dist = analytic_statistic_distribution(cfg)
        bound = 1.5 * sum(np.sqrt(p * (1 - p) / n) for p in dist.values())  # 3 sigma / 2
        assert tv < bound

    @pytest.mark.parametrize("kw", CONFIGS)
    def test_analytic_law_is_bitwise_the_enumeration(self, kw):
        cfg = SceneConfig(**kw)
        assert list(analytic_statistic_distribution(cfg).items()) == list(reference_statistic_distribution(cfg).items())
