import numpy as np
import pytest

from gcdp.errors import ValidationError
from gcdp.metrics import (
    class_counts,
    detected_classes,
    frechet_gaussians,
    fsd,
    joint_tv,
    miou,
    semantic_f,
    semantic_precision,
    semantic_recall,
)
from gcdp.scenes import SceneConfig, analytic_statistic_distribution, generate, scene_statistic


def identity_segmenter(image):
    """Test double: the "image" already is the layout the segmenter outputs."""
    return image


class TestSemanticRecall:
    def test_two_of_three_detected(self):
        pairs = [(np.array([1, 3, 3]), {1, 2, 3})]  # detects {1, 3} of {1, 2, 3}
        recall, table = semantic_recall(pairs, identity_segmenter)
        assert recall == pytest.approx(2 / 3)
        assert table == {1: 1.0, 2: 0.0, 3: 1.0}

    def test_superset_detection_gives_one(self):
        pairs = [(np.array([1, 2, 3, 4]), {1, 2}), (np.array([2, 3]), {2, 3})]
        recall, _ = semantic_recall(pairs, identity_segmenter)
        assert recall == 1.0

    def test_hand_average(self):
        pairs = [
            (np.array([1]), {1, 2}),             # 1/2
            (np.array([1, 2, 3]), {1, 2, 3, 4}),  # 3/4
        ]
        recall, _ = semantic_recall(pairs, identity_segmenter)
        assert recall == pytest.approx(0.625)

    def test_monotone_under_added_detections(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            gt = set(rng.choice(np.arange(1, 6), size=3, replace=False).tolist())
            det = set(rng.choice(sorted(gt), size=2, replace=False).tolist())
            missing = sorted(gt - det)
            r1, _ = semantic_recall([(np.array(sorted(det)), gt)], identity_segmenter)
            r2, _ = semantic_recall([(np.array(sorted(det | {missing[0]})), gt)], identity_segmenter)
            assert r2 >= r1

    def test_rejects_empty_inputs(self):
        with pytest.raises(ValidationError):
            semantic_recall([], identity_segmenter)
        with pytest.raises(ValidationError):
            semantic_recall([(np.array([1]), set())], identity_segmenter)


class TestSemanticF:
    def test_perfect(self):
        assert semantic_f(1.0, 1.0) == 1.0

    def test_zero_precision_limit(self):
        assert semantic_f(1.0, 0.0) == 0.0
        assert semantic_f(0.0, 1.0) == 0.0

    def test_harmonic_mean(self):
        assert semantic_f(0.5, 0.75) == pytest.approx(0.6)

    def test_range_validation(self):
        with pytest.raises(ValidationError):
            semantic_f(1.5, 0.5)

    def test_precision_counts_spurious_classes(self):
        pairs = [(np.array([1, 2, 3]), {1, 2})]
        assert semantic_precision(pairs, identity_segmenter) == pytest.approx(2 / 3)


class TestFsd:
    def test_identical_sets_give_zero(self):
        rng = np.random.default_rng(1)
        lays = rng.integers(1, 4, (50, 30))
        assert abs(fsd(lays, lays.copy(), 3)) < 1e-8

    def test_one_dimensional_closed_form(self):
        # means 10 vs 12, equal variances 4: (10-12)^2 + (2-2)^2 = 4
        assert frechet_gaussians(
            np.array([10.0]), np.array([[4.0]]), np.array([12.0]), np.array([[4.0]])
        ) == pytest.approx(4.0, abs=1e-12)

    def test_diagonal_two_dimensional_closed_form(self):
        mu1, mu2 = np.array([1.0, -2.0]), np.array([0.5, 1.0])
        s1, s2 = np.diag([2.0, 5.0]), np.diag([3.0, 1.0])
        expected = np.sum((mu1 - mu2) ** 2) + np.sum((np.sqrt([2.0, 5.0]) - np.sqrt([3.0, 1.0])) ** 2)
        assert frechet_gaussians(mu1, s1, mu2, s2) == pytest.approx(expected, abs=1e-8)

    def test_symmetry_and_self_distance_on_layout_sets(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            k = int(rng.integers(2, 6))
            a = rng.integers(1, k + 1, (20, 16))
            b = rng.integers(1, k + 1, (25, 16))
            d_ab, d_ba = fsd(a, b, k), fsd(b, a, k)
            assert abs(d_ab - d_ba) < 1e-8
            assert abs(fsd(a, a, k)) < 1e-8
            assert d_ab >= -1e-8

    def test_bitwise_symmetric_under_argument_swap(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            k = int(rng.integers(1, 6))
            mu1, mu2 = rng.standard_normal(k), rng.standard_normal(k)
            a, b = rng.standard_normal((k, k)), rng.standard_normal((k, k))
            c1, c2 = a @ a.T + 0.1 * np.eye(k), b @ b.T + 0.1 * np.eye(k)
            assert frechet_gaussians(mu1, c1, mu2, c2) == frechet_gaussians(mu2, c2, mu1, c1)

    def test_needs_two_samples_per_side(self):
        with pytest.raises(ValidationError):
            fsd(np.ones((1, 4), dtype=int), np.ones((5, 4), dtype=int), 2)

    def test_class_counts(self):
        counts = class_counts(np.array([[1, 1, 2], [3, 3, 3]]), 3)
        assert np.array_equal(counts, [[2, 1, 0], [0, 0, 3]])


class TestMiou:
    def test_identical_layouts(self):
        a = np.array([1, 2, 3, 1])
        assert miou(a, a, 3) == 1.0

    def test_disjoint_single_class(self):
        assert miou(np.ones(4, int), np.full(4, 2), 2) == 0.0

    def test_hand_counted_example(self):
        a = np.array([1, 1, 2, 2])
        b = np.array([1, 2, 2, 2])
        assert miou(a, b, 2) == pytest.approx(7 / 12)

    def test_invariant_under_relabeling(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            k = 4
            a = rng.integers(1, k + 1, 40)
            b = rng.integers(1, k + 1, 40)
            perm = rng.permutation(k) + 1
            assert miou(perm[a - 1], perm[b - 1], k) == pytest.approx(miou(a, b, k))

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            miou(np.ones(3, int), np.ones(4, int), 2)


class TestJointTv:
    def test_grammar_samples_have_small_tv(self):
        cfg = SceneConfig(seed=4)
        _, layouts, _ = generate(cfg, 2000)
        assert joint_tv(layouts, cfg) < 0.15

    def test_point_mass(self):
        cfg = SceneConfig(seed=5)
        from gcdp.scenes import analytic_statistic_distribution

        one = generate(cfg, 1)[1][0]
        layouts = np.tile(one, (1000, 1))
        key = scene_statistic(one, cfg)
        p = analytic_statistic_distribution(cfg)[key]
        assert joint_tv(layouts, cfg) == pytest.approx(1.0 - p, abs=1e-12)

    def test_disjoint_support_gives_one(self):
        cfg = SceneConfig(seed=6)
        layouts = np.full((1000, cfg.n_pixels), 3, dtype=int)  # all-blob layout, outside the grammar
        assert joint_tv(layouts, cfg) == pytest.approx(1.0, abs=1e-12)

    def test_minimum_sample_count(self):
        cfg = SceneConfig(seed=7)
        with pytest.raises(ValidationError):
            joint_tv(np.ones((999, cfg.n_pixels), dtype=int), cfg)

    @staticmethod
    def row_loop_tv(layouts, cfg):
        """joint_tv as first written: one scene_statistic call per row."""
        layouts = np.asarray(layouts, dtype=np.int64)
        emp, w = {}, 1.0 / layouts.shape[0]
        for row in layouts:
            key = scene_statistic(row, cfg)
            emp[key] = emp.get(key, 0.0) + w
        ref = analytic_statistic_distribution(cfg)
        return 0.5 * sum(abs(emp.get(k, 0.0) - ref.get(k, 0.0)) for k in set(emp) | set(ref))

    @pytest.mark.parametrize("cfg", [SceneConfig(seed=8), SceneConfig(height=6, width=9, n_classes=6, seed=9)])
    def test_generated_layouts_bitwise_the_row_loop(self, cfg):
        for n in (1000, 2000, 3001):
            layouts = generate(cfg, n)[1]
            assert joint_tv(layouts, cfg) == self.row_loop_tv(layouts, cfg)

    def test_arbitrary_class_sets_bitwise_the_row_loop(self):
        cfg = SceneConfig()
        rng = np.random.default_rng(10)
        grammar = generate(cfg, 1500)[1]
        cases = [
            rng.integers(1, cfg.n_classes + 1, (1000, cfg.n_pixels)),  # every class set of {1..4}
            rng.integers(1, 3, (1200, cfg.n_pixels)) * (rng.random((1200, 1)) < 0.5),  # {1, 2} and sets with 0
            # grammar layouts with a few pixels set to labels outside {1..K}, negative ones included
            np.where(rng.random(grammar.shape) < 0.02, rng.integers(-3, 9, grammar.shape), grammar),
            # a few sets, each on many rows: the running sums of 1/n reach far
            np.repeat(rng.integers(1, cfg.n_classes + 1, (4, cfg.n_pixels)), [997, 1, 3, 999], axis=0),
        ]
        for layouts in cases:
            assert joint_tv(layouts, cfg) == self.row_loop_tv(layouts, cfg)


def test_detected_classes():
    assert detected_classes(np.array([[1, 2], [2, 4]])) == {1, 2, 4}
