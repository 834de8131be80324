import numpy as np
import pytest

from gcdp.denoiser import DenoiserConfig, DenoiserOutput, ReferenceDenoiser
from gcdp.distribution import JointSample, ShapeSpec
from gcdp.errors import NumericalError, ValidationError
from gcdp.sampler import (
    GuidanceConfig,
    OutpaintSpec,
    ancestral_sample,
    default_stride,
    guide_predictions,
    outpaint,
    outpaint_batch,
    sample_batch,
    strided_sample,
)
from gcdp.schedules import NoiseSchedule, cosine_schedule

from conftest import random_schedule


@pytest.fixture
def setup(small_model):
    sched = random_schedule(np.random.default_rng(0), 12)
    return small_model, sched


class TestGuidance:
    def _outs(self):
        rng = np.random.default_rng(1)
        mk = lambda: DenoiserOutput(x0_hat=rng.standard_normal(3), theta0_logits=rng.standard_normal((2, 4)))
        return mk(), mk()

    def test_w1_returns_conditional(self):
        c, u = self._outs()
        g = guide_predictions(c, u, 1.0)
        assert np.array_equal(g.x0_hat, c.x0_hat)
        assert np.array_equal(g.theta0_logits, c.theta0_logits)

    def test_w0_returns_unconditional(self):
        c, u = self._outs()
        g = guide_predictions(c, u, 0.0)
        assert np.array_equal(g.x0_hat, u.x0_hat)
        assert np.array_equal(g.theta0_logits, u.theta0_logits)

    def test_linear_extrapolation(self):
        c = DenoiserOutput(x0_hat=np.array([1.0]), theta0_logits=np.array([[1.0, 0.0]]))
        u = DenoiserOutput(x0_hat=np.array([0.0]), theta0_logits=np.array([[0.0, 0.0]]))
        g = guide_predictions(c, u, 2.0)
        assert g.x0_hat[0] == 2.0
        assert g.theta0_logits[0, 0] == 2.0

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            GuidanceConfig(scale=-1.0)
        with pytest.raises(ValidationError):
            GuidanceConfig(scale=float("nan"))

    def test_enabled_w1_matches_disabled(self, setup):
        model, sched = setup
        a = ancestral_sample(model, sched, 1, GuidanceConfig(scale=1.0, enabled=True), np.random.default_rng(5))
        b = ancestral_sample(model, sched, 1, GuidanceConfig(enabled=False), np.random.default_rng(5))
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)

    def test_guided_and_conditional_differ_at_w2(self, setup):
        model, sched = setup
        a = ancestral_sample(model, sched, 1, GuidanceConfig(scale=2.0, enabled=True), np.random.default_rng(5))
        b = ancestral_sample(model, sched, 1, GuidanceConfig(enabled=False), np.random.default_rng(5))
        assert not np.array_equal(a.x, b.x)


class TestStrided:
    def test_full_stride_bit_identical_to_ancestral(self, setup):
        model, sched = setup
        steps = range(1, sched.total_steps + 1)
        a = strided_sample(model, sched, 0, GuidanceConfig(), steps, np.random.default_rng(2))
        b = ancestral_sample(model, sched, 0, GuidanceConfig(), np.random.default_rng(2))
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)

    def test_step_validation(self, setup):
        model, sched = setup
        rng = np.random.default_rng(0)
        for bad in ([], [3, 2, sched.total_steps], [0, sched.total_steps], [1, 2]):
            with pytest.raises(ValidationError):
                strided_sample(model, sched, 0, GuidanceConfig(), bad, rng)

    def test_default_stride_contents(self):
        s = default_stride(1000, 100)
        assert len(s) == 100
        assert s[0] == 1 and s[-1] == 1000
        assert default_stride(10, 100) == list(range(1, 11))
        with pytest.raises(ValidationError):
            default_stride(10, 0)

    def test_ten_times_fewer_denoiser_calls(self):
        # the accelerated setting: 100 of 1000 steps -> 10x fewer model calls
        shape = ShapeSpec(n_gauss=2, n_cat=1, n_classes=2)
        cfg = DenoiserConfig(shape=shape, n_conds=1, hidden=4, n_blocks=1, label_emb_dim=2, time_emb_dim=2, cond_emb_dim=2)
        calls = {"n": 0}

        class Counting(ReferenceDenoiser):
            def forward_batch(self, *a, **k):
                calls["n"] += 1
                return super().forward_batch(*a, **k)

        model = Counting.init(cfg, 0)
        sched = cosine_schedule(1000)
        rng = np.random.default_rng(3)
        strided_sample(model, sched, None, GuidanceConfig(), default_stride(1000, 100), rng)
        fast = calls["n"]
        calls["n"] = 0
        strided_sample(model, sched, None, GuidanceConfig(), range(1, 1001), rng)
        assert fast == 100
        assert calls["n"] == 1000

    def test_outputs_well_formed_over_seeds(self, setup):
        model, sched = setup
        k = model.config.shape.n_classes
        for seed in range(100):
            z = strided_sample(model, sched, None, GuidanceConfig(), [1, 4, 8, 12], np.random.default_rng(seed))
            assert np.all(np.isfinite(z.x))
            assert np.all((z.y >= 1) & (z.y <= k))

    def test_seed_determinism(self, setup):
        model, sched = setup
        a = strided_sample(model, sched, 0, GuidanceConfig(), [1, 6, 12], np.random.default_rng(9))
        b = strided_sample(model, sched, 0, GuidanceConfig(), [1, 6, 12], np.random.default_rng(9))
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)

    def test_nonfinite_abort_names_timestep(self, setup):
        model, sched = setup
        for v in model.params.values():
            v[...] = 1e200
        with np.errstate(all="ignore"):
            with pytest.raises(NumericalError, match="timestep"):
                ancestral_sample(model, sched, 0, GuidanceConfig(), np.random.default_rng(0))


class TestClippedPrediction:
    def _record_states(self, model):
        seen = []
        orig = model.forward_batch

        def wrapper(x, y, t, cond):
            seen.append(float(np.max(np.abs(x))))
            return orig(x, y, t, cond)

        model.forward_batch = wrapper
        return seen

    def test_scaled_up_head_keeps_every_state_bounded(self, setup):
        model, sched = setup
        s = model.config.shape
        model.params["head_x_w"][...] *= 10.0  # unclipped, the chain reaches |x| ~ 1e4
        seen = self._record_states(model)
        conds = np.zeros(8, dtype=int)
        x, _ = sample_batch(model, sched, conds, GuidanceConfig(scale=3.0, enabled=True),
                            range(1, sched.total_steps + 1), np.random.default_rng(0))
        assert np.all(np.abs(x) <= 1.0)
        mask = np.concatenate([np.zeros(s.n_gauss, bool), np.ones(s.n_cat, bool)])
        known_y = np.ones((8, s.n_cat), dtype=int)
        x, _ = outpaint_batch(model, sched, np.zeros((8, s.n_gauss)), known_y, mask, 3, conds, GuidanceConfig(),
                              np.random.default_rng(1))
        assert np.all(np.abs(x) <= 1.0)
        assert len(seen) > sched.total_steps and max(seen) < 10.0

    def test_infinite_prediction_still_raises(self, setup):
        model, sched = setup
        orig = model.forward_batch

        def inf_image(x, y, t, cond):
            x0_hat, logits, cache = orig(x, y, t, cond)
            x0_hat[0, 0] = np.inf
            return x0_hat, logits, cache

        model.forward_batch = inf_image
        with pytest.raises(NumericalError, match="non-finite denoiser prediction"):
            sample_batch(model, sched, np.zeros(2, dtype=int), GuidanceConfig(), [1, sched.total_steps],
                         np.random.default_rng(0))


class TestOutpaint:
    def _spec(self, model, rng, mask):
        s = model.config.shape
        known = JointSample(
            x=rng.uniform(-1, 1, s.n_gauss), y=rng.integers(1, s.n_classes + 1, s.n_cat)
        )
        return OutpaintSpec(known=known, mask=mask, resample_n=2)

    def test_all_true_mask_returns_known(self, setup):
        model, sched = setup
        rng = np.random.default_rng(4)
        s = model.config.shape
        spec = self._spec(model, rng, np.ones(s.n_gauss + s.n_cat, bool))
        out = outpaint(model, sched, spec, 0, GuidanceConfig(), np.random.default_rng(1))
        assert np.array_equal(out.x, spec.known.x)
        assert np.array_equal(out.y, spec.known.y)

    def test_all_false_mask_matches_ancestral(self, setup):
        model, sched = setup
        rng = np.random.default_rng(5)
        s = model.config.shape
        spec = OutpaintSpec(
            known=self._spec(model, rng, np.zeros(s.n_gauss + s.n_cat, bool)).known,
            mask=np.zeros(s.n_gauss + s.n_cat, bool),
            resample_n=3,
        )
        a = outpaint(model, sched, spec, 0, GuidanceConfig(), np.random.default_rng(6))
        b = ancestral_sample(model, sched, 0, GuidanceConfig(), np.random.default_rng(6))
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)

    def test_known_region_bit_exact_mixed_mask(self, setup):
        model, sched = setup
        rng = np.random.default_rng(7)
        s = model.config.shape
        mask = rng.random(s.n_gauss + s.n_cat) < 0.5
        spec = self._spec(model, rng, mask)
        out = outpaint(model, sched, spec, 1, GuidanceConfig(), np.random.default_rng(8))
        mx, my = mask[: s.n_gauss], mask[s.n_gauss :]
        assert np.array_equal(out.x[mx], spec.known.x[mx])
        assert np.array_equal(out.y[my], spec.known.y[my])
        assert np.all((out.y >= 1) & (out.y <= s.n_classes))

    def test_seed_determinism(self, setup):
        model, sched = setup
        rng = np.random.default_rng(9)
        s = model.config.shape
        mask = rng.random(s.n_gauss + s.n_cat) < 0.3
        spec = self._spec(model, rng, mask)
        a = outpaint(model, sched, spec, 0, GuidanceConfig(), np.random.default_rng(10))
        b = outpaint(model, sched, spec, 0, GuidanceConfig(), np.random.default_rng(10))
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)

    def test_resample_uses_more_model_calls(self, setup):
        model, sched = setup
        s = model.config.shape
        calls = {"n": 0}
        orig = model.forward_batch

        def wrapper(*a, **k):
            calls["n"] += 1
            return orig(*a, **k)

        model.forward_batch = wrapper
        rng = np.random.default_rng(11)
        mask = np.zeros(s.n_gauss + s.n_cat, bool)
        mask[0] = True
        known = JointSample(x=np.zeros(s.n_gauss), y=np.ones(s.n_cat, dtype=int))
        outpaint(model, sched, OutpaintSpec(known=known, mask=mask, resample_n=1), 0, GuidanceConfig(), rng)
        single = calls["n"]
        calls["n"] = 0
        outpaint(model, sched, OutpaintSpec(known=known, mask=mask, resample_n=3), 0, GuidanceConfig(), rng)
        total = sched.total_steps
        assert single == total
        assert calls["n"] == 3 * (total - 1) + 1  # no resampling at t = 1

    def test_spec_validation(self):
        known = JointSample(x=np.zeros(2), y=np.array([1]))
        with pytest.raises(ValidationError):
            OutpaintSpec(known=known, mask=np.ones(2, bool), resample_n=1)
        with pytest.raises(ValidationError):
            OutpaintSpec(known=known, mask=np.ones(3, bool), resample_n=0)

    def test_batch_shares_mask(self, setup):
        model, sched = setup
        s = model.config.shape
        rng = np.random.default_rng(12)
        mask = np.concatenate([np.ones(s.n_gauss, bool), np.zeros(s.n_cat, bool)])
        kx = rng.uniform(-1, 1, (3, s.n_gauss))
        ky = rng.integers(1, s.n_classes + 1, (3, s.n_cat))
        x, y = outpaint_batch(model, sched, kx, ky, mask, 1, np.zeros(3, dtype=int), GuidanceConfig(), rng)
        assert np.array_equal(x, kx)
        assert y.shape == (3, s.n_cat)
