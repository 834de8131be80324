import numpy as np
import pytest

from gcdp import process, sampler
from gcdp.denoiser import DenoiserConfig, ReferenceDenoiser
from gcdp.distribution import ShapeSpec, row_sum, sample_rows, softmax
from gcdp.errors import NumericalError, ValidationError
from gcdp.process import NORM_FLOOR, gauss_posterior_coeffs, one_hot, uniform_mix
from gcdp.sampler import GuidanceConfig, default_stride, outpaint_batch, sample_batch
from gcdp.schedules import NoiseSchedule, cosine_schedule

from conftest import random_schedule


@pytest.fixture
def setup(small_model):
    sched = random_schedule(np.random.default_rng(0), 12)
    return small_model, sched


def every_step(sched):
    """The ancestral chain: every timestep 1..T."""
    return range(1, sched.total_steps + 1)


class _TwoBranchStub:
    """Predicts image 0.25 and logits (1, 0) under a condition, image 0 and
    logits (0, 2) under the null condition, whatever the noisy state."""

    def __init__(self):
        self.config = DenoiserConfig(shape=ShapeSpec(n_gauss=3, n_cat=2, n_classes=2), n_conds=1)

    def forward_batch(self, x_t, y_t, t, cond):
        c = np.asarray(cond)[:, None] >= 0
        x0_hat = np.where(c, 0.25, 0.0) * np.ones_like(x_t)
        logits = np.where(c[..., None], [1.0, 0.0], [0.0, 2.0]) * np.ones(y_t.shape + (2,))
        return x0_hat, logits, None


class TestGuidance:
    def _guided(self, w):
        """One visited step: the sampler returns the guided prediction itself."""
        sched = random_schedule(np.random.default_rng(1), 4)
        guidance = GuidanceConfig(scale=w, enabled=True)
        return sample_batch(_TwoBranchStub(), sched, np.zeros(3, dtype=int), guidance, [4], np.random.default_rng(2))

    def test_w1_returns_conditional(self):
        x, y = self._guided(1.0)
        assert np.all(x == 0.25) and np.all(y == 1)

    def test_w0_returns_unconditional(self):
        x, y = self._guided(0.0)
        assert np.all(x == 0.0) and np.all(y == 2)

    def test_linear_extrapolation(self):
        # x_u + w (x_c - x_u) on the image; logits (2, -2) at w = 2, (0.5, 1) at w = 0.5
        x, y = self._guided(2.0)
        assert np.all(x == 0.5) and np.all(y == 1)
        x, y = self._guided(0.5)
        assert np.all(x == 0.125) and np.all(y == 2)

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            GuidanceConfig(scale=-1.0)
        with pytest.raises(ValidationError):
            GuidanceConfig(scale=float("nan"))

    def test_enabled_w1_matches_disabled(self, setup):
        model, sched = setup
        cond = np.array([1])
        ax, ay = sample_batch(model, sched, cond, GuidanceConfig(scale=1.0, enabled=True), every_step(sched),
                              np.random.default_rng(5))
        bx, by = sample_batch(model, sched, cond, GuidanceConfig(enabled=False), every_step(sched),
                              np.random.default_rng(5))
        assert np.array_equal(ax, bx) and np.array_equal(ay, by)

    def test_guided_and_conditional_differ_at_w2(self, setup):
        model, sched = setup
        cond = np.array([1])
        ax, _ = sample_batch(model, sched, cond, GuidanceConfig(scale=2.0, enabled=True), every_step(sched),
                             np.random.default_rng(5))
        bx, _ = sample_batch(model, sched, cond, GuidanceConfig(enabled=False), every_step(sched),
                             np.random.default_rng(5))
        assert not np.array_equal(ax, bx)


class TestStrided:
    def test_full_stride_bit_identical_to_ancestral(self, setup):
        model, sched = setup
        # the full stride as default_stride gives it, against the explicit step list
        steps = default_stride(sched.total_steps, sched.total_steps)
        ax, ay = sample_batch(model, sched, np.array([0]), GuidanceConfig(), steps, np.random.default_rng(2))
        bx, by = sample_batch(model, sched, np.array([0]), GuidanceConfig(), every_step(sched),
                              np.random.default_rng(2))
        assert np.array_equal(ax, bx) and np.array_equal(ay, by)

    def test_step_validation(self, setup):
        model, sched = setup
        rng = np.random.default_rng(0)
        for bad in ([], [3, 2, sched.total_steps], [0, sched.total_steps], [1, 2]):
            with pytest.raises(ValidationError):
                sample_batch(model, sched, np.array([0]), GuidanceConfig(), bad, rng)

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
        sample_batch(model, sched, np.array([-1]), GuidanceConfig(), default_stride(1000, 100), rng)
        fast = calls["n"]
        calls["n"] = 0
        sample_batch(model, sched, np.array([-1]), GuidanceConfig(), range(1, 1001), rng)
        assert fast == 100
        assert calls["n"] == 1000

    def test_outputs_well_formed_over_seeds(self, setup):
        model, sched = setup
        k = model.config.shape.n_classes
        for seed in range(100):
            x, y = sample_batch(model, sched, np.array([-1]), GuidanceConfig(), [1, 4, 8, 12],
                                np.random.default_rng(seed))
            assert np.all(np.isfinite(x))
            assert np.all((y >= 1) & (y <= k))

    def test_seed_determinism(self, setup):
        model, sched = setup
        ax, ay = sample_batch(model, sched, np.array([0]), GuidanceConfig(), [1, 6, 12], np.random.default_rng(9))
        bx, by = sample_batch(model, sched, np.array([0]), GuidanceConfig(), [1, 6, 12], np.random.default_rng(9))
        assert np.array_equal(ax, bx) and np.array_equal(ay, by)

    def test_nonfinite_abort_names_timestep(self, setup):
        model, sched = setup
        for v in model.params.values():
            v[...] = 1e200
        with np.errstate(all="ignore"):
            with pytest.raises(NumericalError, match="timestep"):
                sample_batch(model, sched, np.array([0]), GuidanceConfig(), every_step(sched), np.random.default_rng(0))


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
    def _known(self, model, rng):
        """One known sample as a batch of one: (known_x (1, N), known_y (1, M))."""
        s = model.config.shape
        return rng.uniform(-1, 1, (1, s.n_gauss)), rng.integers(1, s.n_classes + 1, (1, s.n_cat))

    def test_all_true_mask_returns_known(self, setup):
        model, sched = setup
        rng = np.random.default_rng(4)
        s = model.config.shape
        kx, ky = self._known(model, rng)
        mask = np.ones(s.n_gauss + s.n_cat, bool)
        x, y = outpaint_batch(model, sched, kx, ky, mask, 2, np.array([0]), GuidanceConfig(), np.random.default_rng(1))
        assert np.array_equal(x, kx)
        assert np.array_equal(y, ky)

    def test_all_false_mask_matches_ancestral(self, setup):
        model, sched = setup
        rng = np.random.default_rng(5)
        s = model.config.shape
        kx, ky = self._known(model, rng)
        mask = np.zeros(s.n_gauss + s.n_cat, bool)
        ax, ay = outpaint_batch(model, sched, kx, ky, mask, 3, np.array([0]), GuidanceConfig(),
                                np.random.default_rng(6))
        bx, by = sample_batch(model, sched, np.array([0]), GuidanceConfig(), every_step(sched),
                              np.random.default_rng(6))
        assert np.array_equal(ax, bx) and np.array_equal(ay, by)

    def test_known_region_bit_exact_mixed_mask(self, setup):
        model, sched = setup
        rng = np.random.default_rng(7)
        s = model.config.shape
        mask = rng.random(s.n_gauss + s.n_cat) < 0.5
        kx, ky = self._known(model, rng)
        x, y = outpaint_batch(model, sched, kx, ky, mask, 2, np.array([1]), GuidanceConfig(), np.random.default_rng(8))
        mx, my = mask[: s.n_gauss], mask[s.n_gauss :]
        assert np.array_equal(x[:, mx], kx[:, mx])
        assert np.array_equal(y[:, my], ky[:, my])
        assert np.all((y >= 1) & (y <= s.n_classes))

    def test_seed_determinism(self, setup):
        model, sched = setup
        rng = np.random.default_rng(9)
        s = model.config.shape
        mask = rng.random(s.n_gauss + s.n_cat) < 0.3
        kx, ky = self._known(model, rng)
        ax, ay = outpaint_batch(model, sched, kx, ky, mask, 2, np.array([0]), GuidanceConfig(),
                                np.random.default_rng(10))
        bx, by = outpaint_batch(model, sched, kx, ky, mask, 2, np.array([0]), GuidanceConfig(),
                                np.random.default_rng(10))
        assert np.array_equal(ax, bx) and np.array_equal(ay, by)

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
        kx, ky = np.zeros((1, s.n_gauss)), np.ones((1, s.n_cat), dtype=int)
        outpaint_batch(model, sched, kx, ky, mask, 1, np.array([0]), GuidanceConfig(), rng)
        single = calls["n"]
        calls["n"] = 0
        outpaint_batch(model, sched, kx, ky, mask, 3, np.array([0]), GuidanceConfig(), rng)
        total = sched.total_steps
        assert single == total
        assert calls["n"] == 3 * (total - 1) + 1  # no resampling at t = 1

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


# One invalid input per check of outpaint_batch: the arguments that change
# a valid batch of two over the model's shape s, and the message.
BAD_OUTPAINT_INPUTS = {
    "mask_length": (lambda s: {"mask": np.ones(s.n_gauss + s.n_cat - 1, bool)}, r"mask length must be N \+ M"),
    "resample_n_0": (lambda s: {"resample_n": 0}, "resample_n must be >= 1"),
    "known_x_1d": (lambda s: {"known_x": np.zeros(s.n_gauss)}, r"known_x must be \(B, N\)"),
    "known_x_width": (lambda s: {"known_x": np.zeros((2, s.n_gauss + 1))}, r"known_x must be \(B, N\)"),
    "known_y_width": (lambda s: {"known_y": np.ones((2, s.n_cat - 1), dtype=np.int64)}, r"known_y must be \(B, M\)"),
    "known_y_batch": (lambda s: {"known_y": np.ones((3, s.n_cat), dtype=np.int64)}, r"known_y must be \(B, M\)"),
    "conds_batch": (lambda s: {"conds": np.zeros(3, dtype=np.int64)}, r"conds must be \(B,\)"),
    "conds_2d": (lambda s: {"conds": np.zeros((2, 1), dtype=np.int64)}, r"conds must be \(B,\)"),
    "nan_pixel": (lambda s: {"known_x": np.where(np.arange(s.n_gauss) == 0, np.nan, np.zeros((2, s.n_gauss)))},
                  "known pixels must be finite"),
    "inf_pixel": (lambda s: {"known_x": np.where(np.arange(s.n_gauss) == 3, -np.inf, np.zeros((2, s.n_gauss)))},
                  "known pixels must be finite"),
    "label_0": (lambda s: {"known_y": np.where(np.arange(s.n_cat) == 2, 0, np.ones((2, s.n_cat), dtype=np.int64))},
                "known labels must lie in"),
    "label_above_k": (
        lambda s: {"known_y": np.where(np.arange(s.n_cat) == s.n_cat - 1, s.n_classes + 1,
                                       np.ones((2, s.n_cat), dtype=np.int64))},
        "known labels must lie in",
    ),
}


class TestOutpaintValidation:
    """outpaint_batch checks its known samples ahead of every path, the
    all-known early return included."""

    @pytest.mark.parametrize("case", list(BAD_OUTPAINT_INPUTS))
    def test_each_invalid_input_raises(self, setup, case):
        model, sched = setup
        s = model.config.shape
        change, message = BAD_OUTPAINT_INPUTS[case]
        args = {
            "known_x": np.zeros((2, s.n_gauss)),
            "known_y": np.ones((2, s.n_cat), dtype=np.int64),
            "mask": np.ones(s.n_gauss + s.n_cat, bool),
            "resample_n": 1,
            "conds": np.zeros(2, dtype=np.int64),
        }
        x, y = outpaint_batch(model, sched, guidance=GuidanceConfig(), rng=np.random.default_rng(0), **args)
        assert np.array_equal(x, args["known_x"]) and np.array_equal(y, args["known_y"])
        with pytest.raises(ValidationError, match=message):
            outpaint_batch(model, sched, guidance=GuidanceConfig(), rng=np.random.default_rng(0), **{**args, **change(s)})


def _reference_outpaint(model, sched, known_x, known_y, mask, resample_n, conds, guidance, rng):
    """Resampled outpainting as one loop that builds every law whole, on
    every inner iteration, from one-hot rows: the known region's marginal
    at s, the joint posterior and the one-step re-noising kernel."""
    shape = model.config.shape
    n_gauss, k = shape.n_gauss, shape.n_classes
    batch = conds.shape[0]

    def predict(x, y, t):
        t_arr = np.full(batch, t)
        xc, lc, _ = model.forward_batch(x, y, t_arr, conds)
        if guidance.enabled and guidance.scale != 1.0:
            xu, lu, _ = model.forward_batch(x, y, t_arr, np.full(batch, -1))
            xc = xu + guidance.scale * (xc - xu)
            lc = lu + guidance.scale * (lc - lu)
        return np.clip(xc, -1.0, 1.0), softmax(lc)

    def draw(mu, var, theta):
        x = mu + np.sqrt(var) * rng.standard_normal(mu.shape)
        return x, sample_rows(theta, rng.random(theta.shape[:-1]))

    x, y = draw(np.zeros((batch, n_gauss)), 1.0, np.full((batch, shape.n_cat, k), 1.0 / k))
    desc = list(range(sched.total_steps, 0, -1))
    for t, s in zip(desc, desc[1:] + [0]):
        inner = resample_n if s > 0 else 1
        for it in range(inner):
            xk, yk = known_x, known_y
            if s > 0:
                abar = sched.abar_gauss(s)
                theta_k = uniform_mix(one_hot(known_y, k), sched.abar_cat(s), k)
                xk, yk = draw(np.sqrt(abar) * known_x, np.maximum(1.0 - abar, 1e-12), theta_k)
            x0_hat, theta0 = predict(x, y, t)
            if s > 0:
                c0, ct, var = gauss_posterior_coeffs(t, s, sched)
                like = uniform_mix(one_hot(y, k), sched.abar_cat(t) / sched.abar_cat(s), k)
                unnorm = like * uniform_mix(theta0, sched.abar_cat(s), k)
                x_next, y_next = draw(c0 * x0_hat + ct * x, var, unnorm / np.maximum(row_sum(unnorm), NORM_FLOOR))
            else:
                x_next, y_next = x0_hat, np.argmax(theta0, axis=-1) + 1
            x_next = np.where(mask[None, :n_gauss], xk, x_next)
            y_next = np.where(mask[None, n_gauss:], yk, y_next)
            if it < inner - 1:
                bn = float(sched.beta_gauss[t - 1])
                theta_f = uniform_mix(one_hot(y_next, k), float(sched.alpha_cat[t - 1]), k)
                x, y = draw(np.sqrt(1.0 - bn) * x_next, bn, theta_f)
            else:
                x, y = x_next, y_next
    return x, y


def _count_calls(monkeypatch, calls, module, name):
    """Replace module.name, for the test, by a wrapper that counts its calls
    in calls[name]."""
    fn = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


def _masks(s):
    """The layout (image known), image (layout known) and a fixed partial mask."""
    n, m = s.n_gauss, s.n_cat
    partial = np.zeros(n + m, bool)
    partial[[0, 2, 3, n + 1, n + 4, n + 5]] = True
    return {
        "layout": np.concatenate([np.ones(n, bool), np.zeros(m, bool)]),
        "image": np.concatenate([np.zeros(n, bool), np.ones(m, bool)]),
        "partial": partial,
    }


class TestOutpaintMatchesTheWholeLawLoop:

    @pytest.mark.parametrize("mode", ["layout", "image", "partial"])
    @pytest.mark.parametrize("resample_n", [1, 3])
    @pytest.mark.parametrize("w", [1.0, 2.0])
    def test_outputs_and_generator_state_are_bitwise_equal(self, setup, mode, resample_n, w):
        model, sched = setup
        s = model.config.shape
        data = np.random.default_rng(20)
        kx = data.uniform(-1, 1, (4, s.n_gauss))
        ky = data.integers(1, s.n_classes + 1, (4, s.n_cat))
        conds = np.array([0, 1, 1, 0])
        mask = _masks(s)[mode]
        guidance = GuidanceConfig(scale=w, enabled=True)
        rng, ref_rng = np.random.default_rng(21), np.random.default_rng(21)
        x, y = outpaint_batch(model, sched, kx, ky, mask, resample_n, conds, guidance, rng)
        x_ref, y_ref = _reference_outpaint(model, sched, kx, ky, mask, resample_n, conds, guidance, ref_rng)
        assert x.dtype == x_ref.dtype and x.tobytes() == x_ref.tobytes()
        assert y.dtype == y_ref.dtype and np.array_equal(y, y_ref)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_all_known_labels_build_no_label_posterior(self, setup, monkeypatch):
        model, sched = setup
        s = model.config.shape
        calls = {"softmax": 0, "cat_posterior_theta": 0}
        # the sampler takes the PMF; process.posterior_arrays builds its posterior
        _count_calls(monkeypatch, calls, sampler, "softmax")
        _count_calls(monkeypatch, calls, process, "cat_posterior_theta")
        masks = _masks(s)
        kx, ky = np.zeros((2, s.n_gauss)), np.ones((2, s.n_cat), dtype=np.int64)
        conds = np.zeros(2, dtype=np.int64)
        outpaint_batch(model, sched, kx, ky, masks["image"], 3, conds, GuidanceConfig(), np.random.default_rng(0))
        assert calls == {"softmax": 0, "cat_posterior_theta": 0}
        outpaint_batch(model, sched, kx, ky, masks["layout"], 1, conds, GuidanceConfig(), np.random.default_rng(0))
        # one label posterior per transition, and the decoder mode at t = 1
        assert calls == {"softmax": sched.total_steps, "cat_posterior_theta": sched.total_steps - 1}


class TestOneTransitionBody:
    """Every posterior draw goes through process.posterior_arrays and every
    re-noise through process.q_step_arrays, as the sampler looks them up."""

    @pytest.fixture
    def counts(self, monkeypatch):
        calls = {"posterior_arrays": 0, "q_step_arrays": 0}
        for name in calls:
            _count_calls(monkeypatch, calls, sampler, name)
        return calls

    def test_strided_sampling_makes_one_posterior_per_transition_and_no_renoise(self, setup, counts):
        model, sched = setup
        steps = [1, 4, 5, 9, sched.total_steps]
        sample_batch(model, sched, np.array([0, -1, 1]), GuidanceConfig(), steps, np.random.default_rng(3))
        assert counts == {"posterior_arrays": len(steps) - 1, "q_step_arrays": 0}

    @pytest.mark.parametrize("mode", ["layout", "image", "partial"])
    def test_outpainting_makes_n_posteriors_and_n_minus_1_renoises_per_transition(self, setup, counts, mode):
        model, sched = setup
        s = model.config.shape
        data = np.random.default_rng(22)
        kx = data.uniform(-1, 1, (3, s.n_gauss))
        ky = data.integers(1, s.n_classes + 1, (3, s.n_cat))
        conds = np.array([1, 0, 1])
        mask = _masks(s)[mode]
        rng, ref_rng = np.random.default_rng(23), np.random.default_rng(23)
        x, y = outpaint_batch(model, sched, kx, ky, mask, 3, conds, GuidanceConfig(), rng)
        transitions = sched.total_steps - 1
        assert counts == {"posterior_arrays": 3 * transitions, "q_step_arrays": 2 * transitions}
        x_ref, y_ref = _reference_outpaint(model, sched, kx, ky, mask, 3, conds, GuidanceConfig(), ref_rng)
        assert x.tobytes() == x_ref.tobytes() and np.array_equal(y, y_ref)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
