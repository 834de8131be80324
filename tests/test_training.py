import numpy as np
import pytest

from gcdp import training
from gcdp.denoiser import DenoiserConfig, ReferenceDenoiser
from gcdp.distribution import FactorizedGCParams, JointSample, ShapeSpec, kl_divergence, softmax
from gcdp.errors import NumericalError, ValidationError
from gcdp.oracles import finite_diff_grads, max_rel_error
from gcdp.process import one_hot, posterior_arrays, posterior_coeffs, q_marginal_arrays
from gcdp.schedules import NoiseSchedule, cosine_schedule
from gcdp.training import (
    AdamState,
    TrainConfig,
    bound_terms,
    discretized_gauss_loglik,
    normal_cdf,
    prior_term,
    train,
    vlb_loss,
    vlb_terms,
)

from conftest import random_schedule


def toy_problem(seed=0, n=16):
    rng = np.random.default_rng(seed)
    shape = ShapeSpec(n_gauss=2, n_cat=1, n_classes=2)
    cfg = DenoiserConfig(shape=shape, n_conds=1, hidden=8, n_blocks=1, label_emb_dim=2, time_emb_dim=4, cond_emb_dim=2)
    model = ReferenceDenoiser.init(cfg, seed=seed, dtype=np.float64)
    sched = NoiseSchedule(
        beta_gauss=rng.uniform(0.1, 0.6, 8), beta_cat=rng.uniform(0.1, 0.6, 8), check_terminal=False
    )
    x = rng.uniform(-1, 1, (n, 2))
    y = rng.integers(1, 3, (n, 1))
    c = np.zeros(n, dtype=np.int64)
    return model, sched, (x, y, c)


class _PerfectOracle:
    """Stub denoiser returning the exact clean state it was told about."""

    def __init__(self, config, x0, y0, sharpness=200.0):
        self.config = config
        self._x0 = x0
        self._y0 = y0
        self._sharp = sharpness

    def forward_batch(self, x_t, y_t, t, cond):
        k = self.config.shape.n_classes
        logits = self._sharp * one_hot(np.broadcast_to(self._y0, y_t.shape), k)
        return np.broadcast_to(self._x0, x_t.shape).copy(), logits, None

    def backward_batch(self, cache, dx0, dlogits):
        return {}


class TestVlbLoss:
    def test_perfect_prediction_zeroes_kl_terms(self):
        rng = np.random.default_rng(1)
        shape = ShapeSpec(n_gauss=3, n_cat=2, n_classes=3)
        cfg = DenoiserConfig(shape=shape, n_conds=1, hidden=4, n_blocks=1, label_emb_dim=2, time_emb_dim=4, cond_emb_dim=2)
        sched = random_schedule(rng, 6)
        z0 = JointSample(x=rng.uniform(-1, 1, 3), y=rng.integers(1, 4, 2))
        stub = _PerfectOracle(cfg, z0.x[None, :], z0.y[None, :])
        terms = vlb_terms(z0, 0, stub, sched, np.random.default_rng(2))
        # terms[1:T] are the KL terms L_1..L_{T-1}; the decoder and prior
        # terms are not zero even for a perfect prediction
        assert np.all(terms[1:-1] < 1e-6)

    def test_decomposition_nonnegative_and_summable(self, small_model):
        rng = np.random.default_rng(3)
        sched = random_schedule(rng, 7)
        s = small_model.config.shape
        z0 = JointSample(x=rng.uniform(-1, 1, s.n_gauss), y=rng.integers(1, s.n_classes + 1, s.n_cat))
        terms = vlb_terms(z0, 1, small_model, sched, rng)
        assert terms.shape == (8,)
        assert np.all(terms >= 0.0)
        assert np.isfinite(terms.sum())

    def test_one_forward_call_covers_every_step(self, small_model):
        rng = np.random.default_rng(3)
        sched = random_schedule(rng, 7)
        s = small_model.config.shape
        z0 = JointSample(x=rng.uniform(-1, 1, s.n_gauss), y=rng.integers(1, s.n_classes + 1, s.n_cat))
        rows = []
        orig = small_model.forward_batch

        def counting(x, y, t, cond):
            rows.append(x.shape[0])
            return orig(x, y, t, cond)

        small_model.forward_batch = counting
        vlb_terms(z0, 1, small_model, sched, rng)
        assert rows == [7]

    def test_loss_and_bound_draw_z_t_from_the_marginal_once(self, small_model, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args[2])
            return q_marginal_arrays(*args)

        monkeypatch.setattr(training, "q_marginal_arrays", counting)
        rng = np.random.default_rng(3)
        sched = random_schedule(rng, 7)
        s = small_model.config.shape
        x0 = rng.uniform(-1, 1, (5, s.n_gauss))
        y0 = rng.integers(1, s.n_classes + 1, (5, s.n_cat))
        vlb_loss(x0, y0, np.zeros(5, dtype=np.int64), small_model, sched, rng)
        assert len(calls) == 1 and calls[0].shape == (5,)
        calls.clear()
        vlb_terms(JointSample(x=x0[0], y=y0[0]), 1, small_model, sched, rng)
        # one draw over all T rows; the prior term reads its t = T row
        assert len(calls) == 1 and np.array_equal(calls[0], np.arange(1, 8))

    def test_last_bound_term_is_the_prior_term(self, small_model):
        rng = np.random.default_rng(5)
        s = small_model.config.shape
        for sched in (random_schedule(rng, 7), cosine_schedule(100, p=3)):
            z0 = JointSample(x=rng.uniform(-1, 1, s.n_gauss), y=rng.integers(1, s.n_classes + 1, s.n_cat))
            terms = vlb_terms(z0, 1, small_model, sched, rng)
            assert terms[-1] == prior_term(z0, sched, s.n_classes)

    def test_prior_term_ignores_parameters(self, small_model):
        rng = np.random.default_rng(4)
        sched = random_schedule(rng, 7)
        s = small_model.config.shape
        z0 = JointSample(x=rng.uniform(-1, 1, s.n_gauss), y=rng.integers(1, s.n_classes + 1, s.n_cat))
        before = prior_term(z0, sched, s.n_classes)
        for v in small_model.params.values():
            v += 1.0
        assert prior_term(z0, sched, s.n_classes) == before

    def test_prior_term_closed_form(self):
        sched = NoiseSchedule(beta_gauss=np.array([0.5, 0.5]), beta_cat=np.array([0.5, 0.5]), check_terminal=False)
        z0 = JointSample(x=np.array([1.0]), y=np.array([1]))
        # Gaussian: KL(N(0.5, 0.75) || N(0,1)); categorical: KL([5/8,3/8] || [1/2,1/2])
        gauss = 0.5 * (0.75 + 0.25 - 1 - np.log(0.75))
        cat = 0.625 * np.log(1.25) + 0.375 * np.log(0.75)
        assert prior_term(z0, sched, 2) == pytest.approx(gauss + cat, abs=1e-12)

    def test_empty_batch_rejected(self):
        model, sched, (x, y, c) = toy_problem()
        with pytest.raises(ValidationError):
            vlb_loss(x[:0], y[:0], c[:0], model, sched, np.random.default_rng(0))

    def test_unknown_mode_rejected(self):
        model, sched, (x, y, c) = toy_problem()
        with pytest.raises(ValidationError):
            vlb_loss(x, y, c, model, sched, np.random.default_rng(0), mode="nope")

    def test_nonfinite_loss_aborts(self):
        model, sched, (x, y, c) = toy_problem()
        for v in model.params.values():
            v[...] = 1e200
        with np.errstate(all="ignore"):
            with pytest.raises(NumericalError):
                vlb_loss(x, y, c, model, sched, np.random.default_rng(0))

    @pytest.mark.parametrize("mode", ["vlb", "simple"])
    def test_gradients_match_finite_differences(self, mode):
        model, sched, (x, y, c) = toy_problem(n=4)
        worst = 0.0
        for point in range(5):
            prng = np.random.default_rng(50 + point)
            for v in model.params.values():
                v[...] = prng.standard_normal(v.shape) * 0.5
            seed = 900 + point

            def loss_fn():
                return vlb_loss(x, y, c, model, sched, np.random.default_rng(seed), cond_dropout=0.25, mode=mode)[0]

            _, grads, _ = vlb_loss(x, y, c, model, sched, np.random.default_rng(seed), cond_dropout=0.25, mode=mode)
            worst = max(worst, max_rel_error(grads, finite_diff_grads(loss_fn, model.flat)))
        assert worst < 1e-4

    def test_lambda_cat_scales_categorical_part(self):
        model, sched, (x, y, c) = toy_problem()
        _, _, parts1 = vlb_loss(x, y, c, model, sched, np.random.default_rng(5), lambda_cat=1.0)
        _, _, parts2 = vlb_loss(x, y, c, model, sched, np.random.default_rng(5), lambda_cat=2.0)
        assert parts2.cat == pytest.approx(2.0 * parts1.cat, rel=1e-12, abs=0)
        assert parts2.gauss == pytest.approx(parts1.gauss, rel=1e-12, abs=0)


@pytest.mark.parametrize(
    "sched", [random_schedule(np.random.default_rng(12), 12), cosine_schedule(100, p=3), cosine_schedule(1000)]
)
def test_bound_terms_are_posterior_kls(sched):
    # for t >= 2 each item's term is KL(posterior from z0 || posterior from the prediction)
    rng = np.random.default_rng(13)
    n, m, k, batch = 3, 2, 4, 40
    x0 = rng.uniform(-1, 1, (batch, n))
    y0 = rng.integers(1, k + 1, (batch, m))
    x_t = rng.standard_normal((batch, n))
    y_t = rng.integers(1, k + 1, (batch, m))
    t = rng.integers(2, sched.total_steps + 1, batch)
    x0_hat = rng.uniform(-1, 1, (batch, n))
    theta0_hat = softmax(2.0 * rng.standard_normal((batch, m, k)))
    gauss, cat, _, _ = bound_terms(x0, y0, y_t, t, x0_hat, theta0_hat, sched)
    # a prediction within 0.05 of x0 leaves a mean gap small against the
    # posterior variance; the Gaussian term alone must still be the KL, to
    # 1e-10 relative (abs=0: these KLs sit near approx's default 1e-12)
    near = x0 + 0.05 * rng.uniform(-1, 1, (batch, n))
    gauss_near, _, _, _ = bound_terms(x0, y0, y_t, t, near, theta0_hat, sched)
    for i in range(batch):
        coeffs = posterior_coeffs(int(t[i]), int(t[i]) - 1, sched)

        def posterior(x0_i, theta0_i):
            """The one-step posterior of item i, from a batch of one."""
            mu, var, theta = posterior_arrays(x0_i[None], theta0_i[None], x_t[i : i + 1], y_t[i : i + 1], coeffs, k)
            return FactorizedGCParams(mu=mu[0], var=np.full_like(mu[0], var), theta=theta[0])

        clean = posterior(x0[i], one_hot(y0[i], k))
        pred = posterior(x0_hat[i], theta0_hat[i])
        assert gauss[i] + cat[i] == pytest.approx(kl_divergence(clean, pred), rel=1e-10, abs=0)
        pred = posterior(near[i], one_hot(y0[i], k))
        assert gauss_near[i] == pytest.approx(kl_divergence(clean, pred), rel=1e-10, abs=0)


class TestCondDropout:
    def _capture_conds(self, model):
        seen = []
        orig = model.forward_batch

        def wrapper(x, y, t, cond):
            seen.append(np.asarray(cond).copy())
            return orig(x, y, t, cond)

        model.forward_batch = wrapper
        return seen

    def test_probability_zero_never_drops(self):
        model, sched, (x, y, c) = toy_problem()
        seen = self._capture_conds(model)
        vlb_loss(x, y, c, model, sched, np.random.default_rng(0), cond_dropout=0.0)
        assert np.all(np.concatenate(seen) >= 0)

    def test_probability_one_always_drops(self):
        model, sched, (x, y, c) = toy_problem()
        seen = self._capture_conds(model)
        vlb_loss(x, y, c, model, sched, np.random.default_rng(0), cond_dropout=1.0)
        assert np.all(np.concatenate(seen) == -1)


class TestDiscretizedGaussian:
    def test_masses_sum_to_one(self):
        centers = np.linspace(-1 + 1 / 256, 1 - 1 / 256, 256)
        ll, _ = discretized_gauss_loglik(centers, np.full(256, 0.3), 0.2)
        assert np.exp(ll).sum() == pytest.approx(1.0, abs=1e-9)

    def test_tail_bins_catch_out_of_range_mass(self):
        ll_low, _ = discretized_gauss_loglik(np.array([-1.0]), np.array([-5.0]), 0.5)
        assert np.exp(ll_low[0]) == pytest.approx(1.0, abs=1e-6)

    def test_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(6)
        x0 = rng.uniform(-1, 1, 20)
        mu = x0 + rng.normal(0, 0.05, 20)
        h = 1e-6
        _, grad = discretized_gauss_loglik(x0, mu, 0.1)
        up, _ = discretized_gauss_loglik(x0, mu + h, 0.1)
        down, _ = discretized_gauss_loglik(x0, mu - h, 0.1)
        fd = (up - down) / (2 * h)
        assert np.max(np.abs(grad - fd)) < 1e-4

    def test_normal_cdf_matches_scipy_ndtr(self):
        from scipy.special import ndtr

        x = np.concatenate([np.linspace(-38.0, 8.0, 400_001), [-np.inf, np.inf]])
        got, want = normal_cdf(x), ndtr(x)
        assert got.dtype == np.float64 and got.shape == x.shape
        # ndtr underflows to 0 below about -37.5 where erfc still gives a
        # subnormal; everywhere else the two agree to 1e-13 relative
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=np.finfo(np.float64).tiny)
        assert got[-2] == 0.0 and got[-1] == 1.0
        assert normal_cdf(np.zeros((0, 3))).shape == (0, 3)


class TestTrain:
    def test_zero_steps_returns_model_unchanged(self):
        model, sched, data = toy_problem()
        before = model.flat.copy()
        model, opt, trace = train(data, model, sched, TrainConfig(steps=0, batch_size=4, seed=0))
        assert np.array_equal(model.flat, before)
        assert trace == []

    def test_same_seed_identical_parameters(self):
        cfgs = []
        for _ in range(2):
            model, sched, data = toy_problem(seed=3)
            model, _, trace = train(data, model, sched, TrainConfig(steps=30, batch_size=4, seed=11, log_every=10))
            cfgs.append((model.flat, trace))
        assert np.array_equal(cfgs[0][0], cfgs[1][0])
        assert cfgs[0][1] == cfgs[1][1]

    def test_loss_trace_interval(self):
        model, sched, data = toy_problem()
        _, _, trace = train(data, model, sched, TrainConfig(steps=25, batch_size=4, seed=0, log_every=10))
        assert [s for s, _ in trace] == [0, 10, 20, 24]

    def test_loss_decreases_on_toy(self):
        model, sched, data = toy_problem(n=64)
        _, _, trace = train(data, model, sched, TrainConfig(steps=400, batch_size=16, seed=1, log_every=400))
        first, last = trace[0][1], trace[-1][1]
        assert last < first

    def test_empty_dataset_rejected(self):
        model, sched, _ = toy_problem()
        with pytest.raises(ValidationError):
            train((np.zeros((0, 2)), np.zeros((0, 1), dtype=int), np.zeros(0, dtype=int)), model, sched,
                  TrainConfig(steps=1, batch_size=4, seed=0))

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            TrainConfig(steps=-1)
        with pytest.raises(ValidationError):
            TrainConfig(steps=1, cond_dropout=1.5)
        with pytest.raises(ValidationError):
            TrainConfig(steps=1, loss_mode="other")


def test_adam_bias_correction_first_step():
    params = np.array([1.0])
    grads = np.array([0.5])
    st = AdamState.zeros(params)
    adam_lr = 0.1
    from gcdp.training import adam_update

    adam_update(params, grads, st, adam_lr)
    # first step moves by ~lr * sign(grad) regardless of magnitude
    assert params[0] == pytest.approx(1.0 - adam_lr * 0.5 / (0.5 + 1e-8), abs=1e-12)


def reference_adam_step(params, grads, m, v, step, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Reference Adam step, one expression per array."""
    m[...] = beta1 * m + (1.0 - beta1) * grads
    v[...] = beta2 * v + (1.0 - beta2) * grads * grads
    params -= lr * (m / (1.0 - beta1**step)) / (np.sqrt(v / (1.0 - beta2**step)) + eps)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_blocked_adam_matches_reference_across_blocks(dtype):
    from gcdp.training import ADAM_BLOCK, adam_update

    rng = np.random.default_rng(8)
    n = 2 * ADAM_BLOCK + 17  # two full blocks and a partial one
    params = rng.standard_normal(n).astype(dtype)
    ref = params.astype(np.float64)
    st = AdamState.zeros(params)
    m, v = np.zeros(n), np.zeros(n)
    for step in range(1, 4):
        grads = rng.standard_normal(n).astype(dtype)
        adam_update(params, grads, st, 1e-2)
        reference_adam_step(ref, grads.astype(np.float64), m, v, step, 1e-2)
        assert params.dtype == dtype and st.m.dtype == dtype
        assert st.step == step
        # a few roundings of the parameters' magnitude in their own dtype
        assert np.max(np.abs(params - ref)) <= 8 * np.finfo(dtype).eps * np.max(np.abs(ref))


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(7)
    s = softmax(rng.standard_normal((4, 3, 5)) * 50)
    assert np.allclose(s.sum(axis=-1), 1.0)
    assert np.all(s >= 0)
