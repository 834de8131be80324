import numpy as np
import pytest

from gcdp.denoiser import (
    DenoiserConfig,
    DenoiserInput,
    DenoiserOutput,
    ReferenceDenoiser,
    forward,
    time_embedding,
)
from gcdp.distribution import ShapeSpec
from gcdp.errors import ValidationError
from gcdp.oracles import finite_diff_grads, max_rel_error


def make_input(model, rng, cond=0, dropped=False, t=3):
    s = model.config.shape
    return DenoiserInput(
        x_t=rng.standard_normal(s.n_gauss),
        y_t=rng.integers(1, s.n_classes + 1, s.n_cat),
        t=t,
        cond=cond,
        cond_dropped=dropped,
    )


class TestForward:
    def test_deterministic(self, tiny_model):
        inp = make_input(tiny_model, np.random.default_rng(0))
        a, b = forward(tiny_model, inp), forward(tiny_model, inp)
        assert np.array_equal(a.x0_hat, b.x0_hat)
        assert np.array_equal(a.theta0_logits, b.theta0_logits)

    def test_cond_dropout_changes_output(self, tiny_model):
        rng = np.random.default_rng(1)
        inp = make_input(tiny_model, rng, cond=0, dropped=False)
        dropped = DenoiserInput(x_t=inp.x_t, y_t=inp.y_t, t=inp.t, cond=0, cond_dropped=True)
        a, b = forward(tiny_model, inp), forward(tiny_model, dropped)
        assert not np.array_equal(a.x0_hat, b.x0_hat)
        # with the null row copied over the cond row the outputs coincide
        tiny_model.params["cond_emb"][-1] = tiny_model.params["cond_emb"][0]
        a2, b2 = forward(tiny_model, inp), forward(tiny_model, dropped)
        assert np.array_equal(a2.x0_hat, b2.x0_hat)

    def test_zero_heads_give_zero_outputs(self, tiny_model):
        tiny_model.params["head_x_w"][...] = 0.0
        tiny_model.params["head_x_b"][...] = 0.0
        tiny_model.params["head_y_w"][...] = 0.0
        tiny_model.params["head_y_b"][...] = 0.0
        out = forward(tiny_model, make_input(tiny_model, np.random.default_rng(2)))
        assert np.all(out.x0_hat == 0.0)
        assert np.all(out.theta0_logits == 0.0)

    def test_batch_matches_single(self, small_model):
        rng = np.random.default_rng(3)
        s = small_model.config.shape
        x = rng.standard_normal((5, s.n_gauss))
        y = rng.integers(1, s.n_classes + 1, (5, s.n_cat))
        t = rng.integers(1, 9, 5)
        cond = np.array([0, 1, -1, 0, -1])
        bx, bl, _ = small_model.forward_batch(x, y, t, cond)
        for i in range(5):
            one = forward(
                small_model,
                DenoiserInput(
                    x_t=x[i], y_t=y[i], t=int(t[i]),
                    cond=None if cond[i] < 0 else int(cond[i]),
                    cond_dropped=bool(cond[i] < 0),
                ),
            )
            # batch and single-row GEMMs may take different BLAS code paths,
            # so agreement is to rounding, not bitwise
            assert np.allclose(one.x0_hat, bx[i], rtol=1e-12, atol=1e-12)
            assert np.allclose(one.theta0_logits, bl[i], rtol=1e-12, atol=1e-12)

    def test_shape_and_range_validation(self, tiny_model):
        rng = np.random.default_rng(4)
        with pytest.raises(ValidationError):
            tiny_model.forward_batch(rng.standard_normal((1, 3)), np.array([[1]]), np.array([1]), np.array([0]))
        with pytest.raises(ValidationError):
            tiny_model.forward_batch(rng.standard_normal((1, 2)), np.array([[5]]), np.array([1]), np.array([0]))
        with pytest.raises(ValidationError):
            tiny_model.forward_batch(rng.standard_normal((1, 2)), np.array([[1]]), np.array([1]), np.array([9]))

    def test_input_contract(self):
        with pytest.raises(ValidationError):
            DenoiserInput(x_t=np.zeros(2), y_t=np.array([1]), t=1, cond=None, cond_dropped=False)
        with pytest.raises(ValidationError):
            DenoiserInput(x_t=np.zeros(2), y_t=np.array([1]), t=0, cond=0)


class TestParams:
    def test_flatten_round_trip(self, tiny_model):
        flat = tiny_model.flatten()
        assert flat.shape == (tiny_model.n_params,)
        other = ReferenceDenoiser.init(tiny_model.config, seed=99, dtype=np.float64)
        other.load_flat(flat)
        for k in tiny_model.params:
            assert np.array_equal(other.params[k], tiny_model.params[k])

    def test_load_flat_rejects_wrong_size(self, tiny_model):
        with pytest.raises(ValidationError):
            tiny_model.load_flat(np.zeros(tiny_model.n_params + 1))

    def test_params_are_views_of_flat(self, tiny_model):
        tiny_model.params["in_b"][0] = 7.0
        assert 7.0 in tiny_model.flat
        tiny_model.flat[...] = 0.0
        assert all(np.all(v == 0.0) for v in tiny_model.params.values())

    def test_init_defaults_to_float32(self, tiny_model):
        f32 = ReferenceDenoiser.init(tiny_model.config, seed=0)
        assert f32.flat.dtype == np.float32 and tiny_model.flat.dtype == np.float64
        assert all(v.dtype == np.float32 for v in f32.params.values())
        assert np.array_equal(f32.flat, tiny_model.flat.astype(np.float32))

    def test_rejects_bad_flat_arrays(self, tiny_model):
        cfg, n = tiny_model.config, tiny_model.n_params
        for bad in (np.zeros(n, dtype=np.float16), np.zeros(n + 1), np.zeros((n, 1)), np.zeros(2 * n)[::2],
                    tiny_model.params):
            with pytest.raises(ValidationError):
                ReferenceDenoiser(cfg, bad)

    def test_init_is_seeded(self):
        cfg = DenoiserConfig(
            shape=ShapeSpec(n_gauss=2, n_cat=1, n_classes=2), n_conds=1, hidden=4, n_blocks=1,
            label_emb_dim=2, time_emb_dim=2, cond_emb_dim=2,
        )
        a, b = ReferenceDenoiser.init(cfg, 5), ReferenceDenoiser.init(cfg, 5)
        assert np.array_equal(a.flatten(), b.flatten())

    def test_config_validation(self):
        shape = ShapeSpec(n_gauss=2, n_cat=1, n_classes=2)
        with pytest.raises(ValidationError):
            DenoiserConfig(shape=shape, n_conds=0)
        with pytest.raises(ValidationError):
            DenoiserConfig(shape=shape, n_conds=1, time_emb_dim=3)


def test_time_embedding_shape_and_determinism():
    e = time_embedding(np.array([1, 500, 1000]), 16)
    assert e.shape == (3, 16)
    assert np.array_equal(e, time_embedding(np.array([1, 500, 1000]), 16))
    assert not np.allclose(e[0], e[1])


def test_backward_matches_finite_differences(tiny_model):
    """Network-only gradient check through a fixed linear readout."""
    rng = np.random.default_rng(6)
    s = tiny_model.config.shape
    x = rng.standard_normal((3, s.n_gauss))
    y = rng.integers(1, s.n_classes + 1, (3, s.n_cat))
    t = rng.integers(1, 9, 3)
    cond = np.array([0, -1, 0])
    wx = rng.standard_normal((3, s.n_gauss))
    wl = rng.standard_normal((3, s.n_cat, s.n_classes))

    def loss_fn():
        x0_hat, logits, _ = tiny_model.forward_batch(x, y, t, cond)
        return float((wx * x0_hat).sum() + (wl * logits).sum())

    x0_hat, logits, cache = tiny_model.forward_batch(x, y, t, cond)
    grads = tiny_model.backward_batch(cache, wx, wl)
    fd = finite_diff_grads(loss_fn, tiny_model.flat)
    assert max_rel_error(grads, fd) < 1e-6
    # each call's gradients land in a new array
    assert tiny_model.backward_batch(cache, wx, wl) is not grads


def test_float32_forward_matches_float64_copy():
    # the default architecture at the 8x8, K=4 toy shape
    cfg = DenoiserConfig(shape=ShapeSpec(n_gauss=64, n_cat=64, n_classes=4), n_conds=5)
    f32 = ReferenceDenoiser.init(cfg, seed=0)
    f64 = ReferenceDenoiser(cfg, f32.flat.astype(np.float64))
    rng = np.random.default_rng(7)
    x = rng.standard_normal((32, 64))
    y = rng.integers(1, 5, (32, 64))
    t = rng.integers(1, 101, 32)
    cond = rng.integers(-1, 5, 32)
    x32, l32, _ = f32.forward_batch(x, y, t, cond)
    x64, l64, _ = f64.forward_batch(x, y, t, cond)
    assert x32.dtype == l32.dtype == np.float64
    for a, b in ((x32, x64), (l32, l64)):
        assert np.max(np.abs(a - b)) <= 1e-5 * np.max(np.abs(b))


def test_guide_shapes_must_match(tiny_model):
    from gcdp.sampler import guide_predictions

    a = DenoiserOutput(x0_hat=np.zeros(2), theta0_logits=np.zeros((1, 2)))
    b = DenoiserOutput(x0_hat=np.zeros(3), theta0_logits=np.zeros((1, 2)))
    with pytest.raises(ValidationError):
        guide_predictions(a, b, 1.0)
