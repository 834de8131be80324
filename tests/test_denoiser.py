import warnings

import numpy as np
import pytest

from gcdp.denoiser import (
    DenoiserConfig,
    ReferenceDenoiser,
    _scatter_rows,
    sigmoid,
    time_embedding,
)
from gcdp.distribution import ShapeSpec
from gcdp.errors import ValidationError
from gcdp.oracles import finite_diff_grads, max_rel_error


def make_input(model, rng, cond=0, t=3):
    """A batch of one: (x_t (1, N), y_t (1, M), t (1,), cond (1,))."""
    s = model.config.shape
    x_t = rng.standard_normal(s.n_gauss)[None, :]
    y_t = rng.integers(1, s.n_classes + 1, s.n_cat)[None, :]
    return x_t, y_t, np.array([t]), np.array([cond])


class TestForward:
    def test_deterministic(self, tiny_model):
        inp = make_input(tiny_model, np.random.default_rng(0))
        (ax, al, _), (bx, bl, _) = tiny_model.forward_batch(*inp), tiny_model.forward_batch(*inp)
        assert np.array_equal(ax, bx)
        assert np.array_equal(al, bl)

    def test_cond_dropout_changes_output(self, tiny_model):
        rng = np.random.default_rng(1)
        x_t, y_t, t, cond = make_input(tiny_model, rng, cond=0)
        dropped = np.array([-1])
        a, b = tiny_model.forward_batch(x_t, y_t, t, cond)[0], tiny_model.forward_batch(x_t, y_t, t, dropped)[0]
        assert not np.array_equal(a, b)
        # with the null row copied over the cond row the outputs coincide
        tiny_model.params["cond_emb"][-1] = tiny_model.params["cond_emb"][0]
        a2, b2 = tiny_model.forward_batch(x_t, y_t, t, cond)[0], tiny_model.forward_batch(x_t, y_t, t, dropped)[0]
        assert np.array_equal(a2, b2)

    def test_zero_heads_give_zero_outputs(self, tiny_model):
        tiny_model.params["head_x_w"][...] = 0.0
        tiny_model.params["head_x_b"][...] = 0.0
        tiny_model.params["head_y_w"][...] = 0.0
        tiny_model.params["head_y_b"][...] = 0.0
        x0_hat, logits, _ = tiny_model.forward_batch(*make_input(tiny_model, np.random.default_rng(2)))
        assert np.all(x0_hat == 0.0)
        assert np.all(logits == 0.0)

    def test_batch_matches_single(self, small_model):
        rng = np.random.default_rng(3)
        s = small_model.config.shape
        x = rng.standard_normal((5, s.n_gauss))
        y = rng.integers(1, s.n_classes + 1, (5, s.n_cat))
        t = rng.integers(1, 9, 5)
        cond = np.array([0, 1, -1, 0, -1])
        bx, bl, _ = small_model.forward_batch(x, y, t, cond)
        for i in range(5):
            one_x, one_l, _ = small_model.forward_batch(x[i : i + 1], y[i : i + 1], t[i : i + 1], cond[i : i + 1])
            # batch and single-row GEMMs may take different BLAS code paths,
            # so agreement is to rounding, not bitwise
            assert np.allclose(one_x[0], bx[i], rtol=1e-12, atol=1e-12)
            assert np.allclose(one_l[0], bl[i], rtol=1e-12, atol=1e-12)

    def test_shape_and_range_validation(self, tiny_model):
        rng = np.random.default_rng(4)
        with pytest.raises(ValidationError):
            tiny_model.forward_batch(rng.standard_normal((1, 3)), np.array([[1]]), np.array([1]), np.array([0]))
        with pytest.raises(ValidationError):
            tiny_model.forward_batch(rng.standard_normal((1, 2)), np.array([[5]]), np.array([1]), np.array([0]))
        with pytest.raises(ValidationError):
            tiny_model.forward_batch(rng.standard_normal((1, 2)), np.array([[1]]), np.array([1]), np.array([9]))


class TestParams:
    def test_flatten_round_trip(self, tiny_model):
        flat = tiny_model.flat.copy()
        assert flat.shape == (tiny_model.n_params,)
        other = ReferenceDenoiser(tiny_model.config, flat)
        for k in tiny_model.params:
            assert np.array_equal(other.params[k], tiny_model.params[k])

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
        assert np.array_equal(a.flat, b.flat)

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


def per_row_time_embedding(t, dim: int) -> np.ndarray:
    """The embedding as first written, applied to each timestep on its own."""
    half = dim // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / max(half - 1, 1))
    rows = []
    for v in np.asarray(t, dtype=np.float64):
        ang = np.array([[v]]) * freqs[None, :]
        rows.append(np.concatenate([np.sin(ang), np.cos(ang)], axis=1))
    return np.concatenate(rows).reshape(len(rows), 2 * half)


@pytest.mark.parametrize("batch", [1, 2, 32, 1000])
def test_time_embedding_is_bitwise_the_per_row_code(batch):
    uniform = [np.full(batch, v) for v in range(1, 1001)] if batch <= 32 else [np.full(batch, v) for v in (1, 37, 1000)]
    mixed = [np.random.default_rng(batch).integers(1, 1001, batch), np.arange(batch) % 3 + 1]
    for t in uniform + mixed:
        for dim in (4, 16):
            got = time_embedding(t, dim)
            assert got.shape == (batch, dim) and got.flags.writeable
            assert np.array_equal(got, per_row_time_embedding(t, dim))


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


def reference_forward(model, x_t, y_t, t, cond):
    """The forward pass as first written: one concatenation of the input
    parts, out-of-place sums and softplus. Same return contract."""
    cfg, s, p = model.config, model.config.shape, model.params
    dtype = model.flat.dtype
    y_t = np.asarray(y_t, dtype=np.int64)
    batch = x_t.shape[0]
    c_idx = np.where(cond < 0, cfg.n_conds, cond)
    e_lab = p["label_emb"][y_t - 1].reshape(batch, -1)
    h0 = np.concatenate(
        [x_t.astype(dtype, copy=False), e_lab, time_embedding(t, cfg.time_emb_dim).astype(dtype),
         p["cond_emb"][c_idx]],
        axis=1,
    )
    h = h0 @ p["in_w"] + p["in_b"]
    blocks = []
    for b in range(cfg.n_blocks):
        a = h @ p[f"blk{b}_w1"] + p[f"blk{b}_b1"]
        u = np.maximum(a, 0.0) + np.log1p(np.exp(-np.abs(a)))
        blocks.append((h, a, u))
        h = h + u @ p[f"blk{b}_w2"] + p[f"blk{b}_b2"]
    x0_hat = h @ p["head_x_w"] + p["head_x_b"]
    logits = (h @ p["head_y_w"] + p["head_y_b"]).reshape(batch, s.n_cat, s.n_classes)
    cache = (h0, blocks, h, y_t, c_idx)
    return x0_hat.astype(np.float64), logits.astype(np.float64), cache


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("batch", [1, 32, 64])
def test_forward_and_backward_are_bitwise_the_reference(dtype, batch):
    cfg = DenoiserConfig(shape=ShapeSpec(n_gauss=16, n_cat=16, n_classes=4), n_conds=3, hidden=32, n_blocks=2)
    model = ReferenceDenoiser.init(cfg, seed=batch, dtype=dtype)
    rng = np.random.default_rng(batch)
    x = rng.standard_normal((batch, 16))
    y = rng.integers(1, 5, (batch, 16))
    t = rng.integers(1, 101, batch)
    cond = rng.integers(-1, 3, batch)  # -1 selects the null row
    dx = rng.standard_normal((batch, 16))
    dl = rng.standard_normal((batch, 16, 4))
    x0_hat, logits, cache = model.forward_batch(x, y, t, cond)
    ref_x0, ref_logits, ref_cache = reference_forward(model, x, y, t, cond)
    assert np.array_equal(x0_hat, ref_x0) and np.array_equal(logits, ref_logits)
    h0, blocks, h, _, _ = cache
    assert np.array_equal(h0, ref_cache[0]) and np.array_equal(h, ref_cache[2])
    for got, want in zip(blocks, ref_cache[1]):
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
    grads = model.backward_batch(cache, dx, dl)
    assert np.array_equal(grads, model.backward_batch(ref_cache, dx, dl))
    # a second backward over the same cache sees it unchanged
    assert np.array_equal(grads, model.backward_batch(cache, dx, dl))


def _ulps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance in float32 units in the last place between nonnegative a and b."""
    return np.abs(a.view(np.int32).astype(np.int64) - b.view(np.int32))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_matches_scipy_expit(dtype):
    from scipy.special import expit

    x = np.linspace(-100.0, 100.0, 400_001).astype(dtype)
    with warnings.catch_warnings(), np.errstate(over="raise", divide="raise", invalid="raise"):
        warnings.simplefilter("error")
        got = sigmoid(x)
    want = expit(x)
    assert got.dtype == want.dtype == dtype
    if dtype == np.float64:
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)
        return
    # Below about -88.7 expit's float32 loop flushes to 0, while e^x is
    # still a subnormal float32.
    tiny = np.finfo(np.float32).tiny
    normal = want >= tiny
    assert np.all(got[~normal] >= 0.0) and np.all(got[~normal] < tiny)
    # numpy's float32 exp is within 2 ulp of the correctly rounded value, so
    # the sigmoid is within 3 ulp of it, and expit within 2 the other way.
    rounded = expit(x.astype(np.float64)).astype(np.float32)
    assert _ulps(got[normal], rounded[normal]).max() <= 3
    assert _ulps(got[normal], want[normal]).max() <= 4
    assert np.array_equal(got[x >= 0], 1.0 / (1.0 + np.exp(-x[x >= 0])))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_embedding_scatter_is_add_at_in_float64(dtype):
    """_scatter_rows gives np.add.at's sums in float64, rounded once: bit for
    bit np.add.at itself for a float64 model."""
    rng = np.random.default_rng(11)
    idx = rng.integers(0, 5, 4096)
    idx[idx == 3] = 4  # row 3 receives nothing
    wide = rng.standard_normal((4096, 7)).astype(dtype)
    rows = wide[:, 2:5]  # a strided view, as the backward pass passes
    out = np.full((5, 3), np.nan, dtype=dtype)
    _scatter_rows(idx, rows, out)
    want = np.zeros((5, 3))
    np.add.at(want, idx, rows.astype(np.float64))
    assert np.array_equal(out, want.astype(dtype)) and np.all(out[3] == 0.0)
    if dtype == np.float64:
        in_place = np.zeros((5, 3))
        np.add.at(in_place, idx, rows)
        assert np.array_equal(out, in_place)
