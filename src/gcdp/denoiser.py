"""Reference denoiser: a residual MLP with hand-written gradients.

The network consumes the noisy joint state, the timestep, and a discrete
condition ID, and predicts the clean image together with logits over the
clean labels. Inputs are assembled as

    [x_t | label_embed(y_t) | time_embed(t) | cond_embed(c)]

where the label embedding maps each 1-based label to a learned low-width
vector (concatenated with the image along the feature axis), the time
embedding is a fixed sinusoidal code, and dropped or absent conditions
select a learned null row of the condition table. The trunk is a stack of
fully connected residual blocks with a softplus nonlinearity (smooth, so
finite-difference gradient checks are meaningful); two linear heads read
the final hidden state. The backward pass multiplies by softplus's
derivative, the logistic sigmoid, which `sigmoid` evaluates in numpy in
the stable form; the forward pass does not compute it.

All parameters live in one contiguous array whose dtype is the compute
dtype: float32 for models that `init` builds by default (and for every
model a checkpoint holds), float64 where a caller asks for it, as the
finite-difference checks do. Forward passes cast their inputs to that
dtype and return float64 predictions, so the loss, the posterior and the
sampler compute in float64 either way.

Forward and backward passes are plain numpy and fully deterministic;
backward_batch returns exact gradients that the finite-difference oracle
validates coordinate-wise. The gradients of the two embedding tables are
accumulated per column with np.bincount, in float64 and in index order,
and rounded once to the parameter dtype. The forward pass assembles its
input in one preallocated array and adds biases and residuals in place,
into the product it has just formed; addition is commutative in IEEE
arithmetic, so this gives the bits of the out-of-place sums. No array is
written after it enters the backward cache.
"""

from dataclasses import dataclass

import numpy as np

from .distribution import ShapeSpec
from .errors import ValidationError


@dataclass(frozen=True)
class DenoiserConfig:
    shape: ShapeSpec
    n_conds: int
    hidden: int = 256
    n_blocks: int = 4
    label_emb_dim: int = 3
    time_emb_dim: int = 16
    cond_emb_dim: int = 8

    def __post_init__(self):
        if self.n_conds < 1:
            raise ValidationError("n_conds must be positive")
        if self.time_emb_dim % 2 != 0 or self.time_emb_dim < 2:
            raise ValidationError("time_emb_dim must be a positive even number")
        for f in ("hidden", "n_blocks", "label_emb_dim", "cond_emb_dim"):
            if getattr(self, f) < 1:
                raise ValidationError(f"{f} must be positive")

    @property
    def input_dim(self) -> int:
        s = self.shape
        return s.n_gauss + s.n_cat * self.label_emb_dim + self.time_emb_dim + self.cond_emb_dim


PARAM_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


def softplus(x: np.ndarray) -> np.ndarray:
    """log(1 + e^x) as log1p(e^-|x|) + max(x, 0), in one new array."""
    out = np.abs(x)
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    out += np.maximum(x, 0.0)
    return out


def sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-x) in x's dtype, in one new array, as e^min(x, 0) over
    1 + e^-|x|: with e = e^-|x| <= 1, that is 1 / (1 + e) where x >= 0 and
    e / (1 + e) elsewhere, so no exponential overflows and no element
    takes a branch."""
    out = np.minimum(x, 0.0)
    np.exp(out, out=out)
    den = np.abs(x)
    np.negative(den, out=den)
    np.exp(den, out=den)
    den += 1.0
    out /= den
    return out


def _scatter_rows(idx: np.ndarray, rows: np.ndarray, out: np.ndarray):
    """out[r] = the sum of rows[i] over every i with idx[i] == r, one
    np.bincount per column: summed in float64 in index order, then rounded
    once to out's dtype."""
    for j in range(out.shape[1]):
        out[:, j] = np.bincount(idx, weights=rows[:, j], minlength=out.shape[0])


def time_embedding(t: np.ndarray, dim: int) -> np.ndarray:
    """Sinusoidal code of the integer timestep, (B,) -> (B, dim)."""
    half = dim // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / max(half - 1, 1))
    ang = np.asarray(t, dtype=np.float64)[:, None] * freqs[None, :]
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=1)


class ReferenceDenoiser:
    """Trainable denoiser over one contiguous parameter array.

    `flat` holds every parameter in canonical order; its dtype (float32 or
    float64) is the compute dtype of the forward and backward passes.
    `params` maps each name to a view into `flat`, so writing through
    either updates both.
    """

    def __init__(self, config: DenoiserConfig, flat: np.ndarray):
        self.config = config
        self._layout = []
        off = 0
        for name, shape in self.param_shapes(config).items():
            size = int(np.prod(shape))
            self._layout.append((name, off, off + size, shape))
            off += size
        if not (isinstance(flat, np.ndarray) and flat.dtype in PARAM_DTYPES and flat.flags.c_contiguous):
            raise ValidationError("parameters must be a contiguous float32 or float64 array")
        if flat.shape != (off,):
            raise ValidationError(f"flat parameter array has shape {flat.shape}, expected ({off},)")
        self.flat = flat
        self.params = self._views(flat)

    def _views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        return {name: flat[lo:hi].reshape(shape) for name, lo, hi, shape in self._layout}

    @staticmethod
    def param_shapes(config: DenoiserConfig) -> dict[str, tuple[int, ...]]:
        s, h = config.shape, config.hidden
        shapes: dict[str, tuple[int, ...]] = {
            "label_emb": (s.n_classes, config.label_emb_dim),
            "cond_emb": (config.n_conds + 1, config.cond_emb_dim),  # last row = null
            "in_w": (config.input_dim, h),
            "in_b": (h,),
        }
        for b in range(config.n_blocks):
            shapes[f"blk{b}_w1"] = (h, h)
            shapes[f"blk{b}_b1"] = (h,)
            shapes[f"blk{b}_w2"] = (h, h)
            shapes[f"blk{b}_b2"] = (h,)
        shapes["head_x_w"] = (h, s.n_gauss)
        shapes["head_x_b"] = (s.n_gauss,)
        shapes["head_y_w"] = (h, s.n_cat * s.n_classes)
        shapes["head_y_b"] = (s.n_cat * s.n_classes,)
        return shapes

    @classmethod
    def param_count(cls, config: DenoiserConfig) -> int:
        return sum(int(np.prod(shape)) for shape in cls.param_shapes(config).values())

    @classmethod
    def init(cls, config: DenoiserConfig, seed: int, dtype=np.float32) -> "ReferenceDenoiser":
        """He-style initialization of all weight matrices, zero biases.

        The draws are float64 whatever the dtype, so a float32 model holds
        the rounded values of the float64 model with the same seed."""
        rng = np.random.default_rng(seed)
        model = cls(config, np.zeros(cls.param_count(config), dtype=dtype))
        for name, v in model.params.items():
            if name.endswith("_b"):
                continue
            draw = rng.standard_normal(v.shape)
            v[...] = draw if name.endswith("emb") else draw * np.sqrt(2.0 / v.shape[0])
        return model

    @property
    def n_params(self) -> int:
        return self.flat.size

    def _cond_index(self, cond: np.ndarray) -> np.ndarray:
        cond = np.asarray(cond, dtype=np.int64)
        if np.any(cond >= self.config.n_conds):
            raise ValidationError("condition ID out of range")
        return np.where(cond < 0, self.config.n_conds, cond)

    def forward_batch(self, x_t: np.ndarray, y_t: np.ndarray, t: np.ndarray, cond: np.ndarray):
        """Batched forward pass. cond entries < 0 select the null embedding.

        Computes in the parameter dtype and returns float64 predictions:
        (x0_hat (B,N), logits (B,M,K), cache for backward_batch).
        """
        cfg, s, p = self.config, self.config.shape, self.params
        dtype = self.flat.dtype
        x_t = np.asarray(x_t)
        y_t = np.asarray(y_t, dtype=np.int64)
        if x_t.ndim != 2 or x_t.shape[1] != s.n_gauss or y_t.shape != (x_t.shape[0], s.n_cat):
            raise ValidationError("input batch shapes do not match the model's ShapeSpec")
        if np.any(y_t < 1) or np.any(y_t > s.n_classes):
            raise ValidationError("labels must lie in {1..K}")
        batch = x_t.shape[0]
        c_idx = self._cond_index(cond)
        lab_hi = s.n_gauss + s.n_cat * cfg.label_emb_dim
        time_hi = lab_hi + cfg.time_emb_dim
        h0 = np.empty((batch, cfg.input_dim), dtype=dtype)
        h0[:, : s.n_gauss] = x_t
        h0[:, s.n_gauss : lab_hi] = np.take(p["label_emb"], y_t - 1, axis=0).reshape(batch, -1)
        h0[:, lab_hi:time_hi] = time_embedding(t, cfg.time_emb_dim)
        h0[:, time_hi:] = np.take(p["cond_emb"], c_idx, axis=0)
        h = h0 @ p["in_w"]
        h += p["in_b"]
        blocks = []
        for b in range(cfg.n_blocks):
            a = h @ p[f"blk{b}_w1"]
            a += p[f"blk{b}_b1"]
            u = softplus(a)
            blocks.append((h, a, u))
            h_next = u @ p[f"blk{b}_w2"]
            h_next += h
            h_next += p[f"blk{b}_b2"]
            h = h_next
        x0_hat = h @ p["head_x_w"]
        x0_hat += p["head_x_b"]
        logits = h @ p["head_y_w"]
        logits += p["head_y_b"]
        logits = logits.reshape(batch, s.n_cat, s.n_classes)
        cache = (h0, blocks, h, y_t, c_idx)
        return x0_hat.astype(np.float64, copy=False), logits.astype(np.float64, copy=False), cache

    def backward_batch(self, cache, dx0_hat: np.ndarray, dlogits: np.ndarray) -> np.ndarray:
        """Exact parameter gradients for the loss whose output-gradients are
        given, summed over the batch, in a new array laid out like `flat`.

        Each call returns a fresh array, so a caller may keep one call's
        gradients while it makes further calls."""
        cfg, s, p = self.config, self.config.shape, self.params
        h0, blocks, h_fin, y_t, c_idx = cache
        batch = h0.shape[0]
        dtype = self.flat.dtype
        grad = np.empty_like(self.flat)
        g = self._views(grad)
        dx0_hat = np.asarray(dx0_hat, dtype=dtype)
        dlog_flat = np.asarray(dlogits, dtype=dtype).reshape(batch, -1)
        np.matmul(h_fin.T, dx0_hat, out=g["head_x_w"])
        dx0_hat.sum(axis=0, out=g["head_x_b"])
        np.matmul(h_fin.T, dlog_flat, out=g["head_y_w"])
        dlog_flat.sum(axis=0, out=g["head_y_b"])
        dh = dx0_hat @ p["head_x_w"].T + dlog_flat @ p["head_y_w"].T
        for b in range(cfg.n_blocks - 1, -1, -1):
            h_in, a, u = blocks[b]
            du = dh @ p[f"blk{b}_w2"].T
            np.matmul(u.T, dh, out=g[f"blk{b}_w2"])
            dh.sum(axis=0, out=g[f"blk{b}_b2"])
            da = du * sigmoid(a)
            np.matmul(h_in.T, da, out=g[f"blk{b}_w1"])
            da.sum(axis=0, out=g[f"blk{b}_b1"])
            dh = dh + da @ p[f"blk{b}_w1"].T
        np.matmul(h0.T, dh, out=g["in_w"])
        dh.sum(axis=0, out=g["in_b"])
        dh0 = dh @ p["in_w"].T
        lab_lo = s.n_gauss
        lab_hi = lab_lo + s.n_cat * cfg.label_emb_dim
        de_lab = dh0[:, lab_lo:lab_hi].reshape(batch, s.n_cat, cfg.label_emb_dim)
        _scatter_rows((y_t - 1).reshape(-1), de_lab.reshape(-1, cfg.label_emb_dim), g["label_emb"])
        _scatter_rows(c_idx, dh0[:, lab_hi + cfg.time_emb_dim :], g["cond_emb"])
        return grad

