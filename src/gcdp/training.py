"""Variational-bound training of the denoiser.

Each step draws, per batch item, a uniform timestep t and a noisy state
z_t from the closed-form marginal, then charges the model:

  t >= 2:  the posterior-matching term, split per modality into
             (c0_t^2 / (2 var_t)) * ||x0 - x0_hat||^2
           for the Gaussian mean (c0_t, var_t the posterior coefficients)
           plus KL(post(y | y_t, y_0) || post(y | y_t, theta0_hat)) for the
           labels, where the predicted PMF enters the posterior's clean
           slot linearly;
  t == 1:  the decoder term: a discretized-Gaussian log likelihood of the
           clean image over 256 uniform bins on [-1, 1] (outermost bins
           extended to +-inf, per-bin mass clamped at 1e-12) with variance
           beta^N_1, plus the label cross entropy under theta0_hat.

Gradients are assembled by hand: closed-form derivatives of the loss with
respect to (x0_hat, logits) are pushed through the network's hand-written
backward pass. A "simple" mode (mean-squared error plus cross entropy)
exists for ablation.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .denoiser import ReferenceDenoiser
from .distribution import JointSample, sample_rows
from .errors import NumericalError, ValidationError
from .process import DENOM_FLOOR, marginal_theta, one_hot
from .schedules import NoiseSchedule

N_BINS = 256
BIN_MASS_FLOOR = 1e-12
INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def discretized_gauss_loglik(x0: np.ndarray, mu: np.ndarray, sigma: float):
    """log P(bin of x0) under N(mu, sigma^2) binned uniformly on [-1, 1].

    Returns (loglik, d loglik / d mu), both elementwise over x0.
    """
    delta = 2.0 / N_BINS
    idx = np.clip(np.floor((x0 + 1.0) / delta), 0, N_BINS - 1)
    lo = -1.0 + idx * delta
    hi = lo + delta
    a = np.where(idx == 0, -np.inf, (lo - mu) / sigma)
    b = np.where(idx == N_BINS - 1, np.inf, (hi - mu) / sigma)
    # survival-function form when both endpoints sit in the upper tail
    mass = np.where(a > 0, ndtr(-a) - ndtr(-b), ndtr(b) - ndtr(a))
    clamped = np.maximum(mass, BIN_MASS_FLOOR)
    pdf_a = np.where(np.isfinite(a), INV_SQRT_2PI * np.exp(-0.5 * a * a), 0.0)
    pdf_b = np.where(np.isfinite(b), INV_SQRT_2PI * np.exp(-0.5 * b * b), 0.0)
    grad = np.where(mass > BIN_MASS_FLOOR, (pdf_a - pdf_b) / (sigma * clamped), 0.0)
    return np.log(clamped), grad


def _softmax_backward(theta: np.ndarray, dtheta: np.ndarray) -> np.ndarray:
    inner = (dtheta * theta).sum(axis=-1, keepdims=True)
    return theta * (dtheta - inner)


@dataclass
class LossBreakdown:
    gauss: float
    cat: float

    @property
    def total(self) -> float:
        return self.gauss + self.cat


def vlb_loss(
    x0: np.ndarray,
    y0: np.ndarray,
    cond: np.ndarray,
    model: ReferenceDenoiser,
    sched: NoiseSchedule,
    rng: np.random.Generator,
    *,
    cond_dropout: float = 0.0,
    lambda_cat: float = 1.0,
    mode: str = "vlb",
) -> tuple[float, np.ndarray, LossBreakdown]:
    """Mean per-item loss over a batch, with exact parameter gradients
    laid out like `model.flat`.

    Consumes the generator in a fixed order (timesteps, image noise, label
    uniforms, dropout mask), so the loss is a deterministic smooth function
    of the parameters once the generator seed is fixed.
    """
    if mode not in ("vlb", "simple"):
        raise ValidationError(f"unknown loss mode {mode!r}")
    x0 = np.asarray(x0, dtype=np.float64)
    y0 = np.asarray(y0, dtype=np.int64)
    batch = x0.shape[0]
    if batch == 0:
        raise ValidationError("batch must be nonempty")
    shape = model.config.shape
    n_cls = shape.n_classes
    big_t = sched.total_steps

    t = rng.integers(1, big_t + 1, size=batch)
    abar_n = sched.alphabar_gauss[t - 1]
    x_t = np.sqrt(abar_n)[:, None] * x0 + np.sqrt(1.0 - abar_n)[:, None] * rng.standard_normal(x0.shape)
    abar_c = sched.alphabar_cat[t - 1]
    theta_t = abar_c[:, None, None] * one_hot(y0, n_cls) + (1.0 - abar_c[:, None, None]) / n_cls
    y_t = sample_rows(theta_t, rng.random(y0.shape))
    dropped = rng.random(batch) < cond_dropout
    cond_in = np.where(dropped, -1, np.asarray(cond, dtype=np.int64))

    x0_hat, logits, cache = model.forward_batch(x_t, y_t, t, cond_in)
    theta0_hat = softmax(logits)

    dx0_hat = np.zeros_like(x0_hat)
    dtheta0 = np.zeros_like(theta0_hat)
    dlogits_direct = np.zeros_like(logits)
    loss_g = np.zeros(batch)
    loss_c = np.zeros(batch)

    if mode == "simple":
        diff = x0_hat - x0
        loss_g = (diff * diff).sum(axis=1) / shape.n_gauss
        dx0_hat = 2.0 * diff / shape.n_gauss
        sel = np.arange(shape.n_cat)
        picked = theta0_hat[np.arange(batch)[:, None], sel[None, :], y0 - 1]
        loss_c = -np.log(np.maximum(picked, 1e-300)).sum(axis=1) / shape.n_cat
        dlogits_direct = (theta0_hat - one_hot(y0, n_cls)) / shape.n_cat
    else:
        m2 = t >= 2
        if np.any(m2):
            ts = t[m2]
            abar_tv = sched.alphabar_gauss[ts - 1]
            abar_pv = sched.alphabar_gauss[ts - 2]
            beta_v = sched.beta_gauss[ts - 1]
            denom = np.maximum(1.0 - abar_tv, DENOM_FLOOR)
            c0 = np.sqrt(abar_pv) * beta_v / denom
            var = np.maximum((1.0 - abar_pv) * beta_v / denom, DENOM_FLOOR)
            w = c0 * c0 / (2.0 * var)
            diff = x0_hat[m2] - x0[m2]
            loss_g[m2] = w * (diff * diff).sum(axis=1)
            dx0_hat[m2] = (2.0 * w)[:, None] * diff

            alpha_cv = sched.alpha_cat[ts - 1][:, None, None]
            abar_cpv = sched.alphabar_cat[ts - 2][:, None, None]
            like = alpha_cv * one_hot(y_t[m2], n_cls) + (1.0 - alpha_cv) / n_cls
            target = like * (abar_cpv * one_hot(y0[m2], n_cls) + (1.0 - abar_cpv) / n_cls)
            target /= target.sum(axis=-1, keepdims=True)
            g = abar_cpv * theta0_hat[m2] + (1.0 - abar_cpv) / n_cls
            u = like * g
            z = u.sum(axis=-1, keepdims=True)
            post = u / z
            loss_c[m2] = (target * (np.log(target) - np.log(post))).sum(axis=(1, 2))
            dtheta0[m2] = abar_cpv * like * (1.0 - target / post) / z

        m1 = ~m2
        if np.any(m1):
            sigma1 = float(np.sqrt(sched.beta_gauss[0]))
            ll, dll = discretized_gauss_loglik(x0[m1], x0_hat[m1], sigma1)
            loss_g[m1] = -ll.sum(axis=1)
            dx0_hat[m1] = -dll
            sub = theta0_hat[m1]
            rows = np.arange(sub.shape[0])[:, None]
            cols = np.arange(shape.n_cat)[None, :]
            picked = sub[rows, cols, y0[m1] - 1]
            loss_c[m1] = -np.log(np.maximum(picked, 1e-300)).sum(axis=1)
            dlogits_direct[m1] = sub - one_hot(y0[m1], n_cls)

    dlogits = (_softmax_backward(theta0_hat, dtheta0) + dlogits_direct) * (lambda_cat / batch)
    grads = model.backward_batch(cache, dx0_hat / batch, dlogits)
    loss = float((loss_g + lambda_cat * loss_c).mean())
    if not np.isfinite(loss):
        raise NumericalError(
            f"non-finite loss (gauss mean {loss_g.mean()!r}, cat mean {loss_c.mean()!r}, "
            f"timesteps {np.unique(t).tolist()})"
        )
    return loss, grads, LossBreakdown(float(loss_g.mean()), float(lambda_cat * loss_c.mean()))


def prior_term(z0: JointSample, sched: NoiseSchedule, n_classes: int) -> float:
    """KL(q(z_T | z_0) || N(0, I) x Uniform); involves no parameters."""
    abar_n = sched.abar_gauss(sched.total_steps)
    v = 1.0 - abar_n
    gauss = 0.5 * (v + abar_n * z0.x**2 - 1.0 - np.log(v)).sum()
    theta = marginal_theta(z0.y, sched.abar_cat(sched.total_steps), n_classes)
    cat = (theta * np.log(theta * n_classes)).sum()
    return float(gauss + cat)


def vlb_terms(
    z0: JointSample,
    cond: int,
    model: ReferenceDenoiser,
    sched: NoiseSchedule,
    rng: np.random.Generator,
    *,
    lambda_cat: float = 1.0,
) -> np.ndarray:
    """Single-draw estimates of every bound term, [L_0, ..., L_{T-1}, L_T].

    The full bound is the sum of the returned array; the final entry is
    the parameter-free prior term.
    """
    big_t = sched.total_steps
    n_cls = model.config.shape.n_classes
    terms = np.zeros(big_t + 1)
    x0 = z0.x[None, :]
    y0 = z0.y[None, :]
    for t in range(1, big_t + 1):
        abar_n = sched.abar_gauss(t)
        x_t = np.sqrt(abar_n) * x0 + np.sqrt(1.0 - abar_n) * rng.standard_normal(x0.shape)
        theta_t = marginal_theta(y0, sched.abar_cat(t), n_cls)
        y_t = sample_rows(theta_t, rng.random(y0.shape))
        x0_hat, logits, _ = model.forward_batch(x_t, y_t, np.array([t]), np.array([cond]))
        theta0_hat = softmax(logits)
        if t == 1:
            sigma1 = float(np.sqrt(sched.beta_gauss[0]))
            ll, _ = discretized_gauss_loglik(x0, x0_hat, sigma1)
            picked = theta0_hat[0, np.arange(y0.shape[1]), y0[0] - 1]
            terms[0] = -ll.sum() - lambda_cat * np.log(np.maximum(picked, 1e-300)).sum()
        else:
            abar_tv = float(sched.alphabar_gauss[t - 1])
            abar_pv = float(sched.alphabar_gauss[t - 2])
            beta_v = float(sched.beta_gauss[t - 1])
            denom = max(1.0 - abar_tv, DENOM_FLOOR)
            c0 = np.sqrt(abar_pv) * beta_v / denom
            var = max((1.0 - abar_pv) * beta_v / denom, DENOM_FLOOR)
            w = c0 * c0 / (2.0 * var)
            gauss = w * ((x0_hat - x0) ** 2).sum()
            alpha_cv = float(sched.alpha_cat[t - 1])
            abar_cpv = float(sched.alphabar_cat[t - 2])
            like = alpha_cv * one_hot(y_t, n_cls) + (1.0 - alpha_cv) / n_cls
            target = like * (abar_cpv * one_hot(y0, n_cls) + (1.0 - abar_cpv) / n_cls)
            target /= target.sum(axis=-1, keepdims=True)
            g = abar_cpv * theta0_hat + (1.0 - abar_cpv) / n_cls
            u = like * g
            post = u / u.sum(axis=-1, keepdims=True)
            cat = (target * (np.log(target) - np.log(post))).sum()
            terms[t - 1] = gauss + lambda_cat * cat
    terms[big_t] = prior_term(z0, sched, n_cls)
    return terms


@dataclass
class TrainConfig:
    steps: int
    batch_size: int = 64
    lr: float = 1e-3
    cond_dropout: float = 0.1
    lambda_cat: float = 1.0
    loss_mode: str = "vlb"
    seed: int = 0
    log_every: int = 100

    def __post_init__(self):
        if self.steps < 0 or self.batch_size < 1:
            raise ValidationError("steps must be >= 0 and batch_size >= 1")
        if not (0.0 <= self.cond_dropout <= 1.0):
            raise ValidationError("cond_dropout must lie in [0, 1]")
        if self.loss_mode not in ("vlb", "simple"):
            raise ValidationError(f"unknown loss mode {self.loss_mode!r}")


@dataclass
class AdamState:
    """First/second-moment accumulators, laid out like the flat parameters."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def zeros(cls, params: np.ndarray) -> "AdamState":
        return cls(np.zeros_like(params), np.zeros_like(params))


# Entries per block of adam_update: the block's temporaries stay in cache.
ADAM_BLOCK = 1 << 16


def adam_update(
    params: np.ndarray,
    grads: np.ndarray,
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
):
    """One Adam step over flat arrays, in place and in the parameters' dtype:
    p -= lr * (m / bc1) / (sqrt(v / bc2) + eps)."""
    state.step += 1
    bc1 = 1.0 - beta1**state.step
    bc2 = 1.0 - beta2**state.step
    tmp = np.empty(min(ADAM_BLOCK, params.size), dtype=params.dtype)
    for lo in range(0, params.size, ADAM_BLOCK):
        hi = min(lo + ADAM_BLOCK, params.size)
        g, m, v, t = grads[lo:hi], state.m[lo:hi], state.v[lo:hi], tmp[: hi - lo]
        m *= beta1
        np.multiply(g, 1.0 - beta1, out=t)
        m += t
        v *= beta2
        np.multiply(g, g, out=t)
        t *= 1.0 - beta2
        v += t
        np.multiply(v, 1.0 / bc2, out=t)
        np.sqrt(t, out=t)
        t += eps
        np.divide(m, t, out=t)
        t *= lr / bc1
        params[lo:hi] -= t


def train(
    data: tuple[np.ndarray, np.ndarray, np.ndarray],
    model: ReferenceDenoiser,
    sched: NoiseSchedule,
    cfg: TrainConfig,
    opt: AdamState | None = None,
) -> tuple[ReferenceDenoiser, AdamState, list[tuple[int, float]]]:
    """Run cfg.steps optimizer steps; deterministic given cfg.seed.

    data is (images (n, N), labels (n, M), conditions (n,)). Returns the
    model (updated in place), the optimizer state, and the loss trace
    sampled every cfg.log_every steps.
    """
    x_all, y_all, c_all = data
    n = x_all.shape[0]
    if n == 0:
        raise ValidationError("dataset must be nonempty")
    if opt is None:
        opt = AdamState.zeros(model.flat)
    rng = np.random.default_rng(cfg.seed)
    trace: list[tuple[int, float]] = []
    for step in range(cfg.steps):
        idx = rng.integers(0, n, size=cfg.batch_size)
        loss, grads, _ = vlb_loss(
            x_all[idx],
            y_all[idx],
            c_all[idx],
            model,
            sched,
            rng,
            cond_dropout=cfg.cond_dropout,
            lambda_cat=cfg.lambda_cat,
            mode=cfg.loss_mode,
        )
        adam_update(model.flat, grads, opt, cfg.lr)
        if step % cfg.log_every == 0 or step == cfg.steps - 1:
            trace.append((step, loss))
    return model, opt, trace
