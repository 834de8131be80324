"""Variational-bound training of the denoiser.

Each step draws, per batch item, a uniform timestep t and a noisy state
z_t from the closed-form marginal process.q_marginal_arrays, then charges
the model:

  t >= 2:  the posterior-matching term, split per modality into
             (c0_t^2 / (2 var_t)) * ||x0 - x0_hat||^2
           for the Gaussian mean (c0_t, var_t the posterior coefficients)
           plus KL(post(y | y_t, y_0) || post(y | y_t, theta0_hat)) for the
           labels, where the predicted PMF enters the posterior's clean
           slot linearly;
  t == 1:  the decoder term: a discretized-Gaussian log likelihood of the
           clean image over 256 uniform bins on [-1, 1] (outermost bins
           extended to +-inf, per-bin mass clamped at 1e-12) with variance
           beta^N_1, plus the label cross entropy under theta0_hat. The
           bin masses are differences of the normal CDF, which `normal_cdf`
           evaluates as erfc(-x / sqrt 2) / 2 with libm's math.erfc.

Both t >= 2 parts are the KL between the posterior that `process` builds
from the clean sample and the one it builds from the prediction; one
function, `bound_terms`, gives every per-item term for the batch loss and
for the per-t bound of `vlb_terms`. This module reads the schedule only
through `NoiseSchedule.abar_gauss`/`abar_cat` and the `process` functions,
apart from the decoder's variance beta^N_1. Gradients are assembled by hand:
closed-form derivatives of the loss with respect to (x0_hat, logits) are
pushed through the network's hand-written backward pass. A "simple" mode
(mean-squared error plus cross entropy) exists for ablation.
"""

import math
from dataclasses import dataclass

import numpy as np

from .denoiser import ReferenceDenoiser
from .distribution import FactorizedGCParams, JointSample, kl_divergence, row_sum, softmax
from .distribution import sample_rows  # noqa: F401 (uncalled; a perfbench/tracing.py target)
from .errors import NumericalError, ValidationError
from .process import cat_posterior_theta, draw, gauss_posterior_coeffs, one_hot, q_marginal_arrays, uniform_mix
from .schedules import NoiseSchedule

N_BINS = 256
BIN_MASS_FLOOR = 1e-12
INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)
_erfc = np.frompyfunc(math.erfc, 1, 1)


def normal_cdf(x: np.ndarray) -> np.ndarray:
    """The standard normal CDF, erfc(-x / sqrt 2) / 2 elementwise in float64;
    1 at +inf and 0 at -inf. One Python call per element: the decoder term
    evaluates it only on the t = 1 items of a batch."""
    return 0.5 * _erfc(np.multiply(x, -math.sqrt(0.5))).astype(np.float64)


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
    # survival-function form, Phi(-a) - Phi(-b), when both endpoints sit in the upper tail
    flip = np.where(a > 0, -1.0, 1.0)
    mass = flip * (normal_cdf(flip * b) - normal_cdf(flip * a))
    clamped = np.maximum(mass, BIN_MASS_FLOOR)
    pdf_a = np.where(np.isfinite(a), INV_SQRT_2PI * np.exp(-0.5 * a * a), 0.0)
    pdf_b = np.where(np.isfinite(b), INV_SQRT_2PI * np.exp(-0.5 * b * b), 0.0)
    grad = np.where(mass > BIN_MASS_FLOOR, (pdf_a - pdf_b) / (sigma * clamped), 0.0)
    return np.log(clamped), grad


def _label_nll(theta: np.ndarray, y0: np.ndarray) -> np.ndarray:
    """Per-item -sum_i log theta[i, y0_i] of (B, M, K) PMFs at (B, M) labels."""
    picked = np.take_along_axis(theta, (y0 - 1)[..., None], axis=-1)[..., 0]
    return -np.log(np.maximum(picked, 1e-300)).sum(axis=1)


def _softmax_backward(theta: np.ndarray, dtheta: np.ndarray) -> np.ndarray:
    inner = row_sum(dtheta * theta)
    return theta * (dtheta - inner)


@dataclass
class LossBreakdown:
    gauss: float
    cat: float


def bound_terms(
    x0: np.ndarray,
    y0: np.ndarray,
    y_t: np.ndarray,
    t: np.ndarray,
    x0_hat: np.ndarray,
    theta0_hat: np.ndarray,
    sched: NoiseSchedule,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-item bound terms at timesteps t (B,), with their derivatives.

    Returns (gauss (B,), cat (B,), d gauss / d x0_hat (B, N),
    d cat / d logits (B, M, K)). For t >= 2 the two parts are the KL
    between the posteriors over z_{t-1} that process.gauss_posterior_coeffs
    and process.cat_posterior_theta build from the clean sample and from
    the prediction; for t == 1 they are the decoder term.
    """
    n_cls = theta0_hat.shape[-1]
    loss_g = np.empty(t.shape[0])
    loss_c = np.empty(t.shape[0])
    dx0_hat = np.empty_like(x0_hat)
    dlogits = np.empty_like(theta0_hat)

    m2 = t >= 2
    if np.any(m2):
        ts = t[m2]
        c0, _, var = gauss_posterior_coeffs(ts, ts - 1, sched)
        w = c0 * c0 / (2.0 * var)
        diff = x0_hat[m2] - x0[m2]
        loss_g[m2] = w * (diff * diff).sum(axis=1)
        dx0_hat[m2] = (2.0 * w)[:, None] * diff

        abar_s = sched.abar_cat(ts - 1)[:, None, None]
        alpha = sched.abar_cat(ts)[:, None, None] / abar_s
        theta = theta0_hat[m2]
        target = cat_posterior_theta(one_hot(y0[m2], n_cls), y_t[m2], alpha, abar_s, n_cls)
        post = cat_posterior_theta(theta, y_t[m2], alpha, abar_s, n_cls)
        loss_c[m2] = (target * (np.log(target) - np.log(post))).sum(axis=(1, 2))
        # post depends on theta through the prior factor g alone
        g = uniform_mix(theta, abar_s, n_cls)
        dlogits[m2] = _softmax_backward(theta, abar_s * (post - target) / g)

    m1 = ~m2
    if np.any(m1):
        sigma1 = float(np.sqrt(sched.beta_gauss[0]))
        ll, dll = discretized_gauss_loglik(x0[m1], x0_hat[m1], sigma1)
        loss_g[m1] = -ll.sum(axis=1)
        dx0_hat[m1] = -dll
        loss_c[m1] = _label_nll(theta0_hat[m1], y0[m1])
        dlogits[m1] = theta0_hat[m1] - one_hot(y0[m1], n_cls)
    return loss_g, loss_c, dx0_hat, dlogits


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

    Consumes the generator in a fixed order (timesteps, the process.draw of
    z_t, dropout mask), so the loss is a deterministic smooth function of
    the parameters once the generator seed is fixed.
    """
    if mode not in ("vlb", "simple"):
        raise ValidationError(f"unknown loss mode {mode!r}")
    x0 = np.asarray(x0, dtype=np.float64)
    y0 = np.asarray(y0, dtype=np.int64)
    batch = x0.shape[0]
    if batch == 0:
        raise ValidationError("batch must be nonempty")
    shape = model.config.shape

    t = rng.integers(1, sched.total_steps + 1, size=batch)
    x_t, y_t = draw(*q_marginal_arrays(x0, y0, t, sched, shape.n_classes), rng)
    dropped = rng.random(batch) < cond_dropout
    cond_in = np.where(dropped, -1, np.asarray(cond, dtype=np.int64))

    x0_hat, logits, cache = model.forward_batch(x_t, y_t, t, cond_in)
    theta0_hat = softmax(logits)

    if mode == "simple":
        diff = x0_hat - x0
        loss_g = (diff * diff).sum(axis=1) / shape.n_gauss
        dx0_hat = 2.0 * diff / shape.n_gauss
        loss_c = _label_nll(theta0_hat, y0) / shape.n_cat
        dlogits = (theta0_hat - one_hot(y0, shape.n_classes)) / shape.n_cat
    else:
        loss_g, loss_c, dx0_hat, dlogits = bound_terms(x0, y0, y_t, t, x0_hat, theta0_hat, sched)

    grads = model.backward_batch(cache, dx0_hat / batch, dlogits * (lambda_cat / batch))
    loss = float((loss_g + lambda_cat * loss_c).mean())
    if not np.isfinite(loss):
        raise NumericalError(
            f"non-finite loss (gauss mean {loss_g.mean()!r}, cat mean {loss_c.mean()!r}, "
            f"timesteps {np.unique(t).tolist()})"
        )
    return loss, grads, LossBreakdown(float(loss_g.mean()), float(lambda_cat * loss_c.mean()))


def _prior_kl(mu: np.ndarray, var: float | np.ndarray, theta: np.ndarray) -> float:
    """kl_divergence of one item's factorized law (mu (N,), var, theta
    (M, K)) from N(0, I) x Uniform."""
    law = FactorizedGCParams(mu=mu, var=np.broadcast_to(var, mu.shape), theta=theta)
    uniform = np.full_like(theta, 1.0 / theta.shape[-1])
    prior = FactorizedGCParams(mu=np.zeros_like(mu), var=np.ones_like(mu), theta=uniform)
    return kl_divergence(law, prior)


def prior_term(z0: JointSample, sched: NoiseSchedule, n_classes: int) -> float:
    """KL(q(z_T | z_0) || N(0, I) x Uniform); involves no parameters."""
    return _prior_kl(*q_marginal_arrays(z0.x, z0.y, sched.total_steps, sched, n_classes))


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
    the parameter-free prior term, prior_term's value taken from the t = T
    row of the marginal the draw uses. One process.draw and one forward
    pass cover all T steps.
    """
    big_t = sched.total_steps
    n_cls = model.config.shape.n_classes
    t = np.arange(1, big_t + 1)
    x0 = np.broadcast_to(z0.x, (big_t, z0.x.shape[0]))
    y0 = np.broadcast_to(z0.y, (big_t, z0.y.shape[0]))
    mu, var, theta = q_marginal_arrays(x0, y0, t, sched, n_cls)
    x_t, y_t = draw(mu, var, theta, rng)
    x0_hat, logits, _ = model.forward_batch(x_t, y_t, t, np.full(big_t, cond))
    loss_g, loss_c, _, _ = bound_terms(x0, y0, y_t, t, x0_hat, softmax(logits), sched)
    return np.append(loss_g + lambda_cat * loss_c, _prior_kl(mu[-1], var[-1], theta[-1]))


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
        if self.steps < 0 or self.batch_size < 1 or self.log_every < 1:
            raise ValidationError("steps must be >= 0, and batch_size and log_every >= 1")
        if not (0.0 <= self.cond_dropout <= 1.0):
            raise ValidationError("cond_dropout must lie in [0, 1]")
        if not (np.isfinite(self.lr) and self.lr > 0.0):
            raise ValidationError("lr must be finite and > 0")
        if not (np.isfinite(self.lambda_cat) and self.lambda_cat >= 0.0):
            raise ValidationError("lambda_cat must be finite and >= 0")
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
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def adam_update(params: np.ndarray, grads: np.ndarray, state: AdamState, lr: float):
    """One Adam step over flat arrays, in place and in the parameters' dtype:
    p -= lr * (m / bc1) / (sqrt(v / bc2) + ADAM_EPS)."""
    state.step += 1
    bc1 = 1.0 - ADAM_BETA1**state.step
    bc2 = 1.0 - ADAM_BETA2**state.step
    tmp = np.empty(min(ADAM_BLOCK, params.size), dtype=params.dtype)
    for lo in range(0, params.size, ADAM_BLOCK):
        hi = min(lo + ADAM_BLOCK, params.size)
        g, m, v, t = grads[lo:hi], state.m[lo:hi], state.v[lo:hi], tmp[: hi - lo]
        m *= ADAM_BETA1
        np.multiply(g, 1.0 - ADAM_BETA1, out=t)
        m += t
        v *= ADAM_BETA2
        np.multiply(g, g, out=t)
        t *= 1.0 - ADAM_BETA2
        v += t
        np.multiply(v, 1.0 / bc2, out=t)
        np.sqrt(t, out=t)
        t += ADAM_EPS
        np.divide(m, t, out=t)
        t *= lr / bc1
        params[lo:hi] -= t


def train(
    data: tuple[np.ndarray, np.ndarray, np.ndarray],
    model: ReferenceDenoiser,
    sched: NoiseSchedule,
    cfg: TrainConfig,
) -> tuple[ReferenceDenoiser, AdamState, list[tuple[int, float]]]:
    """Run cfg.steps optimizer steps from fresh Adam moments; deterministic
    given cfg.seed.

    data is (images (n, N), labels (n, M), conditions (n,)). Returns the
    model (updated in place), the optimizer state, and the loss trace
    sampled every cfg.log_every steps.
    """
    x_all, y_all, c_all = data
    n = x_all.shape[0]
    if n == 0:
        raise ValidationError("dataset must be nonempty")
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
