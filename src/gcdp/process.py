"""Forward noising kernels, closed-form marginals, and the Bayes posterior.

This module is the one place that knows the forward process. One forward
step perturbs both modalities independently:

    x_t ~ N(sqrt(1 - beta^N_t) x_{t-1}, beta^N_t I)
    y_t ~ C(uniform_mix(onehot(y_{t-1}), alpha^C_t))

which composes into closed-form marginals from the clean sample,

    x_t ~ N(sqrt(abar^N_t) x_0, (1 - abar^N_t) I)
    y_t ~ C(uniform_mix(onehot(y_0), abar^C_t))

where uniform_mix(theta, keep) = keep * theta + (1 - keep) / K is the
uniform categorical kernel, and a Bayes posterior over z_{t-1} given
(z_t, z_0) that stays factorized. Applied to a one-hot, the kernel is a
row of the K x K table kernel_table(keep) (Austin et al., D3PM,
arXiv 2107.03006), so every law over given labels gathers its rows from
that table. The categorical posterior is the normalized elementwise
product

    uniform_mix(onehot(y_t), alpha^C_t) * uniform_mix(theta_0, abar^C_{t-1})

where theta_0 is the one-hot of y_0, or a predicted PMF over y_0 inserted
in its place (the expectation of the one-hot posterior, renormalized).
These orientations are the ones consistent with the one-step kernel at
t = 1 and with brute-force Bayes enumeration; the posterior module is
oracle-checked against both, on random schedules and on every step of
cosine_schedule(1000, p) for p in {1, 3}.

Every state is drawn from its law by draw, or by realize on the noise
that noise draws: the forward step, the training loss's z_t from
q_marginal_arrays, and the sampler's initial state, posterior steps,
known-region marginals and re-noising. The loss takes its bound terms
from gauss_posterior_coeffs and cat_posterior_theta, with per-item
timestep arrays. The sampler builds posterior_coeffs and forward_kernel
once per visited step and hands them to posterior_arrays for every
posterior draw and to q_step_arrays for every re-noise. Timesteps are
looked up through NoiseSchedule.abar_gauss and abar_cat, never by
indexing the schedule arrays.

The array arguments may carry leading batch axes. There is no separate
single-sample surface: one sample is a batch of one.
"""

import numpy as np

from .distribution import row_sum, sample_rows
from .errors import ValidationError
from .schedules import NoiseSchedule

DENOM_FLOOR = 1e-12
NORM_FLOOR = np.finfo(np.float64).tiny


def one_hot(y: np.ndarray, n_classes: int) -> np.ndarray:
    """(..., M) 1-based labels -> (..., M, K) one-hot floats."""
    y = np.asarray(y)
    if np.any(y < 1) or np.any(y > n_classes):
        raise ValidationError("labels must lie in {1..K}")
    return (y[..., None] == np.arange(1, n_classes + 1)).astype(np.float64)


def uniform_mix(theta: np.ndarray, keep: float | np.ndarray, n_classes: int) -> np.ndarray:
    """The uniform categorical kernel applied to PMF rows theta (..., K):
    keep * theta + (1 - keep) / K.

    keep is alpha_t for one forward step, abar_t for the marginal from y_0,
    and abar_t / abar_s for the collapsed transition t -> s; a float or an
    array that broadcasts against theta, such as (B, 1, 1) per item.
    """
    return keep * theta + (1.0 - keep) / n_classes


def kernel_table(keep: float | np.ndarray, n_classes: int) -> np.ndarray:
    """uniform_mix(eye(K), keep): row k is the kernel applied to the one-hot
    of label k+1. (K, K) for a float keep, (B, K, K) for a (B, 1, 1) keep."""
    return uniform_mix(np.eye(n_classes), keep, n_classes)


def kernel_rows(table: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The rows of kernel_table(keep, K) for 1-based labels y: equal bit for
    bit to uniform_mix(one_hot(y, K), keep, K), at a fraction of its cost.

    A (K, K) table serves labels of any shape (..., M); a (B, K, K) table of
    per-item keeps serves labels (B, ..., M). Labels outside 1..K raise, as
    one_hot does: a plain take would read label 0 as row K.
    """
    y = np.asarray(y)
    n_classes = table.shape[-1]
    if y.size and (y.min() < 1 or y.max() > n_classes):
        raise ValidationError("labels must lie in {1..K}")
    if table.ndim == 2:
        return np.take(table, y - 1, axis=0)
    items = np.arange(table.shape[0]).reshape((-1,) + (1,) * (y.ndim - 1))
    return np.take(table.reshape(-1, n_classes), (y - 1) + n_classes * items, axis=0)


def noise(
    x_shape: tuple[int, ...], y_shape: tuple[int, ...], rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """The generator's part of one draw: image noise of x_shape first, then
    label uniforms of y_shape. This is the one function that consumes the
    generator for a state, so this order is the one every seeded run
    depends on."""
    return rng.standard_normal(x_shape), rng.random(y_shape)


def realize(
    mu: np.ndarray | None,
    var: float | np.ndarray,
    theta: np.ndarray | None,
    eps: np.ndarray,
    u: np.ndarray,
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """The state (x, y) that the noise (eps, u) of noise gives under the law
    N(mu, var) x C(theta). A modality whose law is None is not realized and
    comes back None; its noise is still the caller's to draw."""
    x = None if mu is None else mu + np.sqrt(var) * eps
    y = None if theta is None else sample_rows(theta, u)
    return x, y


def draw(
    mu: np.ndarray, var: float | np.ndarray, theta: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """One draw (x, y) of the factorized law N(mu, var) x C(theta).

    mu is (..., N) and var a float or an array that broadcasts against it,
    such as (B, 1) per item; theta is (..., M, K). The generator gives the
    noise of mu.shape and theta.shape[:-1], in the order noise fixes; y
    holds 1-based labels.
    """
    return realize(mu, var, theta, *noise(mu.shape, theta.shape[:-1], rng))


def q_step_arrays(
    x_prev: np.ndarray,
    y_prev: np.ndarray,
    kernel: tuple[float, float, np.ndarray],
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Apply one forward step to batched arrays, by one draw; kernel is
    forward_kernel(t, sched, K) of the step."""
    keep, var, table = kernel
    return draw(keep * x_prev, var, kernel_rows(table, y_prev), rng)


def forward_kernel(t: int, sched: NoiseSchedule, n_classes: int) -> tuple[float, float, np.ndarray]:
    """(keep, var, table) of the one-step kernel q(z_t | z_{t-1}): x_t is
    N(keep * x_{t-1}, var), and y_t is C(row y_{t-1} of the K x K table)."""
    t = sched._check_t(t)
    bn = float(sched.beta_gauss[t - 1])
    return np.sqrt(1.0 - bn), bn, kernel_table(float(sched.alpha_cat[t - 1]), n_classes)


def q_marginal_arrays(
    x0: np.ndarray | None, y0: np.ndarray | None, t: int | np.ndarray, sched: NoiseSchedule, n_classes: int
) -> tuple[np.ndarray | None, float | np.ndarray, np.ndarray | None]:
    """(mu, var, theta) of q(z_t | z_0) for batched arrays x0 (..., N) and
    y0 (..., M). t is an int, with a float var, or a (B,) array of per-item
    steps for (B, N) and (B, M) inputs, with var of shape (B, 1). A None x0
    or y0 leaves that modality's law unbuilt: mu or theta comes back None."""
    t = sched._check_t(t)
    abar_n, abar_c = sched.abar_gauss(t), sched.abar_cat(t)
    if not isinstance(t, int):
        abar_n, abar_c = abar_n[:, None], abar_c[:, None, None]
    mu = None if x0 is None else np.sqrt(abar_n) * x0
    var = np.maximum(1.0 - abar_n, DENOM_FLOOR)
    theta = None if y0 is None else kernel_rows(kernel_table(abar_c, n_classes), y0)
    return mu, var, theta


def gauss_posterior_coeffs(
    t: int | np.ndarray, s: int | np.ndarray, sched: NoiseSchedule
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(c0, ct, var) with posterior mean c0 * x0_hat + ct * x_t for the
    transition t -> s, s < t. The stride collapses the skipped steps into
    one effective step with retention abar_t / abar_s; s = t-1 recovers the
    one-step coefficients. t and s are ints or equal-shape int arrays; the
    coefficients take their shape."""
    abar_t, abar_s = sched.abar_gauss(t), sched.abar_gauss(s)
    alpha_eff = abar_t / abar_s
    beta_eff = 1.0 - alpha_eff
    denom = np.maximum(1.0 - abar_t, DENOM_FLOOR)
    c0 = np.sqrt(abar_s) * beta_eff / denom
    ct = np.sqrt(alpha_eff) * (1.0 - abar_s) / denom
    var = (1.0 - abar_s) * beta_eff / denom
    return c0, ct, var


def cat_posterior_theta(
    theta0: np.ndarray,
    y_t: np.ndarray,
    alpha_eff: float | np.ndarray,
    abar_s: float | np.ndarray,
    n_classes: int,
) -> np.ndarray:
    """Normalized elementwise product of the likelihood and prior factors.

    theta0: (..., M, K) PMF over the clean labels (one-hot or predicted);
    y_t: (..., M) 1-based observed labels; alpha_eff and abar_s are floats
    or arrays that broadcast against theta0, such as (B, 1, 1) per item.
    The unnormalized sum can be far below 1e-12 (about 1e-13 at small t of
    cosine_schedule(1000, p=3)), so the normalizer is floored only at the
    smallest normal float, which guards against 0/0 and nothing else.
    """
    like = kernel_rows(kernel_table(alpha_eff, n_classes), y_t)
    prior = uniform_mix(theta0, abar_s, n_classes)
    unnorm = like * prior
    z = np.maximum(row_sum(unnorm), NORM_FLOOR)
    return unnorm / z


def posterior_arrays(
    x0_hat: np.ndarray | None,
    theta0_hat: np.ndarray | None,
    x_t: np.ndarray,
    y_t: np.ndarray,
    coeffs: tuple[float, float, float, float, float],
    n_classes: int,
) -> tuple[np.ndarray | None, float, np.ndarray | None]:
    """(mu, var, theta) of the posterior over z_s given z_t and clean-state
    estimates; coeffs is posterior_coeffs(t, s, sched) of the transition,
    for any stride 1 <= s < t <= T. A None x0_hat or theta0_hat leaves that
    modality's law unbuilt: mu or theta comes back None."""
    c0, ct, var, alpha_eff, abar_s = coeffs
    mu = None if x0_hat is None else c0 * x0_hat + ct * x_t
    theta = None if theta0_hat is None else cat_posterior_theta(theta0_hat, y_t, alpha_eff, abar_s, n_classes)
    return mu, var, theta


def posterior_coeffs(t: int, s: int, sched: NoiseSchedule) -> tuple[float, float, float, float, float]:
    """(c0, ct, var, alpha_eff, abar_s): the scalars of the posterior for the
    transition t -> s, 1 <= s < t <= T. The first three are
    gauss_posterior_coeffs; alpha_eff = abar^C_t / abar^C_s and abar^C_s are
    the retentions of cat_posterior_theta's likelihood and prior factors."""
    t = sched._check_t(t)
    if not (1 <= s < t):
        raise ValidationError(f"stride target s={s} must satisfy 1 <= s < t={t}")
    c0, ct, var = gauss_posterior_coeffs(t, s, sched)
    abar_s = sched.abar_cat(s)
    return c0, ct, var, sched.abar_cat(t) / abar_s, abar_s

