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
(z_t, z_0) that stays factorized. The categorical posterior is the
normalized elementwise product

    uniform_mix(onehot(y_t), alpha^C_t) * uniform_mix(theta_0, abar^C_{t-1})

where theta_0 is the one-hot of y_0, or a predicted PMF over y_0 inserted
in its place (the expectation of the one-hot posterior, renormalized).
These orientations are the ones consistent with the one-step kernel at
t = 1 and with brute-force Bayes enumeration; the posterior module is
oracle-checked against both, on random schedules and on every step of
cosine_schedule(1000, p) for p in {1, 3}.

Every state is drawn from its law by draw: the forward step, the
training loss's z_t from q_marginal_arrays, and the sampler's initial
state, posterior steps and known-region marginals. The loss takes its
bound terms from gauss_posterior_coeffs and cat_posterior_theta, with
per-item timestep arrays; the sampler calls posterior_arrays,
q_marginal_arrays and q_step_arrays. Timesteps are looked up through
NoiseSchedule.abar_gauss and abar_cat, never by indexing the schedule
arrays.

All functions accept leading batch axes on the array arguments; the
JointSample wrappers are the single-sample surface.
"""

import numpy as np

from .distribution import FactorizedGCParams, JointSample, row_sum, sample_rows
from .errors import ValidationError
from .schedules import NoiseSchedule

DENOM_FLOOR = 1e-12
NORM_FLOOR = np.finfo(np.float64).tiny

# The posterior of a factorized joint is itself factorized; no extra fields.
PosteriorParams = FactorizedGCParams


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


def draw(
    mu: np.ndarray, var: float | np.ndarray, theta: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """One draw (x, y) of the factorized law N(mu, var) x C(theta).

    mu is (..., N) and var a float or an array that broadcasts against it,
    such as (B, 1) per item; theta is (..., M, K). The generator gives the
    image noise of mu.shape first, then the label uniforms of
    theta.shape[:-1]; y holds 1-based labels. This is the one function that
    turns a law into a state, so this order is the one every seeded run
    depends on.
    """
    x = mu + np.sqrt(var) * rng.standard_normal(mu.shape)
    return x, sample_rows(theta, rng.random(theta.shape[:-1]))


def q_step_arrays(
    x_prev: np.ndarray,
    y_prev: np.ndarray,
    t: int,
    sched: NoiseSchedule,
    rng: np.random.Generator,
    n_classes: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Apply one forward step to batched arrays, by one draw."""
    t = sched._check_t(t)
    bn = float(sched.beta_gauss[t - 1])
    theta = uniform_mix(one_hot(y_prev, n_classes), float(sched.alpha_cat[t - 1]), n_classes)
    return draw(np.sqrt(1.0 - bn) * x_prev, bn, theta, rng)


def q_marginal_arrays(
    x0: np.ndarray, y0: np.ndarray, t: int | np.ndarray, sched: NoiseSchedule, n_classes: int
) -> tuple[np.ndarray, float | np.ndarray, np.ndarray]:
    """(mu, var, theta) of q(z_t | z_0) for batched arrays x0 (..., N) and
    y0 (..., M). t is an int, with a float var, or a (B,) array of per-item
    steps for (B, N) and (B, M) inputs, with var of shape (B, 1)."""
    t = sched._check_t(t)
    abar_n, abar_c = sched.abar_gauss(t), sched.abar_cat(t)
    if not isinstance(t, int):
        abar_n, abar_c = abar_n[:, None], abar_c[:, None, None]
    mu = np.sqrt(abar_n) * x0
    var = np.maximum(1.0 - abar_n, DENOM_FLOOR)
    theta = uniform_mix(one_hot(y0, n_classes), abar_c, n_classes)
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
    like = uniform_mix(one_hot(y_t, n_classes), alpha_eff, n_classes)
    prior = uniform_mix(theta0, abar_s, n_classes)
    unnorm = like * prior
    z = np.maximum(row_sum(unnorm), NORM_FLOOR)
    return unnorm / z


def posterior_arrays(
    x0_hat: np.ndarray,
    theta0_hat: np.ndarray,
    x_t: np.ndarray,
    y_t: np.ndarray,
    t: int,
    s: int,
    sched: NoiseSchedule,
    n_classes: int,
) -> tuple[np.ndarray, float, np.ndarray]:
    """(mu, var, theta) of the posterior over z_s given z_t and clean-state
    estimates, for any stride 1 <= s < t <= T."""
    t = sched._check_t(t)
    if not (1 <= s < t):
        raise ValidationError(f"stride target s={s} must satisfy 1 <= s < t={t}")
    c0, ct, var = gauss_posterior_coeffs(t, s, sched)
    mu = c0 * x0_hat + ct * x_t
    alpha_eff = sched.abar_cat(t) / sched.abar_cat(s)
    theta = cat_posterior_theta(theta0_hat, y_t, alpha_eff, sched.abar_cat(s), n_classes)
    return mu, var, theta


def q_step(
    z_prev: JointSample, t: int, sched: NoiseSchedule, rng: np.random.Generator, n_classes: int
) -> JointSample:
    """Sample z_t ~ q(z_t | z_{t-1})."""
    x_t, y_t = q_step_arrays(z_prev.x, z_prev.y, t, sched, rng, n_classes)
    return JointSample(x=x_t, y=y_t)


def q_marginal_params(
    z0: JointSample, t: int, sched: NoiseSchedule, n_classes: int
) -> FactorizedGCParams:
    """Parameters of q(z_t | z_0)."""
    mu, var, theta = q_marginal_arrays(z0.x, z0.y, t, sched, n_classes)
    return FactorizedGCParams(mu=mu, var=np.full_like(mu, var), theta=theta)


def posterior_params(
    x0_hat: np.ndarray,
    theta0_hat: np.ndarray,
    z_t: JointSample,
    t: int,
    sched: NoiseSchedule,
) -> PosteriorParams:
    """Parameters of the one-step posterior over z_{t-1} given z_t.

    Requires t >= 2; the t = 1 emission is the decoder's job. theta0_hat
    rows may be one-hot (exact clean labels) or a predicted PMF.
    """
    t = int(t)
    if t < 2:
        raise ValidationError("posterior_params requires t >= 2")
    theta0_hat = np.asarray(theta0_hat, dtype=np.float64)
    if theta0_hat.ndim != 2:
        raise ValidationError("theta0_hat must be an M x K matrix")
    n_classes = theta0_hat.shape[1]
    mu, var, theta = posterior_arrays(
        np.asarray(x0_hat, dtype=np.float64),
        theta0_hat,
        z_t.x,
        z_t.y,
        t,
        t - 1,
        sched,
        n_classes,
    )
    return FactorizedGCParams(mu=mu, var=np.full_like(mu, var), theta=theta)

