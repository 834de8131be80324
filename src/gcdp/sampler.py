"""Reverse-process generation.

Sampling starts from pure noise (standard normal image, uniform labels)
and walks a descending subset of timesteps. At each visited step the
model predicts the clean state, and the predicted image is clipped to the
data range [-1, 1]; the next state is drawn from the Bayes posterior
built from that prediction, with skipped steps collapsed into
one effective transition of retention abar_t / abar_s per chain. At the
final visited step the sampler emits the decoder mode: the predicted
image directly and the argmax of the predicted label PMF, with no noise
injected.

Classifier-free guidance linearly extrapolates between the conditional
and null-condition predictions, on the image prediction and on the label
logits (before softmax): scale w = 1 reproduces the conditional
prediction exactly, w = 0 the unconditional one.

Cross-modal outpainting follows the resampled known-region schedule: per
visited timestep, n inner iterations of {draw the known coordinates from
their closed-form marginal at t-1, draw the unknown coordinates from the
model posterior, splice by mask, and (except on the last inner iteration,
and never at t = 1) push the spliced state forward one step}. At t = 1
the known-region draw is the clean sample itself, so known coordinates of
the output are bit-exact.
"""

from dataclasses import dataclass

import numpy as np

from .denoiser import DenoiserOutput, ReferenceDenoiser
from .distribution import JointSample, sample_rows
from .errors import NumericalError, ValidationError
from .process import posterior_arrays, q_marginal_arrays, q_step_arrays
from .schedules import NoiseSchedule
from .training import softmax


@dataclass(frozen=True)
class GuidanceConfig:
    scale: float = 1.0
    enabled: bool = False

    def __post_init__(self):
        if not np.isfinite(self.scale) or self.scale < 0.0:
            raise ValidationError("guidance scale must be finite and >= 0")


@dataclass(frozen=True)
class OutpaintSpec:
    """Known joint sample, a known-coordinate mask over the N image entries
    followed by the M label positions, and the inner resampling count."""

    known: JointSample
    mask: np.ndarray
    resample_n: int = 1

    def __post_init__(self):
        mask = np.asarray(self.mask, dtype=bool)
        if mask.shape != (self.known.x.shape[0] + self.known.y.shape[0],):
            raise ValidationError("mask length must be N + M")
        if self.resample_n < 1:
            raise ValidationError("resample_n must be >= 1")
        mask.setflags(write=False)
        object.__setattr__(self, "mask", mask)


def guide_predictions(out_cond: DenoiserOutput, out_uncond: DenoiserOutput, w: float) -> DenoiserOutput:
    """x <- x_u + w (x_c - x_u), same rule on the label logits.

    w = 1 returns the conditional output exactly and w = 0 the
    unconditional one (no float cancellation at the endpoints)."""
    if out_cond.x0_hat.shape != out_uncond.x0_hat.shape or out_cond.theta0_logits.shape != out_uncond.theta0_logits.shape:
        raise ValidationError("guided outputs must have matching shapes")
    if w == 1.0:
        return out_cond
    if w == 0.0:
        return out_uncond
    return DenoiserOutput(
        x0_hat=out_uncond.x0_hat + w * (out_cond.x0_hat - out_uncond.x0_hat),
        theta0_logits=out_uncond.theta0_logits + w * (out_cond.theta0_logits - out_uncond.theta0_logits),
    )


def _predict(
    model: ReferenceDenoiser,
    x: np.ndarray,
    y: np.ndarray,
    t: int,
    conds: np.ndarray,
    guidance: GuidanceConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Guided clean-state prediction: (x0_hat (B,N), theta0 (B,M,K)), with
    x0_hat clipped to the data range [-1, 1] after guidance mixing."""
    t_arr = np.full(x.shape[0], t)
    xc, lc, _ = model.forward_batch(x, y, t_arr, conds)
    if guidance.enabled and guidance.scale != 1.0:
        null = np.full(x.shape[0], -1)
        xu, lu, _ = model.forward_batch(x, y, t_arr, null)
        w = guidance.scale
        xc = xu + w * (xc - xu)
        lc = lu + w * (lc - lu)
    if not (np.all(np.isfinite(xc)) and np.all(np.isfinite(lc))):
        raise NumericalError(f"non-finite denoiser prediction at timestep {t}")
    # Clean images lie in [-1, 1]. An unclipped prediction outside it feeds
    # the posterior mean, and the chain can grow without bound.
    return np.clip(xc, -1.0, 1.0), softmax(lc)


def _validate_steps(steps, total_steps: int) -> list[int]:
    steps = [int(s) for s in steps]
    if len(steps) == 0:
        raise ValidationError("steps must be nonempty")
    if any(s2 <= s1 for s1, s2 in zip(steps, steps[1:])):
        raise ValidationError("steps must be strictly ascending")
    if steps[0] < 1 or steps[-1] != total_steps:
        raise ValidationError(f"steps must lie in [1, {total_steps}] and include {total_steps}")
    return steps


def default_stride(total_steps: int, n_steps: int) -> list[int]:
    """Evenly spaced subset of {1..T} of (at most) n_steps entries, always
    containing 1 and T."""
    if n_steps < 1:
        raise ValidationError("stride size must be >= 1")
    if n_steps >= total_steps:
        return list(range(1, total_steps + 1))
    pts = np.unique(np.round(np.linspace(1, total_steps, n_steps)).astype(int))
    return [int(v) for v in pts]


def sample_batch(
    model: ReferenceDenoiser,
    sched: NoiseSchedule,
    conds: np.ndarray,
    guidance: GuidanceConfig,
    steps,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Generate a batch of joint samples along the given timestep subset.

    conds holds one condition ID per sample, -1 for unconditional. The
    generator is consumed in a fixed order: init image noise, init label
    uniforms, then per transition image noise and label uniforms.
    """
    shape = model.config.shape
    steps = _validate_steps(steps, sched.total_steps)
    conds = np.asarray(conds, dtype=np.int64)
    batch = conds.shape[0]
    x = rng.standard_normal((batch, shape.n_gauss))
    uniform = np.full((batch, shape.n_cat, shape.n_classes), 1.0 / shape.n_classes)
    y = sample_rows(uniform, rng.random((batch, shape.n_cat)))
    desc = steps[::-1]
    for i, t in enumerate(desc):
        x0_hat, theta0 = _predict(model, x, y, t, conds, guidance)
        if i < len(desc) - 1:
            s = desc[i + 1]
            mu, var, theta = posterior_arrays(x0_hat, theta0, x, y, t, s, sched, shape.n_classes)
            x = mu + np.sqrt(var) * rng.standard_normal(mu.shape)
            y = sample_rows(theta, rng.random(y.shape))
            if not np.all(np.isfinite(x)):
                raise NumericalError(f"non-finite image state at timestep {s}")
        else:
            x = x0_hat
            y = np.argmax(theta0, axis=-1) + 1
    return x, y


def strided_sample(
    model: ReferenceDenoiser,
    sched: NoiseSchedule,
    cond: int | None,
    guidance: GuidanceConfig,
    steps,
    rng: np.random.Generator,
) -> JointSample:
    """Single-sample accelerated sampling over an ascending timestep subset."""
    conds = np.array([-1 if cond is None else int(cond)])
    x, y = sample_batch(model, sched, conds, guidance, steps, rng)
    return JointSample(x=x[0], y=y[0])


def ancestral_sample(
    model: ReferenceDenoiser,
    sched: NoiseSchedule,
    cond: int | None,
    guidance: GuidanceConfig,
    rng: np.random.Generator,
) -> JointSample:
    """Full reverse chain; identical to strided sampling with every step."""
    return strided_sample(model, sched, cond, guidance, range(1, sched.total_steps + 1), rng)


def outpaint_batch(
    model: ReferenceDenoiser,
    sched: NoiseSchedule,
    known_x: np.ndarray,
    known_y: np.ndarray,
    mask: np.ndarray,
    resample_n: int,
    conds: np.ndarray,
    guidance: GuidanceConfig,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Resampled outpainting of a batch sharing one known-coordinate mask."""
    shape = model.config.shape
    n, m = shape.n_gauss, shape.n_cat
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (n + m,):
        raise ValidationError("mask length must be N + M")
    if resample_n < 1:
        raise ValidationError("resample_n must be >= 1")
    conds = np.asarray(conds, dtype=np.int64)
    if not mask.any():
        return sample_batch(model, sched, conds, guidance, range(1, sched.total_steps + 1), rng)
    if mask.all():
        return known_x.copy(), known_y.copy()
    mx, my = mask[:n], mask[n:]
    batch = conds.shape[0]
    x = rng.standard_normal((batch, n))
    uniform = np.full((batch, m, shape.n_classes), 1.0 / shape.n_classes)
    y = sample_rows(uniform, rng.random((batch, m)))
    for t in range(sched.total_steps, 0, -1):
        inner = resample_n if t > 1 else 1
        for it in range(inner):
            if t == 1:
                xk, yk = known_x, known_y
            else:
                mu, var, theta = q_marginal_arrays(known_x, known_y, t - 1, sched, shape.n_classes)
                xk = mu + np.sqrt(var) * rng.standard_normal(mu.shape)
                yk = sample_rows(theta, rng.random(known_y.shape))
            x0_hat, theta0 = _predict(model, x, y, t, conds, guidance)
            if t >= 2:
                mu, var, theta = posterior_arrays(x0_hat, theta0, x, y, t, t - 1, sched, shape.n_classes)
                xu = mu + np.sqrt(var) * rng.standard_normal(mu.shape)
                yu = sample_rows(theta, rng.random(y.shape))
            else:
                xu = x0_hat
                yu = np.argmax(theta0, axis=-1) + 1
            x_next = np.where(mx[None, :], xk, xu)
            y_next = np.where(my[None, :], yk, yu)
            if it < inner - 1:
                x, y = q_step_arrays(x_next, y_next, t, sched, rng, shape.n_classes)
            else:
                x, y = x_next, y_next
        if not np.all(np.isfinite(x)):
            raise NumericalError(f"non-finite image state at timestep {t}")
    return x, y


def outpaint(
    model: ReferenceDenoiser,
    sched: NoiseSchedule,
    spec: OutpaintSpec,
    cond: int | None,
    guidance: GuidanceConfig,
    rng: np.random.Generator,
) -> JointSample:
    """Fill the unknown coordinates of spec.known; known coordinates of the
    result equal spec.known bit-exactly."""
    conds = np.array([-1 if cond is None else int(cond)])
    x, y = outpaint_batch(
        model,
        sched,
        spec.known.x[None, :],
        spec.known.y[None, :],
        spec.mask,
        spec.resample_n,
        conds,
        guidance,
        rng,
    )
    return JointSample(x=x[0], y=y[0])
