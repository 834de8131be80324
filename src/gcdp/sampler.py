"""Reverse-process generation, on batches.

sample_batch draws B joint samples along an ascending timestep subset:
default_stride gives an evenly spaced one, and every step 1..T is the
ancestral chain. outpaint_batch fills the unknown coordinates of B known
samples that share one mask. Both take a (B,) vector of condition IDs, -1
for unconditional, and return (B, N) images and (B, M) labels; one sample
is a batch of one.

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
the output are bit-exact. Sampling and outpainting run one reverse loop
with one transition body: plain sampling is the chain with no known
coordinate, and outpainting adds the splice and the re-noising and visits
every step, because the re-noising is the one-step forward kernel.

Every posterior draw goes through process.posterior_arrays and every
re-noise through process.q_step_arrays. Their constants (posterior_coeffs,
forward_kernel) and the known region's law at t-1 depend on the visited
step alone (Lugmayr et al., RePaint, arXiv 2201.09865), so they are built
once per step, not once per inner iteration. Outpainting builds only what
its splice keeps: a modality the mask makes wholly known gets no posterior
(no softmax, no categorical posterior, no label draw), and one with no
known coordinate gets no known-region law. The generator still gives
every draw its full noise, in the order process.noise fixes, so every
output is the one the unpruned chain gives.
"""

from dataclasses import dataclass

import numpy as np

from .denoiser import ReferenceDenoiser
from .distribution import softmax
from .distribution import sample_rows  # noqa: F401 (uncalled; a perfbench/tracing.py target)
from .errors import NumericalError, ValidationError
from .process import (
    draw,
    forward_kernel,
    noise,
    posterior_arrays,
    posterior_coeffs,
    q_marginal_arrays,
    q_step_arrays,
    realize,
)
from .schedules import NoiseSchedule


@dataclass(frozen=True)
class GuidanceConfig:
    scale: float = 1.0
    enabled: bool = False

    def __post_init__(self):
        if not np.isfinite(self.scale) or self.scale < 0.0:
            raise ValidationError("guidance scale must be finite and >= 0")


def _predict(
    model: ReferenceDenoiser,
    x: np.ndarray,
    y: np.ndarray,
    t: int,
    conds: np.ndarray,
    guidance: GuidanceConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Guided clean-state prediction: (x0_hat (B,N), logits (B,M,K)), with
    x0_hat clipped to the data range [-1, 1] after guidance mixing. The
    caller takes the softmax of the logits only where it needs the PMF."""
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
    return np.clip(xc, -1.0, 1.0), lc


def _splice(mask: np.ndarray, known: np.ndarray | None, generated: np.ndarray | None) -> np.ndarray:
    """known where mask holds, generated elsewhere; known is None when the
    mask holds nowhere, generated when it holds everywhere."""
    if known is None:
        return generated
    if generated is None:
        return known
    return np.where(mask, known, generated)


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


def _reverse_chain(
    model: ReferenceDenoiser,
    sched: NoiseSchedule,
    conds: np.ndarray,
    guidance: GuidanceConfig,
    steps: list[int],
    rng: np.random.Generator,
    known: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    resample_n: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """The reverse chain over the ascending `steps`, from pure noise.

    Each visited t moves to the next visited s < t by the model posterior;
    the last visited step emits the decoder mode. known, when given, is
    (known_x, known_y, mask) with a mask over the N image entries followed
    by the M label positions: every transition then splices in the known
    coordinates drawn from their marginal at s (the clean values at the
    end), and all but the last of resample_n iterations re-noise the
    spliced state one step forward, so outpainting must visit every step.
    The step constants are built once per visited step, and only the laws
    the splice keeps are built at all.
    """
    shape = model.config.shape
    n_gauss, n_cls = shape.n_gauss, shape.n_classes
    batch = conds.shape[0]
    x_shape, y_shape = (batch, n_gauss), (batch, shape.n_cat)
    x, y = draw(np.zeros(x_shape), 1.0, np.full(y_shape + (n_cls,), 1.0 / n_cls), rng)
    # gen_*: the modality has a generated coordinate, so it needs a posterior
    gen_x = gen_y = True
    if known is not None:
        known_x, known_y, mask = known
        mask_x, mask_y = mask[:n_gauss], mask[n_gauss:]
        law_x = known_x if mask_x.any() else None
        law_y = known_y if mask_y.any() else None
        gen_x, gen_y = not mask_x.all(), not mask_y.all()
        # the known region at the end: the clean values, labels as a fresh
        # array of the dtype np.where gives, also when the mask holds everywhere
        clean = known_x, np.array(known_y, dtype=np.intp)
    desc = steps[::-1]
    for t, s in zip(desc, desc[1:] + [0]):
        inner = resample_n if known is not None and s > 0 else 1
        if s > 0:
            coeffs = posterior_coeffs(t, s, sched)
            known_law = q_marginal_arrays(law_x, law_y, s, sched, n_cls) if known is not None else None
            kernel = forward_kernel(t, sched, n_cls) if inner > 1 else None
        for it in range(inner):
            x0_hat, logits = _predict(model, x, y, t, conds, guidance)
            if known is not None:
                xk, yk = realize(*known_law, *noise(x_shape, y_shape, rng)) if s > 0 else clean
            if s == 0:
                x_next, y_next = x0_hat, np.argmax(softmax(logits), axis=-1) + 1 if gen_y else None
            else:
                theta0_hat = softmax(logits) if gen_y else None
                post = posterior_arrays(x0_hat if gen_x else None, theta0_hat, x, y, coeffs, n_cls)
                x_next, y_next = realize(*post, *noise(x_shape, y_shape, rng))
            if known is not None:
                x_next, y_next = _splice(mask_x, xk, x_next), _splice(mask_y, yk, y_next)
            if it < inner - 1:
                x, y = q_step_arrays(x_next, y_next, kernel, rng)
            else:
                x, y = x_next, y_next
        if not np.all(np.isfinite(x)):
            raise NumericalError(f"non-finite image state at timestep {s}")
    return x, y


def sample_batch(
    model: ReferenceDenoiser,
    sched: NoiseSchedule,
    conds: np.ndarray,
    guidance: GuidanceConfig,
    steps,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Generate a batch of joint samples along the given timestep subset.

    conds holds one condition ID per sample, -1 for unconditional. Every
    state is one process.draw: the N(0, I) x Uniform start, then one per
    transition.
    """
    steps = _validate_steps(steps, sched.total_steps)
    return _reverse_chain(model, sched, np.asarray(conds, dtype=np.int64), guidance, steps, rng)


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
    """Resampled outpainting of B known samples, known_x (B, N) and known_y
    (B, M) with 1-based labels, that share one known-coordinate mask; conds
    holds one condition ID per sample, -1 for unconditional. Known
    coordinates of the result equal the known samples bit for bit."""
    shape = model.config.shape
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (shape.n_gauss + shape.n_cat,):
        raise ValidationError("mask length must be N + M")
    if resample_n < 1:
        raise ValidationError("resample_n must be >= 1")
    known_x, known_y = np.asarray(known_x), np.asarray(known_y)
    conds = np.asarray(conds, dtype=np.int64)
    if known_x.ndim != 2 or known_x.shape[1] != shape.n_gauss:
        raise ValidationError(f"known_x must be (B, N) with N = {shape.n_gauss}, got shape {known_x.shape}")
    batch = known_x.shape[0]
    if known_y.shape != (batch, shape.n_cat):
        raise ValidationError(f"known_y must be (B, M) = {(batch, shape.n_cat)}, got shape {known_y.shape}")
    if conds.shape != (batch,):
        raise ValidationError(f"conds must be (B,) = {(batch,)}, got shape {conds.shape}")
    if not np.all(np.isfinite(known_x)):
        raise ValidationError("known pixels must be finite")
    if known_y.size and (known_y.min() < 1 or known_y.max() > shape.n_classes):
        raise ValidationError("known labels must lie in {1..K}")
    if mask.all():
        return known_x.copy(), known_y.copy()
    known = (known_x, known_y, mask) if mask.any() else None
    steps = list(range(1, sched.total_steps + 1))
    return _reverse_chain(model, sched, conds, guidance, steps, rng, known, resample_n)

