"""Joint image-layout generation with a coupled Gaussian/categorical
diffusion process: schedules, the factorized joint distribution, forward
and posterior kernels, VLB training of a reference denoiser, a batched
reverse-chain sampler (strided, guided and outpainting), toy scene data,
and layout-aware evaluation metrics. The process, denoiser and sampler
work on arrays with a leading batch axis; one sample is a batch of one."""

from .distribution import FactorizedGCParams, JointSample, ShapeSpec
from .denoiser import DenoiserConfig, ReferenceDenoiser
from .process import draw, forward_kernel, posterior_arrays, posterior_coeffs, q_marginal_arrays, q_step_arrays
from .sampler import GuidanceConfig, default_stride, outpaint_batch, sample_batch
from .scenes import SceneConfig, SceneSample, generate, oracle_segment
from .schedules import NoiseSchedule, accumulate, cosine_schedule, power_coupled
from .training import TrainConfig, train, vlb_loss

__all__ = [
    "FactorizedGCParams",
    "JointSample",
    "ShapeSpec",
    "DenoiserConfig",
    "ReferenceDenoiser",
    "draw",
    "forward_kernel",
    "posterior_arrays",
    "posterior_coeffs",
    "q_marginal_arrays",
    "q_step_arrays",
    "GuidanceConfig",
    "default_stride",
    "outpaint_batch",
    "sample_batch",
    "SceneConfig",
    "SceneSample",
    "generate",
    "oracle_segment",
    "NoiseSchedule",
    "accumulate",
    "cosine_schedule",
    "power_coupled",
    "TrainConfig",
    "train",
    "vlb_loss",
]
