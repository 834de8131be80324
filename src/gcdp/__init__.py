"""Joint image-layout generation with a coupled Gaussian/categorical
diffusion process: schedules, the factorized joint distribution, forward
and posterior kernels, VLB training of a reference denoiser, ancestral,
strided, guided, and outpainting samplers, toy scene data, and
layout-aware evaluation metrics."""

from .distribution import FactorizedGCParams, JointSample, ShapeSpec
from .denoiser import DenoiserConfig, DenoiserInput, DenoiserOutput, ReferenceDenoiser
from .process import PosteriorParams, posterior_params, q_marginal_params, q_step
from .sampler import GuidanceConfig, OutpaintSpec, ancestral_sample, outpaint, strided_sample
from .scenes import SceneConfig, SceneSample, generate, oracle_segment
from .schedules import NoiseSchedule, accumulate, cosine_schedule, power_coupled
from .training import TrainConfig, train, vlb_loss

__all__ = [
    "FactorizedGCParams",
    "JointSample",
    "ShapeSpec",
    "DenoiserConfig",
    "DenoiserInput",
    "DenoiserOutput",
    "ReferenceDenoiser",
    "PosteriorParams",
    "posterior_params",
    "q_marginal_params",
    "q_step",
    "GuidanceConfig",
    "OutpaintSpec",
    "ancestral_sample",
    "outpaint",
    "strided_sample",
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
