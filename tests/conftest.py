import numpy as np
import pytest

from gcdp.denoiser import DenoiserConfig, ReferenceDenoiser
from gcdp.distribution import ShapeSpec
from gcdp.schedules import NoiseSchedule


def random_schedule(rng: np.random.Generator, total_steps: int) -> NoiseSchedule:
    return NoiseSchedule(
        beta_gauss=rng.uniform(0.05, 0.8, total_steps),
        beta_cat=rng.uniform(0.05, 0.8, total_steps),
        check_terminal=False,
    )


# The model fixtures compute in float64, which the finite-difference
# gradient checks need.
@pytest.fixture
def tiny_model():
    shape = ShapeSpec(n_gauss=2, n_cat=1, n_classes=2)
    cfg = DenoiserConfig(
        shape=shape, n_conds=1, hidden=8, n_blocks=1, label_emb_dim=2, time_emb_dim=4, cond_emb_dim=2
    )
    return ReferenceDenoiser.init(cfg, seed=0, dtype=np.float64)


@pytest.fixture
def small_model():
    shape = ShapeSpec(n_gauss=9, n_cat=9, n_classes=3)
    cfg = DenoiserConfig(
        shape=shape, n_conds=2, hidden=16, n_blocks=2, label_emb_dim=3, time_emb_dim=8, cond_emb_dim=4
    )
    return ReferenceDenoiser.init(cfg, seed=1, dtype=np.float64)
