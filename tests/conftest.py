import numpy as np
import pytest

from gcdp.denoiser import DenoiserConfig, ReferenceDenoiser
from gcdp.distribution import ShapeSpec
from gcdp.verify import random_schedule  # noqa: F401  (imported by the test modules)


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
