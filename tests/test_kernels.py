"""Class-axis kernels against the numpy formulations they replace.

For K <= 7 numpy sums a trailing axis sequentially, so the kernels must
match it bit for bit; from K = 8 numpy sums pairwise, and the kernels agree
with it to within a few units in the last place of the row's magnitude.
"""

import numpy as np
import pytest

from gcdp.distribution import row_max, row_sum, sample_rows, softmax

SHAPES = ((1, 64), (32, 64), (64, 64))
ULP_BOUND = 4


def numpy_softmax(logits):
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def numpy_sample_rows(theta, u):
    cum = np.cumsum(theta, axis=-1)
    idx = (u[..., None] > cum).sum(axis=-1)
    return np.minimum(idx, theta.shape[-1] - 1) + 1


def cases(k, seed):
    rng = np.random.default_rng(seed)
    for lead in SHAPES:
        yield 3.0 * rng.standard_normal((*lead, k)), rng.random(lead)


@pytest.mark.parametrize("k", range(2, 8))
def test_kernels_are_bitwise_numpy_up_to_seven_classes(k):
    for a, u in cases(k, seed=k):
        assert np.array_equal(row_sum(a), a.sum(axis=-1, keepdims=True))
        assert np.array_equal(row_sum(a.astype(np.float32)), a.astype(np.float32).sum(axis=-1, keepdims=True))
        assert np.array_equal(row_max(a), a.max(axis=-1, keepdims=True))
        theta = softmax(a)
        assert np.array_equal(theta, numpy_softmax(a))
        got = sample_rows(theta, u)
        assert got.dtype == np.int64
        assert np.array_equal(got, numpy_sample_rows(theta, u))


@pytest.mark.parametrize("k", [8, 16])
def test_kernels_agree_with_numpy_within_ulps_from_eight_classes(k):
    for a, u in cases(k, seed=k):
        # the ulp of the row's magnitude sum: the scale of either summation's error
        scale = np.spacing(np.abs(a).sum(axis=-1, keepdims=True))
        assert np.all(np.abs(row_sum(a) - a.sum(axis=-1, keepdims=True)) <= ULP_BOUND * scale)
        assert np.array_equal(row_max(a), a.max(axis=-1, keepdims=True))
        theta = softmax(a)
        # softmax rows sum to 1, so the scale is the ulp of 1
        assert np.all(np.abs(theta - numpy_softmax(a)) <= ULP_BOUND * np.spacing(1.0))
        # cumulative sums run sequentially in numpy too, so the draw stays exact
        assert np.array_equal(sample_rows(theta, u), numpy_sample_rows(theta, u))


def test_sample_rows_gives_the_last_class_when_the_sums_stay_below_u():
    theta = np.array([[0.2, 0.2, 0.2, 0.2], [0.5, 0.5 - 1e-9, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
    u = np.array([0.9, 1.0 - 1e-10, 0.5])
    assert sample_rows(theta, u).tolist() == [4, 4, 4]
    assert numpy_sample_rows(theta, u).tolist() == [4, 4, 4]


def test_sample_rows_inverts_the_cdf():
    theta = np.array([0.1, 0.2, 0.3, 0.4])
    u = np.array([0.0, 0.05, 0.1, 0.25, 0.3 + 1e-12, 0.6, 0.61, 0.999])
    assert sample_rows(np.broadcast_to(theta, (u.size, 4)), u).tolist() == [1, 1, 1, 2, 3, 3, 4, 4]
