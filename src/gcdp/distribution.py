"""Factorized joint distribution over a real vector and a label vector.

The joint density is a product of independent per-coordinate factors: a
diagonal Gaussian N(mu_j, var_j) over the N real coordinates and an
independent categorical C(theta_i) over the M label positions,

    p(x, y) = prod_i theta[i, y_i] * prod_j N(x_j; mu_j, var_j).

Labels are 1-based: y_i in {1..K}. Only this factorized parameterization
is supported; the general mixture with a separate Gaussian per label state
appears solely inside small-instance test oracles. A state is drawn from
such a law by process.draw, which fixes the order in which the generator
is consumed.

This module also holds the class-axis kernels: row_sum, row_max, softmax
and the inverse-CDF draw sample_rows. Every reduction over the trailing
class axis of length K in the loss, the posterior and the samplers goes
through them. numpy reduces a short trailing axis many times slower than
it applies an elementwise ufunc to the same array, so the kernels loop
over the K slices with elementwise ufuncs instead. For
K <= 7 numpy sums such an axis sequentially, and row_sum gives its result
bit for bit; from K = 8 numpy sums pairwise and the two differ in the last
bits.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

VAR_FLOOR = 1e-12
ROW_SUM_TOL = 1e-6
LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True)
class ShapeSpec:
    """Problem dimensions: N real coordinates, M label positions, K classes."""

    n_gauss: int
    n_cat: int
    n_classes: int

    def __post_init__(self):
        if self.n_gauss < 1 or self.n_cat < 1:
            raise ValidationError("n_gauss and n_cat must be positive")
        if self.n_classes < 2:
            raise ValidationError("n_classes must be at least 2")


@dataclass(frozen=True)
class JointSample:
    """One joint value: real vector x (length N) and labels y in {1..K}^M."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.int64)
        if x.ndim != 1 or y.ndim != 1:
            raise ValidationError("x and y must be 1-D vectors")
        if not np.all(np.isfinite(x)):
            raise ValidationError("x must be finite")
        if np.any(y < 1):
            raise ValidationError("labels are 1-based; found entry < 1")
        x.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)


def _clean_theta(theta: np.ndarray) -> np.ndarray:
    theta = np.asarray(theta, dtype=np.float64)
    if theta.ndim != 2:
        raise ValidationError("theta must be an M x K matrix")
    if theta.shape[1] < 2:
        raise ValidationError("theta needs at least 2 classes")
    if np.any(theta < -VAR_FLOOR) or not np.all(np.isfinite(theta)):
        raise ValidationError("theta entries must be finite and nonnegative")
    theta = np.maximum(theta, 0.0)
    sums = theta.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > ROW_SUM_TOL):
        worst = int(np.argmax(np.abs(sums - 1.0)))
        raise ValidationError(f"theta row {worst} sums to {sums[worst]!r}, not 1 within {ROW_SUM_TOL:g}")
    return theta / sums[:, None]


@dataclass(frozen=True)
class FactorizedGCParams:
    """Parameters (mu, var, theta) of the factorized joint distribution.

    var is floored at VAR_FLOOR so degenerate zero-variance inputs stay
    sampleable; theta rows are renormalized when within ROW_SUM_TOL of
    stochastic and rejected otherwise.
    """

    mu: np.ndarray
    var: np.ndarray
    theta: np.ndarray

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=np.float64)
        var = np.asarray(self.var, dtype=np.float64)
        if mu.ndim != 1 or var.shape != mu.shape:
            raise ValidationError("mu and var must be 1-D vectors of equal length")
        if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(var))):
            raise ValidationError("mu and var must be finite")
        if np.any(var < 0.0):
            raise ValidationError("var must be nonnegative")
        var = np.maximum(var, VAR_FLOOR)
        theta = _clean_theta(self.theta)
        for name, arr in (("mu", mu), ("var", var), ("theta", theta)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_gauss(self) -> int:
        return int(self.mu.shape[0])

    @property
    def n_cat(self) -> int:
        return int(self.theta.shape[0])

    @property
    def n_classes(self) -> int:
        return int(self.theta.shape[1])

    def _check_sample(self, z: JointSample):
        if z.x.shape[0] != self.n_gauss or z.y.shape[0] != self.n_cat:
            raise ValidationError(
                f"sample shape ({z.x.shape[0]}, {z.y.shape[0]}) does not match "
                f"params ({self.n_gauss}, {self.n_cat})"
            )
        if np.any(z.y > self.n_classes):
            raise ValidationError("label exceeds n_classes")


def log_pdf(params: FactorizedGCParams, z: JointSample) -> float:
    """Joint log density; -inf when a label hits a zero-probability class."""
    params._check_sample(z)
    with np.errstate(divide="ignore"):
        cat = np.log(params.theta[np.arange(params.n_cat), z.y - 1]).sum()
    d = z.x - params.mu
    gauss = -0.5 * (LOG_2PI + np.log(params.var) + d * d / params.var).sum()
    return float(cat + gauss)


def row_sum(a: np.ndarray) -> np.ndarray:
    """Sum over the trailing axis (K >= 2), kept as an axis of length 1: the
    K slices added in order, which for K <= 7 equals a.sum(axis=-1,
    keepdims=True) bit for bit."""
    out = np.add(a[..., 0], a[..., 1])
    for k in range(2, a.shape[-1]):
        out += a[..., k]
    return out[..., None]


def row_max(a: np.ndarray) -> np.ndarray:
    """Maximum over the trailing axis (K >= 2), kept as an axis of length 1;
    equal to a.max(axis=-1, keepdims=True) for every K."""
    out = np.maximum(a[..., 0], a[..., 1])
    for k in range(2, a.shape[-1]):
        np.maximum(out, a[..., k], out=out)
    return out[..., None]


def softmax(logits: np.ndarray) -> np.ndarray:
    """PMF rows exp(l - max l) / sum exp(l - max l) over the trailing axis,
    in one new array."""
    e = logits - row_max(logits)
    np.exp(e, out=e)
    e /= row_sum(e)
    return e


def sample_rows(theta: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF categorical draw per row; theta (..., K), u (...) in [0,1).

    Returns 1-based labels with the trailing axis of theta reduced away: one
    plus the number of the first K-1 cumulative sums that u exceeds, so a
    row whose sums stay below u gets label K.
    """
    cum = np.zeros_like(theta[..., 0])
    idx = np.ones(cum.shape, dtype=np.int64)
    for k in range(theta.shape[-1] - 1):
        cum += theta[..., k]
        idx += u > cum
    return idx


def kl_divergence(p: FactorizedGCParams, q: FactorizedGCParams) -> float:
    """KL(p || q), the sum of per-coordinate Gaussian and categorical KLs.

    The Gaussian part is written as 0.5 * (-log r + (r - 1) + d^2 / q.var)
    with r = p.var / q.var, so a mean gap small against equal variances is
    not lost to the cancellation of (p.var + d^2) / q.var - 1. Returns +inf
    when q assigns zero mass to a label p supports.
    """
    if (p.n_gauss, p.n_cat, p.n_classes) != (q.n_gauss, q.n_cat, q.n_classes):
        raise ValidationError("KL requires identical shapes")
    d = p.mu - q.mu
    r = p.var / q.var
    gauss = 0.5 * (-np.log(r) + (r - 1.0) + d * d / q.var).sum()
    support = p.theta > 0.0
    if np.any(support & (q.theta == 0.0)):
        return float("inf")
    ratio = np.ones_like(p.theta)
    np.divide(p.theta, q.theta, out=ratio, where=support)
    cat = np.where(support, p.theta * np.log(ratio), 0.0).sum()
    return float(gauss + cat)


def entropy(params: FactorizedGCParams) -> float:
    """Differential+discrete entropy of the factorized joint."""
    gauss = 0.5 * (LOG_2PI + 1.0 + np.log(params.var)).sum()
    t = params.theta
    cat = -np.where(t > 0.0, t * np.log(np.where(t > 0.0, t, 1.0)), 0.0).sum()
    return float(gauss + cat)
