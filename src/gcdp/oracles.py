"""Independent reference computations used to validate the fast paths.

Everything here deliberately takes a different route from the production
code: explicit enumeration over label states, dense transition matrices,
completion-of-the-square Gaussian algebra, numerical quadrature, and
central finite differences. The verify command and the test suite both
drive these.
"""

import numpy as np
from scipy import integrate

from .distribution import FactorizedGCParams, log_pdf

LOG_2PI = float(np.log(2.0 * np.pi))


def brute_cat_posterior(y_t: int, y0: int, alpha_t: float, abar_prev: float, n_classes: int) -> np.ndarray:
    """Posterior PMF over y_{t-1} by explicit enumeration of all K states.

    For each candidate y_prev evaluates q(y_t | y_prev) * q(y_prev | y_0)
    and normalizes. Labels 1-based.
    """
    probs = np.empty(n_classes)
    for y_prev in range(1, n_classes + 1):
        like = alpha_t * (1.0 if y_t == y_prev else 0.0) + (1.0 - alpha_t) / n_classes
        prior = abar_prev * (1.0 if y_prev == y0 else 0.0) + (1.0 - abar_prev) / n_classes
        probs[y_prev - 1] = like * prior
    return probs / probs.sum()


def conjugate_gauss_posterior(
    x_t: float, x0: float, alpha_t: float, abar_prev: float
) -> tuple[float, float]:
    """Posterior (mean, var) over x_{t-1} by completing the square.

    Treats q(x_t | x_{t-1}) as a Gaussian in x_{t-1} with precision
    alpha_t / beta_t and combines it with the prior q(x_{t-1} | x_0);
    algebraically independent of the closed-form coefficients.
    """
    beta_t = 1.0 - alpha_t
    prior_var = 1.0 - abar_prev
    lam = alpha_t / beta_t + 1.0 / prior_var
    mean = (np.sqrt(alpha_t) * x_t / beta_t + np.sqrt(abar_prev) * x0 / prior_var) / lam
    return float(mean), float(1.0 / lam)


def transition_matrix(alpha: float, n_classes: int) -> np.ndarray:
    """One-step label transition matrix: alpha I + (1 - alpha)/K * ones.

    Row y_prev holds q(y_t | y_prev)."""
    return alpha * np.eye(n_classes) + (1.0 - alpha) / n_classes


def composed_transition(alphas: np.ndarray, n_classes: int) -> np.ndarray:
    """Product of one-step transition matrices over the given alphas."""
    out = np.eye(n_classes)
    for a in alphas:
        out = out @ transition_matrix(float(a), n_classes)
    return out


def quad_normalization(params: FactorizedGCParams) -> float:
    """Integral of exp(log_pdf) over x times the sum over labels (N=M=1)."""
    if params.n_gauss != 1 or params.n_cat != 1:
        raise ValueError("quadrature oracle only handles N = M = 1")
    from .distribution import JointSample

    total = 0.0
    sd = float(np.sqrt(params.var[0]))
    lo, hi = params.mu[0] - 12 * sd, params.mu[0] + 12 * sd
    for y in range(1, params.n_classes + 1):
        val, _ = integrate.quad(
            lambda x, y=y: np.exp(log_pdf(params, JointSample(x=np.array([x]), y=np.array([y])))),
            lo,
            hi,
            limit=200,
        )
        total += val
    return total


def quad_joint_kl(p: FactorizedGCParams, q: FactorizedGCParams) -> float:
    """KL(p || q) for N = M = 1 by quadrature of p * log(p/q) per label."""
    if p.n_gauss != 1 or p.n_cat != 1:
        raise ValueError("quadrature oracle only handles N = M = 1")
    from .distribution import JointSample

    total = 0.0
    sd = float(np.sqrt(p.var[0]))
    lo, hi = p.mu[0] - 14 * sd, p.mu[0] + 14 * sd
    for y in range(1, p.n_classes + 1):
        if p.theta[0, y - 1] == 0.0:
            continue

        def integrand(x, y=y):
            z = JointSample(x=np.array([x]), y=np.array([y]))
            lp = log_pdf(p, z)
            lq = log_pdf(q, z)
            return np.exp(lp) * (lp - lq)

        val, _ = integrate.quad(integrand, lo, hi, limit=200)
        total += val
    return total


def finite_diff_grads(loss_fn, params: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of loss_fn() w.r.t. every entry of a flat
    parameter array.

    loss_fn reads the (mutated-in-place) params and must be deterministic.
    """
    grads = np.zeros_like(params)
    for i in range(params.shape[0]):
        orig = params[i]
        params[i] = orig + h
        up = loss_fn()
        params[i] = orig - h
        down = loss_fn()
        params[i] = orig
        grads[i] = (up - down) / (2.0 * h)
    return grads


def max_rel_error(a: np.ndarray, b: np.ndarray, floor: float = 1e-4) -> float:
    """Worst per-coordinate relative error between two gradient arrays.

    The floor keeps near-zero coordinates from amplifying finite-difference
    round-off into spurious relative errors.
    """
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))
