"""Oracle suite: every brute-force, quadrature, Monte-Carlo, and
finite-difference check, runnable as a batch with one PASS/FAIL line each.

Tolerances are pinned here, not configurable: posterior enumeration and
conjugate-Gaussian agreement at 1e-10, transition-product induction at
1e-12, KL quadrature at 1e-5, gradient checks at 1e-4 relative per
coordinate, and 3-sigma bounds for the Monte-Carlo comparisons.
"""

import time
from dataclasses import dataclass

import numpy as np

from . import oracles
from .denoiser import DenoiserConfig, ReferenceDenoiser
from .distribution import (
    FactorizedGCParams,
    JointSample,
    ShapeSpec,
    entropy,
    kl_divergence,
    log_pdf,
    sample,
)
from .metrics import frechet_gaussians
from .process import (
    cat_posterior_theta,
    marginal_theta,
    one_hot,
    posterior_params,
    q_step_arrays,
)
from .schedules import NoiseSchedule, cosine_schedule
from .training import vlb_loss

POSTERIOR_TOL = 1e-10
INDUCTION_TOL = 1e-12
KL_QUAD_TOL = 1e-5
GRAD_TOL = 1e-4
NORMALIZATION_TOL = 1e-6


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return f"{status} {self.name}: {self.detail} [{self.seconds:.2f}s]"


def _random_schedule(rng: np.random.Generator, total_steps: int) -> NoiseSchedule:
    return NoiseSchedule(
        beta_gauss=rng.uniform(0.05, 0.8, total_steps),
        beta_cat=rng.uniform(0.05, 0.8, total_steps),
        check_terminal=False,
    )


def check_schedule_properties(seed: int = 0) -> CheckResult:
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    worst = 0.0
    sched = cosine_schedule(1000)
    ok = sched.alphabar_gauss[-1] < 1e-3 and np.all(sched.beta_gauss > 0) and np.all(sched.beta_gauss <= 0.999)
    ok = ok and np.all(np.diff(sched.alphabar_gauss) < 0)
    for _ in range(50):
        s = _random_schedule(rng, int(rng.integers(2, 30)))
        prev = np.concatenate([[1.0], s.alphabar_gauss[:-1]])
        rel = np.abs(s.alphabar_gauss / prev - s.alpha_gauss) / s.alpha_gauss
        worst = max(worst, float(rel.max()))
        ok = ok and np.all(np.diff(s.alphabar_gauss) < 0) and np.all(np.diff(s.alphabar_cat) < 0)
    ok = ok and worst < 1e-12
    return CheckResult("schedule-self-consistency", bool(ok), f"max rel drift {worst:.2e}", time.perf_counter() - t0)


def check_bayes_posterior(n_cases: int = 1000, seed: int = 0) -> CheckResult:
    """Posterior vs enumeration (labels) and completed square (image)."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    worst_cat = worst_mu = worst_var = 0.0
    for _ in range(n_cases):
        n_classes = int(rng.integers(2, 6))
        total = int(rng.integers(2, 12))
        sched = _random_schedule(rng, total)
        t = int(rng.integers(2, total + 1))
        y0 = int(rng.integers(1, n_classes + 1))
        y_t = int(rng.integers(1, n_classes + 1))
        x0 = float(rng.standard_normal())
        x_t = float(rng.standard_normal())
        z_t = JointSample(x=np.array([x_t]), y=np.array([y_t]))
        post = posterior_params(np.array([x0]), one_hot(np.array([y0]), n_classes), z_t, t, sched)
        ref_theta = oracles.brute_cat_posterior(y_t, y0, float(sched.alpha_cat[t - 1]), sched.abar_cat(t - 1), n_classes)
        ref_mu, ref_var = oracles.conjugate_gauss_posterior(x_t, x0, float(sched.alpha_gauss[t - 1]), sched.abar_gauss(t - 1))
        worst_cat = max(worst_cat, float(np.max(np.abs(post.theta[0] - ref_theta))))
        worst_mu = max(worst_mu, abs(float(post.mu[0]) - ref_mu) / max(abs(ref_mu), 1.0))
        worst_var = max(worst_var, abs(float(post.var[0]) - ref_var) / ref_var)
    ok = max(worst_cat, worst_mu, worst_var) < POSTERIOR_TOL
    return CheckResult(
        "bayes-posterior",
        bool(ok),
        f"{n_cases} cases, worst cat {worst_cat:.2e}, mu {worst_mu:.2e}, var {worst_var:.2e}",
        time.perf_counter() - t0,
    )


def check_marginal_induction(seed: int = 0) -> CheckResult:
    """t-step transition products equal the closed-form marginal mixing."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(200):
        n_classes = int(rng.integers(2, 6))
        total = int(rng.integers(1, 11))
        sched = _random_schedule(rng, total)
        t = int(rng.integers(1, total + 1))
        prod = oracles.composed_transition(sched.alpha_cat[:t], n_classes)
        closed = oracles.transition_matrix(sched.abar_cat(t), n_classes)
        worst = max(worst, float(np.max(np.abs(prod - closed))))
        y0 = int(rng.integers(1, n_classes + 1))
        row = marginal_theta(np.array([y0]), sched.abar_cat(t), n_classes)[0]
        worst = max(worst, float(np.max(np.abs(prod[y0 - 1] - row))))
    ok = worst < INDUCTION_TOL
    return CheckResult("marginal-induction", bool(ok), f"worst entry error {worst:.2e}", time.perf_counter() - t0)


def check_marginal_monte_carlo(seed: int = 0, n_chains: int = 100_000) -> CheckResult:
    """Chained one-step kernels vs the closed-form Gaussian marginal."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    n_classes = 3
    total = 5
    sched = _random_schedule(rng, total)
    x0 = rng.uniform(-1, 1)
    y0 = int(rng.integers(1, n_classes + 1))
    x = np.full((n_chains, 1), x0)
    y = np.full((n_chains, 1), y0)
    for t in range(1, total + 1):
        x, y = q_step_arrays(x, y, t, sched, rng, n_classes)
    abar = sched.abar_gauss(total)
    mean_true = np.sqrt(abar) * x0
    var_true = 1.0 - abar
    mean_err = abs(x.mean() - mean_true)
    mean_bound = 3.0 * np.sqrt(var_true / n_chains)
    var_err = abs(x.var(ddof=1) - var_true)
    var_bound = 3.0 * var_true * np.sqrt(2.0 / (n_chains - 1))
    freq = np.array([(y == k).mean() for k in range(1, n_classes + 1)])
    probs = marginal_theta(np.array([y0]), sched.abar_cat(total), n_classes)[0]
    freq_bound = 3.0 * np.sqrt(probs * (1 - probs) / n_chains)
    ok = mean_err < mean_bound and var_err < var_bound and np.all(np.abs(freq - probs) < freq_bound)
    return CheckResult(
        "marginal-monte-carlo",
        bool(ok),
        f"mean err {mean_err:.2e} (<{mean_bound:.2e}), var err {var_err:.2e} (<{var_bound:.2e}), "
        f"label freq err {np.max(np.abs(freq - probs)):.2e}",
        time.perf_counter() - t0,
    )


def check_stride_composition(seed: int = 0) -> CheckResult:
    """Effective-retention strided kernel equals the product of the skipped
    one-step transitions."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(200):
        n_classes = int(rng.integers(2, 5))
        total = int(rng.integers(3, 12))
        sched = _random_schedule(rng, total)
        t = int(rng.integers(2, total + 1))
        s = int(rng.integers(1, t))
        composed = oracles.composed_transition(sched.alpha_cat[s:t], n_classes)
        effective = oracles.transition_matrix(sched.abar_cat(t) / sched.abar_cat(s), n_classes)
        worst = max(worst, float(np.max(np.abs(composed - effective))))
    ok = worst < 1e-10
    return CheckResult("stride-composition", bool(ok), f"worst entry error {worst:.2e}", time.perf_counter() - t0)


def check_posterior_rows_valid(seed: int = 0) -> CheckResult:
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    ok = True
    for _ in range(500):
        n_classes = int(rng.integers(2, 7))
        m = int(rng.integers(1, 5))
        theta0 = rng.dirichlet(np.ones(n_classes), size=m)
        y_t = rng.integers(1, n_classes + 1, size=m)
        theta = cat_posterior_theta(theta0, y_t, float(rng.uniform(0.01, 0.99)), float(rng.uniform(0.01, 0.99)), n_classes)
        ok = ok and np.all(theta >= 0) and np.allclose(theta.sum(axis=-1), 1.0, atol=1e-12)
    return CheckResult("posterior-rows-stochastic", bool(ok), "500 randomized parameter draws", time.perf_counter() - t0)


def check_normalization(seed: int = 0) -> CheckResult:
    """exp(log_pdf) integrates and sums to 1 on small instances."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(10):
        n_classes = int(rng.integers(2, 5))
        params = FactorizedGCParams(
            mu=rng.standard_normal(1),
            var=rng.uniform(0.2, 2.0, 1),
            theta=rng.dirichlet(np.ones(n_classes), size=1),
        )
        worst = max(worst, abs(oracles.quad_normalization(params) - 1.0))
    ok = worst < NORMALIZATION_TOL
    return CheckResult("density-normalization", bool(ok), f"worst |mass-1| {worst:.2e}", time.perf_counter() - t0)


def check_kl_decomposition(n_cases: int = 200, seed: int = 0) -> CheckResult:
    """Closed-form KL equals brute-force quadrature over the joint."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_cases):
        n_classes = int(rng.integers(2, 5))
        p = FactorizedGCParams(
            mu=rng.standard_normal(1), var=rng.uniform(0.3, 2.0, 1),
            theta=rng.dirichlet(np.ones(n_classes), size=1),
        )
        q = FactorizedGCParams(
            mu=rng.standard_normal(1), var=rng.uniform(0.3, 2.0, 1),
            theta=rng.dirichlet(np.ones(n_classes), size=1),
        )
        closed = kl_divergence(p, q)
        brute = oracles.quad_joint_kl(p, q)
        worst = max(worst, abs(closed - brute))
        if closed < -1e-12:
            worst = float("inf")
    ok = worst < KL_QUAD_TOL
    return CheckResult("kl-decomposition", bool(ok), f"{n_cases} cases, worst |closed-quad| {worst:.2e}", time.perf_counter() - t0)


def _grad_check_setup():
    # float64: central differences at h = 1e-5 need more digits than float32 holds
    shape = ShapeSpec(n_gauss=2, n_cat=1, n_classes=2)
    cfg = DenoiserConfig(shape=shape, n_conds=1, hidden=8, n_blocks=1, label_emb_dim=2, time_emb_dim=4, cond_emb_dim=2)
    return ReferenceDenoiser.init(cfg, seed=0, dtype=np.float64)


def check_gradients(n_points: int = 100, seed: int = 0, mode: str = "vlb") -> CheckResult:
    """Hand-written VLB gradients vs central finite differences (h = 1e-5)."""
    t0 = time.perf_counter()
    model = _grad_check_setup()
    base = np.random.default_rng(seed)
    sched = NoiseSchedule(
        beta_gauss=base.uniform(0.1, 0.6, 8), beta_cat=base.uniform(0.1, 0.6, 8), check_terminal=False
    )
    x0 = base.uniform(-1, 1, (4, 2))
    y0 = base.integers(1, 3, (4, 1))
    cond = np.zeros(4, dtype=np.int64)
    worst = 0.0
    for point in range(n_points):
        prng = np.random.default_rng(seed + 1000 + point)
        for v in model.params.values():
            v[...] = prng.standard_normal(v.shape) * 0.5
        draw_seed = seed + 5000 + point

        def loss_fn():
            return vlb_loss(
                x0, y0, cond, model, sched, np.random.default_rng(draw_seed),
                cond_dropout=0.3, mode=mode,
            )[0]

        _, grads, _ = vlb_loss(
            x0, y0, cond, model, sched, np.random.default_rng(draw_seed), cond_dropout=0.3, mode=mode
        )
        fd = oracles.finite_diff_grads(loss_fn, model.flat)
        worst = max(worst, oracles.max_rel_error(grads, fd))
    ok = worst < GRAD_TOL
    return CheckResult(
        f"gradient-check-{mode}",
        bool(ok),
        f"{n_points} points x {model.n_params} params, worst rel err {worst:.2e}",
        time.perf_counter() - t0,
    )


def check_sampling_entropy(seed: int = 0, n_samples: int = 100_000) -> CheckResult:
    """Mean self-sample negative log density matches the analytic entropy."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    params = FactorizedGCParams(
        mu=rng.standard_normal(3), var=rng.uniform(0.3, 1.5, 3), theta=rng.dirichlet(np.ones(4), size=2)
    )
    nll = np.empty(n_samples)
    for i in range(n_samples):
        nll[i] = -log_pdf(params, sample(params, rng))
    se = nll.std(ddof=1) / np.sqrt(n_samples)
    err = abs(nll.mean() - entropy(params))
    ok = err < 3.0 * se
    return CheckResult("sampling-entropy", bool(ok), f"|mean nll - H| {err:.4f} < 3 SE {3 * se:.4f}", time.perf_counter() - t0)


def check_fsd_properties(seed: int = 0) -> CheckResult:
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    worst_sym = worst_self = 0.0
    for _ in range(100):
        k = int(rng.integers(1, 6))
        mu1, mu2 = rng.standard_normal(k), rng.standard_normal(k)
        a = rng.standard_normal((k, k))
        b = rng.standard_normal((k, k))
        c1, c2 = a @ a.T + 0.1 * np.eye(k), b @ b.T + 0.1 * np.eye(k)
        d12 = frechet_gaussians(mu1, c1, mu2, c2)
        d21 = frechet_gaussians(mu2, c2, mu1, c1)
        worst_sym = max(worst_sym, abs(d12 - d21))
        worst_self = max(worst_self, abs(frechet_gaussians(mu1, c1, mu1, c1)))
    ok = worst_sym < 1e-8 and worst_self < 1e-8
    return CheckResult(
        "frechet-symmetry", bool(ok), f"worst asymmetry {worst_sym:.2e}, self-distance {worst_self:.2e}",
        time.perf_counter() - t0,
    )


def run_all(seed: int = 0, fast: bool = False) -> list[CheckResult]:
    n_bayes = 100 if fast else 1000
    n_kl = 40 if fast else 200
    n_grad = 10 if fast else 100
    n_mc = 20_000 if fast else 100_000
    return [
        check_schedule_properties(seed),
        check_bayes_posterior(n_bayes, seed),
        check_marginal_induction(seed),
        check_marginal_monte_carlo(seed, n_mc),
        check_stride_composition(seed),
        check_posterior_rows_valid(seed),
        check_normalization(seed),
        check_kl_decomposition(n_kl, seed),
        check_gradients(n_grad, seed, mode="vlb"),
        check_gradients(max(5, n_grad // 10), seed, mode="simple"),
        check_sampling_entropy(seed, n_mc),
        check_fsd_properties(seed),
    ]
