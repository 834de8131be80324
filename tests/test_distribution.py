import numpy as np
import pytest

from gcdp.distribution import (
    FactorizedGCParams,
    JointSample,
    ShapeSpec,
    entropy,
    kl_divergence,
    log_pdf,
)
from gcdp.errors import ValidationError
from gcdp.oracles import quad_joint_kl, quad_normalization
from gcdp.process import draw, one_hot

LOG_2PI = np.log(2 * np.pi)


def uniform_params(n_classes, mu=0.0, var=1.0):
    return FactorizedGCParams(
        mu=np.array([mu]), var=np.array([var]), theta=np.full((1, n_classes), 1.0 / n_classes)
    )


class TestTypes:
    def test_shape_spec_validation(self):
        with pytest.raises(ValidationError):
            ShapeSpec(n_gauss=0, n_cat=1, n_classes=2)
        with pytest.raises(ValidationError):
            ShapeSpec(n_gauss=1, n_cat=1, n_classes=1)

    def test_joint_sample_validation(self):
        with pytest.raises(ValidationError):
            JointSample(x=np.array([np.inf]), y=np.array([1]))
        with pytest.raises(ValidationError):
            JointSample(x=np.array([0.0]), y=np.array([0]))

    def test_one_hot_view(self):
        z = JointSample(x=np.zeros(1), y=np.array([2, 1]))
        assert np.array_equal(one_hot(z.y, 3), [[0, 1, 0], [1, 0, 0]])

    def test_theta_renormalized_within_tolerance(self):
        p = FactorizedGCParams(mu=np.zeros(1), var=np.ones(1), theta=np.array([[0.5, 0.5 + 5e-7]]))
        assert abs(p.theta.sum() - 1.0) < 1e-15

    def test_theta_rejected_beyond_tolerance(self):
        with pytest.raises(ValidationError):
            FactorizedGCParams(mu=np.zeros(1), var=np.ones(1), theta=np.array([[0.5, 0.6]]))
        with pytest.raises(ValidationError):
            FactorizedGCParams(mu=np.zeros(1), var=np.ones(1), theta=np.array([[1.2, -0.2]]))

    def test_variance_floor(self):
        p = FactorizedGCParams(mu=np.zeros(1), var=np.zeros(1), theta=np.array([[0.5, 0.5]]))
        assert p.var[0] == 1e-12


class TestLogPdf:
    def test_worked_example(self):
        p = uniform_params(2)
        z = JointSample(x=np.array([0.0]), y=np.array([1]))
        assert log_pdf(p, z) == pytest.approx(np.log(0.5) - 0.5 * LOG_2PI, abs=1e-6)
        assert log_pdf(p, z) == pytest.approx(-1.612086, abs=1e-6)

    def test_one_hot_row_at_mean(self):
        n = 5
        p = FactorizedGCParams(
            mu=np.arange(n, dtype=float),
            var=np.ones(n),
            theta=np.array([[0.0, 1.0, 0.0]]),
        )
        z = JointSample(x=np.arange(n, dtype=float), y=np.array([2]))
        assert log_pdf(p, z) == pytest.approx(-(n / 2) * LOG_2PI, abs=1e-12)

    def test_zero_probability_class(self):
        p = FactorizedGCParams(mu=np.zeros(1), var=np.ones(1), theta=np.array([[1.0, 0.0]]))
        z = JointSample(x=np.zeros(1), y=np.array([2]))
        assert log_pdf(p, z) == -np.inf

    def test_shape_mismatch(self):
        p = uniform_params(2)
        with pytest.raises(ValidationError):
            log_pdf(p, JointSample(x=np.zeros(2), y=np.array([1])))
        with pytest.raises(ValidationError):
            log_pdf(p, JointSample(x=np.zeros(1), y=np.array([3])))

    def test_normalizes_by_quadrature(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            k = int(rng.integers(2, 5))
            p = FactorizedGCParams(
                mu=rng.standard_normal(1),
                var=rng.uniform(0.3, 2.0, 1),
                theta=rng.dirichlet(np.ones(k), size=1),
            )
            assert quad_normalization(p) == pytest.approx(1.0, abs=1e-6)


def sample(p, rng):
    """One joint sample of p by process.draw, the draw every engine path runs."""
    return JointSample(*draw(p.mu, p.var, p.theta, rng))


class TestSample:
    def test_degenerate_variance_returns_mean(self):
        p = FactorizedGCParams(mu=np.array([0.3, -0.7]), var=np.zeros(2), theta=np.array([[1.0, 0.0]]))
        z = sample(p, np.random.default_rng(0))
        assert np.allclose(z.x, p.mu, atol=1e-5)

    def test_one_hot_theta_deterministic_class(self):
        p = FactorizedGCParams(mu=np.zeros(1), var=np.ones(1), theta=np.array([[0.0, 1.0, 0.0]]))
        rng = np.random.default_rng(1)
        assert all(sample(p, rng).y[0] == 2 for _ in range(200))

    def test_uniform_frequencies_within_3_sigma(self):
        n = 30_000
        rng = np.random.default_rng(2)
        _, y = draw(np.zeros((n, 1)), 1.0, np.full((n, 1, 3), 1 / 3), rng)
        counts = np.bincount(y[:, 0] - 1, minlength=3)
        bound = 3 * np.sqrt((1 / 3) * (2 / 3) / n)
        assert np.all(np.abs(counts / n - 1 / 3) < bound)

    def test_seed_determinism(self):
        p = FactorizedGCParams(mu=np.zeros(3), var=np.ones(3), theta=np.full((2, 4), 0.25))
        a = sample(p, np.random.default_rng(7))
        b = sample(p, np.random.default_rng(7))
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)


class TestKL:
    def test_identity_is_zero(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            p = FactorizedGCParams(
                mu=rng.standard_normal(3),
                var=rng.uniform(0.1, 2.0, 3),
                theta=rng.dirichlet(np.ones(4), size=2),
            )
            assert abs(kl_divergence(p, p)) < 1e-12

    def test_unit_gaussian_shift(self):
        p = uniform_params(2, mu=1.0)
        q = uniform_params(2, mu=0.0)
        assert kl_divergence(p, q) == pytest.approx(0.5, abs=1e-12)

    def test_categorical_ln2(self):
        p = FactorizedGCParams(mu=np.zeros(1), var=np.ones(1), theta=np.array([[1.0, 0.0]]))
        q = uniform_params(2)
        assert kl_divergence(p, q) == pytest.approx(np.log(2), abs=1e-12)

    def test_infinite_when_q_lacks_support(self):
        p = uniform_params(2)
        q = FactorizedGCParams(mu=np.zeros(1), var=np.ones(1), theta=np.array([[1.0, 0.0]]))
        assert kl_divergence(p, q) == np.inf

    def test_nonnegative_randomized(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            k = int(rng.integers(2, 5))
            mk = lambda: FactorizedGCParams(
                mu=rng.standard_normal(2),
                var=rng.uniform(0.1, 3.0, 2),
                theta=rng.dirichlet(np.ones(k), size=3),
            )
            assert kl_divergence(mk(), mk()) >= 0.0

    def test_matches_quadrature_decomposition(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            k = int(rng.integers(2, 5))
            mk = lambda: FactorizedGCParams(
                mu=rng.standard_normal(1),
                var=rng.uniform(0.3, 2.0, 1),
                theta=rng.dirichlet(np.ones(k), size=1),
            )
            p, q = mk(), mk()
            assert kl_divergence(p, q) == pytest.approx(quad_joint_kl(p, q), abs=1e-5)

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            kl_divergence(uniform_params(2), uniform_params(3))


def test_entropy_matches_self_sampled_nll():
    rng = np.random.default_rng(8)
    p = FactorizedGCParams(
        mu=rng.standard_normal(2), var=rng.uniform(0.3, 1.5, 2), theta=rng.dirichlet(np.ones(3), size=2)
    )
    n = 20_000
    nll = np.empty(n)
    for i in range(n):
        nll[i] = -log_pdf(p, sample(p, rng))
    se = nll.std(ddof=1) / np.sqrt(n)
    assert abs(nll.mean() - entropy(p)) < 3 * se
