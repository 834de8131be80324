import numpy as np
import pytest

from gcdp import process, verify
from gcdp.distribution import sample_rows
from gcdp.errors import ValidationError
from gcdp.oracles import (
    brute_cat_posterior,
    composed_transition,
    conjugate_gauss_posterior,
    transition_matrix,
)
from gcdp.process import (
    cat_posterior_theta,
    draw,
    forward_kernel,
    gauss_posterior_coeffs,
    kernel_rows,
    kernel_table,
    one_hot,
    posterior_arrays,
    posterior_coeffs,
    q_marginal_arrays,
    q_step_arrays,
    uniform_mix,
)
from gcdp.schedules import NoiseSchedule, cosine_schedule

from conftest import random_schedule


class TestDraw:
    def test_image_noise_then_label_uniforms(self):
        rng = np.random.default_rng(3)
        mu = rng.standard_normal((4, 5))
        theta = rng.dirichlet(np.ones(3), size=(4, 2))
        gen = np.random.default_rng(21)
        x, y = draw(mu, 0.3, theta, gen)
        ref = np.random.default_rng(21)
        noise = ref.standard_normal((4, 5))
        u = ref.random((4, 2))
        assert np.array_equal(x, mu + np.sqrt(0.3) * noise)
        assert np.array_equal(y, sample_rows(theta, u))
        # the draw consumed exactly those variates
        assert gen.random() == ref.random()

    def test_shapes(self):
        rng = np.random.default_rng(4)
        for lead in ((), (6,), (2, 3)):
            x, y = draw(np.zeros(lead + (5,)), 1.0, np.full(lead + (7, 4), 0.25), rng)
            assert x.shape == lead + (5,) and y.shape == lead + (7,)
            assert y.dtype == np.int64 and np.all((y >= 1) & (y <= 4))

    def test_float_and_per_item_variance(self):
        mu = np.random.default_rng(5).standard_normal((3, 4))
        theta = np.full((3, 2, 3), 1 / 3)
        x_float, y_float = draw(mu, 0.5, theta, np.random.default_rng(6))
        x_items, y_items = draw(mu, np.full((3, 1), 0.5), theta, np.random.default_rng(6))
        assert np.array_equal(x_float, x_items) and np.array_equal(y_float, y_items)
        var = np.array([[0.1], [1.0], [4.0]])
        x, _ = draw(mu, var, theta, np.random.default_rng(6))
        noise = np.random.default_rng(6).standard_normal((3, 4))
        for i in range(3):
            assert np.array_equal(x[i], mu[i] + np.sqrt(var[i, 0]) * noise[i])

    def test_sampling_entropy_oracle_runs_this_draw(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return draw(*args)

        monkeypatch.setattr(process, "draw", counting)
        result = verify.check_sampling_entropy(seed=0, n_samples=300)
        assert len(calls) == 300 and result.ok


class TestQStep:
    def test_vanishing_noise_keeps_state(self):
        beta = np.full(3, 1e-12)
        sched = NoiseSchedule(beta_gauss=beta, beta_cat=beta, check_terminal=False)
        x, y = np.array([[0.4, -0.9]]), np.array([[1, 3, 2]])
        kernel = forward_kernel(1, sched, 3)
        rng = np.random.default_rng(0)
        for _ in range(200):
            x_t, y_t = q_step_arrays(x, y, kernel, rng)
            assert np.allclose(x_t, x, atol=1e-5)
            assert np.array_equal(y_t, y)

    def test_full_mixing_kernel_is_uniform(self):
        # beta = 1 (keep = 0) is validated off in schedules; the kernel itself is testable
        theta = uniform_mix(one_hot(np.array([2, 1]), 4), keep=0.0, n_classes=4)
        assert np.allclose(theta, 0.25)

    def test_binary_flip_probability(self):
        beta = np.array([0.5, 0.5])
        sched = NoiseSchedule(beta_gauss=beta, beta_cat=beta, check_terminal=False)
        n = 100_000
        rng = np.random.default_rng(1)
        _, y_t = q_step_arrays(np.zeros((n, 1)), np.ones((n, 1), dtype=int), forward_kernel(1, sched, 2), rng)
        p_hat = (y_t == 1).mean()
        assert abs(p_hat - 0.75) < 3 * np.sqrt(0.75 * 0.25 / n)

    def test_rejects_out_of_range_t(self):
        sched = NoiseSchedule(beta_gauss=np.array([0.5]), beta_cat=np.array([0.5]), check_terminal=False)
        x, y = np.zeros((1, 1)), np.array([[1]])
        with pytest.raises(ValidationError):
            q_step_arrays(x, y, forward_kernel(2, sched, 2), np.random.default_rng(0))
        with pytest.raises(ValidationError):
            q_step_arrays(x, y, forward_kernel(0, sched, 2), np.random.default_rng(0))


class TestMarginal:
    def test_gaussian_coefficients(self):
        # alphabar = 0.25 at t=2 via beta = [0.5, 0.5]
        beta = np.array([0.5, 0.5])
        sched = NoiseSchedule(beta_gauss=beta, beta_cat=beta, check_terminal=False)
        mu, var, _ = q_marginal_arrays(np.array([[1.0]]), np.array([[1]]), 2, sched, n_classes=2)
        assert mu[0, 0] == pytest.approx(0.5, abs=1e-15)
        assert var == pytest.approx(0.75, abs=1e-15)

    def test_categorical_mixture(self):
        sched = NoiseSchedule(beta_gauss=np.array([0.5]), beta_cat=np.array([0.5]), check_terminal=False)
        _, _, theta = q_marginal_arrays(np.zeros(1), np.array([1]), 1, sched, n_classes=2)
        assert np.allclose(theta, [[0.75, 0.25]])

    def test_array_t_equals_scalar_t_row_by_row(self):
        rng = np.random.default_rng(12)
        for sched in (random_schedule(rng, 9), cosine_schedule(100, p=3)):
            t = np.array([1, 2, sched.total_steps, 5, 1])
            x0 = rng.uniform(-1, 1, (t.size, 3))
            y0 = rng.integers(1, 5, (t.size, 2))
            mu, var, theta = q_marginal_arrays(x0, y0, t, sched, 4)
            assert mu.shape == x0.shape and var.shape == (t.size, 1) and theta.shape == (t.size, 2, 4)
            for i in range(t.size):
                mu_i, var_i, theta_i = q_marginal_arrays(x0[i], y0[i], int(t[i]), sched, 4)
                assert np.array_equal(mu[i], mu_i) and var[i, 0] == var_i and np.array_equal(theta[i], theta_i)

    def test_rejects_out_of_range_t(self):
        sched = NoiseSchedule(beta_gauss=np.array([0.5, 0.5]), beta_cat=np.array([0.5, 0.5]), check_terminal=False)
        x0, y0 = np.zeros((3, 1)), np.ones((3, 1), dtype=int)
        for t in (0, 3, np.array([1, 0, 2]), np.array([2, 2, 3])):
            with pytest.raises(ValidationError):
                q_marginal_arrays(x0, y0, t, sched, 2)

    def test_induction_matches_transition_products(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            k = int(rng.integers(2, 6))
            total = int(rng.integers(1, 11))
            sched = random_schedule(rng, total)
            t = int(rng.integers(1, total + 1))
            prod = composed_transition(sched.alpha_cat[:t], k)
            closed = transition_matrix(sched.abar_cat(t), k)
            assert np.max(np.abs(prod - closed)) < 1e-12
            y0 = int(rng.integers(1, k + 1))
            _, _, theta = q_marginal_arrays(np.zeros(1), np.array([y0]), t, sched, k)
            assert np.max(np.abs(prod[y0 - 1] - theta[0])) < 1e-12

    def test_chained_steps_reproduce_marginal(self):
        rng = np.random.default_rng(3)
        sched = random_schedule(rng, 5)
        k, x0, y0 = 3, 0.7, 2
        n = 100_000
        x = np.full((n, 1), x0)
        y = np.full((n, 1), y0)
        for t in range(1, 6):
            x, y = q_step_arrays(x, y, forward_kernel(t, sched, k), rng)
        abar = sched.abar_gauss(5)
        mean_true, var_true = np.sqrt(abar) * x0, 1 - abar
        assert abs(x.mean() - mean_true) < 3 * np.sqrt(var_true / n)
        assert abs(x.var(ddof=1) - var_true) < 3 * var_true * np.sqrt(2 / (n - 1))
        # categorical side is exact: compare frequencies against the matrix product
        probs = composed_transition(sched.alpha_cat[:5], k)[y0 - 1]
        freq = np.array([(y == c).mean() for c in range(1, k + 1)])
        assert np.all(np.abs(freq - probs) < 3 * np.sqrt(probs * (1 - probs) / n))


class TestPosterior:
    def test_worked_three_class_example(self):
        theta = cat_posterior_theta(one_hot(np.array([1]), 3), np.array([2]), 0.9, 0.5, 3)
        assert np.allclose(theta, [[0.121212, 0.848485, 0.030303]], atol=1e-6)

    def test_vanishing_beta_collapses_to_current_state(self):
        beta = np.array([0.5, 1e-13])
        sched = NoiseSchedule(beta_gauss=beta, beta_cat=beta, check_terminal=False)
        c0, ct, var = gauss_posterior_coeffs(2, 1, sched)
        assert abs(c0) < 1e-9
        assert ct == pytest.approx(1.0, abs=1e-9)
        assert var < 1e-9

    def test_no_prior_noise_gives_one_hot(self):
        theta0 = one_hot(np.array([3]), 4)
        theta = cat_posterior_theta(theta0, np.array([1]), alpha_eff=0.7, abar_s=1.0, n_classes=4)
        assert np.array_equal(theta, theta0)

    def test_matches_bayes_enumeration_and_conjugate_form(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            k = int(rng.integers(2, 6))
            total = int(rng.integers(2, 12))
            sched = random_schedule(rng, total)
            t = int(rng.integers(2, total + 1))
            y0, y_t = int(rng.integers(1, k + 1)), int(rng.integers(1, k + 1))
            x0, x_t = rng.standard_normal(2)
            mu, var, theta = posterior_arrays(
                np.array([[x0]]), one_hot(np.array([[y0]]), k), np.array([[x_t]]), np.array([[y_t]]),
                posterior_coeffs(t, t - 1, sched), k,
            )
            ref = brute_cat_posterior(y_t, y0, float(sched.alpha_cat[t - 1]), sched.abar_cat(t - 1), k)
            mu_ref, var_ref = conjugate_gauss_posterior(
                x_t, x0, float(sched.alpha_gauss[t - 1]), sched.abar_gauss(t - 1)
            )
            assert np.max(np.abs(theta[0, 0] - ref)) < 1e-10
            assert abs(mu[0, 0] - mu_ref) < 1e-10 * max(1.0, abs(mu_ref))
            assert abs(var - var_ref) < 1e-10

    def test_every_one_step_row_at_cosine_1000_p3_matches_enumeration(self):
        # small-t normalizers here are ~1e-13, below the old 1e-12 floor
        sched = cosine_schedule(1000, p=3)
        k = 4
        y0 = np.repeat(np.arange(1, k + 1), k)
        y_t = np.tile(np.arange(1, k + 1), k)
        worst = 0.0
        for t in range(2, sched.total_steps + 1):
            x = np.zeros((k * k, 1))
            coeffs = posterior_coeffs(t, t - 1, sched)
            _, _, theta = posterior_arrays(x, one_hot(y0[:, None], k), x, y_t[:, None], coeffs, k)
            for i in range(k * k):
                ref = brute_cat_posterior(
                    int(y_t[i]), int(y0[i]), float(sched.alpha_cat[t - 1]), sched.abar_cat(t - 1), k
                )
                worst = max(worst, float(np.max(np.abs(theta[i, 0] - ref))))
        assert worst < 1e-10

    def test_predicted_pmf_enters_linearly(self):
        rng = np.random.default_rng(5)
        k = 4
        theta0 = rng.dirichlet(np.ones(k), size=2)
        y_t = np.array([1, 3])
        mixed = cat_posterior_theta(theta0, y_t, 0.8, 0.6, k)
        # expectation of one-hot posteriors under theta0, renormalized
        expected = np.zeros_like(mixed)
        for i in range(2):
            acc = np.zeros(k)
            for y0 in range(1, k + 1):
                like = 0.8 * one_hot(np.array([y_t[i]]), k)[0] + 0.2 / k
                prior = 0.6 * one_hot(np.array([y0]), k)[0] + 0.4 / k
                acc += theta0[i, y0 - 1] * like * prior
            expected[i] = acc / acc.sum()
        assert np.allclose(mixed, expected, atol=1e-12)

    def test_rows_are_valid_pmfs(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            k = int(rng.integers(2, 7))
            m = int(rng.integers(1, 6))
            theta = cat_posterior_theta(
                rng.dirichlet(np.ones(k), size=m),
                rng.integers(1, k + 1, m),
                float(rng.uniform(0.01, 0.99)),
                float(rng.uniform(0.01, 0.99)),
                k,
            )
            assert np.all(theta >= 0)
            assert np.allclose(theta.sum(axis=-1), 1.0, atol=1e-12)

    def test_rejects_t_below_two(self):
        sched = NoiseSchedule(beta_gauss=np.array([0.5, 0.5]), beta_cat=np.array([0.5, 0.5]), check_terminal=False)
        # the one-step posterior at t = 1 would target s = 0: the decoder's job
        with pytest.raises(ValidationError):
            posterior_coeffs(1, 0, sched)


class TestStride:
    def test_one_step_stride_equals_single_step(self):
        rng = np.random.default_rng(8)
        sched = random_schedule(rng, 6)
        x0 = rng.standard_normal(2)
        th0 = rng.dirichlet(np.ones(3), size=2)
        x_t = rng.standard_normal(2)
        y_t = rng.integers(1, 4, 2)
        mu, var, theta = posterior_arrays(x0, th0, x_t, y_t, posterior_coeffs(4, 3, sched), 3)
        # the one-step posterior (t, t - 1), as a batch of one
        one_mu, one_var, one_theta = posterior_arrays(
            x0[None], th0[None], x_t[None], y_t[None], posterior_coeffs(4, 4 - 1, sched), 3
        )
        assert np.array_equal(mu, one_mu[0])
        assert np.allclose(theta, one_theta[0], atol=1e-15)
        assert np.allclose(var, one_var)

    def test_none_prediction_leaves_that_law_unbuilt(self):
        rng = np.random.default_rng(12)
        sched = random_schedule(rng, 6)
        x0, x_t = rng.standard_normal((2, 3, 2))
        th0 = rng.dirichlet(np.ones(3), size=(3, 4))
        y_t = rng.integers(1, 4, (3, 4))
        coeffs = posterior_coeffs(5, 2, sched)
        mu, var, theta = posterior_arrays(x0, th0, x_t, y_t, coeffs, 3)
        assert posterior_arrays(None, None, x_t, y_t, coeffs, 3) == (None, var, None)
        mu_only, var_x, no_theta = posterior_arrays(x0, None, x_t, y_t, coeffs, 3)
        no_mu, var_y, theta_only = posterior_arrays(None, th0, x_t, y_t, coeffs, 3)
        assert no_theta is None and no_mu is None and var_x == var_y == var
        assert mu_only.tobytes() == mu.tobytes() and theta_only.tobytes() == theta.tobytes()

    def test_categorical_stride_composes_skipped_steps(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            k = int(rng.integers(2, 5))
            total = int(rng.integers(3, 12))
            sched = random_schedule(rng, total)
            t = int(rng.integers(2, total + 1))
            s = int(rng.integers(1, t))
            composed = composed_transition(sched.alpha_cat[s:t], k)
            effective = transition_matrix(sched.abar_cat(t) / sched.abar_cat(s), k)
            assert np.max(np.abs(composed - effective)) < 1e-10

    def test_gaussian_stride_preserves_marginal(self):
        # if x_t ~ q(x_t|x0) and x_s ~ posterior(t->s), then x_s ~ q(x_s|x0)
        rng = np.random.default_rng(10)
        for _ in range(100):
            total = int(rng.integers(3, 12))
            sched = random_schedule(rng, total)
            t = int(rng.integers(2, total + 1))
            s = int(rng.integers(1, t))
            c0, ct, var = gauss_posterior_coeffs(t, s, sched)
            abar_t, abar_s = sched.abar_gauss(t), sched.abar_gauss(s)
            x0 = float(rng.standard_normal())
            mean_s = c0 * x0 + ct * np.sqrt(abar_t) * x0
            var_s = ct * ct * (1 - abar_t) + var
            assert mean_s == pytest.approx(np.sqrt(abar_s) * x0, abs=1e-12)
            assert var_s == pytest.approx(1 - abar_s, abs=1e-12)

    def test_array_coefficients_equal_scalar_ones(self):
        sched = cosine_schedule(100, p=3)
        t = np.array([2, 7, 50, 100])
        s = np.array([1, 6, 10, 0])
        arrays = gauss_posterior_coeffs(t, s, sched)
        for i in range(t.size):
            assert [c[i] for c in arrays] == list(gauss_posterior_coeffs(int(t[i]), int(s[i]), sched))

    def test_invalid_stride_targets(self):
        rng = np.random.default_rng(11)
        sched = random_schedule(rng, 5)
        for t, s in [(3, 3), (3, 0), (3, 4), (6, 2)]:
            with pytest.raises(ValidationError):
                posterior_coeffs(t, s, sched)


class TestKernelRows:
    @pytest.mark.parametrize("k", range(2, 8))
    def test_gather_equals_the_one_hot_mix_bit_for_bit(self, k):
        rng = np.random.default_rng(k)
        y = rng.integers(1, k + 1, (5, 11))
        for keep in (float(rng.uniform()), 0.0, 1.0, rng.uniform(size=(5, 1, 1))):
            rows = kernel_rows(kernel_table(keep, k), y)
            ref = uniform_mix(one_hot(y, k), keep, k)
            assert rows.shape == ref.shape and rows.tobytes() == ref.tobytes()
        keep = float(rng.uniform())
        assert kernel_rows(kernel_table(keep, k), y[0]).tobytes() == uniform_mix(one_hot(y[0], k), keep, k).tobytes()

    @pytest.mark.parametrize("bad", [0, 4])
    def test_labels_outside_1_to_k_raise_wherever_one_hot_did(self, bad):
        sched = random_schedule(np.random.default_rng(13), 4)
        x, y = np.zeros((2, 1)), np.array([[1, 2], [3, bad]])
        theta0 = np.full((2, 2, 3), 1.0 / 3.0)
        calls = (
            lambda: kernel_rows(kernel_table(0.5, 3), y),
            lambda: kernel_rows(kernel_table(np.full((2, 1, 1), 0.5), 3), y),
            lambda: q_step_arrays(x, y, forward_kernel(2, sched, 3), np.random.default_rng(0)),
            lambda: q_marginal_arrays(x, y, 2, sched, 3),
            lambda: q_marginal_arrays(x, y, np.array([2, 3]), sched, 3),
            lambda: cat_posterior_theta(theta0, y, 0.5, 0.5, 3),
            lambda: cat_posterior_theta(theta0, y, np.full((2, 1, 1), 0.5), 0.5, 3),
        )
        for call in calls:
            with pytest.raises(ValidationError, match="labels must lie"):
                call()


def test_one_hot_rejects_out_of_range():
    with pytest.raises(ValidationError):
        one_hot(np.array([0]), 3)
    with pytest.raises(ValidationError):
        one_hot(np.array([4]), 3)
