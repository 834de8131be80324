import numpy as np
import pytest

from gcdp.errors import ValidationError
from gcdp.schedules import NoiseSchedule, accumulate, cosine_schedule, power_coupled

from conftest import random_schedule


def cosine_alphabar(t, total, s=0.008):
    f = lambda u: np.cos((u / total + s) / (1 + s) * np.pi / 2) ** 2
    return f(t) / f(0)


class TestCosine:
    def test_alphabar_at_zero_is_one(self):
        sched = cosine_schedule(1000)
        assert sched.abar_gauss(0) == 1.0

    def test_terminal_alphabar_below_1e3(self):
        # direct evaluation of the cosine profile, independent of the stored arrays
        assert cosine_alphabar(1000, 1000) < 1e-3
        sched = cosine_schedule(1000, 0.008)
        assert sched.alphabar_gauss[-1] < 1e-3
        assert sched.alphabar_cat[-1] < 1e-3

    def test_betas_in_clip_range(self):
        beta = cosine_schedule(1000, 0.008).beta_gauss
        assert np.all(beta > 0.0)
        assert np.all(beta <= 0.999)

    def test_matches_profile_before_clipping(self):
        sched = cosine_schedule(1000)
        t = np.arange(1, 1000)  # the final step is clipped, skip it
        expected = cosine_alphabar(t, 1000)
        assert np.allclose(sched.alphabar_gauss[:-1], expected, rtol=1e-10)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValidationError):
            cosine_schedule(0)
        with pytest.raises(ValidationError):
            cosine_schedule(10, 0.0)
        with pytest.raises(ValidationError):
            cosine_schedule(10, 0.2)


class TestPowerCoupled:
    def test_identity_at_p1(self):
        assert np.array_equal(power_coupled(np.array([0.1, 0.2]), 1.0), [0.1, 0.2])

    def test_square(self):
        assert np.allclose(power_coupled(np.array([0.1]), 2.0), [0.01])

    def test_square_root(self):
        assert np.allclose(power_coupled(np.array([0.04]), 0.5), [0.2])

    def test_clips_to_beta_max(self):
        out = power_coupled(np.array([0.999]), 0.5)
        assert out[0] == 0.999

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValidationError):
            power_coupled(np.array([0.1]), 0.0)
        with pytest.raises(ValidationError):
            power_coupled(np.array([0.1]), -1.0)
        with pytest.raises(ValidationError):
            power_coupled(np.array([1.5]), 1.0)
        with pytest.raises(ValidationError):
            power_coupled(np.array([0.0]), 1.0)

    @pytest.mark.parametrize("total", [100, 1000])
    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 3.0])
    def test_terminal_bound_holds_for_every_power(self, total, p):
        sched = cosine_schedule(total, p=p)
        assert sched.alphabar_cat[-1] < 1e-3
        assert sched.beta_cat[-1] == 0.999

    @pytest.mark.parametrize("total", [10, 100, 1000])
    def test_p1_schedule_is_the_clipped_cosine(self, total):
        sched = cosine_schedule(total, p=1.0)
        f = np.cos((np.arange(total + 1) / total + 0.008) / (1.0 + 0.008) * np.pi / 2.0) ** 2
        assert np.array_equal(sched.beta_gauss, np.minimum(1.0 - f[1:] / f[:-1], 0.999))
        assert np.array_equal(sched.beta_cat, sched.beta_gauss)

    def test_larger_p_weakens_noise_pointwise(self):
        rng = np.random.default_rng(0)
        beta = rng.uniform(0.01, 0.99, 50)
        for p in (1.5, 3.0, 10.0):
            assert np.all(power_coupled(beta, p) <= beta)


class TestAccumulate:
    def test_halves(self):
        alpha, abar = accumulate(np.array([0.5, 0.5]))
        assert np.array_equal(alpha, [0.5, 0.5])
        assert np.array_equal(abar, [0.5, 0.25])

    def test_hand_multiplication(self):
        _, abar = accumulate(np.array([0.1, 0.2, 0.3]))
        assert np.allclose(abar, [0.9, 0.72, 0.504], atol=1e-15)

    def test_rejects_zero_beta(self):
        with pytest.raises(ValidationError):
            accumulate(np.array([0.0, 0.1]))

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            accumulate(np.array([]))


class TestNoiseSchedule:
    def test_self_consistency_and_monotonicity(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            sched = random_schedule(rng, int(rng.integers(2, 40)))
            for abar, alpha in (
                (sched.alphabar_gauss, sched.alpha_gauss),
                (sched.alphabar_cat, sched.alpha_cat),
            ):
                assert np.all(np.diff(abar) < 0)
                assert np.all(abar > 0) and np.all(abar <= 1)
                prev = np.concatenate([[1.0], abar[:-1]])
                assert np.max(np.abs(abar / prev - alpha) / alpha) < 1e-12

    def test_p1_chains_bit_identical(self):
        beta = cosine_schedule(100).beta_gauss
        sched = NoiseSchedule(beta_gauss=beta, beta_cat=power_coupled(beta, 1.0))
        assert np.array_equal(sched.alphabar_gauss, sched.alphabar_cat)

    def test_terminal_check_enforced(self):
        beta = np.full(5, 0.01)
        with pytest.raises(ValidationError):
            NoiseSchedule(beta_gauss=beta, beta_cat=beta)
        sched = NoiseSchedule(beta_gauss=beta, beta_cat=beta, check_terminal=False)
        assert sched.total_steps == 5

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            NoiseSchedule(beta_gauss=np.array([0.5]), beta_cat=np.array([0.5, 0.5]), check_terminal=False)

    def test_timestep_accessors(self):
        sched = cosine_schedule(10, p=2.0)
        assert sched.abar_cat(0) == 1.0
        assert sched.abar_gauss(10) == sched.alphabar_gauss[-1]
        with pytest.raises(ValidationError):
            sched.abar_gauss(11)
        with pytest.raises(ValidationError):
            sched._check_t(0)

    def test_array_lookups_equal_scalar_ones(self):
        sched = cosine_schedule(100, p=3)
        t = np.array([[0, 1, 2], [50, 99, 100]])
        for lookup in (sched.abar_gauss, sched.abar_cat):
            abar = lookup(t)
            assert abar.shape == t.shape
            assert all(abar[i] == lookup(int(t[i])) for i in np.ndindex(t.shape))
        assert isinstance(sched.abar_gauss(3), float)

    def test_array_lookup_range_checks_every_entry(self):
        sched = cosine_schedule(10)
        for t in (np.array([0, 5, 11]), np.array([-1, 3]), np.array([[10], [11]])):
            for lookup in (sched.abar_gauss, sched.abar_cat):
                with pytest.raises(ValidationError):
                    lookup(t)
