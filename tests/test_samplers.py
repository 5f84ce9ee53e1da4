import itertools

import numpy as np
import pytest
from scipy import stats

from privtext import (
    MultivariateLaplaceParam,
    RngStream,
    sample_mv_laplace,
    sample_mv_laplace_truncated,
    sample_permutation,
    sample_unit_sphere,
)
from privtext.errors import ConfigError


class TestRngStream:
    def test_determinism(self):
        a = RngStream(42).fork(3).gen.uniform(size=10)
        b = RngStream(42).fork(3).gen.uniform(size=10)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngStream(42).fork(0).gen.uniform(size=10)
        b = RngStream(42).fork(1).gen.uniform(size=10)
        assert not np.array_equal(a, b)

    def test_named_fork_is_stable(self):
        a = RngStream(0).fork_named("pipeline.local").gen.uniform()
        b = RngStream(0).fork_named("pipeline.local").gen.uniform()
        assert a == b


class TestLaplace:
    """In one dimension the radial Laplacian is Laplace(0, 1/eps)."""

    def test_mean_zero(self, rng):
        draws = sample_mv_laplace(rng, MultivariateLaplaceParam(1, 1.0), size=10**6)[:, 0]
        assert abs(draws.mean()) < 0.01

    def test_variance_oracle(self, rng):
        # Var[Lap(0, s)] = 2 s^2 = 8 at s = 1/eps = 2
        draws = sample_mv_laplace(rng, MultivariateLaplaceParam(1, 0.5), size=10**6)[:, 0]
        assert draws.var() == pytest.approx(8.0, abs=0.1)

    def test_zero_scale_rejected(self, rng):
        for eps in (0.0, -1.0):
            with pytest.raises(ConfigError):
                MultivariateLaplaceParam(1, eps)


class TestUnitSphere:
    def test_unit_norm(self, rng):
        v = sample_unit_sphere(rng, 5, size=100)
        assert v.shape == (100, 5)
        assert np.all(np.abs(np.linalg.norm(v, axis=1) - 1.0) <= 1e-12)

    def test_dim1_symmetry(self, rng):
        draws = sample_unit_sphere(rng, 1, size=10**5)
        assert np.all(np.abs(np.abs(draws) - 1.0) <= 1e-12)
        assert abs((draws > 0).mean() - 0.5) < 0.01

    def test_dim2_coordinate_means(self, rng):
        draws = sample_unit_sphere(rng, 2, size=10**6)
        assert np.all(np.abs(draws.mean(axis=0)) < 0.005)

    def test_zero_dim_rejected(self, rng):
        with pytest.raises(ConfigError):
            sample_unit_sphere(rng, 0, size=1)


class TestMvLaplace:
    def test_mean_norm_d2(self, rng):
        z = sample_mv_laplace(rng, MultivariateLaplaceParam(2, 1.0), size=10**6)
        assert np.linalg.norm(z, axis=1).mean() == pytest.approx(2.0, abs=0.02)

    def test_mean_norm_d3(self, rng):
        z = sample_mv_laplace(rng, MultivariateLaplaceParam(3, 10.0), size=10**6)
        assert np.linalg.norm(z, axis=1).mean() == pytest.approx(0.3, abs=0.01)

    def test_radius_ks_against_gamma(self, rng):
        z = sample_mv_laplace(rng, MultivariateLaplaceParam(2, 1.0), size=10**6)
        r = np.linalg.norm(z, axis=1)
        ks = stats.kstest(r, stats.gamma(a=2, scale=1.0).cdf).statistic
        assert ks < 0.002

    def test_radial_angular_independence(self, rng):
        z = sample_mv_laplace(rng, MultivariateLaplaceParam(2, 1.0), size=10**6)
        r = np.linalg.norm(z, axis=1)
        u = z / r[:, None]
        for coord in range(2):
            rho = np.corrcoef(r, u[:, coord])[0, 1]
            assert abs(rho) < 0.01

    def test_invalid_param_rejected(self):
        with pytest.raises(ConfigError):
            MultivariateLaplaceParam(2, 0.0)
        with pytest.raises(ConfigError):
            MultivariateLaplaceParam(0, 1.0)


class TestTruncated:
    def test_never_exceeds_tau(self, rng):
        z = sample_mv_laplace_truncated(rng, MultivariateLaplaceParam(3, 2.0), 0.7, size=10**5)
        assert np.all(np.linalg.norm(z, axis=1) <= 0.7)

    def test_large_tau_recovers_untruncated(self, rng):
        param = MultivariateLaplaceParam(2, 1.0)
        z = sample_mv_laplace_truncated(rng, param, 1e6, size=10**6)
        r = np.linalg.norm(z, axis=1)
        ks = stats.kstest(r, stats.gamma(a=2, scale=1.0).cdf).statistic
        assert ks < 0.002

    def test_conditional_cdf_oracle(self, rng):
        # Pr[r <= 1 | r <= 2] = F(1)/F(2) for the Gamma(2, 1) radius
        param = MultivariateLaplaceParam(2, 1.0)
        z = sample_mv_laplace_truncated(rng, param, 2.0, size=10**6)
        r = np.linalg.norm(z, axis=1)
        g = stats.gamma(a=2, scale=1.0)
        expected = g.cdf(1.0) / g.cdf(2.0)
        assert (r <= 1.0).mean() == pytest.approx(expected, abs=0.005)

    def test_nonpositive_tau_rejected(self, rng):
        with pytest.raises(ConfigError):
            sample_mv_laplace_truncated(rng, MultivariateLaplaceParam(2, 1.0), 0.0, size=1)


class TestPermutation:
    def test_single_element(self, rng):
        assert sample_permutation(rng, 1).tolist() == [0]

    def test_empty(self, rng):
        assert sample_permutation(rng, 0).tolist() == []

    def test_uniformity_chi2(self, rng):
        # enumeration oracle: all 6 permutations of n=3, expected 1/6 each
        perms = {p: 0 for p in itertools.permutations(range(3))}
        trials = 60_000
        for _ in range(trials):
            perms[tuple(sample_permutation(rng, 3))] += 1
        expected = trials / 6
        chi2 = sum((c - expected) ** 2 / expected for c in perms.values())
        assert chi2 < stats.chi2.ppf(0.99, df=5)

    def test_is_permutation(self, rng):
        p = sample_permutation(rng, 100)
        assert sorted(p.tolist()) == list(range(100))
