import itertools
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

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
from privtext import samplers
from privtext.errors import ConfigError
from privtext.samplers import truncation_mass


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

    @pytest.mark.parametrize("seed, stream_id", [(1.7, 0), (True, 0), ("3", 0), (0, 2.5),
                                                 (0, True), (0, math.nan)])
    def test_seed_and_stream_id_must_be_integers(self, seed, stream_id):
        # 1.7 ran as seed 1, "3" as seed 3, and 2.5 forked stream 2
        with pytest.raises(ConfigError, match="must be an integer"):
            RngStream(seed).fork(stream_id)

    def test_numpy_integer_seed_and_stream_id_draw_as_ints(self):
        def draws(seed, stream_id):
            return RngStream(seed).fork(stream_id).gen.uniform(size=4)

        assert np.array_equal(draws(np.int64(7), np.int64(2)), draws(7, 2))
        # any sign is masked to 64 bits
        assert np.array_equal(draws(np.int64(-5), np.uint8(3)), draws(2**64 - 5, 3))


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
        # dim True ran as 1, and 2.5 ended in a bare TypeError
        for dim in (0, True, 2.5, "2"):
            with pytest.raises(ConfigError):
                sample_unit_sphere(rng, dim, size=1)


class TestSplitDraws:
    """The density chain draws each block's directions, radii and uniforms
    in one call per stream, and its draws do not depend on the block size
    because NumPy buffers none of these three between calls: drawn in two
    calls, they equal one call of the summed size."""

    DRAWS = {
        "standard_normal": lambda gen, rows: gen.standard_normal((rows, 7)),
        "gamma": lambda gen, rows: gen.gamma(shape=50, scale=1.0 / 1.3, size=rows),
        "uniform": lambda gen, rows: gen.uniform(size=rows),
    }

    @pytest.mark.parametrize("kind", DRAWS)
    def test_two_calls_equal_one(self, kind):
        draw = self.DRAWS[kind]
        for seed, (a, b) in itertools.product((0, 2929), ((0, 5), (1, 1), (3, 209), (209, 7))):
            gen = RngStream(seed).fork(1).gen
            split = np.concatenate([draw(gen, a), draw(gen, b)])
            assert np.array_equal(split, draw(RngStream(seed).fork(1).gen, a + b))


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
        # dim True ran as 1 and epsilon True as 1; an infinite epsilon drew no noise
        for dim, eps in ((2, 0.0), (0, 1.0), (True, 1.0), (2.5, 1.0), (3, True), (3, math.inf),
                         (3, math.nan), (3, "1")):
            with pytest.raises(ConfigError):
                MultivariateLaplaceParam(dim, eps)

    @staticmethod
    def _composed(rng, param, size):
        """The sampler as it was composed: a unit direction from
        np.linalg.norm, divided into a new array, times a new radius array."""
        g = rng.gen.standard_normal((size, param.dim))
        norms = np.linalg.norm(g, axis=1)
        while np.any(norms == 0.0):
            bad = norms == 0.0
            g[bad] = rng.gen.standard_normal((int(bad.sum()), param.dim))
            norms = np.linalg.norm(g, axis=1)
        r = rng.gen.gamma(shape=param.dim, scale=1.0 / param.epsilon, size=size)
        return g / norms[:, None] * r[:, None]

    @pytest.mark.parametrize("dim", [1, 2, 50, 300])
    def test_same_draws_as_the_composed_sampler(self, dim):
        # the in-place form draws the same stream and computes the same bits
        param = MultivariateLaplaceParam(dim, 1.3)
        for seed, size in itertools.product((0, 1, 2929), (0, 1, 2, 209, 1000)):
            got = sample_mv_laplace(RngStream(seed), param, size)
            assert np.array_equal(got, self._composed(RngStream(seed), param, size))

    def test_zero_row_is_redrawn_as_before(self):
        # a generator whose first standard_normal block starts with a zero
        # row: the row is redrawn, then the radii are drawn
        class ZeroFirst:
            def __init__(self, seed):
                self.inner = np.random.default_rng(seed)
                self.first = True

            def standard_normal(self, shape):
                g = self.inner.standard_normal(shape)
                if self.first:
                    g[0] = 0.0
                    self.first = False
                return g

            def gamma(self, **kwargs):
                return self.inner.gamma(**kwargs)

        param = MultivariateLaplaceParam(4, 2.0)
        for size in (1, 3):
            got = sample_mv_laplace(SimpleNamespace(gen=ZeroFirst(5)), param, size)
            want = self._composed(SimpleNamespace(gen=ZeroFirst(5)), param, size)
            assert np.array_equal(got, want)
            assert np.all(np.linalg.norm(got, axis=1) > 0)

    def test_infinite_epsilon_is_no_noise_and_rejected(self, rng):
        # both samplers returned all-zero noise: every output the input word
        with pytest.raises(ConfigError, match="epsilon must be a finite real number"):
            sample_mv_laplace(rng, MultivariateLaplaceParam(3, math.inf), size=4)
        with pytest.raises(ConfigError, match="epsilon must be a finite real number"):
            sample_mv_laplace_truncated(rng, MultivariateLaplaceParam(3, math.inf), 1.0, size=4)


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
        # tau True gave a mass of 0.080 and an infinite tau 1.0
        for tau in (True, math.inf, math.nan, "1"):
            with pytest.raises(ConfigError):
                truncation_mass(MultivariateLaplaceParam(3, 1.0), tau)

    def test_underflowing_mass_rejected(self, rng):
        # at d = 300, eps = 1 the mass inside tau = 10.5 is 0.0: every radius
        # would be 0 and every draw the input word
        param = MultivariateLaplaceParam(300, 1.0)
        assert truncation_mass(param, 10.5) == 0.0
        with pytest.raises(ConfigError, match=r"d=300, epsilon=1.0, tau=10.5"):
            sample_mv_laplace_truncated(rng, param, 10.5, size=1)

    def test_smallest_nonzero_mass_draws_radii(self, rng):
        param = MultivariateLaplaceParam(300, 1.0)
        assert 0 < truncation_mass(param, 11.0) < 1e-300
        r = np.linalg.norm(sample_mv_laplace_truncated(rng, param, 11.0, size=2000), axis=1)
        assert np.all((r > 10.0) & (r <= 11.0))


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

    @pytest.mark.parametrize("n", [2.5, True, "3", None])
    def test_n_must_be_an_integer_at_least_zero(self, rng, n):
        # 2.5 ended in numpy's bare AxisError, and True permuted one item
        with pytest.raises(ConfigError, match="n must be an integer >= 0"):
            sample_permutation(rng, n)
        assert sample_permutation(rng, np.int64(2)).shape == (2,)


class TestGammaOracle:
    """The Gamma(d, 1/eps) CDF and inverse CDF behind the truncated sampler
    are bit-identical to scipy.stats.gamma's."""

    GRID = list(itertools.product((1, 2, 5, 50, 300), (0.1, 1.0, 2.5, 7.0),
                                  (0.05, 0.5, 3.0, 40.0, 500.0)))

    @pytest.mark.parametrize("d, eps, tau", GRID)
    def test_cdf_and_ppf(self, d, eps, tau, monkeypatch):
        param = MultivariateLaplaceParam(d, eps)
        cap = truncation_mass(param, tau)
        assert cap == stats.gamma.cdf(tau, a=d, scale=1.0 / eps)
        if cap == 0.0:
            with pytest.raises(ConfigError, match="underflows"):
                sample_mv_laplace_truncated(RngStream(0), param, tau, size=1)
            return
        # the sampler's q, uniform on [0, cap) with q = 0 included, fed in
        # through a stub generator; unit directions e_1 leave each radius
        # as column 0 of the draw, unrounded
        q = RngStream(d).gen.uniform(0.0, cap, size=1000)
        q[0] = 0.0
        stub = SimpleNamespace(gen=SimpleNamespace(uniform=lambda lo, hi, size: q))
        e1 = np.zeros((q.size, d))
        e1[:, 0] = 1.0
        monkeypatch.setattr(samplers, "sample_unit_sphere", lambda rng, dim, size: e1)
        r = sample_mv_laplace_truncated(stub, param, tau, size=q.size)[:, 0]
        expected = np.minimum(stats.gamma.ppf(q, a=d, scale=1.0 / eps), tau)
        assert np.array_equal(r, expected)


IMPORT_PROBE = """
import sys
import numpy as np
import privtext, privtext.cli

def loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

print(loaded())
vocab, text = sys.argv[1], sys.argv[2]
with open(vocab, "w") as fh:
    for i, v in enumerate(np.random.default_rng(0).normal(size=(30, 4))):
        fh.write(f"w{i} " + " ".join(map(repr, v.tolist())) + "\\n")
with open(text, "w") as fh:
    fh.write("w0 w1 w2 w1\\n")

def perturb(*flags):
    rc = privtext.cli.main(["--embeddings", vocab, "--quiet", "--out", text + ".out",
                            "perturb", "--epsilon", "2", "--input", text, *flags])
    assert rc == 0, flags

perturb("--mechanism", "baseline")
perturb("--mechanism", "smooth", "--beta", "0.5")
perturb("--mechanism", "density", "--mh-steps", "20")
print(loaded())
perturb("--mechanism", "trunc_distance", "--tau", "2.5")
print("scipy.special" in sys.modules)
"""


def test_import_leaves_scipy_stats_unloaded(tmp_path):
    # numpy alone: scipy.stats costs ~34 MiB and scipy.spatial (with
    # scipy.special, scipy.sparse and scipy.linalg) ~37 MiB more of every
    # start-up. Only the truncated variants, k_nearest and the audit's
    # pairwise_distances import SciPy, when they run.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(tmp_path / "v.txt"), str(tmp_path / "in.txt")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[]", "True"]
