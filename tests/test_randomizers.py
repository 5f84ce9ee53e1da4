import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.spatial.distance import cdist
from scipy.special import logsumexp

from privtext import (
    EmbeddingStore,
    Mechanism,
    MechanismConfig,
    MultivariateLaplaceParam,
    ProtocolConfig,
    RngStream,
    build_profile,
    build_transition_matrix,
    embeddings,
    randomizers,
    run_protocol,
    sample_from_matrix,
    sample_mv_laplace,
)
from privtext.cli import main
from privtext.errors import ConfigError, InvalidWordIdError, MatrixFormatError
from privtext.randomizers import (
    TransitionMatrix,
    matrix_from_tsv,
    matrix_to_tsv,
    truncation_mass,
)

from conftest import count_passes, mixture_store, random_store
from oracles import (
    baseline_output_distribution_1d,
    density_chain_by_step,
    density_chain_single_stream,
    density_output_distribution,
    distance,
    floor_p_value,
    half_plane_mass,
    matrix_from_tsv_by_line,
    total_variation,
)


def clustered_store():
    """40 words in 5 tight clusters (scale 0.3, centres N(0, 9 I)) in d = 5:
    at epsilon = 1 the baseline's noise mostly lands far from every word,
    where the KDE is small, so a density chain takes many steps to settle."""
    gen = np.random.default_rng(0)
    centres = gen.normal(scale=3.0, size=(5, 5))
    vectors = centres[gen.integers(5, size=40)] + gen.normal(scale=0.3, size=(40, 5))
    return EmbeddingStore.from_arrays([f"w{i}" for i in range(40)], vectors)


@pytest.fixture
def pair():
    # two words a unit apart on the x-axis
    return EmbeddingStore.from_arrays(["a", "b"], [[0.0, 0.0], [1.0, 0.0]])


@pytest.fixture
def toy1d():
    return EmbeddingStore.from_arrays(["p", "q", "r"], [[-1.0], [0.0], [2.0]])


class TestConfig:
    def test_unknown_variant(self):
        with pytest.raises(ConfigError):
            MechanismConfig("exotic", 1.0)

    def test_foreign_field_rejected(self):
        with pytest.raises(ConfigError):
            MechanismConfig("baseline", 1.0, tau=2.0)
        with pytest.raises(ConfigError):
            MechanismConfig("smooth", 1.0, beta=0.5, k=3)

    def test_required_fields(self):
        with pytest.raises(ConfigError):
            MechanismConfig("smooth", 1.0)
        with pytest.raises(ConfigError):
            MechanismConfig("trunc_distance", 1.0)
        with pytest.raises(ConfigError):
            MechanismConfig("trunc_knn", 1.0, k=0)

    def test_strategy_defaults_to_project(self):
        cfg = MechanismConfig("trunc_distance", 1.0, tau=2.0)
        assert cfg.trunc_strategy == "project"

    def test_dict_round_trip(self):
        cfg = MechanismConfig("density", 1.5, sigma=0.7, mh_steps=52)
        assert MechanismConfig.from_dict(cfg.to_dict()) == cfg
        # the chain length defaults to 1010 and is echoed, so the echo
        # rebuilds the config it came from
        cfg = MechanismConfig("density", 1.5)
        assert cfg.to_dict() == {"variant": "density", "epsilon": 1.5, "mh_steps": 1010}
        assert MechanismConfig.from_dict(cfg.to_dict()) == cfg
        # an int is a real number, and is echoed as given
        cfg = MechanismConfig("smooth", 2, beta=0)
        assert MechanismConfig.from_dict(cfg.to_dict()) == cfg and cfg.to_dict()["epsilon"] == 2

    def test_bad_mh_is_a_config_error(self):
        # the old nested mh object, burn_in/thin pair and random-walk step
        # are unknown keys, and mh_steps is an integer >= 1
        for bad in ({"mh": {}}, {"mh": {"steps": 5}}, {"burn_in": 1000}, {"thin": 10},
                    {"mh_step": 0.5}, {"mh_steps": 0}, {"mh_steps": 1.5}, {"mh_steps": True},
                    {"mh_steps": "3"}):
            with pytest.raises(ConfigError):
                MechanismConfig.from_dict({"variant": "density", "epsilon": 1.0, **bad})
        # a numpy integer count is taken as a Python int, which JSON can write
        cfg = MechanismConfig("density", 1.0, mh_steps=np.int64(3))
        assert type(cfg.mh_steps) is int and json.dumps(cfg.to_dict())


class TestBaseline:
    def test_zero_noise_returns_word(self, toy3, rng, monkeypatch):
        # the decode half of every additive draw, with the noise pinned to 0
        monkeypatch.setattr(
            randomizers, "sample_mv_laplace", lambda rng, param, size: np.zeros((size, param.dim))
        )
        for config in (
            MechanismConfig("baseline", 1.0),
            MechanismConfig("smooth", 1.0, beta=1.0),
            MechanismConfig("trunc_knn", 1.0, k=1),
        ):
            mech = Mechanism(toy3, config)
            for w in range(3):
                assert mech.perturb_batch(rng, w, 1).tolist() == [w]

    def test_huge_epsilon_is_identity(self, toy3, rng):
        outs = Mechanism(toy3, MechanismConfig("baseline", 1e3)).perturb_batch(rng, 0, 10**4)
        assert (outs == 0).mean() >= 0.99

    def test_quadrature_oracle_two_words(self, pair, rng):
        # Pr[M(a)=b] = mass of the noise density over b's Voronoi half-plane
        expected = half_plane_mass(epsilon=2.0, half_gap=0.5)
        outs = Mechanism(pair, MechanismConfig("baseline", 2.0)).perturb_batch(rng, 0, 10**6)
        assert (outs == 1).mean() == pytest.approx(expected, abs=0.005)

    def test_invalid_word(self, toy3, rng):
        with pytest.raises(InvalidWordIdError):
            Mechanism(toy3, MechanismConfig("baseline", 1.0)).perturb_batch(rng, 7, 1)

    def test_scalar_matches_distribution(self, toy3):
        mech = Mechanism(toy3, MechanismConfig("baseline", 2.0))
        outs = [mech.perturb_batch(RngStream(s), 0, 1)[0] for s in range(200)]
        assert set(outs) <= {0, 1, 2}


def perturb_sentence(store, rng, words, config):
    """A sentence perturbed as the CLI and the pipeline do."""
    return Mechanism(store, config).perturb_words(rng, words).tolist()


class TestSentence:
    def test_empty(self, toy3, rng):
        assert perturb_sentence(toy3, rng, [], MechanismConfig("baseline", 1.0)) == []
        outs = Mechanism(toy3, MechanismConfig("baseline", 1.0)).perturb_batch(rng, 0, 0)
        assert outs.shape == (0,)

    def test_length_preserved(self, toy3, rng):
        out = perturb_sentence(toy3, rng, [0, 1, 2], MechanismConfig("baseline", 1.0))
        assert len(out) == 3

    def test_deterministic(self, toy3):
        cfg = MechanismConfig("baseline", 1.0)
        a = perturb_sentence(toy3, RngStream(5), [0, 1, 2, 0], cfg)
        b = perturb_sentence(toy3, RngStream(5), [0, 1, 2, 0], cfg)
        assert a == b

    def test_invalid_id_aborts(self, toy3, rng):
        with pytest.raises(InvalidWordIdError):
            perturb_sentence(toy3, rng, [0, 9], MechanismConfig("baseline", 1.0))


class Recording:
    """Stub that records every perturb_batch call and returns distinct
    labels, so each output can be traced to its call and draw; it stands in
    for self in Mechanism.perturb_words."""

    def __init__(self):
        self.calls = []

    def perturb_batch(self, rng, w, n):
        self.calls.append((rng.path, w, n))
        return 1000 * w + np.arange(n)


class TestPerturbWords:
    def test_matches_explicit_per_word_loop(self, toy5, rng):
        mech = Mechanism(toy5, MechanismConfig("baseline", 1.0))
        ids = np.array([3, 0, 3, 4, 0, 3, 1])
        expected = np.empty(len(ids), dtype=np.int64)
        for w in np.unique(ids):
            mask = ids == w
            expected[mask] = mech.perturb_batch(rng.fork(int(w)), int(w), int(mask.sum()))
        assert np.array_equal(mech.perturb_words(rng, ids), expected)

    def test_one_call_per_word_ties_in_occurrence_order(self, rng):
        stub = Recording()
        out = Mechanism.perturb_words(stub, rng, [2, 5, 2, 2, 5])
        assert sorted(stub.calls) == [(rng.fork(2).path, 2, 3), (rng.fork(5).path, 5, 2)]
        # a word's i-th occurrence gets the i-th output of its call
        assert out.tolist() == [2000, 5000, 2001, 2002, 5001]

    def test_empty_makes_no_draw(self, rng):
        stub = Recording()
        out = Mechanism.perturb_words(stub, rng, [])
        assert out.shape == (0,) and out.dtype == np.int64
        assert stub.calls == []

    def test_ids_must_be_integers(self, toy5, rng):
        # floats and bools were cast to int64 and drawn for other words
        mech = Mechanism(toy5, MechanismConfig("baseline", 1.0))
        matrix = TransitionMatrix(np.ones((5, 5), dtype=np.int64))
        for ids in ([1.7, 2.2], [True, False], np.array([[1.9]])):
            with pytest.raises(InvalidWordIdError, match="integers"):
                mech.perturb_words(rng, ids)
            with pytest.raises(InvalidWordIdError, match="integers"):
                sample_from_matrix(rng, matrix, ids)
        # an empty input holds no ids, whatever its dtype: np.asarray([]) is float64
        for ids in ([], np.zeros((0, 3))):
            assert mech.perturb_words(rng, ids).shape == (0,)
            assert sample_from_matrix(rng, matrix, ids).shape == (0,)

    def test_every_bulk_draw_goes_through_it(self, toy5, rng, tmp_path, monkeypatch, capsys):
        # a recorder that returns the input words: each caller's outputs are
        # then its inputs, and each caller makes one call
        sizes = []

        def recording(self, rng, ids):
            ids = np.asarray(ids, dtype=np.int64).ravel()
            sizes.append(len(ids))
            return ids

        monkeypatch.setattr(Mechanism, "perturb_words", recording)
        cfg = MechanismConfig("baseline", 0.1)
        assert run_protocol(toy5, ProtocolConfig(4, 3, cfg)).utility_l1 == 0.0
        path = tmp_path / "emb.txt"
        path.write_text("v 0 0\nw 1 0\n", encoding="utf-8")
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"v w v\nw\n")))
        assert main(["--embeddings", str(path), "perturb", "--epsilon", "0.1"]) == 0
        assert capsys.readouterr().out == "v w v\nw\n"
        # one call per matrix row, and one per distinct word that stats lists
        assert np.array_equal(build_transition_matrix(toy5, rng, cfg, 6).counts, 6 * np.eye(5))
        argv = ["--embeddings", str(path), "stats", "--epsilon", "0.1", "--trials", "9"]
        assert main(argv + ["--words", "w", "v", "w"]) == 0
        rows = json.loads(capsys.readouterr().out)["stats"]
        assert [(row["word"], row["p_unchanged"]) for row in rows] == [
            ("w", 1.0), ("v", 1.0), ("w", 1.0)
        ]
        assert sizes == [12, 4, 6, 6, 6, 6, 6, 9, 9]


def canonical_log_kdes(store, points, sigma):
    """_canonical_log_kde at each row of a (n, d) array of points."""
    return np.array([randomizers._canonical_log_kde(store, p, sigma)
                     for p in np.asarray(points, dtype=np.float64)])


class TestKdePrior:
    """The canonical log-KDE, the one every accept decision of the density
    chain is certified against."""

    def test_single_word_exact(self):
        store = EmbeddingStore.from_arrays(["a"], [[1.0, 2.0]])
        z = np.array([3.0, 4.0])
        expected = -np.sum((z - np.array([1.0, 2.0])) ** 2) / (2 * 0.5**2)
        assert randomizers._canonical_log_kde(store, z, 0.5) == pytest.approx(expected)

    def test_at_word_at_least_one(self, toy3):
        assert np.all(canonical_log_kdes(toy3, toy3.vectors, 1.0) >= 0.0)

    def test_two_far_words(self):
        store = EmbeddingStore.from_arrays(["a", "b"], [[0.0], [10.0]])
        val = randomizers._canonical_log_kde(store, np.array([0.0]), 1.0)
        assert val == pytest.approx(math.log(1 + math.exp(-50)), abs=1e-12)

    @staticmethod
    def _far(points, store, sigma):
        """points moved out along the diagonal until every word lies beyond
        sqrt(2e4) sigma, so each log kernel is at most -1e4 and its
        unshifted exp underflows to 0."""
        reach = (
            math.sqrt(2e4) * sigma
            + np.linalg.norm(points, axis=1).max()
            + math.sqrt(store.sq_norms.max())
        )
        far = points + reach / math.sqrt(store.dim)
        assert np.all(cdist(far, store.vectors, "sqeuclidean") / (2.0 * sigma**2) >= 1e4)
        return far

    @staticmethod
    def _check(store, points, sigma):
        """The canonical log-KDE at each point within 4 ulps of scipy's
        logsumexp of cdist's log kernels, the ulps taken at the largest of
        |row max|, log |W| and 1: the log-sum-exp of a row lies in
        [row max, row max + log |W|]."""
        a = cdist(points, store.vectors, "sqeuclidean") / -(2.0 * sigma**2)
        got = canonical_log_kdes(store, points, sigma)
        scale = np.maximum(np.abs(a.max(axis=1)), max(math.log(a.shape[1]), 1.0))
        assert np.all(np.isfinite(got))
        assert np.all(np.abs(got - logsumexp(a, axis=1)) <= 4.0 * np.spacing(scale))

    @pytest.mark.parametrize("tied", [False, True])
    @pytest.mark.parametrize("n_rows", [1, 2, 12])
    def test_logsumexp_matches_scipy(self, n_rows, tied):
        gen = np.random.default_rng(n_rows + 100 * tied)
        for _ in range(50):
            m = int(gen.integers(1, 400))
            vecs = gen.normal(size=(m, 3)) * gen.uniform(0.1, 10.0)
            if tied:
                # duplicate words tie the maximum wherever a point sits on them
                vecs[gen.integers(0, m, size=3)] = vecs[0]
            store = EmbeddingStore.from_arrays([f"w{i}" for i in range(m)], vecs)
            sigma = gen.uniform(0.05, 3.0)
            near = np.concatenate([gen.normal(size=(n_rows, 3)), vecs[:n_rows]])
            for points in (near, self._far(near, store, sigma)):
                self._check(store, points, sigma)

    @pytest.mark.parametrize("n_rows", [1, 2, 12])
    def test_within_the_gemm_bound_of_exact_distances(self, n_rows):
        # every word duplicated, d = 5: the canonical sums are cdist's, so
        # the slack a GEMM-form log-KDE needed for its distances is 0 here
        gen = np.random.default_rng(n_rows)
        vecs = gen.normal(size=(300, 5))
        vecs[1::2] = vecs[::2]
        store = EmbeddingStore.from_arrays([f"w{i}" for i in range(300)], vecs)
        sigma = 0.7
        for near in (gen.normal(size=(n_rows, 5)), vecs[:n_rows]):
            for points in (near, self._far(near, store, sigma)):
                self._check(store, points, sigma)


class TestDensityMechanism:
    def test_acceptance_ratio_oracle(self, toy1d):
        # the Metropolis-Hastings ratio of target over proposal, evaluated
        # directly, is the KDE ratio that the chain accepts on: the target is
        # KDE(z) exp(-eps |z - phi(w)|), the proposal exp(-eps |z - phi(w)|)
        eps, sigma, w = 1.0, 0.8, 1
        for z, z2 in [([0.3], [0.5]), ([0.0], [2.0]), ([-1.5], [0.2])]:
            def log_kde(pt):
                return math.log(sum(
                    math.exp(-((pt[0] - v[0]) ** 2) / (2 * sigma**2)) for v in toy1d.vectors
                ))

            def log_target(pt):
                return log_kde(pt) - eps * abs(pt[0] - toy1d.vector(w)[0])

            def log_proposal(pt):
                return -eps * abs(pt[0] - toy1d.vector(w)[0])

            expected = log_target(z2) - log_target(z) - (log_proposal(z2) - log_proposal(z))
            log_p, log_p2 = canonical_log_kdes(toy1d, [z, z2], sigma)
            assert log_p2 - log_p == pytest.approx(expected, abs=1e-12)
            assert (log_p, log_p2) == pytest.approx((log_kde(z), log_kde(z2)), abs=1e-12)

    def test_grid_oracle_small(self, toy1d, rng):
        # quick-mix version of the acceptance check
        eps, sigma = 1.0, 0.8
        cfg = MechanismConfig("density", eps, sigma=sigma, mh_steps=101)
        outs = Mechanism(toy1d, cfg).perturb_batch(rng, 1, 20_000)
        emp = np.bincount(outs, minlength=3) / len(outs)
        expected = density_output_distribution(toy1d.vectors[:, 0], 1, eps, sigma)
        assert total_variation(emp, expected) < 0.03

    def test_flat_prior_limit_matches_baseline(self, toy1d, rng):
        eps = 1.0
        cfg = MechanismConfig("density", eps, sigma=1e6, mh_steps=101)
        outs = Mechanism(toy1d, cfg).perturb_batch(rng.fork(0), 1, 20_000)
        emp = np.bincount(outs, minlength=3) / len(outs)
        expected = baseline_output_distribution_1d(toy1d.vectors[:, 0], 1, eps)
        assert total_variation(emp, expected) < 0.03

    def test_states_stay_finite(self, toy1d, rng):
        cfg = MechanismConfig("density", 0.1, sigma=0.5, mh_steps=101)
        outs = Mechanism(toy1d, cfg).perturb_batch(rng, 0, 100)
        assert np.all((outs >= 0) & (outs < 3))

    def test_default_sigma_takes_one_pass(self, rng, monkeypatch):
        # the bandwidth is the store's median nearest-neighbour distance,
        # selected once per Mechanism by one float32 tile walk, no float64 one
        store = EmbeddingStore.from_arrays(
            ["p", "q", "r", "s", "t"], [[-1.0], [0.0], [2.0], [2.5], [5.5]]
        )
        passes = count_passes(monkeypatch)
        medians, median = [], EmbeddingStore.median_nn_distance

        def counted(self):
            medians.append(1)
            return median(self)

        monkeypatch.setattr(EmbeddingStore, "median_nn_distance", counted)
        mech = Mechanism(store, MechanismConfig("density", 1.0, mh_steps=6))
        for w in range(5):
            mech.perturb_batch(rng.fork(w), w, 3)
        # nearest-neighbour distances 1, 1, 0.5, 0.5, 3
        assert mech._sigma == pytest.approx(1.0)
        assert len(medians) == 1
        assert passes == [np.float32]

    @pytest.mark.parametrize("sigma", [0.0, -1.0, 1e200, 1e-200])
    def test_bandwidth_outside_its_range_is_refused(self, sigma):
        # 1e200 ended in an OverflowError from sigma**2; at 1e-200, 2 sigma^2
        # rounded to 0, every log kernel was NaN and no proposal was accepted
        with pytest.raises(ConfigError, match="^sigma must"):
            MechanismConfig("density", 1.0, sigma=sigma)

    def test_small_bandwidth_still_runs(self, toy1d, rng):
        # 2 sigma^2 = 2e-300 is normal: every row takes the canonical path
        config = MechanismConfig("density", 1.0, sigma=1e-150, mh_steps=5)
        assert Mechanism(toy1d, config).perturb_batch(rng, 1, 4).shape == (4,)

    def test_default_bandwidth_of_duplicates_is_refused(self, rng):
        # two of three words share a point: the median nearest-neighbour
        # distance is 0, and the chain scored NaN and never accepted
        store = EmbeddingStore.from_arrays(["a", "b", "c"], [[0.0, 0.0], [0.0, 0.0], [3.0, 4.0]])
        mech = Mechanism(store, MechanismConfig("density", 1.0, mh_steps=5))
        with pytest.raises(ConfigError, match="median nearest-neighbour distance.*--sigma"):
            mech.perturb_batch(rng, 0, 1)

    def test_default_run_changes_words(self, rng):
        # with the random walk's default step, the mean nearest-neighbour
        # distance per coordinate, no proposal was accepted on this store and
        # all 40 words came back unchanged
        store = mixture_store(np.random.default_rng(0), 200, 10, spread=6.0)
        ids = np.arange(40)
        out = Mechanism(store, MechanismConfig("density", 1.0)).perturb_words(rng, ids)
        assert np.count_nonzero(out != ids) >= 10

    def test_default_chain_length_holds_a_tenfold_margin(self):
        # The default chain length T is set by this check: the output law
        # after t steps must match the law after 10 t steps within the
        # seed-to-seed floor. t = T // 10 passes, so T is ten times a length
        # that passes; t = T // 100 fails, so a default of T // 10 would
        # fail this check. The chain's start, a baseline draw, fails against
        # T steps: on this store the check can tell a chain that has not
        # settled.
        store = clustered_store()
        steps = MechanismConfig("density", 1.0).mh_steps
        words = range(4)

        def draws(t, fork):
            # t = 0 draws the chain's start, which has the baseline's law
            config = (MechanismConfig("density", 1.0, mh_steps=t) if t
                      else MechanismConfig("baseline", 1.0))
            mech = Mechanism(store, config)
            return [mech.perturb_batch(RngStream(3).fork(fork).fork(w), w, 500) for w in words]

        long, tenth, hundredth = draws(steps, 0), draws(steps // 10, 1), draws(steps // 100, 2)
        assert floor_p_value(tenth, long, len(store)) >= 0.01
        assert floor_p_value(hundredth, tenth, len(store)) < 0.01
        assert floor_p_value(draws(0, 3), long, len(store)) < 0.01


class TestTransitionMatrix:
    def test_rows_sum_to_one(self, toy3, rng):
        m = build_transition_matrix(toy3, rng, MechanismConfig("baseline", 1.0), 500)
        assert m.counts.dtype == np.int64 and m.sample_count == 500
        assert np.all(m.counts.sum(axis=1) == 500)

    def test_row_is_the_words_own_draws(self, toy5, rng):
        s = 300
        for cfg in (MechanismConfig("baseline", 1.0), MechanismConfig("trunc_knn", 1.0, k=2)):
            m = build_transition_matrix(toy5, rng, cfg, s)
            mech = Mechanism(toy5, cfg)
            for w in range(len(toy5)):
                draws = mech.perturb_batch(rng.fork(w), w, s)
                assert np.array_equal(m.counts[w], np.bincount(draws, minlength=len(toy5)))

    def test_high_epsilon_identity(self, toy3, rng):
        m = build_transition_matrix(toy3, rng, MechanismConfig("baseline", 1e3), 2000)
        assert np.all(np.diag(m.counts) >= 0.99 * 2000)

    def test_two_word_quadrature(self, pair, rng):
        m = build_transition_matrix(pair, rng, MechanismConfig("baseline", 2.0), 10**6)
        expected = half_plane_mass(2.0, 0.5)
        assert m.counts[0, 1] / 10**6 == pytest.approx(expected, abs=0.005)
        assert m.counts[1, 0] / 10**6 == pytest.approx(expected, abs=0.005)

    def test_diagonal_monotone_in_epsilon(self, toy5, rng):
        diags = []
        for eps in (0.5, 1.0, 2.0, 4.0):
            m = build_transition_matrix(
                toy5, rng.fork_named(f"eps{eps}"), MechanismConfig("baseline", eps), 20_000
            )
            diags.append(np.diag(m.counts) / 20_000)
        for lo, hi in zip(diags, diags[1:]):
            assert np.all(hi >= lo - 0.01)

    def test_sample_point_mass(self, rng):
        m = TransitionMatrix([[0, 1], [0, 1]])
        assert sample_from_matrix(rng, m, np.zeros(50, dtype=np.int64)).tolist() == [1] * 50

    def test_sample_uniform_row(self, rng):
        m = TransitionMatrix(np.ones((4, 4), dtype=np.int64))
        draws = sample_from_matrix(rng, m, np.full(10**5, 2))
        freqs = np.bincount(draws, minlength=4) / len(draws)
        assert np.all(np.abs(freqs - 0.25) < 0.01)

    def test_sample_binomial_concentration(self, rng):
        row = np.array([0.1, 0.2, 0.3, 0.4])
        m = TransitionMatrix(np.tile([1, 2, 3, 4], (4, 1)))
        n = 10**5
        draws = sample_from_matrix(rng, m, np.zeros(n, dtype=np.int64))
        freqs = np.bincount(draws, minlength=4) / n
        bound = 3 * np.sqrt(row * (1 - row) / n)
        assert np.all(np.abs(freqs - row) <= bound)

    def test_sample_rows_in_entry_order(self, rng):
        # mixed ids draw one uniform per entry, in entry order, each
        # inverted through its own row's cumulative count
        counts = np.array([[5, 5, 0], [0, 0, 10], [2, 3, 5]])
        m = TransitionMatrix(counts)
        ids = np.array([2, 0, 1, 2, 0, 2, 1])
        draws = sample_from_matrix(rng.fork(0), m, ids)
        u = rng.fork(0).gen.uniform(size=len(ids))
        expected = [np.searchsorted(np.cumsum(counts[w]), x * 10, side="right")
                    for w, x in zip(ids, u)]
        assert draws.tolist() == expected

    def test_sample_never_returns_a_zero_cell(self):
        # the largest uniform below 1 times n stays below n, for n = 2**k
        # and for odd n, so it lands in the last nonzero cell, not after it
        top = SimpleNamespace(gen=SimpleNamespace(uniform=lambda size: np.full(size, 1 - 2**-53)))
        low = SimpleNamespace(gen=SimpleNamespace(uniform=lambda size: np.zeros(size)))
        for n in (1, 2, 3, 7, 2**20, 2**20 + 1, 2**53 - 1, 2**53):
            m = TransitionMatrix([[0, n - n // 2, 0, n // 2, 0], *[[0, n, 0, 0, 0]] * 4])
            last = 3 if n // 2 else 1
            assert sample_from_matrix(top, m, [0, 1]).tolist() == [last, 1], n
            assert sample_from_matrix(low, m, [0, 1]).tolist() == [1, 1], n

    def test_tsv_round_trip(self, toy3, rng):
        m = build_transition_matrix(toy3, rng, MechanismConfig("baseline", 1.0), 300)
        text = matrix_to_tsv(toy3, m)
        assert text.startswith("#privtext-matrix-v2\n") and "#samples" not in text
        back = matrix_from_tsv(toy3, text)
        assert np.array_equal(back.counts, m.counts)
        assert back.sample_count == m.sample_count == 300

    def test_invalid_matrix_rejected(self):
        for counts in (
            np.ones((2, 3), dtype=np.int64),  # not square
            np.zeros((0, 0), dtype=np.int64),  # empty
            np.array([[2, -1], [0, 1]]),  # negative entry
            np.array([[1, 0], [0, 0]]),  # missing row
            np.array([[0.5, 0.5], [0.0, 1.0]]),  # probabilities
            np.array([[1.0, 0.0], [0.0, 1.0]]),  # whole floats
            np.array([[True, False], [False, True]]),
        ):
            with pytest.raises(MatrixFormatError):
                TransitionMatrix(counts)

    def test_rows_must_hold_one_total(self, toy3):
        # the sample count is each row's total: rows that differ are refused,
        # not read as probabilities of some common count
        with pytest.raises(MatrixFormatError, match="row 1 holds 4 samples and row 0 3"):
            TransitionMatrix([[1, 2, 0], [1, 1, 2], [3, 0, 0]])
        # 2048 counts of 2**53 and one of 10 total 2**64 + 10, which an int64
        # sum wraps to a valid-looking 10
        wide = np.zeros((2049, 2049), dtype=np.int64)
        wide[:, :2048] = 2**53
        wide[:, 2048] = 10
        assert np.all(wide.sum(axis=1) == 10)
        with pytest.raises(MatrixFormatError, match=f"{2**64 + 10} samples each, outside"):
            TransitionMatrix(wide)
        text = "#privtext-matrix-v2\na\ta\t10\nb\tb\t10\nc\tc\t9\n"
        with pytest.raises(MatrixFormatError, match="row 2 holds 9"):
            matrix_from_tsv(toy3, text)

    @pytest.mark.parametrize("count", [1.5, True, 2.0, -1, 2**53 + 1, None])
    def test_sample_count_is_an_int_in_range(self, count):
        # each row's total is the sample count: an int in [1, 2**53]
        with pytest.raises(MatrixFormatError, match=r"2\*\*53"):
            TransitionMatrix(np.diag([count] * 2))
        for good in (1, 2**53):
            assert TransitionMatrix(np.diag([good] * 2)).sample_count == good
        with pytest.raises(MatrixFormatError, match="0 samples each"):
            TransitionMatrix([[0, 0], [0, 0]])

    def test_tsv_malformed_lines_rejected(self, toy3):
        head = "#privtext-matrix-v2\n"
        rows = "a\ta\t10\nb\tb\t10\nc\tc\t10\n"
        assert matrix_from_tsv(toy3, head + rows).sample_count == 10
        # a '#samples' line is a comment: the counts alone give the total
        assert matrix_from_tsv(toy3, head + "#samples 99\n" + rows).sample_count == 10
        for text in (
            "not a matrix\n",
            head + "a\tb\n" + rows,  # two fields
            head + "a\tb\tc\td\n" + rows,  # four fields
            head + "a\tb\tlots\n" + rows,  # non-numeric count
            head + "a\tnope\tlots\n" + rows,  # reported before the unknown word
            head + "a\tb\t0.5\n" + rows,  # a probability
            head + "a\ta\t1\nb\tb\t1\n",  # row c missing
            "#privtext-matrix-v1\n#samples 10\n" + rows,
        ):
            with pytest.raises(MatrixFormatError):
                matrix_from_tsv(toy3, text)

    def test_v1_file_says_to_rerun_the_matrix(self, toy3):
        text = "#privtext-matrix-v1\n#samples 10\na\ta\t1\nb\tb\t1\nc\tc\t1\n"
        with pytest.raises(MatrixFormatError, match="v1 .* re-run `privtext matrix`"):
            matrix_from_tsv(toy3, text)

    @pytest.mark.parametrize("count", ["1.0", "-1", "+1", " 1", "1_0", "1e3", "\u0661",
                                       str(2**53 + 1), str(2**63), str(2**64 + 5),
                                       pytest.param("9" * 5000, id="5000-digits")])
    def test_tsv_count_is_ascii_digits_at_most_2_53(self, toy3, count):
        # int() alone takes '+1', ' 1', '1_0' and Arabic-Indic digits, and a
        # count past 2**63 overflowed the int64 array
        rows = "b\tb\t10\nc\tc\t10\n"
        with pytest.raises(MatrixFormatError, match="^line 2: "):
            matrix_from_tsv(toy3, f"#privtext-matrix-v2\na\ta\t{count}\n{rows}")
        big = f"#privtext-matrix-v2\na\ta\t{2**53}\nb\tb\t{2**53}\nc\tc\t{2**53}\n"
        assert matrix_from_tsv(toy3, big).sample_count == 2**53

    @pytest.mark.parametrize("seed", [7, 2**20])
    def test_tsv_fault_deep_in_a_file_names_its_line(self, rng, seed):
        # two vocabularies, drawn from two seeds, give two matrices and files
        store = EmbeddingStore.from_arrays(
            [f"w{i}" for i in range(40)], np.random.default_rng(seed).normal(size=(40, 3))
        )
        m = build_transition_matrix(store, rng, MechanismConfig("baseline", 1.0), 200)
        lines = matrix_to_tsv(store, m).splitlines()
        k = len(lines) - 7
        assert k > 500
        # blank lines and comments, two-tab ones included, change nothing;
        # nor does an entry given 7 early on and its own count deep down,
        # as the last count of a pair wins
        first = lines[1]
        early = lines[:1] + [first.rsplit("\t", 1)[0] + "\t7"] + lines[2:]
        for extra, head in (("", lines), ("   ", lines), ("#note", lines), ("#samples 3", lines),
                            ("#a\tb\tc", lines), ("\t\t", lines), (first, early)):
            text = "\n".join(head[:k] + [extra] + head[k:])
            assert np.array_equal(matrix_from_tsv(store, text).counts, m.counts)
            assert np.array_equal(matrix_from_tsv_by_line(store, text).counts, m.counts)
        for bad, error in (
            ("w3\tw4\tlots", MatrixFormatError),
            ("w3\tw4", MatrixFormatError),
            ("w3\tw4\t1\t2", MatrixFormatError),
            ("w3\tw4\t0.1", MatrixFormatError),
            ("w3\tnope\t1", InvalidWordIdError),
        ):
            text = "\n".join(lines[:k] + [bad] + lines[k:])
            with pytest.raises(error, match=f"^line {k + 1}: "):
                matrix_from_tsv(store, text)


class TestSmoothMechanism:
    @pytest.fixture
    def clustered(self):
        # 6 words tightly packed near the origin plus one isolated word
        dense = [[0.0, 0.0], [0.1, 0.0], [0.0, 0.1], [0.1, 0.1], [0.05, 0.05], [0.2, 0.0]]
        return EmbeddingStore.from_arrays(
            [f"d{i}" for i in range(6)] + ["far"], dense + [[50.0, 0.0]]
        )

    def test_beta_zero_reduces_to_baseline(self, pair, rng):
        profile = build_profile(pair, 0.0)
        cfg = MechanismConfig("smooth", 2.0, beta=0.0)
        a = Mechanism(pair, cfg, profile).perturb_batch(rng.fork(0), 0, 10**5)
        b = Mechanism(pair, MechanismConfig("baseline", 2.0)).perturb_batch(rng.fork(1), 0, 10**5)
        assert total_variation(
            np.bincount(a, minlength=2) / 1e5, np.bincount(b, minlength=2) / 1e5
        ) < 0.02

    def test_dense_word_keeps_identity_more(self, clustered, rng):
        eps = 0.5
        profile = build_profile(clustered, 1.0)
        base = Mechanism(clustered, MechanismConfig("baseline", eps))
        smooth = Mechanism(clustered, MechanismConfig("smooth", eps, beta=1.0), profile)
        n = 10**5
        p_base = (base.perturb_batch(rng.fork(0), 0, n) == 0).mean()
        p_smooth = (smooth.perturb_batch(rng.fork(1), 0, n) == 0).mean()
        assert p_smooth > p_base

    def test_expected_noise_norm_oracle(self, clustered, rng, monkeypatch):
        # Gamma mean: E||z|| = d * smooth(w) / (eps * global)
        eps, beta, w = 1.0, 1.0, 0
        profile = build_profile(clustered, beta)
        mech = Mechanism(clustered, MechanismConfig("smooth", eps, beta=beta), profile)
        noise = []

        def record_noise(rng, param, size):
            noise.append(sample_mv_laplace(rng, param, size=size))
            return noise[-1]

        monkeypatch.setattr(randomizers, "sample_mv_laplace", record_noise)
        mech.perturb_batch(rng, w, 10**6)
        expected = 2 * profile.per_word_smooth[w] / (eps * profile.global_sensitivity)
        assert np.linalg.norm(noise[0], axis=1).mean() == pytest.approx(expected, rel=0.01)

    def test_profile_mismatch_rejected(self, pair, toy3):
        profile = build_profile(toy3, 0.0)
        with pytest.raises(ConfigError):
            Mechanism(pair, MechanismConfig("smooth", 1.0, beta=0.0), profile)
        # a profile of the right store built at another beta
        with pytest.raises(ConfigError, match="beta"):
            Mechanism(toy3, MechanismConfig("smooth", 1.0, beta=1.0), profile)
        Mechanism(toy3, MechanismConfig("smooth", 1.0, beta=0), profile)

    def test_zero_smooth_sensitivity_rejected_at_draw(self, rng):
        # two words at one point; at beta=1000, exp(-beta * 1) underflows, so
        # their smooth sensitivity is 0 while the third word's is 1
        store = EmbeddingStore.from_arrays(["a", "b", "c"], [[0.0], [0.0], [1.0]])
        mech = Mechanism(store, MechanismConfig("smooth", 1.0, beta=1000.0))
        assert mech.perturb_batch(rng, 2, 1)[0] in (0, 1, 2)
        with pytest.raises(ConfigError, match="smooth sensitivity is 0 at word 0"):
            mech.perturb_batch(rng, 0, 1)


class TestTruncDistance:
    def test_project_respects_tau(self, toy5, rng):
        tau = 1.0
        outs = Mechanism(
            toy5, MechanismConfig("trunc_distance", 0.5, tau=tau)
        ).perturb_batch(rng, 0, 10**4)
        for u in np.unique(outs):
            assert distance(toy5, 0, int(u)) <= tau

    def test_huge_tau_matches_baseline(self, pair, rng):
        cfg = MechanismConfig("trunc_distance", 2.0, tau=1e6)
        a = Mechanism(pair, cfg).perturb_batch(rng.fork(0), 0, 10**5)
        b = Mechanism(pair, MechanismConfig("baseline", 2.0)).perturb_batch(rng.fork(1), 0, 10**5)
        assert total_variation(
            np.bincount(a, minlength=2) / 1e5, np.bincount(b, minlength=2) / 1e5
        ) < 0.02

    def test_residual_out_region_frequency(self, toy3, rng):
        # A around a with tau=2 is {a, c}; out-region {b} hit with 1 - p_in
        eps, tau = 1.0, 2.0
        p_in = truncation_mass(MultivariateLaplaceParam(2, eps), tau)
        cfg = MechanismConfig("trunc_distance", eps, tau=tau, trunc_strategy="residual")
        outs = Mechanism(toy3, cfg).perturb_batch(rng, 0, 10**6)
        assert (outs == 1).mean() == pytest.approx(1 - p_in, abs=0.005)

    def test_residual_empty_out_region_falls_back(self, pair, rng, caplog):
        cfg = MechanismConfig("trunc_distance", 1.0, tau=100.0, trunc_strategy="residual")
        with caplog.at_level("WARNING"):
            outs = Mechanism(pair, cfg).perturb_batch(rng, 0, 100)
        assert set(np.unique(outs)) <= {0, 1}
        assert any("falling back to project" in r.message for r in caplog.records)

    def test_scalar_form(self, toy3, rng):
        mech = Mechanism(toy3, MechanismConfig("trunc_distance", 1.0, tau=1.5))
        assert distance(toy3, 0, mech.perturb_batch(rng, 0, 1)[0]) <= 1.5

    def test_tau_ball_is_decided_by_cdist(self, rng, monkeypatch):
        # tau at exactly word u's cdist distance puts u in the ball; for
        # about a quarter of these words a sum of the same squares in
        # another order rounds that distance above tau
        vecs = np.random.default_rng(3).normal(size=(40, 64))
        store = EmbeddingStore.from_arrays([f"w{i}" for i in range(40)], vecs)
        dist = cdist(vecs[:1], vecs)[0]
        balls = []
        decode = EmbeddingStore.nearest_words

        def record(self, points, candidate_ids=None):
            balls.append(candidate_ids)
            return decode(self, points, candidate_ids)

        monkeypatch.setattr(EmbeddingStore, "nearest_words", record)
        for u in range(1, 40):
            mech = Mechanism(store, MechanismConfig("trunc_distance", 1.0, tau=float(dist[u])))
            mech.perturb_batch(rng, 0, 1)
            assert balls[-1].tolist() == np.flatnonzero(dist <= dist[u]).tolist()


class TestTruncKnn:
    def test_output_in_candidate_set(self, toy5, rng):
        k = 2
        allowed = {0} | set(toy5.k_nearest(0, k).tolist())
        outs = Mechanism(toy5, MechanismConfig("trunc_knn", 0.3, k=k)).perturb_batch(
            rng, 0, 10**4
        )
        assert set(np.unique(outs)) <= allowed

    def test_full_k_is_bit_identical_to_baseline(self, toy5, rng):
        # same noise stream, full candidate set: identical outputs draw by draw
        cfg = MechanismConfig("trunc_knn", 1.0, k=len(toy5) - 1)
        a = Mechanism(toy5, cfg).perturb_batch(RngStream(77), 2, 20_000)
        b = Mechanism(toy5, MechanismConfig("baseline", 1.0)).perturb_batch(
            RngStream(77), 2, 20_000
        )
        assert np.array_equal(a, b)

    def test_dense_word_substitutes_closer(self, rng):
        dense = [[0.0, 0.0], [0.1, 0.0], [0.0, 0.1], [0.15, 0.1]]
        store = EmbeddingStore.from_arrays(
            ["d0", "d1", "d2", "d3", "iso"], dense + [[30.0, 0.0]]
        )
        cfg = MechanismConfig("trunc_knn", 0.2, k=2)
        mech = Mechanism(store, cfg)
        n = 10**5
        d_dense = np.mean(
            [distance(store, 0, int(u)) for u in mech.perturb_batch(rng.fork(0), 0, n)]
        )
        d_iso = np.mean(
            [distance(store, 4, int(u)) for u in mech.perturb_batch(rng.fork(1), 4, n)]
        )
        assert d_dense < d_iso

    def test_k_out_of_range(self, toy3):
        # checked when the mechanism is built, before any draw
        with pytest.raises(ConfigError):
            Mechanism(toy3, MechanismConfig("trunc_knn", 1.0, k=3))
        Mechanism(toy3, MechanismConfig("trunc_knn", 1.0, k=2))


class TestTruncatedDrawsPinned:
    """The exact draws of the truncated variants, pinned by a digest of
    perturb_words: a change to which noise is drawn, in what order, or over
    which candidates changes the digest. The ids repeat words, so each
    word's batch holds several draws."""

    CASES = {
        "trunc_knn": (20, dict(variant="trunc_knn", epsilon=3.5, k=7),
                      "619c9054f613af6432ea303471fd798ffcf64d8211a5be7fe0515e7a3edf4c63"),
        "project": (20, dict(variant="trunc_distance", epsilon=3.5, tau=5.5),
                    "86553f05d398af6188d2fa11e1d260d17d02c1a8a13a803179cb72c4cc4d811b"),
        "residual": (20, dict(variant="trunc_distance", epsilon=3.5, tau=5.5,
                              trunc_strategy="residual"),
                     "f5b19f892a0cb9b1fd170c802228cf7f7aab77eddbc5ba71dca820227731ebb2"),
        # every word lies within tau: project, with a warning per word
        "residual-empty-out-region": (20, dict(variant="trunc_distance", epsilon=3.5, tau=1e3,
                                               trunc_strategy="residual"),
                                      "63adba705b483f61c00a27b8013d45fe86afb9d3e49baa0d694217fa1c9feb8b"),
        # the mass inside tau underflows to 0: no draw lands in the ball
        "residual-underflow": (300, dict(variant="trunc_distance", epsilon=1.0, tau=5.0,
                                         trunc_strategy="residual"),
                               "222fa05c5e4ebe0c5658dab121b03ceb392c620535412c54e5c7d6fd5560dad2"),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_digest(self, case):
        dim, params, digest = self.CASES[case]
        store = random_store(np.random.default_rng(5), 300, dim)
        ids = np.random.default_rng(6).integers(0, 300, size=1200)
        out = Mechanism(store, MechanismConfig(**params)).perturb_words(RngStream(7), ids)
        assert hashlib.sha256(out.astype("<i8").tobytes()).hexdigest() == digest
        if case == "residual-underflow":
            assert truncation_mass(MultivariateLaplaceParam(dim, 1.0), 5.0) == 0.0
            dists = cdist(store.vectors, store.vectors)
            assert np.all(dists[ids, out] > 5.0)


class TestDensityBlocks:
    """The density chain scores its proposals a block of steps at a time;
    it must draw and decide exactly as the chain that scores each step
    alone."""

    # block caps in rows: the default (the whole chain in one block on this
    # store), 7 (a boundary mid-chain, 31 steps not a multiple of the
    # block's steps) and 2 (n = 3 alone exceeds it: one step per block)
    @pytest.mark.parametrize("rows", [None, 7, 2])
    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_matches_the_chain_by_step(self, monkeypatch, rows, n):
        store = clustered_store()
        if rows is not None:
            monkeypatch.setattr(randomizers, "_NN_BLOCK_ENTRIES", rows * len(store))
        config = MechanismConfig("density", 1.0, sigma=0.5, mh_steps=31)
        for w in range(4):
            got = Mechanism(store, config).perturb_batch(RngStream(11).fork(w), w, n)
            want = density_chain_by_step(store, RngStream(11).fork(w), w, n, 1.0, 0.5, 31)
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_block_caps_draw_alike(self, monkeypatch, n):
        # each kind of draw has its own stream, so a cap that splits the
        # chain into other blocks draws the same values
        store = clustered_store()
        config = MechanismConfig("density", 1.0, sigma=0.5, mh_steps=31)
        default, outs = randomizers._NN_BLOCK_ENTRIES, []
        for rows in (None, 7, 2):
            monkeypatch.setattr(randomizers, "_NN_BLOCK_ENTRIES",
                                default if rows is None else rows * len(store))
            outs.append(np.concatenate([
                Mechanism(store, config).perturb_batch(RngStream(23).fork(w), w, n)
                for w in range(4)
            ]))
        assert np.array_equal(outs[0], outs[1]) and np.array_equal(outs[0], outs[2])

    def test_block_stays_within_one_tile(self):
        # |W| = 5000: a block is 209 rows x |W|, 2**20 entries at most; the
        # whole 1010-step chain scored at once would hold 80 MB for n = 2
        store = random_store(np.random.default_rng(12), 5000, 50)
        mech = Mechanism(store, MechanismConfig("density", 1.0, sigma=1.0))
        tracemalloc.start()
        try:
            mech.perturb_batch(RngStream(13), 0, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < embeddings._NN_BLOCK_ENTRIES * 8 + 2**20

    def test_kde_stays_within_a_block_whatever_the_chains(self):
        # one step of n chains is four KDE blocks of 2**20 // |W| rows and
        # one row more: scored at once, its float32 kernels would take 16 MiB
        store = random_store(np.random.default_rng(61), 1024, 2)
        n = 4 * (embeddings._NN_BLOCK_ENTRIES // len(store)) + 1
        mech = Mechanism(store, MechanismConfig("density", 1.0, sigma=1.0, mh_steps=3))
        tracemalloc.start()
        try:
            mech.perturb_batch(RngStream(62), 0, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * embeddings._NN_BLOCK_ENTRIES * 4


class TestDensityDrawsPinned:
    """The exact draws of the density variant, pinned by a digest of
    perturb_words as in TestTruncatedDrawsPinned: a change to the starts,
    proposals or uniforms the chains draw, in what order, or to the KDE's
    accept decisions changes the digest."""

    def test_digest(self):
        store = random_store(np.random.default_rng(5), 100, 10)
        ids = np.random.default_rng(6).integers(0, 10, size=60)
        config = MechanismConfig("density", 1.0, mh_steps=30)
        out = Mechanism(store, config).perturb_words(RngStream(7), ids)
        assert hashlib.sha256(out.astype("<i8").tobytes()).hexdigest() == (
            "7f7d210e1d66f8a181a5f01506737ff157f102717f108b14bdd6c39b30276e3a")


@pytest.mark.parametrize("variant", ["baseline", "density"])
def test_two_calls_on_one_stream_draw_anew(variant):
    # the density chain seeds its streams from a draw of rng's generator; a
    # fork of rng depends only on its path and would repeat on the next call
    config = MechanismConfig(variant, 1.0, **({"mh_steps": 31} if variant == "density" else {}))
    mech, rng = Mechanism(clustered_store(), config), RngStream(29)
    assert not np.array_equal(mech.perturb_batch(rng, 0, 200), mech.perturb_batch(rng, 0, 200))


class TestDensityLaw:
    """The chain's output law is the one it had on a single stream
    (oracles.density_chain_single_stream), by floor_p_value at alpha =
    0.01: 500 draws from each of words 0-3, on the tight 40-word store at
    the default length, and on a 500-word, d = 10, spread-6 mixture at a
    tenth of it. The two chains have one law at every length; the shorter
    mixture run keeps the reference's cost down. A chain that accepts on
    the wrong sign of the log-KDE ratio is rejected.

    Measured power at alpha = 0.01, as here (500 draws from each of words
    0-3), against a default-length chain, 20 seeds per row:
    - the wrong-sign chain: rejected 20 of 20 on each store, and 20 of 20
      at a tenth of the length on the mixture;
    - mh_steps // 100 steps: rejected 20 of 20 on the tight store and 0 of
      20 on the mixture. There the chain's start, the baseline's law, was
      rejected 1 time in 10: on the mixture the KDE moves the output law
      too little for 2000 draws to show, and the tight store carries the
      test's power against a chain that has not settled;
    - a second default-length chain, the same law: rejected 0 of 20 on
      each store; the single-stream chain, 0 of 10 on the tight store."""

    STORES = {
        "tight": (clustered_store, 1),
        "mixture": (lambda: mixture_store(np.random.default_rng(0), 500, 10, spread=6.0), 10),
    }

    @pytest.fixture(scope="class", params=sorted(STORES))
    def case(self, request):
        make, divisor = self.STORES[request.param]
        store = make()
        steps = MechanismConfig("density", 1.0).mh_steps // divisor
        sigma = store.median_nn_distance()
        reference = [density_chain_single_stream(store, RngStream(31).fork(w), w, 500, 1.0,
                                                 sigma, steps)
                     for w in range(4)]
        return store, steps, reference

    @staticmethod
    def draws(store, steps):
        mech = Mechanism(store, MechanismConfig("density", 1.0, mh_steps=steps))
        return [mech.perturb_batch(RngStream(37).fork(w), w, 500) for w in range(4)]

    def test_same_law_as_the_single_stream_chain(self, case):
        store, steps, reference = case
        assert floor_p_value(self.draws(store, steps), reference, len(store)) >= 0.01

    def test_wrong_sign_chain_is_rejected(self, case, monkeypatch):
        # negated log-KDEs keep every certificate (|-v + c| = |v - c|) and
        # turn each accept decision to the wrong sign of the ratio
        store, steps, reference = case
        screened, canonical = randomizers._screened_log_kde, randomizers._canonical_log_kde

        def negated(store, points, sigma):
            values, bounds = screened(store, points, sigma)
            return -values, bounds

        monkeypatch.setattr(randomizers, "_screened_log_kde", negated)
        monkeypatch.setattr(randomizers, "_canonical_log_kde",
                            lambda store, point, sigma: -canonical(store, point, sigma))
        assert floor_p_value(self.draws(store, steps), reference, len(store)) < 0.01


class TestScreenedKde:
    """The density chain's float32 log-KDE and the bound on its distance
    from the canonical, BLAS-free one."""

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(
        dim=st.sampled_from([1, 2, 50, 300]),
        kind=st.sampled_from(["random", "duplicates", "offset"]),
        n_words=st.sampled_from([1, 3, 40]),
        log_sigma=st.sampled_from([-8, -2, 0, 1, 6]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_value_within_its_bound_of_the_canonical(self, dim, kind, n_words, log_sigma, seed):
        # offset: a store far from the origin (1e6 + 1e-3 N(0, 1), as in
        # test_embeddings), whose float32 distances lose every digit that
        # separates the words; sigma from 1e-8 to 1e6 of the store's spread
        gen = np.random.default_rng(seed)
        vecs = gen.normal(size=(n_words, dim))
        if kind == "duplicates":
            vecs[n_words // 2 :] = vecs[: n_words - n_words // 2]
        elif kind == "offset":
            vecs = 1e6 + 1e-3 * vecs
        store = EmbeddingStore.from_arrays([f"w{i}" for i in range(n_words)], vecs)
        spread = 1e-3 if kind == "offset" else 1.0
        sigma = spread * 10.0**log_sigma
        points = np.vstack([
            vecs[gen.integers(0, n_words, size=5)] + spread * gen.normal(size=(5, dim)),
            vecs[gen.integers(0, n_words, size=3)],
            vecs.mean(axis=0) + 30 * spread * gen.normal(size=(3, dim)),
            gen.normal(size=(2, dim)),
        ])
        # past the screen's limit: 2^100 in the screen's units
        beyond = 1e40 * np.abs(vecs).max() * gen.normal(size=(2, dim))
        values, bounds = randomizers._screened_log_kde(store, np.vstack([points, beyond]), sigma)
        assert np.all(bounds[-2:] == np.inf)
        values, bounds = values[:-2], bounds[:-2]
        canonical = np.array([randomizers._canonical_log_kde(store, p, sigma) for p in points])
        assert np.all(bounds > 0)
        sure = np.isfinite(bounds)
        assert np.all(np.abs(values - canonical)[sure] <= bounds[sure])

    def test_bound_is_small_on_the_benchmark_scale(self):
        # d = 50, spread 6, sigma near the median nn distance: about 1e-4,
        # against accept margins of order 1
        store = mixture_store(np.random.default_rng(3), 2000, 50, spread=6.0)
        sigma = store.median_nn_distance()
        points = store.vectors[:50] + sample_mv_laplace(
            RngStream(5), MultivariateLaplaceParam(50, 1.0), size=50)
        values, bounds = randomizers._screened_log_kde(store, points, sigma)
        canonical = np.array([randomizers._canonical_log_kde(store, p, sigma) for p in points])
        assert np.all(np.abs(values - canonical) <= bounds)
        assert np.all(bounds < 1e-3)

    def test_float32_exp_within_its_budget(self):
        # the shift leaves every exponent at most 0; the bound budgets 4 ulps
        # (8 u32 of the result) plus 2^-126 for results among the subnormals,
        # where float32 exp returns 0 below about -104
        u32 = 2.0**-24
        grid = np.linspace(-110.0, 0.0, 2_000_001).astype(np.float32)
        t = np.unique(np.concatenate([
            grid,
            np.nextafter(grid, np.float32(0.0)),
            -np.abs(np.random.default_rng(8).standard_normal(200_000)).astype(np.float32),
            np.float32([0.0, -0.0, -1e-30, -87.3, -103.9, -104.0, -1e4]),
        ]))
        got = np.exp(t).astype(np.float64)
        exact = np.exp(t.astype(np.float64))
        assert np.all(np.abs(got - exact) <= 8 * u32 * exact + 2.0**-126)


class TestCertificateForcedOff:
    """With every screened bound Inf, every accept decision is taken on the
    canonical log-KDE; the pinned draws and the chain by step must not move."""

    @pytest.fixture(autouse=True)
    def canonical_only(self, monkeypatch):
        screened, canonical = randomizers._screened_log_kde, randomizers._canonical_log_kde
        self.canonical_rows = 0

        def no_bound(store, points, sigma):
            values, bounds = screened(store, points, sigma)
            return values, np.full_like(bounds, np.inf)

        def counted(store, point, sigma):
            self.canonical_rows += 1
            return canonical(store, point, sigma)

        monkeypatch.setattr(randomizers, "_screened_log_kde", no_bound)
        monkeypatch.setattr(randomizers, "_canonical_log_kde", counted)

    def test_pinned_digest(self):
        TestDensityDrawsPinned().test_digest()
        # every start and every proposal: 60 chains of 1 + 30 rows
        assert self.canonical_rows == 60 * 31

    @pytest.mark.parametrize("rows", [None, 7, 2])
    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_matches_the_chain_by_step(self, monkeypatch, rows, n):
        TestDensityBlocks().test_matches_the_chain_by_step(monkeypatch, rows, n)


def test_errors_within_the_bounds_change_no_draw(monkeypatch):
    # screened values moved by up to 0.3, each within a bound widened to
    # cover it: the float scan then errs on many decisions, and the settled
    # chains must still make the canonical ones
    screened = randomizers._screened_log_kde
    gen = np.random.default_rng(17)

    def moved(store, points, sigma):
        values, bounds = screened(store, points, sigma)
        shift = gen.uniform(-0.3, 0.3, size=values.shape)
        return values + shift, bounds + np.abs(shift) * (1 + 2.0**-20)

    monkeypatch.setattr(randomizers, "_screened_log_kde", moved)
    store = clustered_store()
    config = MechanismConfig("density", 1.0, sigma=0.5, mh_steps=61)
    for w in range(6):
        for n in (1, 4):
            got = Mechanism(store, config).perturb_batch(RngStream(19).fork(w), w, n)
            want = density_chain_by_step(store, RngStream(19).fork(w), w, n, 1.0, 0.5, 61)
            assert np.array_equal(got, want)


@pytest.mark.parametrize("n", [1, 3])
def test_one_uncertain_step_settles_its_two_rows(monkeypatch, n):
    # one mid-block proposal's bound widened to Inf: its chain is walked
    # again from the block's start, and only that step's proposal and the
    # state it is weighed against take the canonical path
    screened, canonical = randomizers._screened_log_kde, randomizers._canonical_log_kde
    step, chain, widened, settled = 15, n // 2, [], []

    def one_uncertain(store, points, sigma):
        values, bounds = screened(store, points, sigma)
        if len(points) > n:  # the block's proposals, not the starts
            bounds[step * n + chain] = np.inf
            widened.append(points[step * n + chain].copy())
        return values, bounds

    def recorded(store, point, sigma):
        settled.append(point.copy())
        return canonical(store, point, sigma)

    monkeypatch.setattr(randomizers, "_screened_log_kde", one_uncertain)
    monkeypatch.setattr(randomizers, "_canonical_log_kde", recorded)
    store = clustered_store()
    config = MechanismConfig("density", 1.0, sigma=0.5, mh_steps=31)
    for w in range(4):
        widened.clear()
        settled.clear()
        got = Mechanism(store, config).perturb_batch(RngStream(41).fork(w), w, n)
        # the whole chain is one block on this store
        assert len(widened) == 1
        assert len(settled) == 2 and np.array_equal(settled[0], widened[0])
        assert not np.array_equal(settled[1], widened[0])
        want = density_chain_by_step(store, RngStream(41).fork(w), w, n, 1.0, 0.5, 31)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("sigma", [1e20, 1e150])
def test_flat_prior_takes_the_closed_form(monkeypatch, sigma):
    # a bandwidth so wide that every kernel is within u32 of 1: each row's
    # log-KDE is certified by the closed form, no row takes the canonical
    # path, and the chain still makes the canonical decisions
    store = clustered_store()
    canonical, calls = randomizers._canonical_log_kde, []
    gen = np.random.default_rng(47)
    points = store.vectors[gen.integers(0, len(store), size=20)] + 3 * gen.normal(size=(20, 5))
    values, bounds = randomizers._screened_log_kde(store, points, sigma)
    want = np.array([canonical(store, p, sigma) for p in points])
    assert np.all(np.abs(values - want) <= bounds) and np.all(bounds < 2.0**-24)

    def counted(store, point, sigma):
        calls.append(1)
        return canonical(store, point, sigma)

    monkeypatch.setattr(randomizers, "_canonical_log_kde", counted)
    config = MechanismConfig("density", 1.0, sigma=sigma, mh_steps=31)
    for w in range(4):
        got = Mechanism(store, config).perturb_batch(RngStream(43).fork(w), w, 3)
        assert calls == []
        want = density_chain_by_step(store, RngStream(43).fork(w), w, 3, 1.0, sigma, 31)
        assert np.array_equal(got, want)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    n_words=st.sampled_from([64, 65, 200, 1000]),
    log_sigma=st.sampled_from([-3, -1, 0, 1, 3, 8]),
    seed=st.integers(0, 2**32 - 1),
)
def test_partial_sums_within_the_bound(n_words, log_sigma, seed):
    # vocabularies of at least 64 words, summed 64 columns at a time plus
    # a tail; small bandwidths shift the far rows, large ones leave them
    gen = np.random.default_rng(seed)
    store = EmbeddingStore.from_arrays([f"w{i}" for i in range(n_words)],
                                       gen.normal(size=(n_words, 8)))
    sigma = 10.0**log_sigma
    points = np.vstack([store.vectors[gen.integers(0, n_words, size=6)]
                        + gen.normal(size=(6, 8)), 20 * gen.normal(size=(3, 8))])
    values, bounds = randomizers._screened_log_kde(store, points, sigma)
    canonical = np.array([randomizers._canonical_log_kde(store, p, sigma) for p in points])
    assert np.all(np.isfinite(bounds))
    assert np.all(np.abs(values - canonical) <= bounds)


def test_float32_exp_within_its_budget_above_zero():
    # a row left unshifted has exponents up to 64 ln 2; the bound budgets
    # the same 4 ulps there
    u32 = 2.0**-24
    t = np.unique(np.concatenate([
        np.linspace(0.0, 64 * math.log(2), 2_000_001).astype(np.float32),
        np.abs(np.random.default_rng(9).standard_normal(200_000)).astype(np.float32),
    ]))
    got = np.exp(t).astype(np.float64)
    exact = np.exp(t.astype(np.float64))
    assert np.all(np.abs(got - exact) <= 8 * u32 * exact)


CORETYPE_PROBE = """
import hashlib, sys
import numpy as np
from privtext import Mechanism, MechanismConfig, RngStream, EmbeddingStore, build_profile
def digest(*arrays):
    return hashlib.sha256(b"".join(x.tobytes() for x in arrays)).hexdigest()
gen = np.random.default_rng(0)
a = gen.normal(size=(200, 50))
b = gen.normal(size=(50, 2000))
print(digest(a.astype(np.float32) @ b.astype(np.float32)))
print(digest(a @ b))
gen = np.random.default_rng(5)
store = EmbeddingStore.from_arrays([f"w{i}" for i in range(2000)], 6 * gen.normal(size=(2000, 50)))
ids = gen.integers(0, 2000, size=20)
out = Mechanism(store, MechanismConfig("density", 1.0, mh_steps=200)).perturb_words(RngStream(7), ids)
print(digest(out.astype("<i8")))
profile = build_profile(store, 1.0)
print(digest(profile.per_word_local, profile.per_word_smooth))
print(repr(store.median_nn_distance()))
# words whose nearest neighbour the float64 tiles cannot settle: a second
# half that duplicates the first, and a store at 1e6 whose every pair lies
# within the rounding bound; both take the centred float32 decode
vecs = gen.normal(size=(2000, 50))
vecs[1000:] = vecs[:1000]
print(digest(EmbeddingStore.from_arrays([f"w{i}" for i in range(2000)], vecs).nn_distances))
vecs = 1e6 + 1e-3 * np.random.default_rng(31).normal(size=(400, 4))
print(digest(EmbeddingStore.from_arrays([f"w{i}" for i in range(400)], vecs).nn_distances))
"""


def test_density_draws_do_not_depend_on_the_blas_kernel():
    # Two OpenBLAS kernels whose GEMMs differ in their last bits give the
    # density chain different screened values, and the tile walks different
    # tiles; every accept decision is certified or taken on the canonical
    # log-KDE, and every nearest-neighbour distance is cdist's, so the
    # draws, the sensitivity profile and sigma agree. OPENBLAS_CORETYPE is
    # set in the children's environment only.
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for core in ("Haswell", "Sandybridge"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_CORETYPE=core, OPENBLAS_NUM_THREADS="1")
        proc = subprocess.run([sys.executable, "-c", CORETYPE_PROBE], capture_output=True,
                              text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout.split())
    (gemm32_a, gemm64_a, *results_a), (gemm32_b, gemm64_b, *results_b) = outputs
    if gemm32_a == gemm32_b and gemm64_a == gemm64_b:
        pytest.skip("the two OpenBLAS kernels give the same GEMM bytes on this host")
    # the draws' digest, the profile's digest, sigma and the two
    # nearest-neighbour digests
    assert results_a == results_b
