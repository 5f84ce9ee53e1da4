import math
import warnings

import numpy as np
import pytest

from privtext import (
    EmbeddingStore,
    Mechanism,
    MechanismConfig,
    RngStream,
    attack_accuracy,
    build_transition_matrix,
    deniability_stats,
    optimal_attack,
    posterior,
    verify_metric_dp,
)
from privtext.analysis import Posterior
from privtext.errors import ConfigError, MatrixFormatError, UnreachableObservationError
from privtext.randomizers import TransitionMatrix

from conftest import IdentityMechanism, UniformMechanism, random_store


def identity_matrix(n, samples=10**5):
    return TransitionMatrix(np.eye(n), sample_count=samples)


def uniform_matrix(n, samples=10**5):
    return TransitionMatrix(np.full((n, n), 1.0 / n), sample_count=samples)


class TestDeniability:
    def test_identity_stub(self, toy3, rng):
        st = deniability_stats(toy3, rng, IdentityMechanism(), 1, 1000)
        assert st.p_unchanged == 1.0
        assert st.support_size == 1
        assert st.entropy == 0.0

    def test_uniform_stub(self, rng):
        store = random_store(np.random.default_rng(0), 4, 2)
        st = deniability_stats(store, rng, UniformMechanism(4), 0, 10**5)
        assert st.support_size == 4
        assert st.entropy == pytest.approx(math.log(4), abs=0.01)

    def test_monotone_in_epsilon(self, toy5, rng):
        p = {}
        for eps in (0.5, 4.0):
            mech = Mechanism(toy5, MechanismConfig("baseline", eps))
            p[eps] = deniability_stats(toy5, rng.fork_named(str(eps)), mech, 0, 10**5).p_unchanged
        assert p[0.5] < p[4.0]

    def test_entropy_bounded_by_support(self, toy5, rng):
        mech = Mechanism(toy5, MechanismConfig("baseline", 1.0))
        st = deniability_stats(toy5, rng, mech, 2, 10**4)
        assert st.entropy <= math.log(st.support_size) + 1e-9

    def test_trials_validation(self, toy3, rng):
        with pytest.raises(ConfigError):
            deniability_stats(toy3, rng, IdentityMechanism(), 0, 0)


class TestVerifyMetricDp:
    def test_identity_matrix_flagged(self, toy3):
        report = verify_metric_dp(identity_matrix(3), toy3, epsilon=2.0)
        assert not report.satisfied
        assert report.max_violation > 0

    def test_uniform_matrix_clean(self, toy3):
        report = verify_metric_dp(uniform_matrix(3), toy3, epsilon=0.5)
        assert report.max_violation <= 0
        assert report.satisfied

    def test_baseline_passes_at_configured_epsilon(self, toy5, rng):
        m = build_transition_matrix(toy5, rng, MechanismConfig("baseline", 2.0), 10**5)
        report = verify_metric_dp(m, toy5, epsilon=2.0)
        assert report.satisfied

    def test_store_mismatch(self, toy3):
        with pytest.raises(ConfigError):
            verify_metric_dp(identity_matrix(4), toy3, 1.0)

    def test_huge_sample_count(self, toy3):
        # 1 - alpha**(1/n) loses every digit to cancellation as n grows (it
        # is 0 from n ~ 1e17); at the largest count it must stay exact
        n = 2**53
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = verify_metric_dp(identity_matrix(3, samples=n), toy3, epsilon=2.0)
        cp_upper = -math.log(1e-3) / n  # first order; the next term is 4e-16 relative
        # the worst pair is a and c, one unit apart
        assert report.max_violation == pytest.approx(-math.log(cp_upper) - 2.0, rel=1e-9)
        for count in (-1, 2**53 + 1, 10**400):
            with pytest.raises(MatrixFormatError, match="sample count"):
                identity_matrix(3, samples=count)


class TestPosterior:
    def test_hand_bayes_2x2(self):
        m = TransitionMatrix(np.array([[0.7, 0.3], [0.3, 0.7]]), sample_count=1)
        post = posterior([0.5, 0.5], m, observed=0)
        assert post.probs[0] == pytest.approx(0.7, abs=1e-12)
        assert post.probs[1] == pytest.approx(0.3, abs=1e-12)

    def test_hand_bayes_3x3_nonuniform_prior(self):
        probs = np.array([[0.5, 0.3, 0.2], [0.1, 0.8, 0.1], [0.25, 0.25, 0.5]])
        prior = np.array([0.2, 0.5, 0.3])
        m = TransitionMatrix(probs, sample_count=1)
        post = posterior(prior, m, observed=1)
        joint = prior * probs[:, 1]
        expected = joint / joint.sum()
        assert np.allclose(post.probs, expected, atol=1e-12)

    def test_point_mass_prior_dominates(self):
        m = TransitionMatrix(np.array([[0.7, 0.3], [0.3, 0.7]]), sample_count=1)
        post = posterior([0.0, 1.0], m, observed=0)
        assert post.probs.tolist() == [0.0, 1.0]

    def test_uniform_prior_column_normalized(self):
        gen = np.random.default_rng(4)
        for _ in range(20):
            n = int(gen.integers(2, 8))
            probs = gen.uniform(size=(n, n))
            probs /= probs.sum(axis=1, keepdims=True)
            m = TransitionMatrix(probs, sample_count=1)
            y = int(gen.integers(0, n))
            post = posterior(np.full(n, 1.0 / n), m, y)
            col = probs[:, y]
            assert np.allclose(post.probs, col / col.sum(), atol=1e-12)

    def test_unreachable_observation(self):
        m = TransitionMatrix(np.array([[1.0, 0.0], [1.0, 0.0]]), sample_count=1)
        with pytest.raises(UnreachableObservationError):
            posterior([0.5, 0.5], m, observed=1)

    def test_normalization(self):
        gen = np.random.default_rng(8)
        probs = gen.uniform(size=(5, 5))
        probs /= probs.sum(axis=1, keepdims=True)
        m = TransitionMatrix(probs, sample_count=1)
        prior = gen.uniform(size=5)
        prior /= prior.sum()
        for y in range(5):
            assert posterior(prior, m, y).probs.sum() == pytest.approx(1.0, abs=1e-9)


class TestOptimalAttack:
    def test_point_mass(self, toy3):
        assert optimal_attack(toy3, Posterior(0, np.array([0.0, 1.0, 0.0]))) == 1

    def test_two_point_tie_breaks_low_id(self, toy3):
        # 0.5/0.5 on a=(0,0) and c=(0,1): both a and c have expected
        # distance 0.5, b is far; tie goes to a (id 0)
        post = Posterior(0, np.array([0.5, 0.0, 0.5]))
        assert optimal_attack(toy3, post) == 0

    def test_exhaustive_argmin_oracle(self):
        gen = np.random.default_rng(14)
        for _ in range(100):
            store = random_store(gen, 10, 3)
            probs = gen.uniform(size=10)
            probs /= probs.sum()
            post = Posterior(0, probs)
            best, best_val = None, np.inf
            for cand in range(10):
                val = sum(probs[w] * store.distance(cand, w) for w in range(10))
                if val < best_val - 1e-15:
                    best, best_val = cand, val
            assert optimal_attack(store, post) == best

    def test_cluster_medoid(self):
        gen = np.random.default_rng(31)
        store = random_store(gen, 10, 2)
        probs = np.full(10, 0.1)
        d = store.pairwise_distances()
        medoid = int(np.argmin(d.sum(axis=1)))
        assert optimal_attack(store, Posterior(0, probs)) == medoid


class TestAttackAccuracy:
    def test_identity_mechanism(self, toy3, rng):
        acc = attack_accuracy(toy3, rng, identity_matrix(3), np.full(3, 1 / 3), 2000)
        assert acc == 1.0

    def test_uniform_mechanism_equidistant_words(self, rng):
        # regular tetrahedron: 4 pairwise-equidistant words; uniform output
        # makes every posterior uniform, so the tie-break always guesses
        # word 0 and accuracy equals Pr[truth = 0] = 1/4
        verts = np.array(
            [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float
        )
        store = EmbeddingStore.from_arrays(["a", "b", "c", "d"], verts)
        acc = attack_accuracy(store, rng, uniform_matrix(4), np.full(4, 0.25), 10**4)
        assert acc == pytest.approx(0.25, abs=0.02)

    def test_monotone_in_epsilon(self, toy5, rng):
        accs = {}
        for eps in (0.5, 4.0):
            m = build_transition_matrix(
                toy5, rng.fork_named(f"m{eps}"), MechanismConfig("baseline", eps), 10**5
            )
            accs[eps] = attack_accuracy(
                toy5, rng.fork_named(f"a{eps}"), m, np.full(5, 0.2), 10**4
            )
        assert accs[0.5] < accs[4.0]

    def test_mechanism_sampling_path(self, toy3, rng):
        mech = Mechanism(toy3, MechanismConfig("baseline", 1e3))
        m = build_transition_matrix(toy3, rng.fork(0), MechanismConfig("baseline", 1e3), 5000)
        acc = attack_accuracy(toy3, rng.fork(1), m, np.full(3, 1 / 3), 2000, mechanism=mech)
        assert acc >= 0.98

    def test_mechanism_path_pinned_value(self, toy5):
        # perturb_words makes the same per-word draws as the inline loop it
        # replaced, so this value is pinned from that loop
        cfg = MechanismConfig("baseline", 1.5)
        rng = RngStream(2718)
        m = build_transition_matrix(toy5, rng.fork(0), cfg, 2000)
        prior = np.arange(1, 6, dtype=np.float64) ** -1.1
        prior /= prior.sum()
        acc = attack_accuracy(toy5, rng.fork(1), m, prior, 3000, mechanism=Mechanism(toy5, cfg))
        assert acc == 0.469

    def test_relabeling_invariance(self, rng):
        # tie-free geometry: permuting word ids must not change accuracy
        gen = np.random.default_rng(6)
        vecs = gen.normal(size=(5, 2))
        store = EmbeddingStore.from_arrays([f"w{i}" for i in range(5)], vecs)
        perm = np.array([3, 0, 4, 1, 2])
        store_p = EmbeddingStore.from_arrays([f"w{i}" for i in range(5)], vecs[perm])
        probs = gen.uniform(0.05, 1.0, size=(5, 5))
        probs /= probs.sum(axis=1, keepdims=True)
        m = TransitionMatrix(probs, sample_count=10**5)
        m_p = TransitionMatrix(probs[np.ix_(perm, perm)], sample_count=10**5)
        prior = gen.uniform(0.1, 1.0, size=5)
        prior /= prior.sum()
        acc = attack_accuracy(store, rng.fork(0), m, prior, 10**4)
        acc_p = attack_accuracy(store_p, rng.fork(0), m_p, prior[perm], 10**4)
        assert acc == pytest.approx(acc_p, abs=0.02)
