import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

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
    kthreshold_batch,
    optimal_attack,
    posterior,
    verify_metric_dp,
)
from privtext.analysis import Posterior
from privtext.errors import (
    ConfigError, InvalidWordIdError, MatrixFormatError, SingletonVocabularyError,
    UnreachableObservationError,
)
from privtext.randomizers import TransitionMatrix, sample_from_matrix

from conftest import identity_batch, random_store, uniform_batch
from oracles import (
    attack_accuracy_per_trial,
    attack_decisions_per_observation,
    distance,
    verify_metric_dp_full,
)


def identity_matrix(n, samples=10**5):
    return TransitionMatrix(np.diag([samples] * n))


def uniform_matrix(n, per_cell=10**4):
    return TransitionMatrix(np.full((n, n), per_cell))


def sparse_matrix(gen, n, samples=12):
    """samples draws per row over a random support of about 40% of the
    words, the diagonal always in it: many zero cells and repeated
    probabilities."""
    support = gen.uniform(size=(n, n)) < 0.4
    support[np.arange(n), np.arange(n)] = True
    return TransitionMatrix(np.stack([gen.multinomial(samples, s / s.sum()) for s in support]))


def reference_cases():
    """(store, matrix) pairs: seeded stores with a duplicated vector, sparse
    and uniform matrices, an equidistant store, a one-word vocabulary."""
    gen = np.random.default_rng(21)
    cases = [(EmbeddingStore.from_arrays(["a"], [[0.0]]), identity_matrix(1))]
    for n, dim in ((2, 1), (5, 2), (12, 2), (30, 3)):
        vecs = gen.normal(size=(n, dim))
        vecs[-1] = vecs[0]
        store = EmbeddingStore.from_arrays([f"w{i}" for i in range(n)], vecs)
        cases.append((store, sparse_matrix(gen, n, samples=int(gen.integers(1, 1000)))))
    verts = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float)
    tetra = EmbeddingStore.from_arrays(["a", "b", "c", "d"], verts)
    cases.append((tetra, uniform_matrix(4)))
    cases.append((tetra, sparse_matrix(gen, 4)))
    return cases


# each library function that takes a count, called on a store with it
COUNT_ARGUMENTS = {
    "build_transition_matrix": lambda store, n: build_transition_matrix(
        store, RngStream(0), MechanismConfig("baseline", 1.0), n
    ),
    "deniability_stats": lambda store, n: deniability_stats(
        Mechanism(store, MechanismConfig("baseline", 1.0)), RngStream(0), 0, n
    ),
    "attack_accuracy": lambda store, n: attack_accuracy(
        store, RngStream(0), identity_matrix(len(store)), np.full(len(store), 1 / len(store)), n
    ),
    "kthreshold_batch": lambda store, n: kthreshold_batch([0, 0, 0, 1], n),
}


@pytest.mark.parametrize("name", list(COUNT_ARGUMENTS))
def test_count_argument_is_an_integer_at_least_one(name, toy3):
    # 1.5 and True ended in numpy TypeErrors in the first three, and
    # kthreshold_batch ran k = 2.5 as k = 3
    call = COUNT_ARGUMENTS[name]
    for bad in (0, 1.5, True, "3"):
        with pytest.raises(ConfigError):
            call(toy3, bad)
    call(toy3, np.int64(3))


class TestDeniability:
    def test_identity_stub(self, toy3, rng, monkeypatch):
        monkeypatch.setattr(Mechanism, "perturb_batch", identity_batch)
        st = deniability_stats(Mechanism(toy3, MechanismConfig("baseline", 1.0)), rng, 1, 1000)
        assert st.p_unchanged == 1.0
        assert st.support_size == 1
        assert st.entropy == 0.0

    def test_uniform_stub(self, rng, monkeypatch):
        monkeypatch.setattr(Mechanism, "perturb_batch", uniform_batch)
        store = random_store(np.random.default_rng(0), 4, 2)
        st = deniability_stats(Mechanism(store, MechanismConfig("baseline", 1.0)), rng, 0, 10**5)
        assert st.support_size == 4
        assert st.entropy == pytest.approx(math.log(4), abs=0.01)

    def test_monotone_in_epsilon(self, toy5, rng):
        p = {}
        for eps in (0.5, 4.0):
            mech = Mechanism(toy5, MechanismConfig("baseline", eps))
            p[eps] = deniability_stats(mech, rng.fork_named(str(eps)), 0, 10**5).p_unchanged
        assert p[0.5] < p[4.0]

    def test_entropy_bounded_by_support(self, toy5, rng):
        mech = Mechanism(toy5, MechanismConfig("baseline", 1.0))
        st = deniability_stats(mech, rng, 2, 10**4)
        assert st.entropy <= math.log(st.support_size) + 1e-9

    def test_trials_validation(self, toy3, rng, monkeypatch):
        monkeypatch.setattr(Mechanism, "perturb_batch", identity_batch)
        with pytest.raises(ConfigError):
            deniability_stats(Mechanism(toy3, MechanismConfig("baseline", 1.0)), rng, 0, 0)


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

    def test_non_finite_or_negative_epsilon_rejected(self, toy3):
        # at NaN every violation is NaN and the report read satisfied: true
        for eps in (math.nan, math.inf, -1.0):
            with pytest.raises(ConfigError):
                verify_metric_dp(identity_matrix(3), toy3, eps)

    @pytest.mark.parametrize("eps", [True, "1"])
    def test_epsilon_must_be_a_real_number(self, toy3, eps):
        # True ran as 1 and the report echoed True; "1" ended in a bare TypeError
        with pytest.raises(ConfigError, match="epsilon"):
            verify_metric_dp(identity_matrix(3), toy3, eps)

    @pytest.mark.parametrize("alpha", [2.0, 1.0, math.nan, math.inf, 0.0, -0.5, True, "0.01"])
    def test_alpha_outside_unit_interval_rejected(self, toy3, alpha):
        # at 2, NaN or inf a matrix with zero cells read satisfied with -inf
        # violations; at alpha <= 0 math.log raised a bare ValueError
        with pytest.raises(ConfigError, match="alpha"):
            verify_metric_dp(identity_matrix(3), toy3, 1.0, alpha=alpha)
        assert not verify_metric_dp(identity_matrix(3), toy3, 1.0, alpha=0.5).satisfied

    def test_store_mismatch(self, toy3):
        with pytest.raises(ConfigError):
            verify_metric_dp(identity_matrix(4), toy3, 1.0)

    def test_one_word_vocabulary_rejected(self):
        # no pair to check: the report read satisfied, with -inf violations
        store = EmbeddingStore.from_arrays(["a"], [[0.0]])
        with pytest.raises(SingletonVocabularyError, match="at least 2 words"):
            verify_metric_dp(identity_matrix(1), store, 1.0)

    def test_matches_full_matrix_reference(self, toy5, rng):
        m = build_transition_matrix(toy5, rng, MechanismConfig("baseline", 2.0), 2000)
        # the one-word case is rejected (test_one_word_vocabulary_rejected)
        cases = [(store, matrix) for store, matrix in reference_cases() if len(store) > 1]
        for store, matrix in cases + [(toy5, m)]:
            for eps in (0.5, 3.0):
                report = verify_metric_dp(matrix, store, eps)
                assert report == verify_metric_dp_full(matrix, store, eps)

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
            with pytest.raises(MatrixFormatError, match=r"2\*\*53"):
                identity_matrix(3, samples=count)


class TestPosterior:
    def test_hand_bayes_2x2(self):
        m = TransitionMatrix([[7, 3], [3, 7]])
        post = posterior([0.5, 0.5], m, observed=0)
        assert post.probs[0] == pytest.approx(0.7, abs=1e-12)
        assert post.probs[1] == pytest.approx(0.3, abs=1e-12)

    def test_hand_bayes_3x3_nonuniform_prior(self):
        counts = np.array([[10, 6, 4], [2, 16, 2], [5, 5, 10]])
        probs = counts / 20
        prior = np.array([0.2, 0.5, 0.3])
        m = TransitionMatrix(counts)
        post = posterior(prior, m, observed=1)
        joint = prior * probs[:, 1]
        expected = joint / joint.sum()
        assert np.allclose(post.probs, expected, atol=1e-12)

    def test_point_mass_prior_dominates(self):
        m = TransitionMatrix([[7, 3], [3, 7]])
        post = posterior([0.0, 1.0], m, observed=0)
        assert post.probs.tolist() == [0.0, 1.0]

    def test_uniform_prior_column_normalized(self):
        gen = np.random.default_rng(4)
        for _ in range(20):
            n = int(gen.integers(2, 8))
            counts = gen.multinomial(1000, gen.dirichlet(np.ones(n)), size=n)
            probs = counts / 1000
            m = TransitionMatrix(counts)
            y = int(gen.integers(0, n))
            post = posterior(np.full(n, 1.0 / n), m, y)
            col = probs[:, y]
            assert np.allclose(post.probs, col / col.sum(), atol=1e-12)

    def test_unreachable_observation(self):
        m = TransitionMatrix([[1, 0], [1, 0]])
        for observed in (1, np.array([0, 1])):
            with pytest.raises(UnreachableObservationError):
                posterior([0.5, 0.5], m, observed=observed)

    def test_bad_observed_id_is_the_samplers_error(self, rng):
        # posterior raised a ConfigError of its own for the id that
        # sample_from_matrix rejects as an InvalidWordIdError
        m = TransitionMatrix([[7, 3], [3, 7]])
        with pytest.raises(InvalidWordIdError) as by_sampler:
            sample_from_matrix(rng, m, -1)
        with pytest.raises(InvalidWordIdError) as by_posterior:
            posterior([0.5, 0.5], m, -1)
        assert str(by_posterior.value) == str(by_sampler.value)

    def test_array_of_ids_stacks_scalar_posteriors(self):
        gen = np.random.default_rng(23)
        m = sparse_matrix(gen, 8)
        prior = gen.uniform(size=8) * (gen.uniform(size=8) < 0.7)
        prior[0] = 0.5
        prior /= prior.sum()
        ids = np.flatnonzero(prior @ m.counts > 0)[[3, 0, 2, 0, 1]]
        post = posterior(prior, m, ids)
        stacked = np.stack([posterior(prior, m, int(y)).probs for y in ids], axis=1)
        assert post.probs.shape == (8, 5)
        assert np.array_equal(post.probs, stacked)
        assert posterior(prior, m, 3).probs.shape == (8,)

    @pytest.mark.parametrize(
        "prior", [[np.nan, 0.5, 0.5], [np.inf, 0.0, 0.0], [1.5, -0.5, 0.0]]
    )
    def test_bad_prior_rejected(self, toy3, rng, prior):
        with pytest.raises(ConfigError):
            posterior(prior, uniform_matrix(3), 0)
        with pytest.raises(ConfigError):
            attack_accuracy(toy3, rng, uniform_matrix(3), prior, 10)

    def test_bad_posterior_rejected(self):
        for probs in ([0.5, 0.7, -0.2], [np.nan, 0.5, 0.5], [[0.5, 0.5], [0.5, 0.7], [0.0, -0.2]]):
            with pytest.raises(ConfigError):
                Posterior(0, np.array(probs))

    def test_string_prior_rejected(self):
        # ended in a bare ValueError from the float conversion
        with pytest.raises(ConfigError, match="prior must hold numbers"):
            posterior("ab", TransitionMatrix([[7, 3], [3, 7]]), 0)

    def test_bool_prior_rejected(self):
        # was taken as the prior [1.0, 0.0]
        with pytest.raises(ConfigError, match="prior must hold numbers"):
            posterior([True, False], TransitionMatrix([[7, 3], [3, 7]]), 0)

    def test_string_posterior_rejected(self):
        # ended in a bare ValueError from the float conversion
        with pytest.raises(ConfigError, match="posterior must hold numbers"):
            Posterior(0, ["x", "y"])

    def test_zero_dimensional_posterior_rejected(self):
        # was accepted as a 0-d array
        with pytest.raises(ConfigError, match=r"posterior has shape \(\)"):
            Posterior(0, 1.0)

    def test_bad_posterior_rejected_under_optimize(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        code = (
            "from privtext.analysis import Posterior\n"
            "from privtext.errors import ConfigError\n"
            "try:\n    Posterior(0, [0.5, 0.7, -0.2])\n"
            "except ConfigError:\n    print('rejected')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src), timeout=120,
        )
        assert proc.stdout == "rejected\n", proc.stderr

    def test_normalization(self):
        gen = np.random.default_rng(8)
        m = TransitionMatrix(gen.multinomial(1000, np.full(5, 0.2), size=5))
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
                val = sum(probs[w] * distance(store, cand, w) for w in range(10))
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

    def test_store_mismatch(self, toy3):
        # ended in numpy's bare matmul ValueError
        with pytest.raises(ConfigError, match="posterior over 2 words"):
            optimal_attack(toy3, Posterior(0, np.array([0.5, 0.5])))


class TestAttackAccuracy:
    def test_store_mismatch(self, toy3, rng):
        # ended in numpy's bare matmul ValueError
        with pytest.raises(ConfigError, match="matrix over 2 words"):
            attack_accuracy(toy3, rng, TransitionMatrix([[7, 3], [3, 7]]), [0.5, 0.5], 10)

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

    def test_matches_per_observation_reference(self):
        gen = np.random.default_rng(27)
        for i, (store, matrix) in enumerate(reference_cases()):
            n = matrix.size
            for prior in (np.full(n, 1.0 / n), gen.uniform(size=n) * (gen.uniform(size=n) < 0.6)):
                prior[0] += 0.1
                prior /= prior.sum()
                ref = attack_decisions_per_observation(store, matrix, prior)
                reachable = np.flatnonzero(ref >= 0)
                decisions = optimal_attack(store, posterior(prior, matrix, reachable))
                assert decisions.tolist() == ref[reachable].tolist()
                assert attack_accuracy(store, RngStream(i), matrix, prior, 500) == (
                    attack_accuracy_per_trial(store, RngStream(i), matrix, prior, 500)
                )

    def test_relabeling_invariance(self, rng):
        # tie-free geometry: permuting word ids must not change accuracy
        gen = np.random.default_rng(6)
        vecs = gen.normal(size=(5, 2))
        store = EmbeddingStore.from_arrays([f"w{i}" for i in range(5)], vecs)
        perm = np.array([3, 0, 4, 1, 2])
        store_p = EmbeddingStore.from_arrays([f"w{i}" for i in range(5)], vecs[perm])
        counts = np.stack([gen.multinomial(10**5, p / p.sum())
                           for p in gen.uniform(0.05, 1.0, size=(5, 5))])
        m = TransitionMatrix(counts)
        m_p = TransitionMatrix(counts[np.ix_(perm, perm)])
        prior = gen.uniform(0.1, 1.0, size=5)
        prior /= prior.sum()
        acc = attack_accuracy(store, rng.fork(0), m, prior, 10**4)
        acc_p = attack_accuracy(store_p, rng.fork(0), m_p, prior[perm], 10**4)
        assert acc == pytest.approx(acc_p, abs=0.02)
