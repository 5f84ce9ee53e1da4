import itertools
import math
from collections import Counter

import numpy as np
import pytest
from scipy import stats

from privtext import (
    AmplifierConfig,
    RngStream,
    amplified_epsilon,
    kthreshold_batch,
    shuffle_batch,
    subsample_batch,
)
from privtext.amplification import apply_amplifier
from privtext.errors import ConfigError, InvalidWordIdError


def batch_of(payloads):
    return np.array(list(payloads), dtype=np.int64)


class TestShuffle:
    def test_empty(self, rng):
        out = shuffle_batch(rng, batch_of([]))
        assert out.shape == (0,) and out.dtype == np.int64

    def test_multiset_conserved_provenance_erased(self, rng):
        batch = batch_of([5, 5, 2, 9])
        out = shuffle_batch(rng, batch)
        assert Counter(out.tolist()) == Counter([5, 5, 2, 9])
        # positions are permuted: distinct payloads come back reordered
        # (identity has probability 1/50!); test_delinking_mutual_information
        # checks that an output position says nothing of the input position
        distinct = batch_of(range(50))
        moved = shuffle_batch(rng, distinct)
        assert sorted(moved.tolist()) == list(range(50))
        assert not np.array_equal(moved, distinct)

    def test_ordering_uniform(self, rng):
        # enumeration oracle over the 6 arrangements of 3 distinct payloads
        counts = {p: 0 for p in itertools.permutations((0, 1, 2))}
        trials = 60_000
        for _ in range(trials):
            out = shuffle_batch(rng, batch_of([0, 1, 2]))
            counts[tuple(out.tolist())] += 1
        expected = trials / 6
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert chi2 < stats.chi2.ppf(0.99, df=5)

    def test_delinking_mutual_information(self, rng):
        # joint (original index, output position) over 1e5 trials, n=4
        n, trials = 4, 10**5
        joint = np.zeros((n, n))
        for _ in range(trials):
            out = shuffle_batch(rng, batch_of(range(n)))
            for pos, payload in enumerate(out):
                joint[payload, pos] += 1
        p = joint / joint.sum()
        pi, pj = p.sum(axis=1), p.sum(axis=0)
        nz = p > 0
        mi = float((p[nz] * np.log(p[nz] / np.outer(pi, pj)[nz])).sum())
        assert mi < 0.01


class TestSubsample:
    def test_q_one_is_identity(self, rng):
        batch = batch_of([1, 2, 3])
        assert np.array_equal(subsample_batch(rng, batch, 1.0), batch)

    def test_binomial_count(self, rng):
        n = 10**5
        kept = len(subsample_batch(rng, batch_of([0] * n), 0.5))
        assert abs(kept - n * 0.5) <= 3 * math.sqrt(n * 0.25)

    def test_empty_probability_oracle(self, rng):
        # Pr[all dropped] = (1 - q)^n
        q, n, trials = 0.01, 10, 10**5
        empties = sum(
            1 for _ in range(trials) if len(subsample_batch(rng, batch_of(range(n)), q)) == 0
        )
        assert empties / trials == pytest.approx((1 - q) ** n, abs=0.01)

    def test_q_out_of_range(self, rng):
        with pytest.raises(ConfigError):
            subsample_batch(rng, batch_of([]), 0.0)
        with pytest.raises(ConfigError):
            subsample_batch(rng, batch_of([]), 1.5)

    @pytest.mark.parametrize("q", [True, "0.5"])
    def test_q_must_be_a_real_number(self, rng, q):
        # True kept every message, and "0.5" ended in a bare TypeError
        with pytest.raises(ConfigError, match="q"):
            subsample_batch(rng, batch_of([1, 2]), q)


class TestPayloadsAreWordIds:
    # floats were truncated to other words, and a negative id ended in
    # numpy's bare ValueError inside kthreshold_batch's bincount
    STAGES = {
        "shuffle": lambda rng, batch: shuffle_batch(rng, batch),
        "subsample": lambda rng, batch: subsample_batch(rng, batch, 1.0),
        "kthreshold": lambda rng, batch: kthreshold_batch(batch, 1),
    }

    @pytest.mark.parametrize("stage", STAGES)
    def test_non_ids_rejected(self, rng, stage):
        for batch, match in (([0.5, 1.7], "integers"), ([True, False], "integers"),
                             ([-1, 2], "outside"), (np.array([2**63], np.uint64), "outside")):
            with pytest.raises(InvalidWordIdError, match=match):
                self.STAGES[stage](rng, batch)
        assert sorted(self.STAGES[stage](rng, np.array([3, 0], np.uint8)).tolist()) == [0, 3]
        assert self.STAGES[stage](rng, []).shape == (0,)


class TestKThreshold:
    def test_k_one_identity(self):
        batch = batch_of([4, 4, 7])
        assert np.array_equal(kthreshold_batch(batch, 1), batch)

    def test_drops_rare(self):
        batch = batch_of([3, 3, 8])
        out = kthreshold_batch(batch, 2)
        assert out.tolist() == [3, 3]

    def test_survivors_have_multiplicity(self, rng):
        payloads = rng.gen.integers(0, 5, size=200).tolist()
        out = kthreshold_batch(batch_of(payloads), 3)
        counts = Counter(payloads)
        assert all(counts[p] >= 3 for p in out.tolist())
        # order preserved: exactly the survivors, in input order
        assert out.tolist() == [p for p in payloads if counts[p] >= 3]

    def test_empty(self):
        for k in (1, 3):
            out = kthreshold_batch(batch_of([]), k)
            assert out.shape == (0,)


def tight_subsampling_bound(eps, q):
    """ln(1 + q(e^eps - 1)), evaluated directly."""
    return math.log(1.0 + q * (math.exp(eps) - 1.0))


class TestAmplifiedEpsilon:
    def test_q_one(self):
        out = amplified_epsilon(2.0, 1.0)
        assert out["epsilon_amplified"] == 2.0
        assert out["epsilon_first_order"] == 2.0

    def test_q_fraction(self):
        # at eps=4, q=0.1 the first-order q*eps understates the bound 4.6x
        out = amplified_epsilon(4.0, 0.1)
        assert out["epsilon_amplified"] == pytest.approx(tight_subsampling_bound(4.0, 0.1))
        assert out["epsilon_amplified"] == pytest.approx(1.85, abs=0.005)
        assert out["epsilon_first_order"] == pytest.approx(0.4)
        assert out["epsilon_amplified"] / out["epsilon_first_order"] > 4.6

    def test_half(self):
        out = amplified_epsilon(1.0, 0.5)
        assert out["epsilon_amplified"] == pytest.approx(tight_subsampling_bound(1.0, 0.5))
        assert out["epsilon_first_order"] == 0.5

    def test_bound_dominates_first_order_and_eps(self):
        for eps in (1e-6, 0.1, 1.0, 4.0, 30.0):
            for q in (1e-3, 0.1, 0.5, 0.9, 1.0):
                out = amplified_epsilon(eps, q)
                assert q * eps * (1 - 1e-9) <= out["epsilon_amplified"] <= eps * (1 + 1e-12)
                assert out["epsilon_amplified"] == pytest.approx(
                    tight_subsampling_bound(eps, q), rel=1e-6
                )
        # no overflow where e^eps leaves the double range: eps + ln q
        assert amplified_epsilon(1000.0, 0.5)["epsilon_amplified"] == pytest.approx(
            1000.0 + math.log(0.5)
        )

    def test_domain(self):
        with pytest.raises(ConfigError):
            amplified_epsilon(1.0, 0.0)
        with pytest.raises(ConfigError):
            amplified_epsilon(0.0, 0.5)

    @pytest.mark.parametrize("epsilon, q", [(1.0, True), ("1", 0.5), (1.0, "0.5"),
                                            (math.inf, 0.5), (True, 0.5)])
    def test_arguments_must_be_real_numbers(self, epsilon, q):
        # q = True was echoed as "q": true, "1" ended in a bare TypeError, and
        # an infinite epsilon was reported as Infinity, which is not JSON
        with pytest.raises(ConfigError, match="finite real number"):
            amplified_epsilon(epsilon, q)


class TestConfigAndIo:
    def test_amplifier_config_validation(self):
        AmplifierConfig("shuffle")
        AmplifierConfig("subsample", q=0.5)
        AmplifierConfig("kthreshold", k=2)
        with pytest.raises(ConfigError):
            AmplifierConfig("shuffle", q=0.5)
        with pytest.raises(ConfigError):
            AmplifierConfig("subsample")
        with pytest.raises(ConfigError):
            AmplifierConfig("kthreshold", k=0)
        with pytest.raises(ConfigError):
            AmplifierConfig("mixnet")

    def test_apply_dispatch(self, rng):
        batch = batch_of([1, 1, 2])
        assert len(apply_amplifier(rng, batch, AmplifierConfig("kthreshold", k=2))) == 2
