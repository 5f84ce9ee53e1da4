import json
import math
from collections import Counter

import numpy as np
import pytest

from privtext import (
    AmplifierConfig,
    CorpusSpec,
    EmbeddingStore,
    Mechanism,
    MechanismConfig,
    ProtocolConfig,
    RngStream,
    build_profile,
    run_protocol,
    sample_permutation,
)
from privtext.errors import ConfigError, InvalidWordIdError
from privtext.pipeline import run_amplifiers, run_curator, run_local_phase, sample_corpus
from privtext.randomizers import VARIANTS

from conftest import identity_batch


def make_config(**kw):
    defaults = dict(
        n_users=4,
        m_per_user=3,
        mechanism=MechanismConfig("baseline", 2.0),
        amplifiers=(),
        seed=7,
        corpus=CorpusSpec(kind="zipf", s=1.1),
    )
    defaults.update(kw)
    return ProtocolConfig(**defaults)


def local_phase(store, config, seed):
    """The local phase of run_protocol: its inputs and messages."""
    rng = RngStream(seed)
    inputs = sample_corpus(store, rng.fork_named("corpus"), config)
    return inputs, run_local_phase(store, rng.fork_named("local"), config, inputs)


def identity_draws(monkeypatch):
    """Make every Mechanism draw return its input word."""
    monkeypatch.setattr(Mechanism, "perturb_batch", identity_batch)


class TestLocalPhase:
    def test_shape(self, toy5):
        config = make_config(n_users=1, m_per_user=1)
        _, msgs = local_phase(toy5, config, 0)
        assert msgs.shape == (1,) and msgs.dtype == np.int64

    def test_identity_stub_preserves_inputs(self, toy5, monkeypatch):
        identity_draws(monkeypatch)
        inputs, msgs = local_phase(toy5, make_config(), 7)
        # flat and user-major: entry i * m + j is user i's slot j
        assert np.array_equal(msgs, inputs.ravel())

    def test_one_perturb_batch_call_per_distinct_word(self, toy5, monkeypatch):
        calls = []

        def recording(self, rng, w, n):
            calls.append((w, n))
            return rng.gen.integers(0, len(self.store), size=n)

        monkeypatch.setattr(Mechanism, "perturb_batch", recording)
        inputs, msgs = local_phase(toy5, make_config(n_users=20, m_per_user=5), 7)
        words, counts = np.unique(inputs, return_counts=True)
        assert sorted(calls) == list(zip(words.tolist(), counts.tolist()))
        assert len(msgs) == inputs.size

    def test_deterministic(self, toy5):
        config = make_config()
        _, a = local_phase(toy5, config, 1)
        _, b = local_phase(toy5, config, 1)
        assert np.array_equal(a, b)

    def test_oov_corpus_rejected(self, toy5):
        config = make_config(
            n_users=1,
            m_per_user=2,
            corpus=CorpusSpec(kind="words", words_per_user=(("v", "nope"),)),
        )
        with pytest.raises(InvalidWordIdError):
            run_protocol(toy5, config)

    def test_words_corpus_shape_checked(self, toy5):
        config = make_config(
            n_users=2, m_per_user=1, corpus=CorpusSpec(kind="words", words_per_user=(("v",),))
        )
        with pytest.raises(ConfigError):
            sample_corpus(toy5, RngStream(0), config)


class TestAmplifierChain:
    def test_empty_chain_identity(self, rng):
        batch = np.array([1, 2])
        assert np.array_equal(run_amplifiers(rng, batch, ()), batch)

    def test_shuffle_contract(self, rng):
        batch = np.array([3, 3, 1, 4])
        out = run_amplifiers(rng, batch, (AmplifierConfig("shuffle"),))
        assert Counter(out.tolist()) == Counter([3, 3, 1, 4])
        # the stage reorders by one uniform permutation from its own stream
        assert np.array_equal(out, batch[sample_permutation(rng.fork(0), len(batch))])

    def test_subsample_then_kthreshold_hand_trace(self, toy5):
        # re-derive the stage outputs with the same primitives the stages
        # use, in the same stream order, then check end to end
        payloads = [0, 0, 1, 1, 1, 2, 3, 3, 4, 0]
        batch = np.array(payloads)
        chain = (AmplifierConfig("subsample", q=0.5), AmplifierConfig("kthreshold", k=2))
        rng = RngStream(99)
        out = run_amplifiers(rng, batch, chain)

        keep = RngStream(99).fork(0).gen.uniform(size=len(batch)) < 0.5
        survivors = [p for p, kept in zip(payloads, keep) if kept]
        counts = Counter(survivors)
        expected = [p for p in survivors if counts[p] >= 2]
        assert out.tolist() == expected


class TestCurator:
    def test_histogram(self):
        hist = run_curator(np.array([0, 0, 1]))
        assert hist == {0: 2, 1: 1}
        assert all(type(k) is int and type(v) is int for k, v in hist.items())

    def test_empty(self):
        assert run_curator(np.array([], dtype=np.int64)) == {}


class TestProtocol:
    def test_identity_lossless(self, toy5, monkeypatch):
        identity_draws(monkeypatch)
        report = run_protocol(toy5, make_config())
        assert report.utility_l1 == 0.0
        assert report.utility_tv == 0.0

    def test_shuffle_only_utility_zero(self, toy5, monkeypatch):
        identity_draws(monkeypatch)
        report = run_protocol(toy5, make_config(amplifiers=(AmplifierConfig("shuffle"),)))
        assert report.utility_l1 == 0.0

    def test_tv_l1_relation(self, toy5):
        report = run_protocol(toy5, make_config(n_users=10, m_per_user=5))
        total = sum(report.true_histogram.values())
        assert report.utility_tv == pytest.approx(report.utility_l1 / (2 * total))

    def test_subsample_mass_scaling(self, toy5, monkeypatch):
        identity_draws(monkeypatch)
        q, n = 0.5, 2000
        config = make_config(
            n_users=n, m_per_user=1, amplifiers=(AmplifierConfig("subsample", q=q),)
        )
        report = run_protocol(toy5, config)
        kept = sum(report.histogram.values())
        assert abs(kept - q * n) <= 3 * np.sqrt(n * q * (1 - q))
        eps = config.mechanism.epsilon
        accounting = report.metadata["amplified_epsilon"]
        assert accounting["epsilon_amplified"] == pytest.approx(
            math.log(1.0 + q * (math.exp(eps) - 1.0))
        )
        assert accounting["epsilon_first_order"] == pytest.approx(q * eps)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_only_a_claimed_factor_is_subsampled(self, toy5, variant):
        params = {"baseline": {}, "density": {"mh_steps": 5}, "smooth": {"beta": 1.0},
                  "trunc_distance": {"tau": 1.2}, "trunc_knn": {"k": 2}}[variant]
        config = make_config(mechanism=MechanismConfig(variant, 2.0, **params),
                             amplifiers=(AmplifierConfig("subsample", q=0.5),))
        meta = run_protocol(toy5, config).metadata
        if variant == "baseline":
            assert meta["amplified_epsilon"]["epsilon"] == 2.0
            assert meta["amplified_epsilon"]["unit"] == "per unit of embedding distance"
            assert "guarantee" not in meta
        else:
            assert "amplified_epsilon" not in meta
            assert meta["guarantee"] is None and meta["guarantee_note"]

    def test_smooth_reports_no_nominal_epsilon(self):
        # three words 0.1 apart and three 10 apart: at beta = 1 the cluster's
        # per-word epsilon is eps * GS / s_beta(w) = 100 eps, so eps bounds
        # nothing, and the report states no figure derived from it
        store = EmbeddingStore.from_arrays(
            list("abcdef"), [[0.0], [0.1], [0.2], [10.0], [20.0], [30.0]])
        eps = 2.0
        profile = build_profile(store, 1.0)
        assert (eps * profile.global_sensitivity / profile.per_word_smooth).max() > 50 * eps
        config = make_config(mechanism=MechanismConfig("smooth", eps, beta=1.0),
                             amplifiers=(AmplifierConfig("subsample", q=0.5),))
        meta = json.loads(run_protocol(store, config, profile).to_json(store))["metadata"]
        # beside the config echo, only counts and the withheld guarantee
        assert set(meta) == {"schema_version", "config", "n_messages_local",
                             "n_messages_amplified", "guarantee", "guarantee_note"}
        assert meta["guarantee"] is None

    def test_determinism_byte_identical(self, toy5):
        config = make_config(amplifiers=(AmplifierConfig("shuffle"),))
        a = run_protocol(toy5, config).to_json(toy5)
        b = run_protocol(toy5, config).to_json(toy5)
        assert a == b

    def test_config_dict_round_trip(self):
        config = make_config(
            amplifiers=(AmplifierConfig("subsample", q=0.3), AmplifierConfig("kthreshold", k=2))
        )
        assert ProtocolConfig.from_dict(json.loads(json.dumps(config.to_dict()))) == config

    def test_numpy_integer_seed_is_echoed_as_an_int(self, toy5):
        # a numpy integer seed was rejected, while RngStream took it
        config = make_config(seed=np.int64(5))
        assert type(config.to_dict()["seed"]) is int
        assert run_protocol(toy5, config).to_json(toy5) == run_protocol(
            toy5, make_config(seed=5)).to_json(toy5)
        for seed in (True, 5.0, "5"):
            with pytest.raises(ConfigError, match="seed must be an integer"):
                make_config(seed=seed)

    def test_utility_improves_with_epsilon(self, toy5):
        # quick version of the monotonicity acceptance check
        wins = 0
        reps = 8
        for rep in range(reps):
            l1 = {}
            for eps in (0.5, 4.0):
                config = make_config(
                    n_users=20,
                    m_per_user=3,
                    seed=1000 + rep,
                    mechanism=MechanismConfig("baseline", eps),
                )
                l1[eps] = run_protocol(toy5, config).utility_l1
            if l1[4.0] < l1[0.5]:
                wins += 1
        assert wins >= reps - 2
