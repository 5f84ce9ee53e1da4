import math

import numpy as np
import pytest

from privtext import (
    EmbeddingStore,
    build_profile,
    global_sensitivity,
    local_sensitivity,
    smooth_sensitivity,
)
from privtext.errors import ConfigError, SingletonVocabularyError
from privtext.sensitivity import profile_tsv

from conftest import random_store
from oracles import local_sensitivity_t, smooth_sensitivity_by_balls


class TestLocal:
    def test_nearest_neighbor_distance(self, toy3):
        # brute force: min(d(a,b)=5, d(a,c)=1) = 1
        assert local_sensitivity(toy3, 0) == 1.0

    def test_duplicate_position_is_zero(self):
        store = EmbeddingStore.from_arrays(["a", "b"], [[1, 1], [1, 1]])
        assert local_sensitivity(store, 0) == 0.0

    def test_singleton_rejected(self):
        store = EmbeddingStore.from_arrays(["a"], [[0, 0]])
        with pytest.raises(SingletonVocabularyError):
            local_sensitivity(store, 0)


class TestLocalT:
    def test_tiny_t_gives_local(self, toy3):
        assert local_sensitivity_t(toy3, 0, 0.5) == local_sensitivity(toy3, 0)

    def test_diameter_t_gives_global(self, toy3):
        diam = max(toy3.distance(i, j) for i in range(3) for j in range(3))
        assert local_sensitivity_t(toy3, 0, diam) == global_sensitivity(toy3)

    def test_partial_ball(self, toy3):
        # t=1.5 around a covers {a, c}: max(local(a)=1, local(c)=1) = 1
        assert local_sensitivity_t(toy3, 0, 1.5) == 1.0

    def test_nondecreasing_in_t(self, toy3):
        ts = [0.5, 1.5, 3.0, 6.0]
        vals = [local_sensitivity_t(toy3, 0, t) for t in ts]
        assert vals == sorted(vals)


class TestSmooth:
    def test_beta_zero_is_global(self, toy3):
        g = global_sensitivity(toy3)
        for w in range(3):
            assert smooth_sensitivity(toy3, w, 0.0) == pytest.approx(g)

    def test_large_beta_is_local(self, toy3):
        for w in range(3):
            assert smooth_sensitivity(toy3, w, 1e6) == pytest.approx(
                local_sensitivity(toy3, w)
            )

    def test_three_term_oracle(self, toy3):
        # locals: a->1, b->sqrt(18), c->1; at w=a, beta=1:
        # max(1*e^0, sqrt(18)*e^-5, 1*e^-1) = 1
        expected = max(
            1.0,
            math.sqrt(18) * math.exp(-5.0),
            1.0 * math.exp(-1.0),
        )
        assert smooth_sensitivity(toy3, 0, 1.0) == pytest.approx(expected)
        assert expected == 1.0

    def test_monotone_nonincreasing_in_beta(self, toy3):
        betas = [0.0, 0.5, 1.0, 3.0, 10.0]
        vals = [smooth_sensitivity(toy3, 0, b) for b in betas]
        assert vals == sorted(vals, reverse=True)

    def test_negative_beta_rejected(self, toy3):
        with pytest.raises(ConfigError):
            smooth_sensitivity(toy3, 0, -0.1)


class TestProfile:
    def test_beta_zero_constant_equal_to_global(self, toy3):
        profile = build_profile(toy3, 0.0)
        # locals: a:1, b:sqrt(18) (nearest is c), c:1 -> global sqrt(18)
        assert profile.global_sensitivity == pytest.approx(math.sqrt(18))
        assert np.allclose(profile.per_word_smooth, math.sqrt(18))

    def test_matches_per_word_ops(self, toy3):
        profile = build_profile(toy3, 1.3)
        for w in range(3):
            assert profile.per_word_local[w] == pytest.approx(local_sensitivity(toy3, w))
            assert profile.per_word_smooth[w] == pytest.approx(
                smooth_sensitivity(toy3, w, 1.3)
            )

    def test_smooth_dominates_local(self):
        gen = np.random.default_rng(5)
        for _ in range(10):
            store = random_store(gen, 30, 4)
            profile = build_profile(store, gen.uniform(0, 5))
            assert np.all(profile.per_word_smooth >= profile.per_word_local - 1e-12)

    def test_matches_ball_definition(self):
        # smooth(w) = max_t e^(-beta t) max{local(u) : d(w, u) <= t}
        gen = np.random.default_rng(17)
        for _ in range(5):
            store = random_store(gen, int(gen.integers(2, 12)), int(gen.integers(1, 4)))
            beta = float(gen.uniform(0, 5))
            profile = build_profile(store, beta)
            for w in range(len(store)):
                assert profile.per_word_smooth[w] == pytest.approx(
                    smooth_sensitivity_by_balls(store, w, beta), rel=1e-12
                )

    def test_smoothness_axiom(self):
        # property (2): smooth(w) <= e^(beta d(w,u)) smooth(u) for all pairs
        gen = np.random.default_rng(9)
        for _ in range(10):
            n = int(gen.integers(5, 60))
            store = random_store(gen, n, int(gen.integers(1, 6)))
            beta = float(gen.uniform(0, 5))
            profile = build_profile(store, beta)
            d = store.pairwise_distances()
            s = profile.per_word_smooth
            bound = np.exp(beta * d) * s[None, :]
            assert np.all(s[:, None] <= bound * (1 + 1e-9))

    def test_singleton_rejected(self):
        store = EmbeddingStore.from_arrays(["a"], [[0.0]])
        with pytest.raises(SingletonVocabularyError):
            build_profile(store, 0.0)


def test_profile_tsv_format(toy3):
    text = profile_tsv(toy3, build_profile(toy3, 0.0))
    lines = text.strip().split("\n")
    assert lines[0] == "word\tlocal\tsmooth"
    assert len(lines) == 5
    assert lines[-1].startswith("#global ")
    assert float(lines[-1].split()[1]) == pytest.approx(math.sqrt(18))
