import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from privtext import EmbeddingStore, SensitivityProfile, build_profile, embeddings, sensitivity
from privtext.errors import ConfigError, SingletonVocabularyError
from privtext.sensitivity import profile_tsv

from conftest import count_passes, random_store
from oracles import (
    distance,
    local_by_cdist,
    local_sensitivity_t,
    prune_widths_by_count,
    smooth_by_cdist,
    smooth_sensitivity_by_balls,
)


class TestLocal:
    def test_nearest_neighbor_distance(self, toy3):
        # brute force: min(d(a,b)=5, d(a,c)=1) = 1
        assert build_profile(toy3, 0.0).per_word_local[0] == 1.0

    def test_duplicate_position_is_zero(self):
        store = EmbeddingStore.from_arrays(["a", "b"], [[1, 1], [1, 1]])
        assert build_profile(store, 0.0).per_word_local[0] == 0.0

    def test_singleton_rejected(self):
        store = EmbeddingStore.from_arrays(["a"], [[0, 0]])
        with pytest.raises(SingletonVocabularyError):
            build_profile(store, 0.0)


class TestLocalT:
    def test_tiny_t_gives_local(self, toy3):
        assert local_sensitivity_t(toy3, 0, 0.5) == build_profile(toy3, 0.0).per_word_local[0]

    def test_diameter_t_gives_global(self, toy3):
        diam = max(distance(toy3, i, j) for i in range(3) for j in range(3))
        assert local_sensitivity_t(toy3, 0, diam) == build_profile(toy3, 0.0).global_sensitivity

    def test_partial_ball(self, toy3):
        # t=1.5 around a covers {a, c}: max(local(a)=1, local(c)=1) = 1
        assert local_sensitivity_t(toy3, 0, 1.5) == 1.0

    def test_nondecreasing_in_t(self, toy3):
        ts = [0.5, 1.5, 3.0, 6.0]
        vals = [local_sensitivity_t(toy3, 0, t) for t in ts]
        assert vals == sorted(vals)


class TestSmooth:
    def test_beta_zero_is_global(self, toy3):
        profile = build_profile(toy3, 0.0)
        assert profile.per_word_smooth == pytest.approx([profile.global_sensitivity] * 3)

    def test_large_beta_is_local(self, toy3):
        profile = build_profile(toy3, 1e6)
        assert profile.per_word_smooth == pytest.approx(profile.per_word_local)

    def test_three_term_oracle(self, toy3):
        # locals: a->1, b->sqrt(18), c->1; at w=a, beta=1:
        # max(1*e^0, sqrt(18)*e^-5, 1*e^-1) = 1
        expected = max(
            1.0,
            math.sqrt(18) * math.exp(-5.0),
            1.0 * math.exp(-1.0),
        )
        assert build_profile(toy3, 1.0).per_word_smooth[0] == pytest.approx(expected)
        assert expected == 1.0

    def test_monotone_nonincreasing_in_beta(self, toy3):
        betas = [0.0, 0.5, 1.0, 3.0, 10.0]
        vals = [build_profile(toy3, b).per_word_smooth[0] for b in betas]
        assert vals == sorted(vals, reverse=True)

    def test_negative_beta_rejected(self, toy3):
        with pytest.raises(ConfigError):
            build_profile(toy3, -0.1)

    @pytest.mark.parametrize("beta", [True, "1"])
    def test_beta_must_be_a_real_number(self, toy3, beta):
        # True ran as beta = 1, and "1" ended in a bare TypeError
        with pytest.raises(ConfigError, match="beta"):
            build_profile(toy3, beta)


class TestProfile:
    def test_beta_zero_constant_equal_to_global(self, toy3):
        profile = build_profile(toy3, 0.0)
        # locals: a:1, b:sqrt(18) (nearest is c), c:1 -> global sqrt(18)
        assert profile.global_sensitivity == pytest.approx(math.sqrt(18))
        assert np.allclose(profile.per_word_smooth, math.sqrt(18))

    def test_matches_per_word_ops(self, toy3):
        # against the brute-force oracles: the radius-0 ball of a word
        # without duplicates holds only that word
        profile = build_profile(toy3, 1.3)
        for w in range(3):
            assert profile.per_word_local[w] == pytest.approx(local_sensitivity_t(toy3, w, 0.0))
            assert profile.per_word_smooth[w] == pytest.approx(
                smooth_sensitivity_by_balls(toy3, w, 1.3)
            )

    @pytest.mark.parametrize("local, smooth", [
        (["a", "b"], ["b", "c"]), ([True, False], [True, True]), (np.ones(2), np.ones(2, bool)),
    ])
    def test_vectors_take_numbers_only(self, local, smooth):
        with pytest.raises(ConfigError):
            SensitivityProfile(local, 1.0, smooth)

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

    def test_bad_profile_rejected(self):
        for local, smooth in (
            ([1.0, 2.0], [1.0, 1.0]),            # smooth below local
            ([1.0, 2.0], [1.0, float("nan")]),   # NaN smooth
            ([float("nan"), 2.0], [1.0, 2.0]),   # NaN local
            ([1.0, 2.0], [1.0, 2.0, 3.0]),       # lengths differ
            ([[1.0, 2.0]], [[1.0, 2.0]]),        # not vectors
            ([], []),
        ):
            with pytest.raises(ConfigError):
                SensitivityProfile(np.array(local), 1.0, np.array(smooth))

    def test_negative_beta_rejected(self):
        # accepted: the profile's beta had no lower bound
        with pytest.raises(ConfigError, match="beta must be >= 0"):
            SensitivityProfile(np.ones(3), -2.0, np.ones(3))

    def test_bad_profile_rejected_under_optimize(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        code = (
            "import numpy as np\n"
            "from privtext import SensitivityProfile\n"
            "from privtext.errors import ConfigError\n"
            "try:\n    SensitivityProfile(np.array([1.0, 1.0]), 1.0, np.array([1e-4, 1.0]))\n"
            "except ConfigError:\n    print('rejected')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src), timeout=120,
        )
        assert proc.stdout == "rejected\n", proc.stderr


def test_profile_tsv_format(toy3):
    text = profile_tsv(toy3, build_profile(toy3, 0.0))
    lines = text.strip().split("\n")
    assert lines[0] == "word\tlocal\tsmooth"
    assert len(lines) == 5
    assert lines[-1].startswith("#global ")
    assert float(lines[-1].split()[1]) == pytest.approx(math.sqrt(18))


def hard_vectors(kind: str) -> np.ndarray:
    """Stores on which rounding in GEMM-form distances decides near-ties."""
    gen = np.random.default_rng(23)
    base = gen.normal(size=(30, 4))
    if kind == "duplicates":
        base[10:20] = base[:10]
        return base
    if kind == "near_duplicates":
        base[10:20] = base[:10] + 1e-9 * gen.normal(size=(10, 4))
        return base
    if kind == "offset":
        return 1e6 + 1e-3 * base
    if kind == "pair":
        return base[:2]
    # clusters of spreads 0.05..1: at beta = 1 most words take their smooth
    # value from another word
    centers = gen.normal(scale=3.0, size=(6, 2))
    member = gen.integers(6, size=60)
    scales = np.exp(gen.uniform(np.log(0.05), 0.0, size=6))
    return centers[member] + scales[member, None] * gen.normal(size=(60, 2))


@pytest.mark.parametrize("budget", [1, 5, 100])
@pytest.mark.parametrize("beta", [0.0, 1.0, 1e6])
@pytest.mark.parametrize("kind", ["duplicates", "near_duplicates", "offset", "pair", "clusters"])
def test_blocked_pass_matches_cdist_oracles(monkeypatch, kind, beta, budget):
    monkeypatch.setattr(embeddings, "_NN_BLOCK_ENTRIES", budget)
    vecs = hard_vectors(kind)
    words = [f"w{i}" for i in range(len(vecs))]
    oracle = EmbeddingStore.from_arrays(words, vecs)
    local, smooth = local_by_cdist(oracle), smooth_by_cdist(oracle, beta)
    # the exact distances in blocks of one difference, and of the default;
    # a new store each time, as nn_distances is kept
    for exact_budget in (1, 2**15):
        monkeypatch.setattr(embeddings, "_EXACT_BLOCK_ENTRIES", exact_budget)
        store = EmbeddingStore.from_arrays(words, vecs)
        profile = build_profile(store, beta)
        assert np.array_equal(store.nn_distances, local)
        assert np.array_equal(profile.per_word_local, local)
        assert np.array_equal(profile.per_word_smooth, smooth)


def test_prune_keeps_a_winner_at_its_edge():
    # at beta = 0.23 word 1 (local 1) takes its smooth value from word 2:
    # 1.4 e^(-0.23 * 1.4) = 1.0145. The prune bound 1.4 e^(-0.23 * 1) = 1.112
    # clears 1 by 11%, so a prune half again as strict drops the winner
    store = EmbeddingStore.from_arrays(list("abcd"), [[-1.0], [0.0], [1.4], [2.8]])
    profile = build_profile(store, 0.23)
    assert profile.per_word_smooth[1] == pytest.approx(1.4 * math.exp(-0.23 * 1.4))
    assert np.array_equal(profile.per_word_smooth, smooth_by_cdist(store, 0.23))


@pytest.mark.parametrize("beta", [0.0, 0.7, 1e300])
@pytest.mark.parametrize("kind", ["duplicates", "ties", "clusters"])
def test_prune_widths_match_the_full_count(kind, beta):
    # duplicates have local 0 and so width |W|; a lattice ties every local
    # at 1; at beta = 1e300 e^(-beta local) underflows to 0 but for local 0
    if kind == "ties":
        vecs = np.stack(np.meshgrid(np.arange(5.0), np.arange(6.0)), axis=-1).reshape(-1, 2)
    else:
        vecs = hard_vectors(kind)
    store = EmbeddingStore.from_arrays([f"w{i}" for i in range(len(vecs))], vecs)
    local = store.nn_distances
    order, by_local, width = sensitivity._prune(local, beta)
    assert np.array_equal(width, prune_widths_by_count(local, beta))
    assert np.array_equal(by_local, local[order])
    assert np.array_equal(by_local, np.sort(local)[::-1])
    profile = build_profile(store, beta)
    assert np.array_equal(profile.per_word_local, local_by_cdist(store))
    assert np.array_equal(profile.per_word_smooth, smooth_by_cdist(store, beta))


def test_random_stores_match_cdist_oracles():
    gen = np.random.default_rng(41)
    for _ in range(60):
        n, dim = int(gen.integers(2, 40)), int(gen.integers(1, 6))
        vecs = gen.normal(size=(n, dim))
        vecs[gen.integers(0, n, n // 4)] = vecs[gen.integers(0, n, n // 4)]
        store = EmbeddingStore.from_arrays([f"w{i}" for i in range(n)], vecs)
        local = local_by_cdist(store)
        # betas around 1 / local, where words take their smooth value from others
        for beta in gen.uniform(0.0, 3.0, size=3) / max(np.median(local), 1e-3):
            profile = build_profile(store, beta)
            assert np.array_equal(profile.per_word_local, local)
            assert np.array_equal(profile.per_word_smooth, smooth_by_cdist(store, beta))


def test_profile_takes_one_pass_and_no_matrix(monkeypatch):
    # local comes from the store's nearest-neighbour pass; the smooth
    # envelope's pruned blocks are not a second pass over the vocabulary
    vecs = hard_vectors("clusters")
    store = EmbeddingStore.from_arrays([f"w{i}" for i in range(len(vecs))], vecs)
    calls = count_passes(monkeypatch)
    build_profile(store, 0.0)
    build_profile(store, 1.0)
    assert calls == [np.float64]


def test_profile_memory_is_below_the_distance_matrix():
    # the full cdist form holds three |W| x |W| float64 arrays at once
    n = 4000
    store = random_store(np.random.default_rng(31), n, 4)
    tracemalloc.start()
    try:
        build_profile(store, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8 / 2


def test_profile_copies_only_the_rows_its_prune_reaches():
    # at beta = 1 no term can beat a word's own local value here (distances
    # near 90), so the smooth envelope reads none of the vocabulary's rows
    store = random_store(np.random.default_rng(37), 300, 4000)
    store.nn_distances  # made and kept before the measurement
    tracemalloc.start()
    try:
        profile = build_profile(store, 1.0)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(profile.per_word_smooth, profile.per_word_local)
    assert peak - kept < store.vectors.nbytes / 4


def test_prune_allocates_no_block_of_pairs():
    # locals above 6 at d = 64: at beta = 1 no word's width is positive, and
    # a count over every (word, candidate) pair would build an 8 MiB product
    # block to learn that
    store = random_store(np.random.default_rng(43), 4000, 64)
    store.nn_distances  # made and kept before the measurement
    tracemalloc.start()
    try:
        profile = build_profile(store, 1.0)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not sensitivity._prune(profile.per_word_local, 1.0)[2].any()
    assert peak - kept < 2**20
