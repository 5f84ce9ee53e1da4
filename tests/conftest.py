import numpy as np
import pytest

from privtext import EmbeddingStore, RngStream


@pytest.fixture
def toy3():
    # a=(0,0), b=(3,4), c=(0,1): the 3-4-5 triangle toy
    return EmbeddingStore.from_arrays(["a", "b", "c"], [[0, 0], [3, 4], [0, 1]])


@pytest.fixture
def toy5():
    # 5 words in the unit square, all pairwise distances <= sqrt(2)
    return EmbeddingStore.from_arrays(
        ["v", "w", "x", "y", "z"],
        [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.5, 0.5]],
    )


@pytest.fixture
def rng():
    return RngStream(12345)


def random_store(gen: np.random.Generator, n_words: int, dim: int) -> EmbeddingStore:
    words = [f"w{i}" for i in range(n_words)]
    return EmbeddingStore.from_arrays(words, gen.normal(size=(n_words, dim)))


def mixture_store(gen, n_words, dim, spread):
    """A Gaussian-mixture vocabulary: 50 centres drawn N(0, spread^2), each
    cluster's scale log-uniform in [spread / 10, spread]."""
    centres = gen.normal(scale=spread, size=(50, dim))
    scales = np.exp(gen.uniform(np.log(spread / 10), np.log(spread), size=50))
    member = gen.integers(50, size=n_words)
    vectors = centres[member] + scales[member, None] * gen.normal(size=(n_words, dim))
    return EmbeddingStore.from_arrays([f"w{i}" for i in range(n_words)], vectors)


def anisotropic_store(gen, n_words, dim, r):
    """Components of std i^(-1/2), i = 1..dim, about a common mean r times
    the typical norm (sqrt of the sum of the variances) in a random
    direction: the shape of real embedding spaces, which share a large
    common mean and a few dominant directions (Mu & Viswanath 2018,
    All-but-the-Top)."""
    std = np.arange(1, dim + 1) ** -0.5
    mean = gen.normal(size=dim)
    mean *= r * np.linalg.norm(std) / np.linalg.norm(mean)
    vectors = mean + std * gen.normal(size=(n_words, dim))
    return EmbeddingStore.from_arrays([f"w{i}" for i in range(n_words)], vectors)


def count_passes(monkeypatch) -> list:
    """Record the dtype of each EmbeddingStore._tile_pass (float64 for
    nn_distances, float32 for the median's screen) in the returned list;
    fail on any full distance matrix."""
    calls = []
    walk = EmbeddingStore._tile_pass

    def counting(self, form, dtype, fold):
        calls.append(np.dtype(dtype))
        return walk(self, form, dtype, fold)

    def no_matrix(self):
        raise AssertionError("per-word geometry built the |W| x |W| matrix")

    monkeypatch.setattr(EmbeddingStore, "_tile_pass", counting)
    monkeypatch.setattr(EmbeddingStore, "pairwise_distances", no_matrix)
    return calls


def identity_batch(self, rng, w, n):
    """A Mechanism.perturb_batch stub: every word maps to itself."""
    return np.full(n, int(w), dtype=np.int64)


def uniform_batch(self, rng, w, n):
    """A Mechanism.perturb_batch stub with a uniform output distribution
    over the vocabulary."""
    return rng.gen.integers(0, len(self.store), size=n)
