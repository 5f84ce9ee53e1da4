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


def count_passes(monkeypatch) -> list:
    """Record each EmbeddingStore.distance_blocks pass in the returned list;
    fail on any full distance matrix."""
    calls = []
    blocks = EmbeddingStore.distance_blocks

    def counting(self):
        calls.append(1)
        return blocks(self)

    def no_matrix(self):
        raise AssertionError("per-word geometry built the |W| x |W| matrix")

    monkeypatch.setattr(EmbeddingStore, "distance_blocks", counting)
    monkeypatch.setattr(EmbeddingStore, "pairwise_distances", no_matrix)
    return calls


class IdentityMechanism:
    """Deterministic stub: every word maps to itself."""

    def perturb_batch(self, rng, w, n):
        return np.full(n, int(w), dtype=np.int64)


class UniformMechanism:
    """Stub with a uniform output distribution over the vocabulary."""

    def __init__(self, n_words):
        self.n_words = n_words

    def perturb_batch(self, rng, w, n):
        return rng.gen.integers(0, self.n_words, size=n)
