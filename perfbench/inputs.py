"""Seeded benchmark inputs: a Gaussian-mixture vocabulary and Zipf word draws.

The vocabulary is a mixture of clusters, each with its own spread, so word
density differs from place to place. That makes the nearest-neighbour
distance, the smooth sensitivity and the KDE prior differ from word to word,
as they do for real embeddings. Word ids double as frequency ranks: the
Zipf corpus of the pipeline and of the CLI input lines favours low ids, and
the cluster assignment is random, so frequent words are spread over
clusters.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


N_CLUSTERS = 50


@dataclass(frozen=True)
class VocabSpec:
    n_words: int
    dim: int
    # cluster centres ~ N(0, spread^2); cluster std log-uniform in [spread/10, spread]
    spread: float = 1.0

    @property
    def vocab_bytes(self) -> int:
        return self.n_words * self.dim * 8


def make_vocabulary(spec: VocabSpec, gen: np.random.Generator) -> tuple[list[str], np.ndarray]:
    centers = gen.normal(scale=spec.spread, size=(N_CLUSTERS, spec.dim))
    scales = np.exp(gen.uniform(np.log(spec.spread / 10), np.log(spec.spread), size=N_CLUSTERS))
    member = gen.integers(N_CLUSTERS, size=spec.n_words)
    vectors = centers[member] + scales[member, None] * gen.normal(size=(spec.n_words, spec.dim))
    return [f"w{i:05d}" for i in range(spec.n_words)], vectors


def zipf_ids(gen: np.random.Generator, n_words: int, s: float, size) -> np.ndarray:
    """Word ids drawn with probability proportional to (id + 1) ** -s."""
    probs = np.arange(1, n_words + 1, dtype=np.float64) ** (-s)
    probs /= probs.sum()
    return gen.choice(n_words, size=size, p=probs)


def write_text_embeddings(path, words, vectors) -> None:
    """Text format read by privtext.load_embeddings: '<count> <dim>' header,
    then one 'word v1 ... vd' line per word."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(words)} {vectors.shape[1]}\n")
        for word, row in zip(words, vectors):
            fh.write(word + " " + " ".join(f"{x:.6f}" for x in row) + "\n")
