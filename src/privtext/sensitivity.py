"""Data-dependent noise scales over the embedding vocabulary.

Local sensitivity of a word is taken as the distance to its nearest
distinct neighbor (the minimal data-dependent scale; this instantiation is
an interpretation, see README). The smooth bound exponentially relaxes the
local values across the metric so that nearby words get nearby scales.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddingStore
from .errors import ConfigError, SingletonVocabularyError


@dataclass(frozen=True)
class SensitivityProfile:
    per_word_local: np.ndarray  # (|W|,)
    beta: float
    per_word_smooth: np.ndarray  # (|W|,)
    global_sensitivity: float

    def __post_init__(self):
        assert np.all(self.per_word_smooth >= self.per_word_local - 1e-12)
        assert np.isclose(self.global_sensitivity, self.per_word_local.max())


def _require_multiword(store: EmbeddingStore):
    if len(store) < 2:
        raise SingletonVocabularyError("sensitivity needs at least 2 words")


def local_sensitivity(store: EmbeddingStore, w: int) -> float:
    """Distance from w to its nearest distinct neighbor."""
    _require_multiword(store)
    w = store.check_id(w)
    dists = np.linalg.norm(store.vectors - store.vectors[w], axis=1)
    dists[w] = np.inf
    return float(dists.min())


def smooth_sensitivity(store: EmbeddingStore, w: int, beta: float) -> float:
    """Smallest beta-smooth upper bound on local sensitivity, at word w.

    max over all words u of local(u) * exp(-beta * d(w, u)). At beta = 0
    this is the global sensitivity for every w; as beta grows it decays
    toward local(w).
    """
    _require_multiword(store)
    if beta < 0:
        raise ConfigError(f"beta must be >= 0, got {beta}")
    w = store.check_id(w)
    dists = np.linalg.norm(store.vectors - store.vectors[w], axis=1)
    local = store.nn_distances()
    return float(np.max(local * np.exp(-beta * dists)))


def global_sensitivity(store: EmbeddingStore) -> float:
    _require_multiword(store)
    return float(store.nn_distances().max())


def build_profile(store: EmbeddingStore, beta: float) -> SensitivityProfile:
    """Compute local, smooth, and global sensitivity for every word."""
    _require_multiword(store)
    if beta < 0:
        raise ConfigError(f"beta must be >= 0, got {beta}")
    d = store.pairwise_distances()
    np.fill_diagonal(d, np.inf)
    local = d.min(axis=1)
    np.fill_diagonal(d, 0.0)
    smooth = np.max(local[None, :] * np.exp(-beta * d), axis=1)
    return SensitivityProfile(
        per_word_local=local,
        beta=float(beta),
        per_word_smooth=smooth,
        global_sensitivity=float(local.max()),
    )


def profile_tsv(store: EmbeddingStore, profile: SensitivityProfile) -> str:
    """TSV dump: word, local, smooth per row, plus a trailing #global line."""
    lines = ["word\tlocal\tsmooth"]
    for i, word in enumerate(store.words):
        lines.append(
            f"{word}\t{profile.per_word_local[i]:.12g}\t{profile.per_word_smooth[i]:.12g}"
        )
    lines.append(f"#global {profile.global_sensitivity:.12g}")
    return "\n".join(lines) + "\n"
