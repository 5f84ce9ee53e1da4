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

    def __post_init__(self):
        local = np.asarray(self.per_word_local, dtype=np.float64)
        smooth = np.asarray(self.per_word_smooth, dtype=np.float64)
        if local.ndim != 1 or local.size == 0 or smooth.shape != local.shape:
            raise ConfigError(
                f"local and smooth sensitivities must be two non-empty vectors of one"
                f" length, got shapes {local.shape} and {smooth.shape}"
            )
        # written so that NaN fails the comparison
        if not np.all(smooth >= local - 1e-12):
            raise ConfigError("smooth sensitivity must be at least the local sensitivity")
        object.__setattr__(self, "per_word_local", local)
        object.__setattr__(self, "per_word_smooth", smooth)

    @property
    def global_sensitivity(self) -> float:
        return float(self.per_word_local.max())


def build_profile(store: EmbeddingStore, beta: float) -> SensitivityProfile:
    """Compute local and smooth sensitivity for every word."""
    if len(store) < 2:
        raise SingletonVocabularyError("sensitivity needs at least 2 words")
    if beta < 0:
        raise ConfigError(f"beta must be >= 0, got {beta}")
    d = store.pairwise_distances()
    np.fill_diagonal(d, np.inf)
    local = d.min(axis=1)
    np.fill_diagonal(d, 0.0)
    smooth = np.max(local[None, :] * np.exp(-beta * d), axis=1)
    return SensitivityProfile(per_word_local=local, beta=float(beta), per_word_smooth=smooth)


def profile_tsv(store: EmbeddingStore, profile: SensitivityProfile) -> str:
    """TSV dump: word, local, smooth per row, plus a trailing #global line."""
    lines = ["word\tlocal\tsmooth"]
    for i, word in enumerate(store.words):
        lines.append(
            f"{word}\t{profile.per_word_local[i]:.12g}\t{profile.per_word_smooth[i]:.12g}"
        )
    lines.append(f"#global {profile.global_sensitivity:.12g}")
    return "\n".join(lines) + "\n"
