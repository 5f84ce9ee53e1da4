"""Data-dependent noise scales over the embedding vocabulary.

Local sensitivity of a word is taken as the distance to its nearest
distinct neighbor (the minimal data-dependent scale; this instantiation is
an interpretation, see README). The smooth bound exponentially relaxes the
local values across the metric so that nearby words get nearby scales.

Neither is computed from a |W| x |W| matrix. Local is the store's
nn_distances, one float64 walk of EmbeddingStore._tile_pass over the
square tiles on and above the diagonal, so each pair of words is formed
once. The smooth envelope first prunes by local alone: a word u != w
lies at least local(w) from w, so u can only win where local(u)
e^(-beta local(w)) >= local(w), on a prefix of the words by local
(descending) that a binary search finds. It then takes GEMM-form distances
over the remaining (row, candidate) blocks, and recomputes exactly, with
cdist's sums (embeddings._pair_sq_distances), only the terms whose
rounding bounds leave them able to win. Every value is the cdist form's.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import embeddings
from .embeddings import EmbeddingStore, _pair_sq_distances
from .errors import ConfigError, SingletonVocabularyError, _floats, require_nonnegative


@dataclass(frozen=True)
class SensitivityProfile:
    per_word_local: np.ndarray  # (|W|,)
    beta: float
    per_word_smooth: np.ndarray  # (|W|,)

    def __post_init__(self):
        local = _floats("per_word_local", self.per_word_local)
        smooth = _floats("per_word_smooth", self.per_word_smooth)
        if local.ndim != 1 or local.size == 0 or smooth.shape != local.shape:
            raise ConfigError(
                f"local and smooth sensitivities must be two non-empty vectors of one"
                f" length, got shapes {local.shape} and {smooth.shape}"
            )
        require_nonnegative("beta", self.beta)
        # written so that NaN fails the comparison
        if not np.all(smooth >= local - 1e-12):
            raise ConfigError("smooth sensitivity must be at least the local sensitivity")
        object.__setattr__(self, "per_word_local", local)
        object.__setattr__(self, "per_word_smooth", smooth)

    @property
    def global_sensitivity(self) -> float:
        return float(self.per_word_local.max())


def build_profile(store: EmbeddingStore, beta: float) -> SensitivityProfile:
    """Compute local and smooth sensitivity for every word, in O(|W|) memory
    plus one block of pairs: local is the store's nn_distances, and the smooth
    envelope needs distances only where the sort-by-local prune leaves a term."""
    if len(store) < 2:
        raise SingletonVocabularyError("sensitivity needs at least 2 words")
    require_nonnegative("beta", beta)
    budget = embeddings._NN_BLOCK_ENTRIES
    local = store.nn_distances
    order, by_local, width = _prune(local, beta)
    # only the first width.max() rows of order are ever read: copying all of
    # them made a |W| x d transient per profile (12 MB at |W| = 5000, d = 300)
    top = order[: width.max()]
    vecs, sq = store.vectors[top], store.sq_norms[top]
    smooth = local.copy()
    # the rows left, widest first, in blocks of at most budget entries or one row
    rows = np.argsort(-width, kind="stable")[: np.count_nonzero(width)]
    start = 0
    while start < len(rows):
        k = width[rows[start]]
        block = rows[start : start + max(1, budget // k)]
        start += len(block)
        # GEMM-form squared distances and their rounding bounds: a term whose
        # bounds lose to another's loses on exact distances too
        a_sq = store.sq_norms[block]
        s2 = embeddings._gemm_sq_distances(store.vectors[block], a_sq, vecs[:k], sq[:k])
        err = embeddings._sq_error_bound(a_sq[:, None], sq[:k], store.dim)
        # each term between its values at the largest and the smallest
        # distance the bounds allow
        floor = np.maximum(_terms(s2 + err, beta, by_local[:k]).max(axis=1), local[block])
        s2 -= err
        upper = _terms(s2, beta, by_local[:k])
        # a term whose upper value is below the row's best lower value cannot
        # be the maximum; if that best is 0, an upper value of 0 is a 0 term
        keep = upper >= floor[:, None]
        keep &= upper > 0.0
        i, cand = np.nonzero(keep)
        exact = _pair_sq_distances(store.vectors, vecs, block[i], cand)
        np.maximum.at(smooth, block[i], by_local[cand] * np.exp(-beta * np.sqrt(exact)))
    return SensitivityProfile(per_word_local=local, beta=float(beta), per_word_smooth=smooth)


def _prune(local, beta: float):
    """(order, local[order], width): the words by local, descending (stable),
    and the number of them, width(w), whose term in w's smooth envelope can
    beat local(w). A u != w lies at least local(w) from w, so its term is at
    most fl(local(u) * reach(w)), reach = e^(-beta local), which never rises
    along order: a rounded product is monotone."""
    order = np.argsort(-local, kind="stable")
    by_local = np.append(local[order], np.nan)  # a NaN past the end fails every test
    reach, n = np.exp(-beta * local), len(local)
    width = np.zeros(n, dtype=np.int64)
    # a binary search per word: each power of two, largest first, that keeps the test true
    for step in 2 ** np.arange(n.bit_length())[::-1]:
        width += np.where(by_local[np.minimum(width + step, n + 1) - 1] * reach >= local, step, 0)
    return order, by_local[:-1], width


def _terms(sq, beta: float, local) -> np.ndarray:
    """local * e^(-beta sqrt(sq)) for squared distances sq (negatives read as
    0), computed in sq."""
    np.maximum(sq, 0.0, out=sq)
    np.sqrt(sq, out=sq)
    sq *= -beta
    np.exp(sq, out=sq)
    sq *= local
    return sq


def profile_tsv(store: EmbeddingStore, profile: SensitivityProfile) -> str:
    """TSV dump: word, local, smooth per row, plus a trailing #global line."""
    lines = ["word\tlocal\tsmooth"]
    for i, word in enumerate(store.words):
        lines.append(f"{word}\t{profile.per_word_local[i]:.12g}\t{profile.per_word_smooth[i]:.12g}")
    lines.append(f"#global {profile.global_sensitivity:.12g}")
    return "\n".join(lines) + "\n"
