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
e^(-beta local(w)) >= local(w). It then takes
GEMM-form distances over the remaining (row, candidate) blocks, and
recomputes exactly, with cdist's sums (embeddings._pair_sq_distances),
only the terms whose rounding bounds leave them able to win. Every value
equals that of the full cdist form.
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
    """Compute local and smooth sensitivity for every word, in O(block x |W|)
    memory: local is the store's nn_distances, and the smooth envelope needs
    distances only where the sort-by-local prune leaves a term that could win."""
    if len(store) < 2:
        raise SingletonVocabularyError("sensitivity needs at least 2 words")
    require_nonnegative("beta", beta)
    n = len(store)
    budget = embeddings._NN_BLOCK_ENTRIES
    local = store.nn_distances
    # smooth(w) = max_u local(u) e^(-beta d(w, u)), whose u = w term is
    # local(w). Any other u lies at cdist distance >= local(w) from w, so its
    # term is at most local(u) * reach(w) (rounded products and np.exp are
    # monotone), and it can only win where that product reaches local(w).
    # Sorted by local, descending, those u are the first width(w) of order.
    order = np.argsort(-local, kind="stable")
    by_local = local[order]
    reach = np.exp(-beta * local)
    width = np.empty(n, dtype=np.int64)
    step = max(1, budget // n)
    for lo in range(0, n, step):
        hi = lo + step
        width[lo:hi] = np.count_nonzero(by_local * reach[lo:hi, None] >= local[lo:hi, None], axis=1)
    # only the first width.max() rows of order are ever read: copying all of
    # them made a |W| x d transient per profile (12 MB at |W| = 5000, d = 300)
    top = order[: width.max()]
    vecs, sq = store.vectors[top], store.sq_norms[top]
    smooth = local.copy()
    # the rows left, by width, in blocks of at most budget (rows x width) entries
    rows = np.argsort(width, kind="stable")
    rows = rows[width[rows] > 0]
    start = 0
    while start < len(rows):
        stop = start + 1
        while stop < len(rows) and (stop + 1 - start) * width[rows[stop]] <= budget:
            stop += 1
        block, k = rows[start:stop], width[rows[stop - 1]]
        start = stop
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
        for i in np.flatnonzero(keep.any(axis=1)):
            cand, w = np.flatnonzero(keep[i]), block[i]
            exact = _pair_sq_distances(store.vectors, vecs, np.broadcast_to(w, cand.shape), cand)
            smooth[w] = max(smooth[w], np.max(by_local[cand] * np.exp(-beta * np.sqrt(exact))))
    return SensitivityProfile(per_word_local=local, beta=float(beta), per_word_smooth=smooth)


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
