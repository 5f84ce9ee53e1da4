"""Word embedding store: vocabulary <-> id <-> vector with Euclidean geometry.

The store is immutable after construction and is the metric space every
mechanism in this package operates on. Nearest-neighbor queries are exact
brute force; ties always break toward the lowest word id so that repeated
runs are bit-identical. Every distance that decides a query is summed as
scipy's cdist sums it, bit for bit, by _pair_sq_distances. Every nearest
word, a decoded point's or a word's nearest other, comes from one
screened decode (_nearest) on the float32 screen, centred on the store's
mean, and _argmin_exact decides what its rounding bounds leave open. The
same screen serves the sigma default's walk (median_nn_distance) and the
density prior's KDE (_log_kde, with _canonical_log_kde as its BLAS-free
reference); every screened point row comes from _screen_points. Only the
whole-row and |W| x |W| queries (distance_rows, pairwise_distances) call
cdist itself, and import SciPy when they run.
"""
from __future__ import annotations

import io
import itertools
import math
import os
import sys
import tempfile
import zipfile
import zlib
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatchError, DuplicateWordError, EmbeddingFormatError, EmptyVocabularyError,
    InvalidWordIdError, NonFiniteComponentError, _floats, require_count, require_points,
    require_word_ids,
)

CACHE_MAGIC = "privtext-embeddings-v2"

# entries in one (rows x candidates) block: 8 MiB of float64, or 4 MiB of
# the float32 decode screen
_NN_BLOCK_ENTRIES = 2**20
# differences in one block of _pair_sq_distances: 256 KiB (an eighth of
# it in _round_scaled, so that building the screen holds little beside it)
_EXACT_BLOCK_ENTRIES = 2**15
# unit roundoff and smallest subnormal of float64 and of float32, for
# _sq_error_bound
_U = float(np.finfo(np.float64).eps) / 2
_ETA = float(np.finfo(np.float64).smallest_subnormal)
_U32 = float(np.finfo(np.float32).eps) / 2
_ETA32 = float(np.finfo(np.float32).smallest_subnormal)


class _Screen(NamedTuple):
    """The float32 copy of a store that the decode, the sigma walk and the
    density KDE screen with, one augmented array [v^; upper; 1] so that a
    GEMM against it forms a whole screened quantity, norms and constants
    included. It is centred: v^ is v - mean, scaled and rounded, and every
    point is screened as p - mean, so distances, which the centring leaves
    alone, are screened at the vocabulary's own spread wherever it sits.
    The error bound of a pair splits into the vector's part, reach =
    _sq_error_bound(||v^||^2, 0, d, _U32, 0), and the point's."""

    # (d + 2, |W|) float32, C-contiguous, read-only: the vectors less mean,
    # times scale, transposed, then upper = ||vectors||^2 + reach, then ones
    aug: np.ndarray
    spread: np.ndarray  # (|W|,) float32 2 reach, read-only
    mean: np.ndarray  # (d,) float64 mean of the store's vectors, read-only
    scale: float  # the power of two that brings max |v - mean| into [0.5, 1)
    eta: float  # the absolute term of the screen's _sq_error_bound
    limit: float  # a scaled point with a larger ||p^||^2 is not screened

    @property
    def upper(self) -> np.ndarray:
        """(|W|,): ||vectors||^2 + reach, a view of aug."""
        return self.aug[-2]


@dataclass(frozen=True)
class EmbeddingStore:
    words: tuple[str, ...]
    vectors: np.ndarray  # (|W|, d) float64, read-only
    dim: int
    sq_norms: np.ndarray = field(repr=False, compare=False)  # (|W|,) ||v||^2, read-only
    _word_to_id: dict[str, int] = field(repr=False, compare=False, default_factory=dict)

    @classmethod
    def from_arrays(cls, words, vectors) -> "EmbeddingStore":
        """A store over words and their (|W|, d) vectors, which must hold
        numbers only (errors._floats). The store holds its own read-only
        C-contiguous float64 copy of vectors, made in one conversion, so the
        caller may still write to its array."""
        arr = _floats("vectors", vectors)
        # _floats made a new array of a list or of any other dtype: copy only the caller's
        return cls._adopt(words, arr if arr.flags.owndata and arr is not vectors
                          else np.array(arr, order="C"))

    @classmethod
    def _adopt(cls, words, vectors) -> "EmbeddingStore":
        """A store that takes vectors over: the loaders' path, for an array
        they have just made and no one else writes. A C-contiguous float64
        array is kept without a copy and marked read-only; any other is
        converted once. Every word must be text that UTF-8 can write: a
        lone surrogate (which a cache's words can hold) is refused."""
        words = tuple(words)
        if len(words) == 0:
            raise EmptyVocabularyError("vocabulary is empty")
        word_to_id = {w: i for i, w in enumerate(words)}
        if len(word_to_id) != len(words):
            bad = next(w for i, w in enumerate(words) if word_to_id[w] != i)
            raise DuplicateWordError(f"duplicate word {bad!r}")
        try:
            "".join(words).encode("utf-8")
        except UnicodeEncodeError as exc:
            bad = words[np.searchsorted(np.cumsum([len(w) for w in words]), exc.start, "right")]
            raise EmbeddingFormatError(f"word {bad!r} is not UTF-8 text ({exc.reason})") from None
        vectors = np.ascontiguousarray(vectors, dtype=np.float64)
        if vectors.ndim != 2 or vectors.shape[0] != len(words) or vectors.shape[1] == 0:
            raise DimensionMismatchError(
                f"expected ({len(words)}, d) vector array with d >= 1, got shape {vectors.shape}"
            )
        if not np.isfinite(vectors).all():
            bad = words[np.argmin(np.isfinite(vectors).all(axis=1))]
            raise NonFiniteComponentError(f"the vector of word {bad!r} holds NaN or Inf")
        # every squared distance is at most 4 max ||v||^2: if that overflows,
        # distances, sensitivities and decodes turn into Inf and NaN
        sq_norms = np.einsum("ij,ij->i", vectors, vectors)
        if not sq_norms.max() <= np.finfo(np.float64).max / 4:
            raise NonFiniteComponentError("embedding is so large that its distances overflow")
        vectors.setflags(write=False)
        sq_norms.setflags(write=False)
        return cls(
            words=words,
            vectors=vectors,
            dim=vectors.shape[1],
            sq_norms=sq_norms,
            _word_to_id=word_to_id,
        )

    def __len__(self) -> int:
        return len(self.words)

    def word_id(self, word: str) -> int:
        try:
            return self._word_to_id[word]
        except KeyError:
            raise InvalidWordIdError(f"unknown word {word!r}") from None

    def has_word(self, word: str) -> bool:
        return word in self._word_to_id

    def check_id(self, w: int) -> int:
        """w as an int, or InvalidWordIdError: w must be an int or a numpy
        integer (not a bool, a float or a string) in [0, |W|)."""
        n = len(self.words)
        if isinstance(w, bool) or not isinstance(w, (int, np.integer)) or not 0 <= w < n:
            raise InvalidWordIdError(f"a word id must be an integer in [0, {n}), got {w!r}")
        return int(w)

    def vector(self, w: int) -> np.ndarray:
        return self.vectors[self.check_id(w)]

    def nearest_words(self, points, candidate_ids=None) -> np.ndarray:
        """Nearest vocabulary word to each row of a (n, d) array of points:
        the argmin of the exact (cdist) distance from the point, ties broken
        toward the lowest id.

        candidate_ids optionally restricts the argmin to a non-empty set of
        word ids (integers in [0, |W|); repeats are harmless). The decode is
        _nearest's, on the centred float32 screen.
        """
        points = require_points("points", points, self.dim)
        ids = None if candidate_ids is None else self._candidate_ids(candidate_ids)
        return self._nearest(points, ids)

    def _nearest(self, points, ids=None, words=None) -> np.ndarray:
        """The one screened decode: for each row of the (n, d) float64
        points, the id of its nearest word among the candidates ids (sorted
        word ids; every word if None) by exact (cdist) distance, the lowest
        id on a tie. With words given (points the store's vectors, ids
        None), the rows are those words' vectors, each with its own column
        masked: each word's nearest other word.

        Every (row, candidate) pair is screened in float32, on the
        vocabulary-major copy that _screen makes on the first call, by one
        plain (rows x (d + 1)) @ ((d + 1) x candidates) GEMM against the
        screen's vectors and upper; _argmin_exact decides the rows that the
        screen cannot, on exact distances: those where another candidate's
        lower bound reaches the least upper bound, over the candidates that
        reach it, and those too far out to screen, over every candidate."""
        screen, d, keep = self._screen, self.dim, slice(None) if ids is None else ids
        cand, spread = screen.aug[:-1, keep], screen.spread[keep]
        out = np.empty(len(points) if words is None else len(words), dtype=np.int64)
        block_rows = max(1, _NN_BLOCK_ENTRIES // cand.shape[1])
        for lo in range(0, len(out), block_rows):
            at = slice(lo, lo + block_rows) if words is None else words[lo : lo + block_rows]
            block = points[at]
            # hi = [-2 p^, 1] @ [c; upper] = ||c||^2 + reach - 2 c.p in
            # float32 stands for the scaled D - ||p^||^2, D the exact squared
            # distance (cdist's sum), within the candidate's reach plus the
            # point's err (see _sq_error_bound): hi + err lies above it and
            # hi - spread - err below. A row past the screen's limit (err
            # Inf) is decided exactly over every candidate but a masked one.
            a, _, err = self._screen_points(block, d + 1)
            # an infinite bound (upper and spread Inf) raises invalid-value
            # flags in the GEMM and makes Inf - Inf ends: NaN, which no test
            # of _argmin_exact passes, so the row is decided exactly
            with np.errstate(invalid="ignore"):
                out[lo : lo + len(block)] = _argmin_exact(
                    block, self.vectors, ids, a @ cand, spread, err,
                    None if words is None else at)
        return out if ids is None else ids[out]

    def _screen_points(self, points, width):
        """(a, p_sq, err) for the (rows, d) float64 points, the only place
        a point's screen row is built: a new (rows, width) float32 array
        whose first d + 1 columns hold each point's row [-2 p^, 1], p^ the
        point centred, scaled and rounded as the screen's vectors are
        (_round_scaled), the rest left for the caller to fill; the float64
        sums p_sq = ||p^||^2; and the point's part of the screen's bound,
        err = _sq_error_bound(p_sq, 0, d, _U32, screen.eta). Doubling p^ is
        exact, so the row against the screen's [v^; upper] is the decode's
        screened distance, and times kappa' the KDE's log kernel. A row past
        the screen's limit, Inf included, is screened as the origin with
        p_sq and err Inf: beyond it the screen could overflow float32, or
        the exact sums float64."""
        screen, d = self._screen, self.dim
        a = np.empty((points.shape[0], width), dtype=np.float32)
        p32 = a[:, :d]
        _round_scaled(points, screen.mean, screen.scale, p32)
        p_sq = np.einsum("ij,ij->i", p32, p32, dtype=np.float64)
        far = ~(p_sq <= screen.limit)
        if far.any():
            p32[far] = 0.0
            p_sq[far] = np.inf
        p32 *= -2.0
        a[:, d] = 1.0
        return a, p_sq, _sq_error_bound(p_sq, 0.0, d, _U32, screen.eta)

    def _log_kde(self, points, sigma: float):
        """(values, bounds): the log of the unnormalized RBF kernel density
        over the vocabulary at each row of a (n, d) float64 array of points
        (the density chain's, not checked again), scored on the float32
        screen, and a bound on each value's distance from
        _canonical_log_kde's. _gemm_log_kde scores the rows in blocks of
        _NN_BLOCK_ENTRIES // |W| (at least one), so its float32 kernels stay
        within one decode block however many rows there are. A row whose
        kernels all lie within u32 of 1 takes a closed form instead. A row
        the pass cannot bound (past the screen's limit, or so far out that
        the scaled kernels could overflow float32) has value 0 and bound
        Inf."""
        screen, n_words = self._screen, len(self.words)
        with np.errstate(over="ignore"):
            # the log kernel of a scaled squared distance s^2 q is kappa s^2 q
            kappa = float(np.float64(1.0) / -(2.0 * sigma**2) / screen.scale / screen.scale)
        # ||p^||^2 <= lim keeps every term of a row's dot product, and every
        # partial sum, under 2^100 (2 d + 3), within float32; a kappa outside
        # float32's normal range sends no row through the GEMM
        lim = (min(screen.limit, 2.0**100 / abs(kappa)) if 2.0**-100 <= abs(kappa) <= 2.0**100
               else -1.0)
        a, p_sq, err = self._screen_points(points, self.dim + 2)
        values, bounds = np.zeros(len(points)), np.full(len(points), np.inf)
        # q_top bounds the scaled squared distance from the row to every word:
        # (||p|| + ||v||)^2 <= 2 (||p||^2 + ||v||^2), with the rounding of p^,
        # of upper and of cdist's sum inside the factor 1 + 2^-20 (d < 2^16)
        q_top = p_sq + float(screen.upper.max())
        q_top *= 2.0 * (1 + 2.0**-20)
        with np.errstate(invalid="ignore"):
            flat = abs(kappa) * q_top <= _U32
        # Every log kernel of a flat row lies in [kappa q_top, 0] (kappa within
        # a relative u of 1 / (s^2 den), or 0 where that underflows, and then
        # below 2^-900 in size), so its log-KDE lies in [log N + kappa q_top,
        # log N]: the midpoint is within |kappa| q_top / 2 <= u32 / 2 of it,
        # below the GEMM path's floor of 75 u32. The float64 roundings of both
        # values, c u (log N + 1) for c < 64, take the last term.
        values[flat] = math.log(n_words) + kappa * q_top[flat] / 2
        bounds[flat] = (abs(kappa) * q_top[flat] / 2 * (1 + 2.0**-20)
                        + 64 * _U * (math.log(n_words) + 1))
        rows = np.flatnonzero((p_sq <= lim) & ~flat)
        step = max(1, _NN_BLOCK_ENTRIES // n_words)
        for lo in range(0, rows.size, step):
            at = rows[lo : lo + step]
            values[at], bounds[at] = _gemm_log_kde(screen, a[at], p_sq[at], err[at], kappa)
        return values, bounds

    def _canonical_log_kde(self, point, sigma: float) -> float:
        """The log-KDE at one point (d,) by a path that no BLAS kernel
        enters: the squared distances _pair_sq_distances sums (cdist's), each
        divided by -(2 sigma^2), and the exponentials, shifted by their
        maximum, added by math.fsum."""
        n = len(self.words)
        sq = _pair_sq_distances(point[None, :], self.vectors, np.broadcast_to(0, (n,)),
                                np.arange(n))
        with np.errstate(invalid="ignore"):
            sq /= -(2.0 * sigma**2)
            mx = sq.max()
            return math.log(math.fsum(np.exp(sq - mx))) + mx

    def _candidate_ids(self, candidate_ids) -> np.ndarray:
        """candidate_ids as sorted int64 word ids, or InvalidWordIdError."""
        ids = np.asarray(candidate_ids)
        if ids.ndim != 1 or ids.size == 0:
            raise InvalidWordIdError(
                f"candidate ids must be a non-empty 1-D list, got shape {ids.shape}"
            )
        return np.sort(require_word_ids(ids, len(self.words)))

    @cached_property
    def _screen(self) -> _Screen:
        """The float32 copy that every decode screens with, made on the
        first and kept for the store's lifetime: the vectors less their
        mean, scaled and rounded once each (_round_scaled), built a block of
        words at a time with no float64 copy of the vocabulary.

        The copy is stored vocabulary-major, (d + 2, |W|) and C-contiguous,
        so each decode is one plain GEMM against it. Against a (|W|, d) copy
        the GEMM takes its operand transposed, and for a few rows OpenBLAS's
        sgemm then re-reads and packs the whole copy on every call."""
        v, d, mean = self.vectors, self.dim, self.vectors.mean(axis=0)
        # rounding is monotone: the extreme components round to the extreme
        # differences
        top = max(float((v.max(axis=0) - mean).max()), float((mean - v.min(axis=0)).max()))
        # a store below 2^-1022 is clamped to that scale (2^-exp must stay
        # finite); the exact sums underflow there, and eta sends every row
        # to them
        exp = max(math.frexp(top)[1], -1022)
        scale = math.ldexp(1.0, -exp)
        aug = np.empty((d + 2, len(self.words)), dtype=np.float32)
        vectors = aug[:d]
        _round_scaled(v, mean, scale, vectors.T)
        sq_norms = np.einsum("ji,ji->i", vectors, vectors)
        reach = _sq_error_bound(sq_norms.astype(np.float64), 0.0, d, _U32, 0.0)
        aug[d] = sq_norms + reach
        aug[d + 1] = 1.0
        spread = (2.0 * reach).astype(np.float32)
        for arr in (aug, spread, mean):
            arr.setflags(write=False)
        return _Screen(
            aug, spread, mean, scale,
            # the exact sums' subnormal step in the screen's units is
            # _ETA * scale^2
            eta=max(_ETA32, math.ldexp(_ETA, -2 * exp)),
            # ||p^||^2 <= 2^100 keeps every float32 dot product finite (the
            # vectors' components are at most 1). Unscaled, ||p - mean||^2 +
            # ||v - mean||^2 <= 2^1020 (upper bounds ||v^||^2) keeps every
            # exact sum to a vector of the store, at most twice that, finite.
            limit=math.ldexp(1.0, min(100, 1020 - 2 * exp)) - float(aug[d].max()),
        )

    def distance_row(self, w: int) -> np.ndarray:
        """A new (|W|,) array of w's distance to every word: distance_rows' one row."""
        return self.distance_rows([self.check_id(w)])[0]

    def distance_rows(self, ids) -> np.ndarray:
        """A new (len(ids), |W|) array of the distance from each word of ids
        (1-D word ids) to every word, by cdist. Whole rows are where cdist
        outruns _pair_sq_distances, so SciPy is imported here."""
        from scipy.spatial.distance import cdist

        return cdist(self.vectors[require_word_ids(ids, len(self.words))], self.vectors)

    def k_nearest(self, w: int, k: int) -> np.ndarray:
        """Ids of the k closest other vocabulary words to w, sorted by
        (distance, id) of distance_row(w). A k that is no integer is a
        ConfigError; an integer k outside [1, |W| - 1], an InvalidWordIdError."""
        w, k, n = self.check_id(w), require_count("k", k, minimum=None), len(self.words)
        if not 1 <= k <= n - 1:
            raise InvalidWordIdError(f"k={k} out of range [1, {n - 1}]")
        dists = self.distance_row(w)
        dists[w] = np.inf
        return np.argsort(dists, kind="stable")[:k]

    def pairwise_distances(self) -> np.ndarray:
        """Full |W| x |W| Euclidean distance matrix, by cdist. Only
        verify_metric_dp holds it, and imports SciPy for it; the attack
        takes its rows a block at a time from distance_rows, and per-word
        geometry comes from _tile_pass."""
        from scipy.spatial.distance import cdist

        return cdist(self.vectors, self.vectors)

    def median_nn_distance(self) -> float:
        """Median distance to the nearest distinct neighbor (the density
        sigma default): float(np.median(nn_distances)) bit for bit, and 0
        for a one-word vocabulary, with no nn_distances computed.

        One _tile_pass forms each tile by one float32 GEMM of the rows'
        [-2 v^_i, 1, upper_i] against the screen's [v^_j; upper_j; 1] and
        keeps each word's least entry m. The word's scaled least squared
        distance lies in [m - spread_w - S - E, m + E], S the largest spread
        and E the screen's absolute error term (see _sq_error_bound).
        np.median reads the ranks n // 2 and, for even n, n // 2 - 1; only
        the words whose interval can hold one of them take their nearest
        other word from the screened decode (_nearest) and its exact
        distance, and np.median of those values at those ranks is the
        result. The screen is centred, so a store far from the origin
        refines as few words as the same store at it. The pass holds one
        float32 tile and O(|W| d) float32."""
        n = len(self.words)
        if n == 1:
            return 0.0
        screen, d = self._screen, self.dim
        least = np.full(n, np.inf, dtype=np.float32)

        def form(rows, cols, out):
            block = screen.aug[:, rows]
            a = np.empty((block.shape[1], d + 2), dtype=np.float32)
            np.multiply(block[:d].T, -2.0, out=a[:, :d])
            a[:, d] = 1.0
            a[:, d + 1] = block[d]
            np.matmul(a, screen.aug[:, cols], out=out)

        def fold(words, _, tile, axis):
            np.minimum(least[words], tile.min(axis=axis), out=least[words])

        e = _sq_error_bound(0.0, 0.0, d, _U32, screen.eta)
        # an infinite bound (upper and spread Inf) raises invalid-value flags
        # in the GEMMs and makes Inf - Inf ends: NaN, which are refined below
        with np.errstate(invalid="ignore"):
            self._tile_pass(form, np.float32, fold)
            least = least.astype(np.float64)
            upper = least + e
            lower = least - screen.spread
            lower -= float(screen.spread.max()) + e
        k = n // 2
        first = k - 1 if n % 2 == 0 else k
        # a word whose upper end lies below the first rank's least possible
        # value is certainly below it, one whose lower end lies above the
        # last rank's greatest possible value certainly above it; a NaN end
        # (an infinite bound) is neither, and its word is refined
        below = upper < np.partition(lower, first)[first]
        ws = np.flatnonzero(~below & ~(lower > np.partition(upper, k)[k]))
        v = self.vectors
        exact = np.sort(np.sqrt(_pair_sq_distances(v, v, ws, self._nearest(v, words=ws))))
        skip = np.count_nonzero(below)
        return float(np.median(exact[first - skip : k - skip + 1]))

    def mean_nn_distance(self) -> float:
        """Mean nearest-distinct-neighbor distance. The library no longer
        calls it; perfbench's embeddings.nn_distance span still wraps it."""
        return float(np.mean(self.nn_distances))

    @cached_property
    def nn_distances(self) -> np.ndarray:
        """Per-word distance to the nearest distinct neighbor, read-only:
        made on first use and kept for the store's lifetime; zeros(1) for a
        one-word vocabulary. Each value is cdist's, the row minimum of
        pairwise_distances with the diagonal masked. The working memory is
        one float64 tile plus O(|W|).

        One _tile_pass forms each tile in _gemm_sq_distances' order and
        keeps per word the least value, a partner holding it and the least
        of the rest (_fold_least). Every pair of word w is within e(w) =
        _sq_error_bound(||w||^2, max ||v||^2) of its exact sum, so when the
        runner-up lies more than 2 e(w) above the least, that partner is the
        only exact minimizer. The other words (duplicates, near-ties, stores
        far from the origin) take their partner from the screened decode
        (_nearest), whose screen is made only if there is such a word. Each
        value is then the exact distance of the word and its partner
        (_pair_sq_distances)."""
        n = len(self.words)
        d = np.zeros(1)
        if n > 1:
            v, sq = self.vectors, self.sq_norms
            nearest = least, partner, runner_up = (
                np.full(n, np.inf), np.zeros(n, dtype=np.int64), np.full(n, np.inf))
            self._tile_pass(lambda r, c, out: _gemm_sq_distances(v[r], sq[r], v[c], sq[c], out),
                            np.float64, partial(_fold_least, *nearest))
            ceiling = least + 2.0 * _sq_error_bound(sq, sq.max(), self.dim)
            rest = np.flatnonzero(runner_up <= ceiling)
            if rest.size:
                partner[rest] = self._nearest(v, words=rest)
            d = np.sqrt(_pair_sq_distances(v, v, np.arange(n), partner))
        d.setflags(write=False)
        return d

    def _tile_pass(self, form, dtype, fold):
        """One walk over the unordered pairs of the vocabulary, by square
        tiles of side min(|W|, isqrt(_NN_BLOCK_ENTRIES)) on and above the
        diagonal, so each pair off the diagonal tiles is formed once.
        form(rows, cols, out) writes the tile of words rows x cols into out,
        a view of one dtype buffer kept for the whole pass. The walk sets a
        diagonal tile's diagonal to Inf and calls fold(rows, cols.start,
        tile, 1) and, off the diagonal, fold(cols, rows.start, tile, 0)."""
        n = len(self.words)
        side = min(n, max(1, math.isqrt(_NN_BLOCK_ENTRIES)))
        buf = np.empty(side * side, dtype=dtype)
        for i in range(0, n, side):
            rows = slice(i, min(i + side, n))
            for j in range(i, n, side):
                cols = slice(j, min(j + side, n))
                tile = buf[: (rows.stop - i) * (cols.stop - j)].reshape(rows.stop - i, -1)
                form(rows, cols, tile)
                if i == j:
                    np.fill_diagonal(tile, np.inf)
                fold(rows, j, tile, 1)
                if i != j:
                    fold(cols, i, tile, 0)


def _npy_view(buf: bytes) -> np.ndarray:
    """The array held in the .npy bytes buf, as a read-only view of buf.

    np.load's reader copies into a new array through 256 KiB bytes chunks;
    the view allocates nothing beyond buf, so a load leaves no freed chunks
    for malloc to hand back to the system and fault in again on the next
    load. Object arrays are refused, so nothing is unpickled."""
    fh = io.BytesIO(buf)
    version = np.lib.format.read_magic(fh)
    if version == (1, 0):
        shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(fh)
    else:
        shape, fortran_order, dtype = np.lib.format.read_array_header_2_0(fh)
    if dtype.hasobject:
        raise ValueError("object arrays are not read")
    # raises on a negative dimension or a buffer too short for the shape
    return np.ndarray(shape, dtype=dtype, buffer=buf, offset=fh.tell(),
                      order="F" if fortran_order else "C")


def _gemm_sq_distances(a, a_sq, b, b_sq, out=None):
    """s2[i, j] = ||a_i||^2 - 2 a_i.b_j + ||b_j||^2, built in place (in out,
    if given) in one fixed operation order, the one _sq_error_bound is
    derived for."""
    s2 = np.matmul(a, b.T, out=out)
    s2 *= -2.0
    s2 += b_sq
    s2 += a_sq[:, None]
    return s2


def _round_scaled(x, mean, scale, out) -> None:
    """out = fl32(scale fl64(x - mean)) for the rows of x, in blocks of
    _EXACT_BLOCK_ENTRIES / 8 entries: each difference rounded once in
    float64, scaled by a power of two (exact, short of float64's
    subnormals) and rounded once to float32. A value too large for float32,
    or a difference too large for float64, comes out as Inf."""
    step = max(1, _EXACT_BLOCK_ENTRIES // 8 // x.shape[1])
    with np.errstate(over="ignore"):
        for lo in range(0, len(x), step):
            np.multiply(np.subtract(x[lo : lo + step], mean), scale, out=out[lo : lo + step],
                        casting="same_kind")


def _sq_error_bound(a_sq, b_sq, dim, u=_U, eta=_ETA):
    """4 (dim + 4) (u (a_sq + b_sq) + eta), broadcast: a bound on |s2 - q|
    for GEMM-form s2 of two points with squared norms a_sq and b_sq, q the
    squared distance that cdist (and _pair_sq_distances, in its order)
    sums for the pair, u the unit roundoff and eta the smallest subnormal
    (float64's by default). It grows with either
    norm, so its value at the largest norm bounds a whole row. With float32's
    u and eta raised to cdist's (see below) it bounds the decode screen."""
    # Why this bound. Write g = d u / (1 - d u), na, nb for the exact
    # squared norms and D for the exact squared distance.
    # - s2 = fl(fl(-2 P + Nb) + Na), where Na, Nb and P = a.b (BLAS) are sums
    #   of d products in some order. So |Na - na| <= g na, |Nb - nb| <= g nb
    #   and |P - a.b| <= g sum|a_k b_k| <= g (na + nb) / 2, which costs
    #   g (na + nb) once doubled. The two additions act on operands of size at
    #   most 2 (na + nb)(1 + g), so each adds 2 u (na + nb)(1 + O(u)). In total
    #   |s2 - D| <= (2 d + 4) u (na + nb)(1 + O(d u)).
    # - cdist sums fl(fl(a_k - b_k)^2) in order. Each term is off by a relative
    #   3 u and the sum by g, so |q - D| <= (d + 2) u D (1 + O(d u)), and
    #   D <= 2 (na + nb) turns that into (2 d + 4) u (na + nb).
    # - Together that is 4 (d + 2) u (na + nb)(1 + O(d u)). Taking 4 (d + 4)
    #   leaves 8 u (na + nb) for the O(d u) terms and for rounding in the
    #   bound itself and in s2 +- 2 bound.
    # - Underflow escapes relative bounds: a product that lands among the
    #   subnormals is off by up to eta / 2 absolute. s2 holds 3 d products (the
    #   cross terms doubled: 2 d eta) and cdist d squares (d eta / 2);
    #   subnormal differences are exact. 4 (d + 4) eta covers both.
    # The decode screen subtracts the store's mean mu from points a and
    # vectors b in float64, scales the differences by one power of two s,
    # exactly (short of float64 subnormals), rounds them to float32, a^ and
    # b^, and forms s2 = [-2 a^, 1] . [b^, U] in float32, one (d + 1)-term
    # dot product with U = fl(Nb + reach) (below), without the row's Na.
    # Distances do not see mu: D = ||(b - mu) - (a - mu)||^2. Doubling the
    # point is exact: the products' errors are twice P's, or less among the
    # subnormals. Now u = 2^-24 and eta32 = 2^-149; norms are the scaled
    # centred ones, na = s^2 ||a - mu||^2 and nb = s^2 ||b - mu||^2, and a^,
    # b^ have them within a relative 2 (u + 2^-53) + O(u^2) and an absolute
    # O(d eta32), which the spare and the eta term absorb.
    # - Arithmetic: the dot product's terms add up to at most na + 2 nb in
    #   size (the doubled cross terms na + nb, U about nb), so it is within
    #   (d + 1) u (na + 2 nb) of its exact value, and Nb within d u nb:
    #   |s2 - (||b^ - a^||^2 - ||a^||^2 + reach)| <= (3 d + 2) u (na + nb)
    #   (1 + O(d u)).
    # - Rounding: e = (b^ - s (b - mu)) - (a^ - s (a - mu)) takes the float64
    #   rounding of each difference, a relative 2^-53 = u / 2^29, then the
    #   float32 one, so |e_k| <= u' m_k + 2 eta32 with u' = u (1 + 2^-28)
    #   and m_k = s (|a_k - mu_k| + |b_k - mu_k|), and ||b^ - a^||^2 - s^2 D
    #   = 2 s (b - a).e + ||e||^2. As |b_k - a_k| <= m_k and 4 m_k eta32 <=
    #   u m_k^2 + 4 eta32^2 / u, that is at most 3 u' sum m_k^2 +
    #   O(d eta32^2 / u) <= 6 u' (na + nb) + O(d eta32^2 / u); the spare
    #   takes the 2^-28 part.
    # - cdist, in the screen's units: (2 d + 4) 2^-53 (na + nb), as D <=
    #   2 (na + nb) / s^2 with the centred norms too, below 2 u (na + nb)
    #   for any d < 2^28, and d s^2 eta64 / 2 absolute.
    # - The screen adds the vector's part of the bound, reach = 4 (d + 4) u
    #   nb, to Nb ahead of time in float32 and takes twice it off again for
    #   the lower end: three more roundings, at most 3 u (na + nb)(1 + O(u)).
    # - Together: s2 is within (3 d + 13) u (na + nb)(1 + O(d u)) of
    #   s^2 q - ||a^||^2, and ||a^||^2 is the same for every entry of the
    #   row. That is within 4 (d + 4) u (na + nb) for every d >= 1, with
    #   (d + 3) u (na + nb) to spare for the O(d u) terms (d < 2^16). The
    #   absolute terms (d eta32 from P, d eta32 / 2 from Nb, the rounding's
    #   O(d eta32^2 / u) and cdist's d s^2 eta64 / 2) are within
    #   4 (d + 4) eta for eta = max(eta32, s^2 eta64), which _screen passes.
    # median_nn_distance forms a word pair as [-2 a^, 1, U_a] . [b^, U_b, 1],
    # a (d + 2)-term dot product whose terms add up to at most 2 (na + nb):
    # with Na and Nb, within (3 d + 5) u (na + nb)(1 + O(d u)) of ||b^ -
    # a^||^2 + reach_a + reach_b. The roundings of U_a and U_b, of a - mu and
    # b - mu to a^ and b^ and cdist's sum add 9 u (na + nb), so s2 - reach_a - reach_b
    # is within (3 d + 14) u (na + nb)(1 + O(d u)) <= reach_a + reach_b, plus
    # the absolute 4 (d + 4) eta, of s^2 q: s^2 q lies in [s2 - spread_a -
    # spread_b - 4 (d + 4) eta, s2 + 4 (d + 4) eta].
    # Rounded addition and multiplication are monotone, so the computed
    # bound never falls when a_sq or b_sq grows.
    err = a_sq + b_sq
    err *= u
    err += eta
    err *= 4.0 * (dim + 4)
    return err


# columns per float32 partial sum of a KDE row: each is within gamma_63 of
# its terms' sum, where one float32 sum of the row would carry gamma_{|W|-1}
_SUM_COLUMNS = 64


def _gemm_log_kde(screen, a, p_sq, err, kappa: float):
    """(values, bounds) of EmbeddingStore._log_kde for the rows of a, a
    (rows, d + 2) float32 array holding [-2 p^, 1] in its first d + 1
    columns, with their p_sq and err, all from _screen_points; a and err are
    overwritten. One float32 GEMM of the rows [kappa' (-2 p^), kappa',
    kappa (P - S / 2)] against the screen's [v^; upper; 1] forms the
    centred log kernels; exp runs on them in place, float32 sums of 64
    columns each (np.matmul) and the float64 sum of those give each row's
    sum."""
    rows, dim = a.shape[0], a.shape[1] - 2
    n_words = screen.aug.shape[1]
    half_spread = float(screen.spread.max()) / 2
    # [-2 p^, 1] times kappa' in one rounding: doubling is exact
    a[:, : dim + 1] *= np.float32(kappa)
    a[:, dim + 1] = kappa * (p_sq - half_spread)
    g = a @ screen.aug
    top = g.max(axis=1)
    # a row left unshifted keeps its largest term e^top within [2^-64,
    # 2^64]: its 64-term float32 sums stay below 2^70, and the subnormals'
    # absolute errors within N 2^-62 of its sum
    shift = np.where(np.abs(top) <= 64 * math.log(2), np.float32(0.0), top)
    if shift.any():
        g -= shift[:, None]
    np.exp(g, out=g)
    split = n_words - n_words % _SUM_COLUMNS
    sums = np.einsum("ij->i", g[:, split:], dtype=np.float64)
    if split:
        parts = np.matmul(g[:, :split].reshape(rows, -1, _SUM_COLUMNS),
                          np.ones(_SUM_COLUMNS, dtype=np.float32))
        sums += np.einsum("ij->i", parts, dtype=np.float64)
    values = np.log(sums) + shift
    # Why this bound. Write q_j for the squared distance from the point to
    # word j that cdist (and _pair_sq_distances, in its order) sums, den =
    # -(2 sigma^2) as rounded, N = |W|, LSE for log-sum-exp and u, u32 for
    # the unit roundoffs. LSE is monotone and moves by c when every entry
    # does, so it moves by at most the largest change of an entry: it is
    # 1-Lipschitz in the max norm. The canonical value is LSE(t), t_j =
    # q_j / den, rounded as below.
    # - The GEMM. With s the screen's scale, kappa = 1 / (s^2 den) < 0,
    #   P = ||p^||^2, nb_j = ||v^_j||^2, S the largest spread and err =
    #   _sq_error_bound(P, 0, d, u32, screen.eta): exactly, [-2 p^, 1, P] .
    #   [v^_j, upper_j, 1] = ||v^_j - p^||^2 + reach_j + (upper_j's own
    #   rounding, (d + 1) u32 nb_j), and ||v^_j - p^||^2 is within 8 u32
    #   (P + nb_j) of s^2 q_j (the rounding of p^ and v^, and cdist's sum:
    #   see _sq_error_bound). The row [kappa' (-2 p^), kappa', kappa (P -
    #   S / 2)] as computed adds kappa' for kappa, u32 |kappa| (P + 2 nb_j),
    #   its two roundings, u32 |kappa| (P + nb_j) and u32 |kappa| (P +
    #   S / 2), and the (d + 2)-term dot product adds gamma_{d+2} times its
    #   terms' absolute sum, at most |kappa| (2 P + 2 nb_j + S / 2). In all,
    #   g_j = t_j + |kappa| (S / 2 - reach_j) + |kappa| f_j with |f_j| <=
    #   (2 d + 15) u32 P + (3 d + 16) u32 nb_j + (d + 3) u32 S / 2, up to a
    #   factor 1 + O(d u32): within err + reach_j + (d + 3) u32 S / 2, as err
    #   holds 4 (d + 4) u32 P and reach_j 4 (d + 4) u32 nb_j, which leaves
    #   2 d + 1 and d for the O(d u32) terms (d < 2^16). The absolute terms
    #   of rounding p^, v^ and cdist's sum are within err's eta term, as in
    #   _sq_error_bound; the GEMM's products among the subnormals, (2 d + 3)
    #   eta32, go in the last u32. With 0 <= reach_j <= S / 2, g_j is within
    #   |kappa| (err + S / 2 (1 + (d + 3) u32)) of t_j, and LSE(g) of LSE(t).
    # - The shift g_j - top, on the few rows where exp would leave float32's
    #   normal range, is exact at the maximum and changes each x_j = top -
    #   g_j >= 0 by a relative u32. As a function of r, LSE(-r x) has slope
    #   minus the softmax mean of x, which is at most log N / r (r E[x] is at
    #   most the entropy, log N, since the largest term is 1), so that moves
    #   LSE by at most u32 log N.
    # - exp: within 4 ulps of e^x, 8 u32 of it, plus 2^-126 for a result
    #   among float32's subnormals (numpy's float32 exp is within 2.5 ulps;
    #   tests check the budget). The subnormals' errors are within N 2^-62
    #   < u32 of the sum (N < 2^38; see the shift).
    # - The sums: a float32 sum of at most 64 positive terms, in whatever
    #   order the BLAS adds them, is within a relative gamma_63 < 64 u32 of
    #   theirs; the float64 sum of the partial sums and the tail, within
    #   N u. With exp, the row's sum is within a relative 73 u32 + N u, and
    #   its log within 74 u32 + 2 N u.
    # - float64: the log and the additions, the canonical value's own
    #   division, exp (4 ulps), fsum and log, and the rounding of a
    #   difference of two values in the accept test, add c u for c < 64 times
    #   |top| + log N + |kappa| (P + S), which u32 (|top| + log N) and the
    #   factor 1 + 2^-20 on the first term (err >= 20 u32 P) cover.
    # In all: |kappa| (err + S / 2 (1 + (d + 3) u32)) (1 + 2^-20)
    # + u32 (|top| + 2 log N + 75) + 2 N u.
    err += half_spread * (1 + (dim + 3) * _U32)
    err *= abs(kappa) * (1 + 2.0**-20)
    err += _U32 * np.abs(top)
    err += _U32 * (2 * math.log(n_words) + 75) + 2 * n_words * _U
    return values, err


def _pair_sq_distances(a, b, rows, cols) -> np.ndarray:
    """||a[rows[k]] - b[cols[k]]||^2 for each k, as scipy's cdist sums it
    before its square root: the squared differences added in index order
    (np.add.accumulate; np.sum's pairwise order would not keep it), Inf
    where the sum overflows, with no warning. The pairs are gathered in
    blocks of at most _EXACT_BLOCK_ENTRIES differences; for one row against
    many, rows is np.broadcast_to(i, cols.shape)."""
    out = np.empty(len(rows))
    step = max(1, _EXACT_BLOCK_ENTRIES // a.shape[1])
    with np.errstate(over="ignore"):
        for lo in range(0, len(rows), step):
            t = a[rows[lo : lo + step]]
            t -= b[cols[lo : lo + step]]
            t *= t
            np.add.accumulate(t, axis=1, out=t)
            out[lo : lo + step] = t[:, -1]
    return out


def _fold_least(least, partner, runner_up, words, offset, s2, axis):
    """Fold each row's (axis 1) or column's (axis 0) least value of s2, an
    index holding it plus offset, and the least of its other entries into
    the running least, partner and runner-up of those words, in place. s2
    is left as it was, infinities included."""
    n = s2.shape[1 - axis]
    if axis == 1:
        at = s2.argmin(axis=1)
    else:
        # argmin along columns reduces a transposed copy of s2; one flat scan
        # for the column minima finds them in a fraction of the time
        hits = np.flatnonzero(s2 == s2.min(axis=0))
        at = np.empty(n, dtype=np.int64)
        at[hits % n] = hits // n
    idx = (np.arange(n), at) if axis == 1 else (at, np.arange(n))
    tile_least = s2[idx]
    s2[idx] = np.inf
    second = s2.min(axis=axis)
    s2[idx] = tile_least
    better = tile_least < least[words]
    runner_up[words] = np.where(better, np.minimum(least[words], second),
                                np.minimum(runner_up[words], tile_least))
    partner[words][better] = at[better] + offset
    least[words][better] = tile_least[better]


def _argmin_exact(points, vectors, ids, hi, spread, err, own=None):
    """Argmin per row i of exact sums q[i, j] (scaled, less a row constant)
    given hi[i, j] + err[i] above each and hi[i, j] - spread[j] - err[i]
    below it. A row where one column's upper end lies below every other
    column's lower end is decided by that column; the rest by cdist's
    distances (_pair_sq_distances) from points to the rows of vectors
    (ids[j] for column j, or j if ids is None) over the columns whose lower
    end reaches the least upper end, the lowest column winning a tie.
    own optionally names a column per row that no decision of that row
    takes, even one with err Inf (the word's own, for its nearest other
    word). An infinite err or spread, or a NaN end that one makes (its
    warning is _nearest's to silence), sends the row to the exact
    distances. hi is overwritten with the lower ends."""
    rows = np.arange(hi.shape[0])
    if own is not None:
        hi[rows, own] = np.inf
    out = hi.argmin(axis=1)
    # finite, so that a masked column stays out even where err is Inf
    ceiling = np.minimum(hi[rows, out] + 2.0 * err, sys.float_info.max)
    hi -= spread
    if own is not None:
        hi[rows, own] = np.inf  # Inf - Inf would be NaN
    least = hi[rows, out]
    hi[rows, out] = np.inf
    close = np.flatnonzero(~(hi.min(axis=1) > ceiling))
    hi[rows, out] = least
    for i in close:
        kept = np.flatnonzero(~(hi[i] > ceiling[i]))
        sq = _pair_sq_distances(points, vectors, np.broadcast_to(i, kept.shape),
                                kept if ids is None else ids[kept])
        # the argmin of the square roots: two sums an ulp apart can share one
        out[i] = kept[np.argmin(np.sqrt(sq))]
    return out


def load_embeddings(path) -> EmbeddingStore:
    """Parse a text embedding file into an EmbeddingStore.

    Format: UTF-8 text as text_file reads it; an optional first line
    "<count> <dim>", then one record per line: a word and d components,
    split on whitespace as str.split splits. A component is anything Python's
    float() reads. NumPy's C reader parses the file (_load_by_reader). A file
    it refuses goes through the line loop (_load_by_line), which reads every
    file the reader reads to the same bits, and also what only float() reads
    (1_0, a non-ASCII digit). The line loop rejects a record with no
    components, a non-numeric component and a row of another width, naming
    the line, and a header count that is not the record count;
    EmbeddingStore._adopt rejects duplicate words and non-finite components,
    naming the word. Every error names the file. The store keeps the array
    the parse makes, with no copy.
    """
    parsed = _load_by_reader(path)
    words, vectors = parsed if parsed is not None else _load_by_line(path)
    return _adopt_naming(path, words, vectors)


def _header(tokens):
    """(count, dim) if the tokens of a file's first line are a header."""
    if len(tokens) == 2:
        try:
            return int(tokens[0]), int(tokens[1])
        except ValueError:
            pass
    return None


def _load_by_reader(path):
    """(words, vectors) of a text embedding file by np.loadtxt's C reader, or
    None where the reader refuses the file. It splits lines as str.split
    does, and every token it reads as a number it reads as float() does,
    bit for bit; it refuses the rest (1_0, a non-ASCII digit, a NUL). So it
    refuses every file the line loop rejects, and is checked against it in
    the tests. The header is read by the line loop's rule. The first
    record's width fixes the record dtype, so a row of any other width is
    refused, not cut to it; comments=None keeps words that start with '#'."""
    with text_file(path, EmbeddingFormatError) as fh:
        try:
            head = next(fh, "")
            header = _header(head.split())
            lines = fh if header is not None else itertools.chain([head], fh)
            first = next((line for line in lines if not line.isspace()), "")
            dim = len(first.split()) - 1
            if dim < 1 or header is not None and header[1] != dim:
                return None
            record = np.dtype([("word", object), ("vector", np.float64, (dim,))])
            table = np.loadtxt(itertools.chain([first], lines), dtype=record, comments=None,
                               ndmin=1)
        except ValueError:  # a token or row width it refuses, or bytes that are not UTF-8
            return None
    if header is not None and header[0] != len(table):
        return None
    return table["word"].tolist(), np.ascontiguousarray(table["vector"])


def _load_by_line(path):
    """(words, vectors) of a text embedding file, one line at a time with
    float(): load_embeddings' fallback, whose errors name the line."""
    words: list[str] = []
    rows: list[np.ndarray] = []
    header_count = dim = None
    with text_file(path, EmbeddingFormatError) as fh:
        for lineno, line in enumerate(fh, start=1):
            tokens = line.split()
            if not tokens:
                continue
            if lineno == 1 and (header := _header(tokens)) is not None:
                header_count, dim = header
                continue
            word, comps = tokens[0], tokens[1:]
            if not comps:
                raise EmbeddingFormatError(f"{path}:{lineno}: no vector components")
            try:
                vec = np.array([float(t) for t in comps], dtype=np.float64)
            except ValueError:
                raise EmbeddingFormatError(f"{path}:{lineno}: non-numeric component") from None
            if dim is None:
                dim = vec.shape[0]
            if vec.shape[0] != dim:
                raise DimensionMismatchError(
                    f"{path}:{lineno}: expected {dim} components, got {vec.shape[0]}"
                )
            words.append(word)
            rows.append(vec)
    if not words:
        raise EmptyVocabularyError(f"{path}: no embedding records")
    if header_count is not None and header_count != len(words):
        raise EmbeddingFormatError(f"{path}: header count {header_count} != {len(words)} records")
    return words, np.vstack(rows)


def _adopt_naming(path, words, vectors) -> EmbeddingStore:
    """EmbeddingStore._adopt for a loader: its errors name the file."""
    try:
        return EmbeddingStore._adopt(words, vectors)
    except EmbeddingFormatError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def save_cache(store: EmbeddingStore, path) -> None:
    """Write a versioned binary cache of the store (byte-deterministic)."""
    if any(w.endswith("\x00") for w in store.words):
        # a fixed-width unicode array drops trailing NULs
        raise EmbeddingFormatError("a word ending in NUL cannot be cached")
    with atomic_file(path) as fh:
        np.savez(
            fh,
            magic=np.array(CACHE_MAGIC),
            words=np.array(store.words, dtype=np.str_),
            vectors=store.vectors,
        )


@contextmanager
def atomic_file(path):
    """A binary file opened beside path for writing. It is renamed over path
    when the block exits cleanly and deleted when the block raises, so path
    is never left partly written."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)) or ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@contextmanager
def text_file(path, error):
    """atomic_file's reading twin, the one way text comes in: the file at
    path, or stdin when path is None, as UTF-8 whatever the locale, with a
    leading byte order mark skipped. A byte that does not decode, read in
    the block, raises error naming the file."""
    with nullcontext(sys.stdin.buffer) if path is None else open(path, "rb") as raw:
        fh = io.TextIOWrapper(raw, encoding="utf-8-sig")
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise error(f"{path or '<stdin>'}: not UTF-8 text ({exc.reason})") from None
        finally:
            fh.detach()  # the with closes a file, and leaves stdin open


def load_cache(path) -> EmbeddingStore:
    """Read a cache written by save_cache. Nothing in it is unpickled: the
    words are a fixed-width unicode array. A float64 C-order vector array
    (save_cache's) is kept as a read-only view of the bytes read from the
    file, with no copy; any other numeric one is converted once. Every error
    names the file."""
    try:
        with zipfile.ZipFile(path) as zf:
            if str(_npy_view(zf.read("magic.npy"))) != CACHE_MAGIC:
                raise EmbeddingFormatError(f"{path}: not a privtext embedding cache")
            words = _npy_view(zf.read("words.npy"))
            vectors = _npy_view(zf.read("vectors.npy"))
    except (
        ValueError, KeyError, TypeError, EOFError, zipfile.BadZipFile, zlib.error,
        # zipfile's answer to an unsupported version, compression or encryption
        NotImplementedError, RuntimeError,
    ) as exc:
        raise EmbeddingFormatError(f"{path}: not a privtext embedding cache ({exc})") from None
    if words.dtype.kind != "U" or words.ndim != 1:
        raise EmbeddingFormatError(f"{path}: cache words are not a 1-D unicode array")
    if vectors.dtype.kind not in "iuf":
        raise EmbeddingFormatError(f"{path}: cache vectors are not a numeric array")
    return _adopt_naming(path, words.tolist(), vectors)
