"""Word embedding store: vocabulary <-> id <-> vector with Euclidean geometry.

The store is immutable after construction and is the metric space every
mechanism in this package operates on. Nearest-neighbor queries are exact
brute force; ties always break toward the lowest word id so that repeated
runs are bit-identical. Every distance that decides a query is
paired_distances', which equals scipy's cdist bit for bit; only the
whole-row and |W| x |W| queries (distance_row, pairwise_distances) call
cdist itself, and import SciPy when they run.
"""
from __future__ import annotations

import io
import math
import os
import tempfile
import zipfile
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatchError, DuplicateWordError, EmbeddingFormatError, EmptyVocabularyError,
    InvalidWordIdError, NonFiniteComponentError, require_count, require_points, require_word_ids,
)

CACHE_MAGIC = "privtext-embeddings-v2"

# entries in one (rows x candidates) block: 8 MiB of float64, or 4 MiB of
# the float32 decode screen
_NN_BLOCK_ENTRIES = 2**20
# differences in one paired_distances call of a blocked refinement: 256 KiB
_EXACT_BLOCK_ENTRIES = 2**15
# unit roundoff and smallest subnormal of float64 and of float32, for
# _sq_error_bound
_U = float(np.finfo(np.float64).eps) / 2
_ETA = float(np.finfo(np.float64).smallest_subnormal)
_U32 = float(np.finfo(np.float32).eps) / 2
_ETA32 = float(np.finfo(np.float32).smallest_subnormal)


class _Screen(NamedTuple):
    """The float32 copy of a store that nearest_words screens with. The
    error bound of a pair splits into the vector's part, reach =
    _sq_error_bound(||v||^2, 0, d, _U32, 0), and the point's."""

    vectors: np.ndarray  # (d, |W|) float32: the vectors times scale, transposed, read-only
    upper: np.ndarray  # (|W|,) float32 ||vectors||^2 + reach, read-only
    spread: np.ndarray  # (|W|,) float32 2 reach, read-only
    scale: float  # the power of two that brings max |component| into [0.5, 1)
    eta: float  # the absolute term of the screen's _sq_error_bound
    limit: float  # a scaled point with a larger ||p||^2 is not screened


@dataclass(frozen=True)
class EmbeddingStore:
    words: tuple[str, ...]
    vectors: np.ndarray  # (|W|, d) float64, read-only
    dim: int
    sq_norms: np.ndarray = field(repr=False, compare=False)  # (|W|,) ||v||^2, read-only
    _word_to_id: dict[str, int] = field(repr=False, compare=False, default_factory=dict)

    @classmethod
    def from_arrays(cls, words, vectors) -> "EmbeddingStore":
        """A store over words and their (|W|, d) vectors. The store holds its
        own read-only C-contiguous float64 copy of vectors, made in one
        conversion, so the caller may still write to its array."""
        return cls._adopt(words, np.array(vectors, dtype=np.float64, order="C"))

    @classmethod
    def _adopt(cls, words, vectors) -> "EmbeddingStore":
        """A store that takes vectors over: the loaders' path, for an array
        they have just made and no one else writes. A C-contiguous float64
        array is kept without a copy and marked read-only; any other is
        converted once."""
        words = tuple(words)
        if len(words) == 0:
            raise EmptyVocabularyError("vocabulary is empty")
        word_to_id = {w: i for i, w in enumerate(words)}
        if len(word_to_id) != len(words):
            bad = next(w for i, w in enumerate(words) if word_to_id[w] != i)
            raise DuplicateWordError(f"duplicate word {bad!r}")
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
        word ids (integers in [0, |W|); repeats are harmless).

        Every (row, candidate) pair is screened in float32, on the
        vocabulary-major copy that _screen makes on the first call, by one
        plain (rows x d) @ (d x candidates) GEMM; paired_distances decides
        the rows that the screen cannot: those where another candidate's
        lower bound reaches the least upper bound, over the candidates that
        reach it, and those too far out to screen, over every candidate.
        """
        points = require_points("points", points, self.dim)
        screen = self._screen
        if candidate_ids is None:
            ids = None
            cand, upper, spread = screen.vectors, screen.upper, screen.spread
        else:
            ids = self._candidate_ids(candidate_ids)
            cand, upper, spread = screen.vectors[:, ids], screen.upper[ids], screen.spread[ids]
        out = np.empty(points.shape[0], dtype=np.int64)
        block_rows = max(1, _NN_BLOCK_ENTRIES // cand.shape[1])
        for lo in range(0, points.shape[0], block_rows):
            block = points[lo : lo + block_rows]
            # the same exact scaling as the vectors', then one rounding to
            # float32; a point too large for float32 comes out as Inf
            p32 = np.empty(block.shape, dtype=np.float32)
            with np.errstate(over="ignore"):
                np.multiply(block, screen.scale, out=p32, casting="same_kind")
            p_sq = np.einsum("ij,ij->i", p32, p32, dtype=np.float64)
            # rows beyond the limit (Inf included) are decided exactly over
            # every candidate: their screen could overflow float32, or the
            # exact sums float64
            far = ~(p_sq <= screen.limit)
            if far.any():
                p32[far] = 0.0
                p_sq[far] = np.inf
            # ||c||^2 - 2 c.p in float32 stands for the scaled D - ||p||^2,
            # D the exact squared distance, within the candidate's reach plus
            # the point's err (see _sq_error_bound): hi, with the reach
            # added, lies at most err below D - ||p||^2. Scaling by -2 is
            # exact.
            hi = p32 @ cand
            hi *= -2.0
            hi += upper
            err = _sq_error_bound(p_sq, 0.0, self.dim, _U32, screen.eta)
            out[lo : lo + block.shape[0]] = _argmin_exact(block, self.vectors, ids, hi, spread, err)
        if ids is not None:
            out = ids[out]
        return out

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
        """The float32 copy that nearest_words screens with, made on its
        first call and kept for the store's lifetime. Scaling by a power of
        two is exact, so each component is rounded once; the copy is built
        in place, with no float64 temporary of the vocabulary.

        The copy is stored vocabulary-major, (d, |W|) and C-contiguous, so
        each decode is one plain GEMM against it. Against a (|W|, d) copy the
        GEMM takes its operand transposed, and for a few rows OpenBLAS's
        sgemm then re-reads and packs the whole copy on every call."""
        top = max(float(self.vectors.max()), -float(self.vectors.min()))
        # a store below 2^-1022 is clamped to that scale (2^-exp must stay
        # finite); the exact sums underflow there, and eta sends every row
        # to them
        exp = max(math.frexp(top)[1], -1022)
        scale = math.ldexp(1.0, -exp)
        vectors = np.empty(self.vectors.shape[::-1], dtype=np.float32)
        np.multiply(self.vectors.T, scale, out=vectors, casting="same_kind")
        sq_norms = np.einsum("ji,ji->i", vectors, vectors)
        reach = _sq_error_bound(sq_norms.astype(np.float64), 0.0, self.dim, _U32, 0.0)
        upper = (sq_norms + reach).astype(np.float32)
        spread = (2.0 * reach).astype(np.float32)
        for arr in (vectors, upper, spread):
            arr.setflags(write=False)
        return _Screen(
            vectors,
            upper,
            spread,
            scale,
            # the exact sums' subnormal step in the screen's units is
            # _ETA * scale^2
            eta=max(_ETA32, math.ldexp(_ETA, -2 * exp)),
            # ||p||^2 <= 2^100 keeps every float32 dot product finite (the
            # vectors' components are below 1), and ||p||^2 <= 2^1020 unscaled
            # every exact sum to a vector of the store (||v||^2 <= max / 4)
            limit=math.ldexp(1.0, min(100, 1020 - 2 * exp)),
        )

    def distance_row(self, w: int) -> np.ndarray:
        """A new (|W|,) array of w's distance to every word, one cdist row. A
        whole row is where cdist outruns paired_distances, so SciPy is
        imported here."""
        from scipy.spatial.distance import cdist

        w = self.check_id(w)
        return cdist(self.vectors[w : w + 1], self.vectors)[0]

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
        """Full |W| x |W| Euclidean distance matrix, by cdist. Only the audit
        (verify_metric_dp, attack_accuracy) holds it, and imports SciPy for
        it; per-word geometry comes from distance_blocks instead."""
        from scipy.spatial.distance import cdist

        return cdist(self.vectors, self.vectors)

    def median_nn_distance(self) -> float:
        """Median distance to the nearest distinct neighbor (sigma default)."""
        return float(np.median(self.nn_distances))

    def mean_nn_distance(self) -> float:
        """Mean nearest-distinct-neighbor distance. The library no longer
        calls it; perfbench's embeddings.nn_distance span still wraps it."""
        return float(np.mean(self.nn_distances))

    @cached_property
    def nn_distances(self) -> np.ndarray:
        """Per-word distance to the nearest distinct neighbor, read-only:
        made on first use and kept for the store's lifetime; zeros(1) for a
        one-word vocabulary. Each value is cdist's, the row minimum of
        pairwise_distances with the diagonal masked, and is computed by
        paired_distances. The working memory is about one tile of
        distance_blocks plus O(|W|).

        One distance_blocks pass reduces each tile along its rows and, off
        the diagonal, along its columns, keeping per word the least GEMM-form
        value, a partner holding it and the least of the rest. Every pair of
        word w is within e(w) = _sq_error_bound(||w||^2, max ||v||^2) of its
        exact sum, so when the runner-up lies more than 2 e(w) above the
        least, that partner is the only exact minimizer and paired_distances
        of the pair gives the value, in blocks of _EXACT_BLOCK_ENTRIES
        differences. The other words (duplicates, near-ties, stores far
        from the origin) take a GEMM row of their own and exact distances to
        every entry within 2 e(w) of their least."""
        n = len(self.words)
        d = np.zeros(n)
        if n > 1:
            least = np.full(n, np.inf)
            partner = np.zeros(n, dtype=np.int64)
            runner_up = np.full(n, np.inf)
            for i, j, s2 in self.distance_blocks():
                rows, cols = slice(i, i + s2.shape[0]), slice(j, j + s2.shape[1])
                if i == j:
                    np.fill_diagonal(s2, np.inf)
                _merge_least(least[rows], partner[rows], runner_up[rows], j, *_least_two(s2, 1))
                if i != j:
                    _merge_least(least[cols], partner[cols], runner_up[cols], i, *_least_two(s2, 0))
                del s2  # freed before the generator forms the next tile
            ceiling = least + 2.0 * _sq_error_bound(self.sq_norms, self.sq_norms.max(), self.dim)
            unique = runner_up > ceiling
            ws = np.flatnonzero(unique)
            step = max(1, _EXACT_BLOCK_ENTRIES // self.dim)
            for lo in range(0, len(ws), step):
                w = ws[lo : lo + step]
                d[w] = paired_distances(self.vectors[w], self.vectors[partner[w]])
            rest = np.flatnonzero(~unique)
            block_rows = max(1, _NN_BLOCK_ENTRIES // n)
            for lo in range(0, len(rest), block_rows):
                ws = rest[lo : lo + block_rows]
                s2 = _gemm_sq_distances(
                    self.vectors[ws], self.sq_norms[ws], self.vectors, self.sq_norms
                )
                s2[np.arange(len(ws)), ws] = np.inf
                keep = s2 <= ceiling[ws, None]
                del s2
                for k, _, dist in exact_distances(self.vectors[ws], self.vectors, keep):
                    d[ws[k]] = dist.min()
        d.setflags(write=False)
        return d

    def distance_blocks(self):
        """One pass over the unordered pairs of the vocabulary: yields
        (i, j, s2), s2 the GEMM-form squared distances from words i, i + 1,
        ... to words j, j + 1, ..., in _gemm_sq_distances' operation order,
        for each square tile of side isqrt(_NN_BLOCK_ENTRIES) on or above
        the diagonal (i <= j). Each pair is formed once off the diagonal
        tiles; the tiles total at most |W| (|W| + side) / 2 entries."""
        n, side = len(self.words), max(1, math.isqrt(_NN_BLOCK_ENTRIES))
        for i in range(0, n, side):
            a, a_sq = self.vectors[i : i + side], self.sq_norms[i : i + side]
            for j in range(i, n, side):
                yield i, j, _gemm_sq_distances(
                    a, a_sq, self.vectors[j : j + side], self.sq_norms[j : j + side]
                )


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


def _gemm_sq_distances(a, a_sq, b, b_sq):
    """s2[i, j] = ||a_i||^2 - 2 a_i.b_j + ||b_j||^2, built in place in one
    fixed operation order, the one _sq_error_bound is derived for."""
    s2 = a @ b.T
    s2 *= -2.0
    s2 += b_sq
    s2 += a_sq[:, None]
    return s2


def _sq_error_bound(a_sq, b_sq, dim, u=_U, eta=_ETA):
    """4 (dim + 4) (u (a_sq + b_sq) + eta), broadcast: a bound on |s2 - q|
    for GEMM-form s2 of two points with squared norms a_sq and b_sq, q the
    squared distance that cdist (and paired_distances, in the same order)
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
    # The nearest_words screen scales points a and vectors b by one power of
    # two s, exactly (short of float64 subnormals), rounds them to float32,
    # a^ and b^, and forms s2 = fl(Nb - 2 P) from those in float32, without
    # the row's Na. Now u = 2^-24 and eta32 = 2^-149; norms are the scaled
    # ones, and a^, b^ have them within a relative 2 u + O(u^2) and an
    # absolute O(d eta32), which the spare 8 u (na + nb) and the eta term
    # absorb.
    # - Arithmetic: as above with one addition fewer,
    #   |s2 - (||b^ - a^||^2 - ||a^||^2)| <= (2 d + 2) u (na + nb)(1 + O(d u)).
    # - Rounding to float32: e = (b^ - s b) - (a^ - s a) has
    #   |e_k| <= u m_k + 2 eta32, m_k = s (|a_k| + |b_k|), and
    #   ||b^ - a^||^2 - s^2 D = 2 s (b - a).e + ||e||^2. As |b_k - a_k| <= m_k
    #   and 4 m_k eta32 <= u m_k^2 + 4 eta32^2 / u, that is at most
    #   3 u sum m_k^2 + O(d eta32^2 / u) <= 6 u (na + nb) + O(d eta32^2 / u).
    # - cdist, in the screen's units: (2 d + 4) 2^-53 (na + nb), below
    #   2 u (na + nb) for any d < 2^28, and d s^2 eta64 / 2 absolute.
    # - The screen adds the vector's part of the bound, 4 (d + 4) u nb, to Nb
    #   ahead of time in float32 and takes twice it off again for the lower
    #   end: three more roundings, at most 3 u (na + nb)(1 + O(u)).
    # - Together: s2 is within (2 d + 13) u (na + nb)(1 + O(d u)) of
    #   s^2 q - ||a^||^2, and ||a^||^2 is the same for every entry of the
    #   row. That is within 4 (d + 4) u (na + nb) for every d >= 1. The
    #   absolute terms (d eta32 from P, d eta32 / 2 from Nb, the rounding's
    #   O(d eta32^2 / u) and cdist's d s^2 eta64 / 2) are within
    #   4 (d + 4) eta for eta = max(eta32, s^2 eta64), which _screen passes.
    # Rounded addition and multiplication are monotone, so the computed
    # bound never falls when a_sq or b_sq grows.
    err = a_sq + b_sq
    err *= u
    err += eta
    err *= 4.0 * (dim + 4)
    return err


def exact_distances(a, b, keep):
    """For each row i of a (len(a), len(b)) bool mask, yields (i, the indices
    j kept in row i, the distances from a[i] to those b[j], cdist's)."""
    for i, row in enumerate(keep):
        cand = np.flatnonzero(row)
        yield i, cand, _distances_from(a[i], b, cand)


def paired_distances(a, b) -> np.ndarray:
    """||a_i - b_i|| for each row i of two (n, d) float64 arrays (either may
    be one row, broadcast), equal bit for bit to scipy's cdist value for the
    pair. cdist adds the squared differences in index order and then takes
    the square root; np.add.accumulate keeps that order, where np.sum's
    pairwise order would not. A sum that overflows is Inf, as in cdist, with
    no warning. The working memory is one (n, d) array."""
    with np.errstate(over="ignore"):
        t = a - b
        t *= t
        np.add.accumulate(t, axis=1, out=t)
        return np.sqrt(t[:, -1])


def _distances_from(point, vectors, ids) -> np.ndarray:
    """cdist(point[None], vectors[ids])[0] by paired_distances, ids in blocks
    of at most _EXACT_BLOCK_ENTRIES differences."""
    out = np.empty(len(ids))
    step = max(1, _EXACT_BLOCK_ENTRIES // vectors.shape[1])
    for lo in range(0, len(ids), step):
        out[lo : lo + step] = paired_distances(point[None, :], vectors[ids[lo : lo + step]])
    return out


def _least_two(s2, axis):
    """Along each row (axis 1) or column (axis 0) of s2: the least value, an
    index holding it and the least of the other entries. s2 is left as it
    was, infinities included."""
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
    least = s2[idx]
    s2[idx] = np.inf
    second = s2.min(axis=axis)
    s2[idx] = least
    return least, at, second


def _merge_least(least, partner, runner_up, offset, tile_least, tile_at, tile_second):
    """Fold one tile's _least_two into the running least, partner and
    runner-up of the same words (views, updated in place)."""
    better = tile_least < least
    runner_up[:] = np.where(
        better, np.minimum(least, tile_second), np.minimum(runner_up, tile_least)
    )
    partner[better] = tile_at[better] + offset
    least[better] = tile_least[better]


def _argmin_exact(points, vectors, ids, hi, spread, err):
    """Argmin per row i of exact sums q[i, j] (scaled, less a row constant)
    given hi[i, j] + err[i] above each and hi[i, j] - spread[j] - err[i]
    below it. A row where one column's upper end lies below every other
    column's lower end is decided by that column; the rest by
    paired_distances from points to the rows of vectors (ids[j] for column
    j, or j if ids is None) over the columns whose lower end reaches the
    least upper end, the lowest column winning a tie. hi is overwritten
    with the lower ends."""
    rows = np.arange(hi.shape[0])
    out = hi.argmin(axis=1)
    ceiling = hi[rows, out] + 2.0 * err
    hi -= spread
    least = hi[rows, out]
    hi[rows, out] = np.inf
    close = np.flatnonzero(hi.min(axis=1) <= ceiling)
    hi[rows, out] = least
    for i in close:
        kept = np.flatnonzero(hi[i] <= ceiling[i])
        dist = _distances_from(points[i], vectors, kept if ids is None else ids[kept])
        out[i] = kept[np.argmin(dist)]
    return out


def _utf8_lines(fh, path):
    """The lines of a text file opened as UTF-8; bytes that do not decode
    are an EmbeddingFormatError."""
    try:
        yield from fh
    except UnicodeDecodeError as exc:
        raise EmbeddingFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None


def load_embeddings(path) -> EmbeddingStore:
    """Parse a text embedding file into an EmbeddingStore.

    Format: optional first header line "<count> <dim>", then one record per
    line: word followed by d space-separated decimal floats. The parse
    rejects a record with no components, a non-numeric component and a row
    of another width, naming the line, and a header count that is not the
    record count; EmbeddingStore._adopt rejects duplicate words and
    non-finite components, naming the word. Every error names the file.
    The store keeps the stacked array the parse makes, with no copy.
    """
    words: list[str] = []
    rows: list[np.ndarray] = []
    header_count = dim = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(_utf8_lines(fh, path), start=1):
            tokens = line.split()
            if not tokens:
                continue
            if lineno == 1 and len(tokens) == 2:
                try:
                    header_count, dim = int(tokens[0]), int(tokens[1])
                except ValueError:
                    pass
                else:
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
    try:
        return EmbeddingStore._adopt(words, np.vstack(rows))
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


def load_cache(path) -> EmbeddingStore:
    """Read a cache written by save_cache. Nothing in it is unpickled: the
    words are a fixed-width unicode array. A float64 C-order vector array
    (save_cache's) is kept as a read-only view of the bytes read from the
    file, with no copy; any other numeric one is converted once."""
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
    return EmbeddingStore._adopt(words.tolist(), vectors)
