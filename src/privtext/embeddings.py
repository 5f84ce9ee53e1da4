"""Word embedding store: vocabulary <-> id <-> vector with Euclidean geometry.

The store is immutable after construction and is the metric space every
mechanism in this package operates on. Nearest-neighbor queries are exact
brute force; ties always break toward the lowest word id so that repeated
runs are bit-identical.
"""
from __future__ import annotations

import os
import tempfile
import zipfile
import zlib
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatchError,
    DuplicateWordError,
    EmbeddingFormatError,
    EmptyVocabularyError,
    InvalidWordIdError,
    NonFiniteComponentError,
)

CACHE_MAGIC = "privtext-embeddings-v2"

# float64 entries in one (rows x candidates) decode block: 8 MiB
_NN_BLOCK_ENTRIES = 2**20


@dataclass(frozen=True)
class EmbeddingStore:
    words: tuple[str, ...]
    vectors: np.ndarray  # (|W|, d) float64, read-only
    dim: int
    sq_norms: np.ndarray = field(repr=False, compare=False)  # (|W|,) ||v||^2, read-only
    _word_to_id: dict[str, int] = field(repr=False, compare=False, default_factory=dict)

    @classmethod
    def from_arrays(cls, words, vectors, normalize: bool = False) -> "EmbeddingStore":
        words = tuple(words)
        if len(words) == 0:
            raise EmptyVocabularyError("vocabulary is empty")
        if len(set(words)) != len(words):
            seen = set()
            for w in words:
                if w in seen:
                    raise DuplicateWordError(f"duplicate word {w!r}")
                seen.add(w)
        vectors = np.ascontiguousarray(vectors, dtype=np.float64)
        if vectors.ndim != 2 or vectors.shape[0] != len(words):
            raise DimensionMismatchError(
                f"expected ({len(words)}, d) vector array, got shape {vectors.shape}"
            )
        if not np.all(np.isfinite(vectors)):
            raise NonFiniteComponentError("embedding contains NaN or Inf")
        # every squared distance is at most 4 max ||v||^2: if that overflows,
        # distances, sensitivities and decodes turn into Inf and NaN
        sq_norms = np.einsum("ij,ij->i", vectors, vectors)
        if not sq_norms.max() <= np.finfo(np.float64).max / 4:
            raise NonFiniteComponentError("embedding is so large that its distances overflow")
        if normalize:
            norms = np.linalg.norm(vectors, axis=1, keepdims=True)
            if np.any(norms == 0):
                raise NonFiniteComponentError("cannot normalize a zero vector")
            vectors = vectors / norms
            sq_norms = np.einsum("ij,ij->i", vectors, vectors)
        vectors.setflags(write=False)
        sq_norms.setflags(write=False)
        return cls(
            words=words,
            vectors=vectors,
            dim=vectors.shape[1],
            sq_norms=sq_norms,
            _word_to_id={w: i for i, w in enumerate(words)},
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
        w = int(w)
        if not 0 <= w < len(self.words):
            raise InvalidWordIdError(f"word id {w} outside [0, {len(self.words)})")
        return w

    def vector(self, w: int) -> np.ndarray:
        return self.vectors[self.check_id(w)]

    def distance(self, w: int, u: int) -> float:
        """Euclidean distance between two vocabulary words."""
        return float(np.linalg.norm(self.vector(w) - self.vector(u)))

    def _check_point(self, point) -> np.ndarray:
        point = np.asarray(point, dtype=np.float64)
        if point.shape != (self.dim,):
            raise DimensionMismatchError(
                f"query point has shape {point.shape}, store dim is {self.dim}"
            )
        if not np.all(np.isfinite(point)):
            raise NonFiniteComponentError("query point contains NaN or Inf")
        return point

    def nearest_word(self, point) -> int:
        """Exact nearest vocabulary word to an arbitrary point.

        Ties break toward the lowest word id (np.argmin returns the first
        minimizer).
        """
        point = self._check_point(point)
        d2 = np.einsum("ij,ij->i", self.vectors - point, self.vectors - point)
        return int(np.argmin(d2))

    def nearest_words(self, points, candidate_ids=None) -> np.ndarray:
        """Vectorized nearest_word over a (n, d) array of points.

        candidate_ids optionally restricts the argmin to a subset of the
        vocabulary (ascending ids preserve the lowest-id tie break).
        """
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != self.dim:
            raise DimensionMismatchError(
                f"expected (n, {self.dim}) points, got shape {points.shape}"
            )
        if not np.all(np.isfinite(points)):
            raise NonFiniteComponentError("query points contain NaN or Inf")
        if candidate_ids is None:
            ids = None
            cand, cand_sq = self.vectors, self.sq_norms
        else:
            ids = np.sort(np.asarray(candidate_ids, dtype=np.int64))
            cand, cand_sq = self.vectors[ids], self.sq_norms[ids]
        out = np.empty(points.shape[0], dtype=np.int64)
        block_rows = max(1, _NN_BLOCK_ENTRIES // len(cand))
        for lo in range(0, points.shape[0], block_rows):
            block = points[lo : lo + block_rows]
            # ||c - p||^2 = ||c||^2 - 2 c.p + ||p||^2; the ||p||^2 term is
            # constant per row and dropped. Exact ties can shift under this
            # expansion, so refine with true distances on the near-minimal set.
            # Built in place, without two more block-sized temporaries; scaling
            # by -2 is exact, so d2 equals cand_sq - 2.0 * block @ cand.T.
            d2 = block @ cand.T
            d2 *= -2.0
            d2 += cand_sq
            out[lo : lo + block.shape[0]] = _argmin_exact(block, cand, d2)
        if ids is not None:
            out = ids[out]
        return out

    def k_nearest(self, w: int, k: int) -> np.ndarray:
        """Ids of the k closest other vocabulary words to w, sorted by
        (distance, id)."""
        w = self.check_id(w)
        n = len(self.words)
        if not 1 <= k <= n - 1:
            raise InvalidWordIdError(f"k={k} out of range [1, {n - 1}]")
        dists = np.linalg.norm(self.vectors - self.vectors[w], axis=1)
        dists[w] = np.inf
        return np.argsort(dists, kind="stable")[:k]

    def pairwise_distances(self) -> np.ndarray:
        """Full |W| x |W| Euclidean distance matrix (desk-scale only)."""
        from scipy.spatial.distance import cdist

        return cdist(self.vectors, self.vectors)

    def median_nn_distance(self) -> float:
        """Median distance to the nearest distinct neighbor (sigma default)."""
        return float(np.median(self.nn_distances))

    def mean_nn_distance(self) -> float:
        """Mean nearest-distinct-neighbor distance (MH proposal default)."""
        return float(np.mean(self.nn_distances))

    @cached_property
    def nn_distances(self) -> np.ndarray:
        """Per-word distance to the nearest distinct neighbor, read-only:
        one |W| x |W| pass, made on first use and kept for the store's
        lifetime; zeros(1) for a one-word vocabulary."""
        if len(self.words) < 2:
            d = np.zeros(1)
        else:
            d = self.pairwise_distances()
            np.fill_diagonal(d, np.inf)
            d = d.min(axis=1)
        d.setflags(write=False)
        return d


def _argmin_exact(points, cand, d2):
    """Argmin per row with exact-distance tie refinement; overwrites d2."""
    rows = np.arange(d2.shape[0])
    out = np.argmin(d2, axis=1)
    row_min = d2[rows, out]
    # rows where another candidate is within float slop of the minimum: the
    # runner-up, once the minimum is masked out
    slop = 1e-9 * (1.0 + np.abs(row_min))
    d2[rows, out] = np.inf
    close = d2.min(axis=1) <= row_min + slop
    for i in np.nonzero(close)[0]:
        exact = np.linalg.norm(cand - points[i], axis=1)
        out[i] = int(np.argmin(exact))
    return out


def _utf8_lines(fh, path):
    """The lines of a text file opened as UTF-8; bytes that do not decode
    are an EmbeddingFormatError."""
    try:
        yield from fh
    except UnicodeDecodeError as exc:
        raise EmbeddingFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None


def load_embeddings(path, expected_dim: int | None = None, normalize: bool = False) -> EmbeddingStore:
    """Parse a text embedding file into an EmbeddingStore.

    Format: optional first header line "<count> <dim>", then one record per
    line: word followed by d space-separated decimal floats. Duplicate
    words, ragged dimensions, and non-finite components are all rejected.
    """
    words: list[str] = []
    seen: set[str] = set()
    rows: list[np.ndarray] = []
    header_count = None
    header_dim = None
    dim = expected_dim
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(_utf8_lines(fh, path), start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            tokens = line.split()
            if lineno == 1 and len(tokens) == 2:
                try:
                    header_count, header_dim = int(tokens[0]), int(tokens[1])
                except ValueError:
                    pass
                else:
                    if expected_dim is not None and header_dim != expected_dim:
                        raise DimensionMismatchError(
                            f"header dim {header_dim} != expected {expected_dim}"
                        )
                    dim = header_dim
                    continue
            word, comps = tokens[0], tokens[1:]
            if not comps:
                raise EmbeddingFormatError(f"{path}:{lineno}: no vector components")
            try:
                vec = np.array([float(t) for t in comps], dtype=np.float64)
            except ValueError:
                raise EmbeddingFormatError(
                    f"{path}:{lineno}: non-numeric component"
                ) from None
            if dim is None:
                dim = vec.shape[0]
            if vec.shape[0] != dim:
                raise DimensionMismatchError(
                    f"{path}:{lineno}: expected {dim} components, got {vec.shape[0]}"
                )
            if not np.all(np.isfinite(vec)):
                raise NonFiniteComponentError(f"{path}:{lineno}: NaN/Inf component")
            if word in seen:
                raise DuplicateWordError(f"{path}:{lineno}: duplicate word {word!r}")
            seen.add(word)
            words.append(word)
            rows.append(vec)
    if not words:
        raise EmptyVocabularyError(f"{path}: no embedding records")
    if header_count is not None and header_count != len(words):
        raise EmbeddingFormatError(
            f"{path}: header count {header_count} != {len(words)} records"
        )
    return EmbeddingStore.from_arrays(words, np.vstack(rows), normalize=normalize)


def save_cache(store: EmbeddingStore, path) -> None:
    """Write a versioned binary cache of the store (byte-deterministic)."""
    if any(w.endswith("\x00") for w in store.words):
        # a fixed-width unicode array drops trailing NULs
        raise EmbeddingFormatError("a word ending in NUL cannot be cached")
    tmp_fd, tmp_path = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)) or ".")
    try:
        with os.fdopen(tmp_fd, "wb") as fh:
            np.savez(
                fh,
                magic=np.array(CACHE_MAGIC),
                words=np.array(store.words, dtype=np.str_),
                vectors=store.vectors,
            )
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def load_cache(path) -> EmbeddingStore:
    """Read a cache written by save_cache. Nothing in it is unpickled: the
    words are a fixed-width unicode array."""
    try:
        with np.load(path, allow_pickle=False) as data:
            if str(data["magic"]) != CACHE_MAGIC:
                raise EmbeddingFormatError(f"{path}: not a privtext embedding cache")
            words, vectors = data["words"], data["vectors"]
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
    return EmbeddingStore.from_arrays(words.tolist(), vectors)
