import math

import numpy as np
import pytest

from privtext import EmbeddingStore, embeddings, load_embeddings
from privtext.embeddings import CACHE_MAGIC, load_cache, save_cache
from privtext.errors import (
    DimensionMismatchError,
    DuplicateWordError,
    EmbeddingFormatError,
    EmptyVocabularyError,
    InvalidWordIdError,
    NonFiniteComponentError,
)

from conftest import random_store


unpickled = []


def _record_unpickle(tag):
    unpickled.append(tag)
    return tag


class PickleProbe:
    """Records in `unpickled` when a pickle of it is loaded."""

    def __reduce__(self):
        return (_record_unpickle, ("probe",))


def write(tmp_path, text, name="emb.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoad:
    def test_basic_file(self, tmp_path):
        store = load_embeddings(write(tmp_path, "a 0 0\nb 3 4\nc 0 1\n"))
        assert len(store) == 3
        assert store.dim == 2
        assert store.words == ("a", "b", "c")

    def test_header_line(self, tmp_path):
        store = load_embeddings(write(tmp_path, "2 3\na 0 0 0\nb 1 1 1\n"))
        assert len(store) == 2 and store.dim == 3

    def test_header_count_mismatch(self, tmp_path):
        with pytest.raises(EmbeddingFormatError):
            load_embeddings(write(tmp_path, "3 2\na 0 0\nb 1 1\n"))

    def test_duplicate_word(self, tmp_path):
        with pytest.raises(DuplicateWordError):
            load_embeddings(write(tmp_path, "a 0 0\na 1 1\n"))

    def test_dimension_mismatch(self, tmp_path):
        with pytest.raises(DimensionMismatchError):
            load_embeddings(write(tmp_path, "a 0 0\nb 1.0\n"))

    def test_non_numeric(self, tmp_path):
        with pytest.raises(EmbeddingFormatError):
            load_embeddings(write(tmp_path, "a 0 zero\n"))

    def test_nan_component(self, tmp_path):
        with pytest.raises(NonFiniteComponentError):
            load_embeddings(write(tmp_path, "a 0 nan\n"))

    def test_empty_file(self, tmp_path):
        with pytest.raises(EmptyVocabularyError):
            load_embeddings(write(tmp_path, ""))

    def test_expected_dim(self, tmp_path):
        with pytest.raises(DimensionMismatchError):
            load_embeddings(write(tmp_path, "a 0 0\n"), expected_dim=3)

    def test_deterministic_round_trip(self, tmp_path):
        path = write(tmp_path, "a 0.25 -1\nb 3 4\n")
        s1 = load_embeddings(path)
        s2 = load_embeddings(path)
        assert s1.words == s2.words
        assert np.array_equal(s1.vectors, s2.vectors)

    def test_cache_round_trip(self, tmp_path, toy3):
        path = tmp_path / "emb.npz"
        save_cache(toy3, path)
        back = load_cache(path)
        assert back.words == toy3.words
        assert np.array_equal(back.vectors, toy3.vectors)

    def test_cache_object_array_rejected_unpickled(self, tmp_path):
        # an object array would be unpickled by allow_pickle=True, running
        # whatever its pickle names; the loader must refuse it unread
        unpickled.clear()
        path = tmp_path / "evil.npz"
        np.savez(
            path,
            magic=np.array(CACHE_MAGIC),
            words=np.array([PickleProbe(), "b"], dtype=object),
            vectors=np.zeros((2, 2)),
        )
        with pytest.raises(EmbeddingFormatError):
            load_cache(path)
        assert unpickled == []

    def test_cache_malformed_files_rejected(self, tmp_path, toy3):
        path = tmp_path / "bad.npz"
        for payload in (b"", b"PK\x03\x04garbage", b"not an npz at all"):
            path.write_bytes(payload)
            with pytest.raises(EmbeddingFormatError):
                load_cache(path)
        np.save(tmp_path / "plain.npy", np.zeros(3))
        with pytest.raises(EmbeddingFormatError):
            load_cache(tmp_path / "plain.npy")
        # well-formed npz files holding the wrong arrays
        magic = np.array(CACHE_MAGIC)
        for words, vectors in (
            (np.array([["a", "b"], ["c", "d"]]), np.zeros((2, 2))),  # 2-D words
            (np.array(["a", "b"]), np.array([["1", "2"], ["3", "4"]])),  # string vectors
        ):
            np.savez(path, magic=magic, words=words, vectors=vectors)
            with pytest.raises(EmbeddingFormatError):
                load_cache(path)
        # a corrupt deflate stream inside a compressed npz
        np.savez_compressed(path, magic=magic, words=np.array(["a" * 200, "b" * 200]),
                            vectors=np.zeros((2, 50)))
        data = bytearray(path.read_bytes())
        start = data.index(b"words.npy") + 40
        data[start : start + 30] = bytes(b ^ 0x5A for b in data[start : start + 30])
        path.write_bytes(bytes(data))
        with pytest.raises(EmbeddingFormatError):
            load_cache(path)
        with pytest.raises(EmbeddingFormatError):
            save_cache(EmbeddingStore.from_arrays(["a\x00", "a"], [[0.0], [1.0]]), path)

    def test_non_utf8_file(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_bytes(b"a 0 0\n\xe9t\xe9 1 1\n")
        with pytest.raises(EmbeddingFormatError, match="UTF-8"):
            load_embeddings(str(path))


class TestDistance:
    def test_345_triangle(self, toy3):
        assert toy3.distance(0, 1) == 5.0

    def test_self_distance(self, toy3):
        assert toy3.distance(1, 1) == 0.0

    def test_unit_offset(self, toy3):
        assert toy3.distance(0, 2) == 1.0

    def test_invalid_id(self, toy3):
        with pytest.raises(InvalidWordIdError):
            toy3.distance(0, 3)

    def test_symmetry_and_triangle_property(self):
        gen = np.random.default_rng(7)
        for _ in range(20):
            store = random_store(gen, 12, 4)
            i, j, k = gen.integers(0, 12, size=3)
            assert store.distance(i, j) == pytest.approx(store.distance(j, i))
            assert store.distance(i, k) <= store.distance(i, j) + store.distance(j, k) + 1e-12


class TestNearestWord:
    def test_exact_hit(self, toy3):
        assert toy3.nearest_word(toy3.vector(1)) == 1

    def test_tie_breaks_low_id(self, toy3):
        # (0, 0.5) is equidistant between a (id 0) and c (id 2)
        assert toy3.nearest_word([0.0, 0.5]) == 0

    def test_brute_force_oracle(self, toy3):
        point = [2.9, 3.9]
        dists = [math.dist(point, toy3.vector(i)) for i in range(3)]
        assert toy3.nearest_word(point) == dists.index(min(dists)) == 1

    def test_self_recovery_when_distinct(self):
        gen = np.random.default_rng(3)
        store = random_store(gen, 50, 5)
        for w in range(50):
            assert store.nearest_word(store.vector(w)) == w

    def test_dimension_and_finiteness_checks(self, toy3):
        with pytest.raises(DimensionMismatchError):
            toy3.nearest_word([1.0])
        with pytest.raises(NonFiniteComponentError):
            toy3.nearest_word([np.nan, 0.0])

    def test_batch_matches_scalar(self):
        gen = np.random.default_rng(11)
        store = random_store(gen, 40, 3)
        points = gen.normal(size=(500, 3))
        batch = store.nearest_words(points)
        for i in range(500):
            assert batch[i] == store.nearest_word(points[i])

    def test_batch_restricted_candidates(self):
        gen = np.random.default_rng(13)
        store = random_store(gen, 30, 3)
        cands = np.array([3, 7, 20])
        points = gen.normal(size=(200, 3))
        batch = store.nearest_words(points, candidate_ids=cands)
        for i in range(200):
            dists = [math.dist(points[i], store.vector(c)) for c in cands]
            assert batch[i] == cands[int(np.argmin(dists))]

    def test_small_blocks_match_one_block(self, monkeypatch):
        # ties included: duplicate vectors and points on a bisector
        gen = np.random.default_rng(19)
        vecs = gen.normal(size=(40, 3))
        vecs[7] = vecs[3]
        store = EmbeddingStore.from_arrays([f"w{i}" for i in range(40)], vecs)
        points = np.vstack([gen.normal(size=(97, 3)), vecs[3], (vecs[0] + vecs[1]) / 2])
        cands = np.array([1, 3, 7, 20, 0])
        whole = store.nearest_words(points)
        whole_cand = store.nearest_words(points, candidate_ids=cands)
        for budget in (1, 5, 100):
            monkeypatch.setattr(embeddings, "_NN_BLOCK_ENTRIES", budget)
            assert np.array_equal(store.nearest_words(points), whole)
            assert np.array_equal(store.nearest_words(points, candidate_ids=cands), whole_cand)
        assert whole.tolist() == [store.nearest_word(p) for p in points]


class TestKNearest:
    def test_all_others_sorted(self, toy3):
        ids = toy3.k_nearest(0, 2)
        assert ids.dtype == np.int64
        assert ids.tolist() == [2, 1]
        assert [toy3.distance(0, u) for u in ids] == pytest.approx([1.0, 5.0])

    def test_closest_to_b(self, toy3):
        # d(b,a)=5, d(b,c)=sqrt(18)~4.243: c wins
        assert toy3.k_nearest(1, 1).tolist() == [2]

    def test_k_zero_rejected(self, toy3):
        with pytest.raises(InvalidWordIdError):
            toy3.k_nearest(0, 0)

    def test_k_too_large_rejected(self, toy3):
        with pytest.raises(InvalidWordIdError):
            toy3.k_nearest(0, 3)

    def test_full_sort_oracle_large_vocab(self):
        gen = np.random.default_rng(21)
        store = random_store(gen, 1000, 4)
        w = 17
        naive = sorted(
            ((store.distance(w, u), u) for u in range(1000) if u != w)
        )
        assert store.k_nearest(w, 25).tolist() == [u for _, u in naive[:25]]

    def test_ties_break_toward_lower_id(self):
        # w1, w2 and w3 are all at distance 1 from w0
        store = EmbeddingStore.from_arrays(
            ["w0", "w1", "w2", "w3"], [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [-1.0, 0.0]]
        )
        assert store.k_nearest(0, 3).tolist() == [1, 2, 3]
        assert store.k_nearest(2, 3).tolist() == [0, 1, 3]


def test_store_is_immutable(toy3):
    with pytest.raises(ValueError):
        toy3.vectors[0, 0] = 99.0


def test_normalize_flag():
    store = EmbeddingStore.from_arrays(["a", "b"], [[3, 4], [0, 2]], normalize=True)
    assert np.allclose(np.linalg.norm(store.vectors, axis=1), 1.0)


@pytest.mark.parametrize("normalize", [False, True])
def test_sq_norms_are_the_final_vectors_norms(normalize):
    gen = np.random.default_rng(4)
    # a Fortran-ordered input, so the store has to copy it
    vecs = np.asfortranarray(gen.normal(size=(30, 7)) * 3.0)
    store = EmbeddingStore.from_arrays([f"w{i}" for i in range(30)], vecs, normalize=normalize)
    assert np.array_equal(store.sq_norms, np.einsum("ij,ij->i", store.vectors, store.vectors))
    with pytest.raises(ValueError):
        store.sq_norms[0] = 0.0


def test_nn_distances_computed_once(monkeypatch):
    store = random_store(np.random.default_rng(6), 12, 3)
    calls = []
    pairwise = EmbeddingStore.pairwise_distances

    def counting(self):
        calls.append(1)
        return pairwise(self)

    monkeypatch.setattr(EmbeddingStore, "pairwise_distances", counting)
    d = pairwise(store)
    np.fill_diagonal(d, np.inf)
    assert store.median_nn_distance() == np.median(d.min(axis=1))
    assert store.mean_nn_distance() == np.mean(d.min(axis=1))
    assert len(calls) == 1
    with pytest.raises(ValueError):
        store.nn_distances[0] = 0.0
