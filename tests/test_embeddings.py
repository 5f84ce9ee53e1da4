import io
import math
import re
import tracemalloc
import warnings
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from privtext import EmbeddingStore, embeddings, load_embeddings
from privtext.embeddings import CACHE_MAGIC, load_cache, save_cache
from privtext.errors import (
    ConfigError,
    DimensionMismatchError,
    DuplicateWordError,
    EmbeddingFormatError,
    EmptyVocabularyError,
    InvalidWordIdError,
    NonFiniteComponentError,
)

from conftest import count_passes, random_store
from oracles import distance, local_by_cdist, nearest_by_cdist, nearest_word


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

    @pytest.mark.parametrize("text, error, word", [
        ("a 0 0\nb 1 inf\nc nan 2\n", NonFiniteComponentError, "'b'"),
        ("a 0 0\nb 1 1\nb 2 2\na 3 3\n", DuplicateWordError, "'a'"),
    ])
    def test_store_checks_name_the_file_and_the_word(self, tmp_path, text, error, word):
        # the loader leaves finiteness and duplicates to EmbeddingStore._adopt
        path = write(tmp_path, text)
        with pytest.raises(error, match=f"^{re.escape(path)}: .*{word}"):
            load_embeddings(path)

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

    @pytest.mark.parametrize("exc", [OSError("disk full"), KeyboardInterrupt()])
    def test_failed_write_leaves_the_destination(self, tmp_path, toy3, monkeypatch, exc):
        # the cache and every CLI --out file go through atomic_file: a write
        # that fails midway keeps the old bytes and leaves no temp file
        path = tmp_path / "emb.npz"
        save_cache(toy3, path)
        before = path.read_bytes()

        def savez_then_fail(fh, **arrays):
            fh.write(b"PK partial")
            raise exc

        monkeypatch.setattr(np, "savez", savez_then_fail)
        with pytest.raises(type(exc)):
            save_cache(toy3, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["emb.npz"]

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

    @pytest.mark.parametrize("shape", [(3, 2), (-1, 2), (2, -2)])
    def test_cache_vectors_header_must_match_data(self, tmp_path, shape):
        # the header of vectors.npy declares a shape its 4 values cannot fill
        npy = io.BytesIO()
        np.lib.format.write_array_header_1_0(
            npy, {"descr": "<f8", "fortran_order": False, "shape": shape})
        npy.write(np.zeros(4).tobytes())
        words = io.BytesIO()
        np.save(words, np.array(["a", "b", "c"]))
        magic = io.BytesIO()
        np.save(magic, np.array(CACHE_MAGIC))
        path = tmp_path / "short.npz"
        with zipfile.ZipFile(path, "w") as zf:
            for name, member in (("magic", magic), ("words", words), ("vectors", npy)):
                zf.writestr(f"{name}.npy", member.getvalue())
        with pytest.raises(EmbeddingFormatError):
            load_cache(path)

    def test_cache_load_views_the_vectors(self, tmp_path):
        # the store's vectors view the bytes read from the zip; np.load's
        # reader filled its array through 256 KiB chunks, freed at once
        # (0.42 of the vectors' size at this shape)
        store = random_store(np.random.default_rng(3), 2000, 50)
        path = tmp_path / "emb.npz"
        save_cache(store, path)
        tracemalloc.start()
        try:
            back = load_cache(path)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(back.vectors, store.vectors) and not back.vectors.flags.writeable
        assert peak - kept < store.vectors.nbytes / 4

    def test_from_arrays_leaves_the_callers_array_writeable(self):
        v = np.array([[0.0, 0.0], [3.0, 4.0], [0.0, 1.0]])
        store = EmbeddingStore.from_arrays(["a", "b", "c"], v)
        ref = EmbeddingStore.from_arrays(["a", "b", "c"], v.copy())
        assert v.flags.writeable and store.vectors is not v
        v[:] = 100.0
        # nn_distances is first computed after the write
        for name in ("vectors", "sq_norms", "nn_distances"):
            assert np.array_equal(getattr(store, name), getattr(ref, name))

    def test_from_arrays_copies_a_read_only_input(self):
        v = np.array([[0.0, 0.0], [3.0, 4.0], [0.0, 1.0]])
        v.setflags(write=False)
        store = EmbeddingStore.from_arrays(["a", "b", "c"], v)
        assert not np.shares_memory(store.vectors, v) and not store.vectors.flags.writeable
        assert np.array_equal(store.vectors, v)

    def test_from_arrays_copies_a_read_only_view_of_a_writeable_array(self):
        v = np.array([[0.0, 0.0], [3.0, 4.0], [0.0, 1.0]])
        view = v.view()
        view.setflags(write=False)
        store = EmbeddingStore.from_arrays(["a", "b", "c"], view)
        ref = EmbeddingStore.from_arrays(["a", "b", "c"], v.copy())
        v[:] = 100.0
        for name in ("vectors", "sq_norms", "nn_distances"):
            assert np.array_equal(getattr(store, name), getattr(ref, name))

    def test_loaders_hand_over_without_a_copy(self, tmp_path, toy3, monkeypatch):
        given = []
        adopt = EmbeddingStore._adopt.__func__

        def recording(cls, words, vectors):
            given.append(vectors)
            return adopt(cls, words, vectors)

        monkeypatch.setattr(EmbeddingStore, "_adopt", classmethod(recording))
        save_cache(toy3, tmp_path / "c.npz")
        text = tmp_path / "emb.txt"
        text.write_text("a 0 0\nb 3 4\n", encoding="utf-8")
        for load, path in ((load_cache, tmp_path / "c.npz"), (load_embeddings, text)):
            assert load(path).vectors is given[-1]

    def test_non_utf8_file(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_bytes(b"a 0 0\n\xe9t\xe9 1 1\n")
        with pytest.raises(EmbeddingFormatError, match="UTF-8"):
            load_embeddings(str(path))


class TestDistance:
    # the library's distances: pairwise_distances for the audit, nn_distances
    # (the blocked pass) for per-word geometry
    def test_345_triangle(self, toy3):
        assert toy3.pairwise_distances()[0, 1] == 5.0

    def test_self_distance(self, toy3):
        assert np.all(np.diag(toy3.pairwise_distances()) == 0.0)

    def test_unit_offset(self, toy3):
        assert toy3.pairwise_distances()[0, 2] == 1.0
        # a and c are each other's nearest neighbour; b's is c, at sqrt(18)
        assert toy3.nn_distances.tolist() == [1.0, math.sqrt(18), 1.0]

    def test_invalid_id(self, toy3):
        with pytest.raises(InvalidWordIdError):
            toy3.vector(3)

    def test_non_integer_ids_rejected(self, toy3):
        # each was truncated to an id, or escaped as a ValueError or an
        # OverflowError
        for w in (1.7, np.float64(2.9), True, "2", math.nan, math.inf):
            with pytest.raises(InvalidWordIdError, match="integer"):
                toy3.check_id(w)
        assert toy3.check_id(np.int32(2)) == 2 and toy3.check_id(np.uint8(1)) == 1

    def test_symmetry_and_triangle_property(self):
        gen = np.random.default_rng(7)
        for _ in range(20):
            store = random_store(gen, 12, 4)
            d = store.pairwise_distances()
            i, j, k = gen.integers(0, 12, size=3)
            assert d[i, j] == pytest.approx(d[j, i])
            assert d[i, k] <= d[i, j] + d[j, k] + 1e-12
            if i != j:
                assert store.nn_distances[i] <= d[i, j]


# exponents of the component scale: subnormal components (1e-310), subnormal
# squares (1e-160, 1e-200), ordinary, and far from the origin, where squares
# (1e154) or differences (1e300) overflow
SCALES = st.sampled_from([-310, -200, -160, -3, 0, 3, 100, 150, 154, 300])
exact_cases = settings(max_examples=150, deadline=None, derandomize=True, database=None)


class TestPairedDistances:
    """paired_distances, the numpy kernel that decides every exact query,
    against scipy's cdist: equal under array_equal, Inf included."""

    @exact_cases
    @given(
        dim=st.sampled_from([1, 2, 3, 8, 9, 17, 50, 300]),
        rows=st.sampled_from([1, 2, 7, 40]),
        cols=st.sampled_from([1, 3, 40]),
        scale=SCALES,
        offset=st.sampled_from([None, 0, 150, 154, 300]),
        duplicates=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_cdist(self, dim, rows, cols, scale, offset, duplicates, seed):
        gen = np.random.default_rng(seed)
        a = gen.normal(size=(rows, dim)) * 10.0**scale
        b = gen.normal(size=(cols, dim)) * 10.0**scale
        if offset is not None:
            # a cluster far from the origin, or two on either side of it
            a += 10.0**offset
            b -= 10.0**offset * gen.integers(-1, 2, size=(cols, 1))
        if duplicates:
            b[: min(rows, cols)] = a[: min(rows, cols)]
        partner = np.arange(rows) % cols
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # one row against every column, as the refinements call it, and
            # each row against its own partner, as nn_distances does
            by_row = np.vstack([embeddings.paired_distances(a[i : i + 1], b) for i in range(rows)])
            paired = embeddings.paired_distances(a, b[partner])
        expected = cdist(a, b)
        assert np.array_equal(by_row, expected)
        assert np.array_equal(paired, expected[np.arange(rows), partner])

    def test_overflow_is_inf_without_a_warning(self):
        a = np.array([[1e154, 1e154], [1e300, 0.0], [0.0, 0.0]])
        b = np.array([[-1e154, 0.0], [-1e300, 0.0], [1e-160, 1e-160]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = embeddings.paired_distances(a, b)
        assert np.array_equal(got, np.diagonal(cdist(a, b)))
        assert np.isinf(got[:2]).all() and 0 < got[2] < 1e-159

    def test_not_np_sum(self):
        # the pairwise order of np.sum splits cdist's value by an ulp on
        # these rows: the kernel has to keep cdist's order
        gen = np.random.default_rng(3)
        a, b = gen.normal(size=(200, 300)), gen.normal(size=(200, 300))
        by_sum = np.sqrt(np.sum((a - b) ** 2, axis=1))
        expected = np.diagonal(cdist(a, b))
        assert not np.array_equal(by_sum, expected)
        assert np.array_equal(embeddings.paired_distances(a, b), expected)

    @pytest.mark.parametrize("budget", [1, 7, 2**15])
    def test_blocked_rows_equal_one_cdist_row(self, monkeypatch, budget):
        # exact_distances takes its pairs in blocks of _EXACT_BLOCK_ENTRIES
        monkeypatch.setattr(embeddings, "_EXACT_BLOCK_ENTRIES", budget)
        gen = np.random.default_rng(4)
        a, b = gen.normal(size=(3, 9)), gen.normal(size=(50, 9))
        keep = gen.random((3, 50)) < 0.6
        for i, cand, dist in embeddings.exact_distances(a, b, keep):
            assert np.array_equal(cand, np.flatnonzero(keep[i]))
            assert np.array_equal(dist, cdist(a[i : i + 1], b[cand])[0])


class TestNearestWord:
    def test_exact_hit(self, toy3):
        assert toy3.nearest_words([toy3.vector(1)]).tolist() == [1]

    def test_tie_breaks_low_id(self, toy3):
        # (0, 0.5) is equidistant between a (id 0) and c (id 2)
        assert toy3.nearest_words([[0.0, 0.5]]).tolist() == [0]

    def test_brute_force_oracle(self, toy3):
        point = [2.9, 3.9]
        dists = [math.dist(point, toy3.vector(i)) for i in range(3)]
        assert toy3.nearest_words([point]).tolist() == [dists.index(min(dists))] == [1]

    def test_self_recovery_when_distinct(self):
        gen = np.random.default_rng(3)
        store = random_store(gen, 50, 5)
        assert store.nearest_words(store.vectors).tolist() == list(range(50))

    def test_dimension_and_finiteness_checks(self, toy3):
        for bad in ([1.0, 0.0], [[1.0]], np.zeros((2, 3))):
            with pytest.raises(DimensionMismatchError):
                toy3.nearest_words(bad)
        for bad in ([[np.nan, 0.0]], [[0.0, 0.0], [np.inf, 1.0]]):
            with pytest.raises(NonFiniteComponentError):
                toy3.nearest_words(bad)

    @pytest.mark.parametrize("points", [[["x", "y"]], [[True, False]], [[1.0], [1.0, 2.0]]])
    def test_points_must_be_numbers(self, toy3, points):
        # strings ended in a bare ValueError and bools were decoded as 1 and 0
        with pytest.raises(ConfigError, match="points must hold numbers"):
            toy3.nearest_words(points)

    def test_batch_matches_scalar(self):
        gen = np.random.default_rng(11)
        store = random_store(gen, 40, 3)
        points = gen.normal(size=(500, 3))
        batch = store.nearest_words(points)
        for i in range(500):
            assert batch[i] == nearest_word(store, points[i])

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
        assert whole.tolist() == [nearest_word(store, p) for p in points]

    @pytest.mark.parametrize("budget", [1, 5, 2**20])
    @pytest.mark.parametrize("kind", ["duplicates", "offset", "grid", "huge", "tiny", "sphere"])
    def test_near_ties_match_cdist_argmin(self, monkeypatch, kind, budget):
        # points on bisectors (near the words and 1000 times as far out),
        # at duplicated words and a few ulps off them, near the origin and
        # far from every word; (offset) a store whose float32 and GEMM-form
        # distances lose every digit that separates the candidates; (huge)
        # one whose far points overflow some cdist sums; (tiny) one whose
        # cdist sums underflow to zero; (sphere) one whose words all have
        # one norm, so that near the origin their norms' rounding decides
        monkeypatch.setattr(embeddings, "_NN_BLOCK_ENTRIES", budget)
        gen = np.random.default_rng(29)
        if kind == "grid":
            vecs = np.array([[x, y] for x in range(6) for y in range(6)], dtype=np.float64)
        else:
            vecs = gen.normal(size=(60, 3))
            if kind == "duplicates":
                vecs[30:] = vecs[:30]
            elif kind == "offset":
                vecs = 1e6 + 1e-3 * vecs
            elif kind == "sphere":
                vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
            else:
                vecs *= 1e150 if kind == "huge" else 1e-200
        store = EmbeddingStore.from_arrays([f"w{i}" for i in range(len(vecs))], vecs)
        i, j = gen.integers(0, len(vecs), size=(2, 200))
        mid = (vecs[i] + vecs[j]) / 2
        dim = vecs.shape[1]
        # out along the bisector plane of words i and j
        w = vecs[j] - vecs[i]
        r = gen.normal(size=w.shape)
        ww = np.einsum("ij,ij->i", w, w)
        r -= np.divide(np.einsum("ij,ij->i", r, w), ww, out=np.zeros(len(w)), where=ww > 0)[:, None] * w
        out = mid + 1e3 * np.abs(vecs).max() * r
        points = np.vstack([
            mid,
            np.nextafter(mid, np.inf),
            np.nextafter(mid, -np.inf),
            out,
            np.nextafter(out, np.inf),
            np.nextafter(out, -np.inf),
            1e-6 * np.abs(vecs).max() * gen.normal(size=(20, dim)),
            vecs,
            vecs + 1e-12 * gen.normal(size=vecs.shape),
            # beyond float32 after scaling, past float64 in cdist, or both
            1e300 * gen.normal(size=(10, dim)),
            1e154 * gen.normal(size=(10, dim)),
            # a block that mixes rows at 1 with rows at 1e60
            gen.normal(size=(10, dim)) * np.repeat([[1.0], [1e60]], 5, axis=0),
        ])
        assert np.array_equal(store.nearest_words(points), nearest_by_cdist(store, points))
        cands = np.sort(gen.choice(len(vecs), size=len(vecs) // 3, replace=False))
        assert np.array_equal(
            store.nearest_words(points, candidate_ids=cands),
            nearest_by_cdist(store, points, cands),
        )

    def test_candidate_ids_are_checked(self, toy3):
        # a negative id would wrap around, a float one be truncated
        for bad in ([-1, 0], [5], [], [0.7, 1.2], [[0, 1]], [True, False]):
            with pytest.raises(InvalidWordIdError):
                toy3.nearest_words([[4.9, 4.9]], candidate_ids=bad)
        assert toy3.nearest_words([[4.9, 4.9]], candidate_ids=[2, 0, 2]).tolist() == [2]


class TestScreen:
    """The float32 copy of the store that nearest_words screens with."""

    def test_made_once_float32_read_only(self):
        store = random_store(np.random.default_rng(8), 300, 6)
        assert "_screen" not in vars(store)
        store.nearest_words(store.vectors[:3])
        screen = store._screen
        store.nearest_words(store.vectors[3:9], candidate_ids=[1, 2, 3])
        assert store._screen is screen
        for arr in (screen.vectors, screen.upper, screen.spread):
            assert arr.dtype == np.float32 and not arr.flags.writeable
        top = np.abs(screen.vectors).max()
        assert 0.5 <= top < 1.0
        assert np.array_equal(screen.vectors.T, (store.vectors * screen.scale).astype(np.float32))

    def test_vocabulary_major(self):
        # (d, |W|) and C-contiguous: a decode's GEMM takes it as it is stored
        store = random_store(np.random.default_rng(7), 300, 6)
        vectors = store._screen.vectors
        assert vectors.shape == (6, 300) and vectors.flags.c_contiguous

    def test_decode_makes_no_copy_of_the_screen(self):
        store = random_store(np.random.default_rng(6), 2000, 128)
        screen = store._screen
        gen = np.random.default_rng(5)
        for rows in (1, 3, 12):
            points = store.vectors[gen.integers(0, 2000, size=rows)] + 0.1
            tracemalloc.start()
            try:
                got = store.nearest_words(points)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            # a transposed copy would be the whole screen; hi is 12 x 2000
            # float32 at most
            assert peak < screen.vectors.nbytes / 4
            assert np.array_equal(got, nearest_by_cdist(store, points))

    def test_bound_covers_subnormal_rounding(self):
        # Word 0 sets the scale to 1; words 1 and 2 lie so near the point
        # that every float32 product and square of the screen lands among
        # the subnormals (multiples of eta32 = 2^-149), and each component
        # is picked so that its roundings favour word 2 by almost 3 eta32.
        # The screen then puts word 2 ahead by 46 eta32, past a quarter of
        # the bound (2 err = 8 (d + 4) eta32 = 160 eta32), while word 1 is
        # nearer by 0.84 eta32. The sums are exact on that grid, so the
        # float32 values do not depend on the BLAS.
        d, eta = 16, 2.0**-149
        c1 = np.full(d, 19.4873046875)
        c2 = np.r_[np.full(d - 1, 18.513427734375), 30.524169921875]
        vecs = np.vstack([np.r_[0.75, np.zeros(d - 1)], c1 * 2.0**-74, c2 * 2.0**-74])
        store = EmbeddingStore.from_arrays(["w0", "w1", "w2"], vecs)
        point = np.full((1, d), 2.0**-75)
        v32 = store._screen.vectors[:, 1:]
        assert store._screen.scale == 1.0
        d2 = np.einsum("ji,ji->i", v32, v32) - 2 * (point[0].astype(np.float32) @ v32)
        assert (d2[0] - d2[1]) / eta == 46
        for cands in ([1, 2], None):
            assert store.nearest_words(point, cands).tolist() == [1]
            assert nearest_by_cdist(store, point, cands).tolist() == [1]

    def test_build_holds_no_float64_copy(self):
        store = random_store(np.random.default_rng(9), 4000, 64)
        tracemalloc.start()
        try:
            screen = store._screen
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a float64 temporary of the vocabulary alone would be 2x the copy
        assert peak < 1.25 * screen.vectors.nbytes

    def test_decode_block_is_half_the_float64_block(self):
        # one full block: 2**20 (row, candidate) entries, 8 MiB as float64
        n = 4096
        store = random_store(np.random.default_rng(10), n, 16)
        points = store.vectors[: embeddings._NN_BLOCK_ENTRIES // n] + 0.1
        store.nearest_words(points[:1])
        tracemalloc.start()
        try:
            got = store.nearest_words(points)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.75 * embeddings._NN_BLOCK_ENTRIES * 8
        assert np.array_equal(got, nearest_by_cdist(store, points))


class TestKNearest:
    def test_distance_row_is_a_cdist_row(self):
        vecs = np.random.default_rng(0).normal(size=(40, 64))
        store = EmbeddingStore.from_arrays([f"w{i}" for i in range(40)], vecs)
        for w in (0, 17, 39):
            assert np.array_equal(store.distance_row(w), cdist(vecs[w : w + 1], vecs)[0])
        # a new array each call: k_nearest writes to its own
        store.k_nearest(17, 3)
        assert store.distance_row(17)[17] == 0.0
        with pytest.raises(InvalidWordIdError):
            store.distance_row(40)

    def test_all_others_sorted(self, toy3):
        ids = toy3.k_nearest(0, 2)
        assert ids.dtype == np.int64
        assert ids.tolist() == [2, 1]
        assert [distance(toy3, 0, u) for u in ids] == pytest.approx([1.0, 5.0])

    def test_closest_to_b(self, toy3):
        # d(b,a)=5, d(b,c)=sqrt(18)~4.243: c wins
        assert toy3.k_nearest(1, 1).tolist() == [2]

    def test_k_zero_rejected(self, toy3):
        with pytest.raises(InvalidWordIdError):
            toy3.k_nearest(0, 0)

    def test_k_too_large_rejected(self, toy3):
        with pytest.raises(InvalidWordIdError):
            toy3.k_nearest(0, 3)

    @pytest.mark.parametrize("k", [True, 1.5, 1.0, "1", None])
    def test_k_must_be_an_integer(self, toy3, k):
        # True returned one neighbour; 1.5 ended in a bare TypeError
        with pytest.raises(ConfigError, match="k must be an integer"):
            toy3.k_nearest(0, k)

    def test_full_sort_oracle_large_vocab(self):
        gen = np.random.default_rng(21)
        store = random_store(gen, 1000, 4)
        w = 17
        naive = sorted(
            ((distance(store, w, u), u) for u in range(1000) if u != w)
        )
        assert store.k_nearest(w, 25).tolist() == [u for _, u in naive[:25]]

    def test_ties_break_toward_lower_id(self):
        # w1, w2 and w3 are all at distance 1 from w0
        store = EmbeddingStore.from_arrays(
            ["w0", "w1", "w2", "w3"], [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [-1.0, 0.0]]
        )
        assert store.k_nearest(0, 3).tolist() == [1, 2, 3]
        assert store.k_nearest(2, 3).tolist() == [0, 1, 3]

    def test_cdist_ties_break_toward_lower_id(self):
        # on a 0.1 grid in d = 64 many distances tie exactly under cdist (word
        # 3's 16 and 52, word 4's 3 and 35, ...); a sum of the same squares
        # in another order splits some of them by an ulp
        n = 60
        vecs = np.random.default_rng(0).integers(0, 4, size=(n, 64)) * 0.1
        store = EmbeddingStore.from_arrays([f"w{i}" for i in range(n)], vecs)
        dist = cdist(vecs, vecs)
        assert dist[3, 16] == dist[3, 52] and dist[4, 3] == dist[4, 35]
        for w in range(n):
            expected = sorted((u for u in range(n) if u != w), key=lambda u: (dist[w, u], u))
            assert store.k_nearest(w, n - 1).tolist() == expected


def test_store_is_immutable(toy3):
    with pytest.raises(ValueError):
        toy3.vectors[0, 0] = 99.0


def test_sq_norms_are_the_final_vectors_norms():
    gen = np.random.default_rng(4)
    # a Fortran-ordered input, so the store has to copy it
    vecs = np.asfortranarray(gen.normal(size=(30, 7)) * 3.0)
    store = EmbeddingStore.from_arrays([f"w{i}" for i in range(30)], vecs)
    assert np.array_equal(store.sq_norms, np.einsum("ij,ij->i", store.vectors, store.vectors))
    with pytest.raises(ValueError):
        store.sq_norms[0] = 0.0


def test_nn_distances_computed_once(monkeypatch):
    store = random_store(np.random.default_rng(6), 12, 3)
    calls = count_passes(monkeypatch)
    local = local_by_cdist(store)
    assert store.median_nn_distance() == np.median(local)
    assert store.mean_nn_distance() == np.mean(local)
    assert len(calls) == 1
    with pytest.raises(ValueError):
        store.nn_distances[0] = 0.0


def tile_store(kind: str, n: int, dim: int) -> EmbeddingStore:
    vecs = np.random.default_rng(31).normal(size=(n, dim))
    if kind == "offset":
        # every pair within the rounding bound: each row falls back to cdist
        vecs = 1e6 + 1e-3 * vecs
    elif kind == "duplicates":
        vecs[n // 2 :] = vecs[: n // 2]
    return EmbeddingStore.from_arrays([f"w{i}" for i in range(n)], vecs)


def record_tiles(monkeypatch) -> list:
    """Record (i, j, rows, cols) of every tile the tile generator yields."""
    tiles = []
    blocks = EmbeddingStore.distance_blocks

    def recording(self):
        for i, j, s2 in blocks(self):
            tiles.append((i, j, *s2.shape))
            yield i, j, s2

    monkeypatch.setattr(EmbeddingStore, "distance_blocks", recording)
    return tiles


@pytest.mark.parametrize("budget", [1, 16, 50, 2**20])
def test_tiles_form_each_pair_once(monkeypatch, budget):
    monkeypatch.setattr(embeddings, "_NN_BLOCK_ENTRIES", budget)
    tiles = record_tiles(monkeypatch)
    n, side = 30, math.isqrt(budget)
    store = tile_store("random", n, 3)
    assert np.array_equal(store.nn_distances, local_by_cdist(store))
    assert sum(r * c for _, _, r, c in tiles) <= n * (n + side) / 2
    seen = np.zeros((n, n), dtype=np.int64)
    for i, j, r, c in tiles:
        assert i <= j and r <= side and c <= side
        seen[i : i + r, j : j + c] += 1
    # each unordered pair lies in exactly one tile: once above the diagonal,
    # in both orders within a diagonal tile
    block = np.arange(n) // side
    other = ~np.eye(n, dtype=bool)
    expected = np.where(block[:, None] == block[None, :], 2, 1)
    assert np.array_equal((seen + seen.T)[other], expected[other])


@pytest.mark.parametrize("budget", [2**18, 2**20])
@pytest.mark.parametrize("kind", ["random", "offset", "duplicates"])
def test_nn_pass_memory_is_two_tiles(monkeypatch, kind, budget):
    # at |W| = 4000 the tiles are 8 x 8 (2**18) or 4 x 4 (2**20) per side;
    # the whole pass holds about one tile, its runner-up scan and O(|W|)
    monkeypatch.setattr(embeddings, "_NN_BLOCK_ENTRIES", budget)
    n = 4000
    store = tile_store(kind, n, 4)
    tracemalloc.start()
    try:
        local = store.nn_distances
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * budget * 8 + 32 * n * 8
    assert np.array_equal(local, local_by_cdist(store))


def test_nn_refinement_stays_within_a_tile(monkeypatch):
    # at d = 300 the unique-partner pass would hold three 4.8 MB (pairs, d)
    # arrays if it took all 2000 pairs at once; in blocks of
    # _EXACT_BLOCK_ENTRIES differences the pass stays within the tiles' bound
    monkeypatch.setattr(embeddings, "_NN_BLOCK_ENTRIES", 2**18)
    n = 2000
    store = tile_store("random", n, 300)
    tracemalloc.start()
    try:
        local = store.nn_distances
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**18 * 8 + 32 * n * 8
    assert np.array_equal(local, local_by_cdist(store))
