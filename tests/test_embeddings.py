import io
import math
import re
import tracemalloc
import warnings
import zipfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from privtext import (
    EmbeddingStore, Mechanism, MechanismConfig, RngStream, analysis, build_profile, embeddings,
    load_embeddings,
)
from privtext.embeddings import CACHE_MAGIC, load_cache, save_cache
from privtext.errors import (
    ConfigError,
    DimensionMismatchError,
    DuplicateWordError,
    EmbeddingFormatError,
    EmptyVocabularyError,
    InvalidWordIdError,
    NonFiniteComponentError,
    PrivtextError,
)

from conftest import anisotropic_store, count_passes, mixture_store, random_store
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

    @pytest.mark.parametrize("words, vectors, error, word", [
        (["a", "b", "a"], np.zeros((3, 2)), DuplicateWordError, "'a'"),
        (["a", "b"], np.array([[0.0, 1.0], [np.nan, 2.0]]), NonFiniteComponentError, "'b'"),
        # a lone surrogate, which no output can write as UTF-8
        (["a", "b\udcff"], np.zeros((2, 2)), EmbeddingFormatError, re.escape("'b\\udcff'")),
    ])
    def test_cache_store_checks_name_the_file_and_the_word(self, tmp_path, words, vectors,
                                                           error, word):
        path = tmp_path / "bad.npz"
        np.savez(path, magic=np.array(CACHE_MAGIC), words=np.array(words), vectors=vectors)
        with pytest.raises(error, match=f"^{re.escape(str(path))}: .*{word}"):
            load_cache(path)

    @pytest.mark.parametrize("vectors", [
        [["x"], ["y"]], [[True], [False]], np.array([[True], [False]]), [[1.0], None],
        # a bool among numbers, which NumPy reads as 0 or 1: in a row, as a
        # numpy bool in a tuple, and as a bool array in a list
        [[True, 0.5], [0.0, 1.0]], ([0.5, 1.0], (np.True_, 0.0)),
        [np.array([True, False]), [0.5, 1.0]],
    ])
    def test_from_arrays_takes_numbers_only(self, vectors):
        with pytest.raises(ConfigError):
            EmbeddingStore.from_arrays(["a", "b"], vectors)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_from_arrays_makes_one_copy(self, dtype, order):
        v = np.asarray(np.random.default_rng(4).normal(size=(2000, 50)) * 100, dtype, order=order)
        tracemalloc.start()
        try:
            store = EmbeddingStore.from_arrays([f"w{i}" for i in range(2000)], v)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not np.shares_memory(store.vectors, v) and np.array_equal(store.vectors, v)
        # a second float64 copy would add the whole 0.8 MB to the peak
        assert peak - kept < store.vectors.nbytes / 4

    def test_deterministic_round_trip(self, tmp_path):
        path = write(tmp_path, "a 0.25 -1\nb 3 4\n")
        s1 = load_embeddings(path)
        s2 = load_embeddings(path)
        assert s1.words == s2.words
        assert np.array_equal(s1.vectors, s2.vectors)

    def test_from_arrays_with_no_words(self):
        with pytest.raises(EmptyVocabularyError):
            EmbeddingStore.from_arrays([], np.zeros((0, 2)))

    def test_cache_of_format_2_members_loads_alike(self, tmp_path, toy3):
        # NumPy writes an .npy member in format 2.0 when its header outgrows
        # format 1.0's; the loader reads both headers
        path = tmp_path / "v2.npz"
        with zipfile.ZipFile(path, "w") as zf:
            for name, arr in (("magic", np.array(CACHE_MAGIC)), ("words", np.array(toy3.words)),
                              ("vectors", toy3.vectors)):
                member = io.BytesIO()
                np.lib.format.write_array(member, arr, version=(2, 0))
                assert member.getvalue()[6:8] == b"\x02\x00"
                zf.writestr(f"{name}.npy", member.getvalue())
        back = load_cache(path)
        assert back.words == toy3.words and np.array_equal(back.vectors, toy3.vectors)

    def test_cache_of_another_magic_names_the_file(self, tmp_path, toy3):
        path = tmp_path / "other.npz"
        np.savez(path, magic=np.array("privtext-embeddings-v1"), words=np.array(toy3.words),
                 vectors=toy3.vectors)
        with pytest.raises(EmbeddingFormatError,
                           match=f"^{re.escape(str(path))}: not a privtext embedding cache$"):
            load_cache(path)

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


# Python's whitespace: str.split splits a line on each of these, and a file
# opened as text ends a line at "\n", "\r" and "\r\n"
WHITESPACE = "".join(c for c in map(chr, range(0x3001)) if c.isspace())
LINE_ENDS = ["\n", "\r", "\r\n"]
# tokens float() reads and NumPy's C reader refuses (1_0, non-ASCII digits),
# tokens both read (1e400 as inf), and tokens neither reads
ODD_NUMBERS = ["1_0", "١", "１", "1٢.5", "nan", "-Infinity", "1e400", "-1e-400",
               "4.9e-324", "2.4703282292062328e-324", "+.5", "5.", "-0", "0x10", "\x00",
               "1\x00", "1e", "--1", "1 0"]
ODD_WORDS = ["a", "b", "#c", '"d"', "#", "\x00", "été", "\ufeffa", "1", "nan", "5"]

number = st.one_of(
    st.floats(-1e6, 1e6).map("{:.6f}".format),
    st.floats().map(repr),
    st.sampled_from(ODD_NUMBERS),
)
word = st.one_of(st.sampled_from(ODD_WORDS),
                 st.text(st.characters(codec="utf-8", blacklist_characters=WHITESPACE),
                         min_size=1, max_size=3))


@st.composite
def embedding_files(draw) -> str:
    """Text embedding files, valid and not: odd separators, line ends and
    tokens, blank lines, rows of another width, and a header that is right
    or has the wrong count or dim."""
    dim = draw(st.integers(1, 3))
    width = st.sampled_from([dim, dim, dim, 0, dim + 1])
    rows = draw(st.lists(st.tuples(word, width.flatmap(lambda k: st.lists(number, min_size=k,
                                                                        max_size=k))),
                         max_size=5))
    gap = st.text(st.sampled_from(WHITESPACE), min_size=1, max_size=2)
    lines = []
    for w, comps in rows:
        tokens = [w, *comps]
        parts = [draw(st.sampled_from(["", " ", "\t", "\u3000"]))]
        for tok in tokens:
            parts += [tok, draw(gap)]
        parts[-1] = draw(st.sampled_from(["", " ", "\x0c"]))
        lines.append("".join(parts))
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t\x1c", "\u2028"])))
    header = draw(st.sampled_from([None, (0, 0), (1, 0), (0, 1)]))
    if header is not None:
        lines.insert(0, f"{len(rows) + header[0]} {dim + header[1]}")
    ends = draw(st.lists(st.sampled_from(LINE_ENDS), min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    return text[:-1] if draw(st.booleans()) and text.endswith("\n") else text


def by_line(path) -> EmbeddingStore:
    """load_embeddings as the line loop alone gives it."""
    return embeddings._adopt_naming(path, *embeddings._load_by_line(path))


def outcome(load, path):
    """(words, vector bytes) of the store load gives, or (error class,
    message)."""
    try:
        store = load(path)
    except EmbeddingFormatError as exc:
        return type(exc), str(exc)
    return store.words, store.vectors.tobytes()


def count_line_loops(monkeypatch) -> list:
    """Record each call of the line loop in the returned list."""
    calls = []
    loop = embeddings._load_by_line

    def counting(path):
        calls.append(path)
        return loop(path)

    monkeypatch.setattr(embeddings, "_load_by_line", counting)
    return calls


@pytest.fixture(scope="module")
def bench_file(tmp_path_factory):
    """(path, vectors) of a 5000 x 50 file as perfbench writes it: a header,
    then one record per line with '%.6f' components."""
    vectors = np.random.default_rng(29).normal(scale=6.0, size=(5000, 50))
    path = tmp_path_factory.mktemp("bench") / "bench.txt"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(vectors)} {vectors.shape[1]}\n")
        for i, row in enumerate(vectors):
            fh.write(f"w{i:05d} " + " ".join(f"{x:.6f}" for x in row) + "\n")
    return path, vectors


class TestTextReader:
    """load_embeddings reads by NumPy's C reader, and the line loop reads
    what the reader refuses: the two give the same store or the same error."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(text=embedding_files())
    # the three ways np.loadtxt differs from the line loop unless told not to:
    # usecols drops extra columns, comments="#" cuts a '#' word, and a file
    # with no records warns "input contained no data"
    @example(text="a 1 2\nb 3 4 5\n")
    @example(text="2 1\na 1 2\nb 3 4\n")
    @example(text="#a 1 2\n\"b\" 3 4\n")
    @example(text="a 1 #2\n")
    @example(text="")
    @example(text="3 2\n")
    @example(text="3 2\n \n\t\n")
    def test_same_store_or_error_as_the_line_loop(self, tmp_path_factory, text):
        path = str(tmp_path_factory.getbasetemp() / "reader.txt")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert outcome(load_embeddings, path) == outcome(by_line, path)

    @pytest.mark.parametrize("text, by_reader", [
        ("a 1_0 2\n", False), ("a ١ 2\n", False), ("a 1 ２\n", False),
        ("a\xa01\u20282\u30003\x1c\n", True), ("2 2\n\na 0 1\r\nb 1 0\r", True),
    ])
    def test_line_loop_reads_only_what_the_reader_refuses(self, tmp_path, monkeypatch, text,
                                                          by_reader):
        path = write(tmp_path, text)
        calls = count_line_loops(monkeypatch)
        store = load_embeddings(path)
        assert calls == ([] if by_reader else [path])
        assert (store.words, store.vectors.tobytes()) == outcome(by_line, path)

    @pytest.mark.parametrize("text, error, where", [
        ("a 0 0\nb 1 zero\n", EmbeddingFormatError, ":2: non-numeric component"),
        ("a 0 0\n\nb 1 0 0\n", DimensionMismatchError, ":3: expected 2 components, got 3"),
        ("2 3\na 0 0\nb 1 1\n", DimensionMismatchError, ":2: expected 3 components, got 2"),
        ("a 0 0\nb\n", EmbeddingFormatError, ":2: no vector components"),
        ("3 2\na 0 0\nb 1 1\n", EmbeddingFormatError, ": header count 3 != 2 records"),
    ])
    def test_refused_files_name_the_line(self, tmp_path, text, error, where):
        path = write(tmp_path, text)
        with pytest.raises(error, match=f"^{re.escape(path + where)}$"):
            load_embeddings(path)

    @pytest.mark.parametrize("text", ["2 2\nthe 0 1\na 1 0\n", "the 0 1\na 1 0\n"])
    def test_a_byte_order_mark_is_skipped(self, tmp_path, text):
        plain = load_embeddings(write(tmp_path, text, "plain.txt"))
        (tmp_path / "bom.txt").write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        for load in (load_embeddings, by_line):
            store = load(str(tmp_path / "bom.txt"))
            assert store.words == plain.words == ("the", "a")
            assert store.vectors.tobytes() == plain.vectors.tobytes()

    def test_perfbench_and_glove_files_skip_the_line_loop(self, bench_file, tmp_path,
                                                          monkeypatch):
        path, vectors = bench_file
        glove = ["été", "naïve", "東京", "مرحبا", "#tag", '"quoted"']
        (tmp_path / "glove.txt").write_text(
            "".join(w + " " + " ".join(map(repr, row.tolist())) + "\n"
                    for w, row in zip(glove, np.random.default_rng(3).normal(size=(6, 3)))),
            encoding="utf-8")
        calls = count_line_loops(monkeypatch)
        bench = load_embeddings(path)
        assert load_embeddings(tmp_path / "glove.txt").words == tuple(glove)
        assert calls == []
        assert np.array_equal(bench.vectors, np.array(
            [[float(f"{x:.6f}") for x in row] for row in vectors]))

    def test_reader_peak_is_under_the_line_loop_peak(self, bench_file):
        peaks = []
        for load in (load_embeddings, by_line):
            tracemalloc.start()
            try:
                load(bench_file[0])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= peaks[1]


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


def pair_distances(a, b, rows, cols) -> np.ndarray:
    """The square roots of _pair_sq_distances: cdist's distances of the pairs."""
    return np.sqrt(embeddings._pair_sq_distances(a, b, np.asarray(rows), np.asarray(cols)))


class TestPairedDistances:
    """_pair_sq_distances, the numpy kernel that decides every exact query,
    against scipy's cdist in the three ways the library calls it: one row
    against many by a broadcast index, each row against its partner, and
    repeated indices across block edges. Equal under array_equal, Inf
    included."""

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
        every = np.arange(cols)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # one row against every column, as the refinements call it, and
            # each row against its own partner, as nn_distances does
            by_row = np.vstack([pair_distances(a, b, np.broadcast_to(i, every.shape), every)
                                for i in range(rows)])
            paired = pair_distances(a, b, np.arange(rows), partner)
        expected = cdist(a, b)
        assert np.array_equal(by_row, expected)
        assert np.array_equal(paired, expected[np.arange(rows), partner])

    def test_overflow_is_inf_without_a_warning(self):
        a = np.array([[1e154, 1e154], [1e300, 0.0], [0.0, 0.0]])
        b = np.array([[-1e154, 0.0], [-1e300, 0.0], [1e-160, 1e-160]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = pair_distances(a, b, np.arange(3), np.arange(3))
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
        assert np.array_equal(pair_distances(a, b, np.arange(200), np.arange(200)), expected)

    @pytest.mark.parametrize("budget", [1, 7, 2**15])
    def test_blocked_rows_equal_one_cdist_row(self, monkeypatch, budget):
        # the kernel takes its pairs in blocks of _EXACT_BLOCK_ENTRIES
        # differences, so repeated and broadcast indices cross block edges
        monkeypatch.setattr(embeddings, "_EXACT_BLOCK_ENTRIES", budget)
        gen = np.random.default_rng(4)
        a, b = gen.normal(size=(3, 9)), gen.normal(size=(50, 9))
        expected = cdist(a, b)
        keep = gen.random((3, 50)) < 0.6
        for i in range(3):
            cand = np.flatnonzero(keep[i])
            got = pair_distances(a, b, np.broadcast_to(i, cand.shape), cand)
            assert np.array_equal(got, expected[i, cand])
        rows, cols = gen.integers(0, 3, size=200), gen.integers(0, 50, size=200)
        assert np.array_equal(pair_distances(a, b, rows, cols), expected[rows, cols])


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
        cands = np.sort(gen.choice(len(vecs), size=len(vecs) // 3, replace=False))
        whole, among = nearest_by_cdist(store, points), nearest_by_cdist(store, points, cands)
        # the exact distances in blocks of one difference, and of the default
        for exact_budget in (1, 2**15):
            monkeypatch.setattr(embeddings, "_EXACT_BLOCK_ENTRIES", exact_budget)
            assert np.array_equal(store.nearest_words(points), whole)
            assert np.array_equal(store.nearest_words(points, candidate_ids=cands), among)

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
        for arr in (screen.aug, screen.upper, screen.spread):
            assert arr.dtype == np.float32 and not arr.flags.writeable
        top = np.abs(screen.aug[:-2]).max()
        assert 0.5 <= top < 1.0
        # centred on the store's mean, in float64, then scaled and rounded
        # once to float32
        assert np.array_equal(screen.mean, store.vectors.mean(axis=0))
        assert screen.mean.dtype == np.float64 and not screen.mean.flags.writeable
        assert np.array_equal(screen.aug[:-2].T,
                              ((store.vectors - screen.mean) * screen.scale).astype(np.float32))

    def test_vocabulary_major(self):
        # (d, |W|) and C-contiguous: a decode's GEMM takes it as it is stored
        store = random_store(np.random.default_rng(7), 300, 6)
        aug = store._screen.aug
        assert aug.shape == (6 + 2, 300) and aug.flags.c_contiguous

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
            assert peak < screen.aug[:-2].nbytes / 4
            assert np.array_equal(got, nearest_by_cdist(store, points))

    def test_bound_covers_subnormal_rounding(self):
        # Word a sets the scale to 1; words b and c lie so near the point
        # that every float32 product and square of the screen lands among
        # the subnormals (multiples of eta32 = 2^-149). Each word's mirror
        # image follows it, so the mean is exactly 0 and the centred screen
        # holds the words as they are. Each component of b is picked so that
        # its square and its product with -2 p^ both round up by almost
        # eta32 / 2, and each of c's so that both round down: the decode's
        # row [-2 p^, 1] against [v^; upper] puts c ahead by 31 eta32, past
        # an eighth of the bound (2 err = 8 (d + 4) eta32 = 160 eta32),
        # while b is nearer by 0.24 eta32. No such store reaches a quarter:
        # two roundings move a word by at most eta32 per component, two
        # words 2 d eta32 apart, below 2 (d + 4) eta32. The sums are exact
        # on that grid, so the float32 values do not depend on the BLAS.
        d, eta = 16, 2.0**-149
        b = np.r_[np.full(d - 1, 32507), 16118] * 2.0**-84
        c = np.r_[np.full(d - 1, 32523), 15622] * 2.0**-84
        vecs = np.vstack([x for w in (np.r_[0.75, np.zeros(d - 1)], b, c) for x in (w, -w)])
        store = EmbeddingStore.from_arrays(["a", "-a", "b", "-b", "c", "-c"], vecs)
        point = np.full((1, d), 2.0**-75)
        screen = store._screen
        assert screen.scale == 1.0 and not screen.mean.any()
        row = np.r_[-2.0 * point[0], 1.0].astype(np.float32)
        hi = row @ screen.aug[:-1, [2, 4]]
        assert (hi[0] - hi[1]) / eta == 31
        for cands in ([2, 4], None):
            assert store.nearest_words(point, cands).tolist() == [2]
            assert nearest_by_cdist(store, point, cands).tolist() == [2]

    def test_build_holds_no_float64_copy(self):
        store = random_store(np.random.default_rng(9), 4000, 64)
        tracemalloc.start()
        try:
            screen = store._screen
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a float64 temporary of the vocabulary alone would be 2x the copy
        assert peak < 1.25 * screen.aug[:-2].nbytes

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

    def test_distance_rows_are_cdist_rows(self):
        vecs = np.random.default_rng(0).normal(size=(40, 64))
        store = EmbeddingStore.from_arrays([f"w{i}" for i in range(40)], vecs)
        for ids in ([5], [39, 0, 0], np.arange(40), []):
            assert np.array_equal(store.distance_rows(ids),
                                  cdist(vecs[np.asarray(ids, dtype=int)], vecs))

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
    # the median's float32 walk, then one float64 walk for nn_distances
    assert calls == [np.float32, np.float64]
    with pytest.raises(ValueError):
        store.nn_distances[0] = 0.0


def tile_store(kind: str, n: int, dim: int) -> EmbeddingStore:
    vecs = np.random.default_rng(31).normal(size=(n, dim))
    if kind == "offset":
        # every pair within the float64 pass's rounding bound: each word
        # falls back to the screened decode, whose centred screen settles it
        vecs = 1e6 + 1e-3 * vecs
    elif kind == "duplicates":
        vecs[n // 2 :] = vecs[: n // 2]
    return EmbeddingStore.from_arrays([f"w{i}" for i in range(n)], vecs)


def record_tiles(monkeypatch) -> list:
    """Record (dtype, axis, i, j, tile) of every fold call of the tile walk:
    the tile's first word and column as the walk passes them, and a copy of
    the tile as the fold is handed it."""
    folds = []
    walk = EmbeddingStore._tile_pass

    def recording(self, form, dtype, fold):
        def recorded(words, offset, tile, axis):
            i, j = (words.start, offset) if axis == 1 else (offset, words.start)
            folds.append((np.dtype(dtype), axis, i, j, tile.copy()))
            return fold(words, offset, tile, axis)

        return walk(self, form, dtype, recorded)

    monkeypatch.setattr(EmbeddingStore, "_tile_pass", recording)
    return folds


@pytest.mark.parametrize("budget", [1, 16, 50, 2**20])
def test_tiles_form_each_pair_once(monkeypatch, budget):
    # both passes walk the tiles: nn_distances in float64, the median in
    # float32 on the screen
    monkeypatch.setattr(embeddings, "_NN_BLOCK_ENTRIES", budget)
    folds = record_tiles(monkeypatch)
    n, side = 30, math.isqrt(budget)
    store = tile_store("random", n, 3)
    local = local_by_cdist(store)
    assert np.array_equal(store.nn_distances, local)
    assert store.median_nn_distance() == np.median(local)
    for dtype in (np.float64, np.float32):
        tiles = [(i, j, *t.shape) for dt, axis, i, j, t in folds if dt == dtype and axis == 1]
        assert sum(r * c for _, _, r, c in tiles) <= n * (n + side) / 2
        seen = np.zeros((n, n), dtype=np.int64)
        for i, j, r, c in tiles:
            assert i <= j and r <= side and c <= side
            seen[i : i + r, j : j + c] += 1
        # each unordered pair lies in exactly one tile: once above the
        # diagonal, in both orders within a diagonal tile
        block = np.arange(n) // side
        other = ~np.eye(n, dtype=bool)
        expected = np.where(block[:, None] == block[None, :], 2, 1)
        assert np.array_equal((seen + seen.T)[other], expected[other])
        # the column fold sees the tiles off the diagonal only
        assert sum(dt == dtype and axis == 0 for dt, axis, *_ in folds) == sum(
            i != j for i, j, _, _ in tiles)


@pytest.mark.parametrize("budget", [1, 16, 50, 2**20])
@pytest.mark.parametrize("kind", ["random", "duplicates", "offset"])
def test_reused_tile_keeps_the_operation_order(monkeypatch, kind, budget):
    # each float64 tile formed in the walk's one buffer equals a fresh
    # _gemm_sq_distances of the same slices, the order _sq_error_bound is
    # derived for, at both of its folds
    monkeypatch.setattr(embeddings, "_NN_BLOCK_ENTRIES", budget)
    folds = record_tiles(monkeypatch)
    store = tile_store(kind, 30, 4)
    store.nn_distances
    assert folds and all(dt == np.float64 for dt, *_ in folds)
    v, sq = store.vectors, store.sq_norms
    for _, _, i, j, tile in folds:
        r, c = tile.shape
        fresh = embeddings._gemm_sq_distances(v[i : i + r], sq[i : i + r], v[j : j + c],
                                              sq[j : j + c])
        if i == j:
            np.fill_diagonal(fresh, np.inf)
        assert np.array_equal(tile, fresh)


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
    # at d = 300 the exact distances of the 2000 (word, partner) pairs would
    # hold 4.8 MB (pairs, d) arrays if taken all at once; in blocks of
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


def test_refinement_past_the_screen_limit_masks_the_word_itself():
    # so far out that no point is screened (the limit is negative): every
    # row is decided exactly over every column but the word's own, which
    # its exact distance 0 would otherwise win
    vecs = np.array([[4e153], [-4e153], [4e153], [1e153], [-2e153], [1e153]])
    store = EmbeddingStore.from_arrays([f"w{i}" for i in range(len(vecs))], vecs)
    assert store._screen.limit < 0
    dist = cdist(vecs, vecs)
    np.fill_diagonal(dist, np.inf)
    assert store._nearest(store.vectors, words=np.arange(6)).tolist() == [2, 4, 0, 5, 1, 3]
    assert dist.argmin(axis=1).tolist() == [2, 4, 0, 5, 1, 3]
    assert np.array_equal(store.nn_distances, local_by_cdist(store))


def record_refined(monkeypatch) -> list:
    """Record the number of words each refinement takes: each call of the
    screened decode (_nearest) for words' nearest other words."""
    refined, nearest = [], EmbeddingStore._nearest

    def recording(self, points, ids=None, words=None):
        if words is not None:
            refined.append(len(words))
        return nearest(self, points, ids, words)

    monkeypatch.setattr(EmbeddingStore, "_nearest", recording)
    return refined


class TestMedianSelection:
    """median_nn_distance selects np.median's ranks from a float32 tile pass
    and refines only the words whose interval can hold them; its value must
    be np.median of the cdist nearest-neighbour distances, bit for bit."""

    @staticmethod
    def check(store):
        got = store.median_nn_distance()
        want = float(np.median(local_by_cdist(store))) if len(store) > 1 else 0.0
        assert type(got) is float and got == want

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(
        n=st.one_of(st.integers(1, 4), st.integers(5, 90)),
        dim=st.sampled_from([1, 2, 50, 300]),
        kind=st.sampled_from(["random", "duplicates", "offset", "grid", "chain"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_the_median_of_cdist(self, n, dim, kind, seed):
        # duplicates: every word of the first half repeated, so the median
        # is 0 or ties cross it; offset: 1e6 + 1e-3 N(0, 1), where every
        # interval overlaps; grid: a coarse grid with many exact cdist ties;
        # chain: words a unit apart along a line at 1000, their distances
        # apart by about 1e-6, below what float32 resolves there
        gen = np.random.default_rng(seed)
        vecs = gen.normal(size=(n, dim))
        if kind == "duplicates":
            vecs[n // 2 :] = vecs[: n - n // 2]
        elif kind == "offset":
            vecs = 1e6 + 1e-3 * vecs
        elif kind == "grid":
            vecs = gen.integers(0, 3, size=(n, dim)) * 0.5
        elif kind == "chain":
            vecs *= 1e-3
            vecs[:, 0] = 1000 + gen.permutation(n) + 1e-6 * gen.normal(size=n)
        self.check(EmbeddingStore.from_arrays([f"w{i}" for i in range(n)], vecs))

    @pytest.mark.parametrize("xs", [
        [3.0],
        [0.0, 1.5],
        [0.0, 1.0, 3.0],
        [0.0, 1.0, 3.0, 7.0],
        # nearest-neighbour distances 1, 1, 1, 1, 7, 10: a tie at ranks 2 and 3
        [0.0, 1.0, 2.0, 3.0, 10.0, 20.0],
        # 1, 1, 1, 1, 2, 2, 2, 2: the ranks 3 and 4 fall on either side of a tie
        [0.0, 1.0, 2.0, 3.0, 5.0, 7.0, 9.0, 11.0],
        # duplicates: 0, 0, 5, 5, 5 with the median 5, and 0, 0, 0, 10, 10, 10
        # with the median halfway between a duplicate and a distinct word
        [0.0, 0.0, 5.0, 10.0, 15.0],
        [0.0, 0.0, 0.0, 10.0, 20.0, 30.0],
        # more than half duplicates: the median is 0
        [4.0, 4.0, 4.0, 9.0, 9.0, 30.0, 60.0],
    ])
    def test_fixed_cases(self, xs):
        self.check(EmbeddingStore.from_arrays([f"w{i}" for i in range(len(xs))],
                                              np.array(xs)[:, None]))

    @pytest.mark.parametrize("n", [2, 3, 41, 64, 301])
    def test_offset_store_refines_every_word(self, monkeypatch, n):
        # words a unit apart along a line at 1e6, each moved by about 1e-9:
        # every nearest-neighbour distance is 1 to within far less than
        # float32 resolves, centred or not, so every interval overlaps
        # every other and every word takes the exact path
        refined = record_refined(monkeypatch)
        gen = np.random.default_rng(31)
        vecs = 1e-9 * gen.normal(size=(n, 4))
        vecs[:, 0] += 1e6 + gen.permutation(n)
        store = EmbeddingStore.from_arrays([f"w{i}" for i in range(n)], vecs)
        self.check(store)
        assert refined == [n]

    @pytest.mark.parametrize("budget", [1, 16, 50, 2**20])
    def test_tile_sizes(self, monkeypatch, budget):
        monkeypatch.setattr(embeddings, "_NN_BLOCK_ENTRIES", budget)
        for kind, n in (("random", 29), ("random", 30), ("duplicates", 30), ("offset", 29)):
            self.check(tile_store(kind, n, 3))

    def test_benchmark_scale_refines_few_words(self, monkeypatch):
        # a 2000 x 50, spread-6 mixture: a handful of words can hold the
        # median's ranks, and the only tile walk is the float32 one
        store = mixture_store(np.random.default_rng(77), 2000, 50, spread=6.0)
        passes, refined = count_passes(monkeypatch), record_refined(monkeypatch)
        self.check(store)
        assert len(refined) == 1 and refined[0] <= 32
        assert passes == [np.float32]

    def test_pass_holds_one_float32_tile(self):
        # 2000 words: three tiles of up to 1024 x 1024; a float64 tile, or a
        # new tile per GEMM alongside the last one, would be 8 MiB
        n, dim = 2000, 50
        store = mixture_store(np.random.default_rng(78), n, dim, spread=6.0)
        store._screen
        side = math.isqrt(embeddings._NN_BLOCK_ENTRIES)
        tracemalloc.start()
        try:
            got = store.median_nn_distance()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * side**2 + 4 * n * (dim + 2) * 4
        assert got == float(np.median(local_by_cdist(store)))


    def test_far_common_mean_is_screened_as_at_the_origin(self, monkeypatch):
        # the anisotropic store at 32 times its typical norm from the origin
        # and at it: the centred screen refines as few words for the median
        # and sends as few decode rows of word-pair midpoints, many of them
        # near-ties, to exact distances (one _pair_sq_distances call each),
        # within a factor of 2. The uncentred screen refined 760 words, not
        # 4, and sent 445 rows, not 270.
        refined, exact_rows = record_refined(monkeypatch), []
        pair = embeddings._pair_sq_distances

        def counting(a, b, rows, cols):
            exact_rows.append(len(rows))
            return pair(a, b, rows, cols)

        monkeypatch.setattr(embeddings, "_pair_sq_distances", counting)
        counts = []
        for r in (0.0, 32.0):
            store = anisotropic_store(np.random.default_rng(80), 2000, 50, r)
            refined.clear()
            self.check(store)
            i, j = np.random.default_rng(81).integers(0, 2000, size=(2, 500))
            points = (store.vectors[i] + store.vectors[j]) / 2
            exact_rows.clear()
            got = store.nearest_words(points)
            counts.append((sum(refined), len(exact_rows)))
            monkeypatch.setattr(embeddings, "_pair_sq_distances", pair)
            assert np.array_equal(got, nearest_by_cdist(store, points))
            monkeypatch.setattr(embeddings, "_pair_sq_distances", counting)
        (words_0, rows_0), (words_32, rows_32) = counts
        assert words_32 <= 2 * words_0 and rows_32 <= 2 * rows_0


def test_nn_distances_make_no_screen_when_every_word_settles():
    # the float64 pass settles every word of the benchmark's stores
    # (perfbench's lac-smooth-5k-d300, cli-density-5k and audit-1k
    # vocabularies at the gated seeds), so set-up holds no float32 screen
    # beside its tiles
    for seed in (77, 2929, 6113):
        for n, dim, spread in ((5000, 300, 1.4), (5000, 50, 6.0), (1000, 50, 2.0)):
            gen = np.random.default_rng(np.random.SeedSequence([seed, 0]))
            store = mixture_store(gen, n, dim, spread)
            store.nn_distances
            assert "_screen" not in vars(store), (seed, n, dim)


def certified_outputs(vecs, seed) -> list:
    """The bytes of every output that a rounding certificate decides, or the
    error raised in its place: decodes with and without candidates,
    nn_distances, the median, a short density batch, the sensitivity
    profile and the attack's guesses, on a new store of vecs."""
    store = EmbeddingStore.from_arrays([f"w{i}" for i in range(len(vecs))], vecs)
    gen = np.random.default_rng(seed)
    n, dim = vecs.shape
    i, j = gen.integers(0, n, size=(2, 30))
    jitter = vecs.std() * gen.normal(size=(30, dim))
    points = np.vstack([vecs, (vecs[i] + vecs[j]) / 2, vecs[i] + jitter])
    cands = np.sort(gen.choice(n, size=max(1, n // 3), replace=False))
    probs = gen.uniform(size=(n, 4)) * (gen.uniform(size=(n, 4)) < [1.0, 1.0, 0.3, 0.0])
    probs[gen.integers(0, n, size=4), np.arange(4)] += 1.0
    post = analysis.Posterior(0, probs / probs.sum(axis=0))
    density = MechanismConfig("density", 1.0, mh_steps=20)

    def profile():
        p = build_profile(store, 1.0)
        return np.r_[p.per_word_local, p.per_word_smooth]

    outputs = []
    for output in (
        lambda: store.nearest_words(points),
        lambda: store.nearest_words(points, candidate_ids=cands),
        lambda: store.nn_distances,
        store.median_nn_distance,
        lambda: Mechanism(store, density).perturb_batch(RngStream(seed), 0, 5),
        profile,
        lambda: analysis.optimal_attack(store, post),
    ):
        try:
            outputs.append(np.asarray(output()).tobytes())
        except PrivtextError as exc:
            outputs.append(f"{type(exc).__name__}: {exc}")
    return outputs


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(2, 40),
    dim=st.sampled_from([1, 3, 8]),
    kind=st.sampled_from(["random", "duplicated", "offset", "anisotropic", "subnormal"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_looser_bound_changes_no_output(n, dim, kind, seed):
    # Every certificate decides only what its exact path would decide: with
    # every rounding bound (the geometry's and the attack's sums') 10^4
    # times as wide, more decisions go to the exact paths, and every output
    # keeps its bytes; with every bound Inf, meaning "decide exactly", every
    # decision goes there, with no warning. Duplicated: a third of
    # the words repeat others; offset: 1e6 + 1e-3 N(0, 1); anisotropic: a
    # common mean 32 times the typical norm; subnormal: components below
    # float64's least normal number.
    gen = np.random.default_rng(seed)
    if kind == "anisotropic":
        vecs = anisotropic_store(gen, n, dim, 32.0).vectors
    else:
        vecs = gen.normal(size=(n, dim))
    if kind == "duplicated":
        vecs[n - n // 3 :] = vecs[: n // 3]
    elif kind == "offset":
        vecs = 1e6 + 1e-3 * vecs
    elif kind == "subnormal":
        vecs *= 1e-310
    want = certified_outputs(vecs, seed)
    bound, sum_bound = embeddings._sq_error_bound, analysis._sum_error_bound
    for widen in (lambda b: 1e4 * b, lambda b: np.maximum(b, np.inf)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(embeddings, "_sq_error_bound", lambda *args: widen(bound(*args)))
            mp.setattr(analysis, "_sum_error_bound", lambda n: float(widen(sum_bound(n))))
            assert certified_outputs(vecs, seed) == want
