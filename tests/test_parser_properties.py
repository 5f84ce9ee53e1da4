"""Property tests of the CLI's input parsers: whatever the bytes of an
embedding file, an embedding cache, a transition-matrix TSV or a pipeline
config, the CLI exits 0 (the input happened to be valid), 2 or 3. It never
raises, which would be a traceback, and never exits 4."""
import contextlib
import dataclasses
import io
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from privtext import EmbeddingStore
from privtext.amplification import AmplifierConfig
from privtext.cli import main
from privtext.embeddings import CACHE_MAGIC
from privtext.errors import InvalidWordIdError, MatrixFormatError
from privtext.pipeline import CorpusSpec, ProtocolConfig
from privtext.randomizers import MATRIX_TSV_MAGIC, VARIANTS, MechanismConfig, matrix_from_tsv

from oracles import matrix_from_tsv_by_line

TOY = "v 0 0\nw 8 0\nx 0 8\ny 8 8\nz 4 4\n"
WORDS = ["v", "w", "x", "y", "z"]
CLEAN_EXITS = (0, 2, 3)

# a fixed example sequence and no example database: tier-1 runs stay
# reproducible and leave no files behind
fuzz = settings(max_examples=60, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.too_slow])

utf8_text = st.text(st.characters(codec="utf-8"), max_size=80)
# floats stay small so that no field can ask for a huge corpus or chain
small_number = st.one_of(
    st.integers(-3, 6),
    st.floats(-10, 10),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), 0.0, 1e-300]),
)
json_scalar = st.one_of(st.none(), st.booleans(), small_number, st.text(max_size=6),
                        st.sampled_from(WORDS + list(VARIANTS)))
json_value = st.recursive(
    json_scalar,
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=6,
)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("parsers")
    emb = root / "emb.txt"
    emb.write_text(TOY, encoding="utf-8")
    empty = root / "empty.txt"
    empty.write_text("", encoding="utf-8")
    return {"emb": str(emb), "empty": str(empty), "input": root / "input",
            "cache": root / "input.npz"}


def exit_code(argv):
    """cli.main with output captured; an exception escapes as a failure."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def as_bytes(data):
    return data if isinstance(data, bytes) else data.encode("utf-8")


# --- embedding text -----------------------------------------------------------

token = st.one_of(
    st.sampled_from(WORDS + ["nan", "inf", "-0", "1e308", "1_0", "2", "3", "0x1p3"]),
    st.floats().map(repr),
    st.integers(-3, 10).map(str),
    st.text(st.characters(codec="utf-8"), max_size=3),
)
embedding_text = st.lists(st.lists(token, max_size=5).map(" ".join), max_size=6).map("\n".join)


@fuzz
@given(data=st.one_of(embedding_text, utf8_text, st.binary(max_size=120)))
def test_embedding_file_never_crashes(files, data):
    files["input"].write_bytes(as_bytes(data))
    argv = ["--embeddings", str(files["input"]), "perturb", "--epsilon", "1",
            "--input", files["empty"]]
    assert exit_code(argv) in CLEAN_EXITS


# --- embedding cache ----------------------------------------------------------

def cache_bytes(save):
    buf = io.BytesIO()
    save(buf, magic=np.array(CACHE_MAGIC), words=np.array(WORDS),
         vectors=np.arange(10.0).reshape(5, 2))
    return buf.getvalue()


VALID_CACHES = [cache_bytes(np.savez), cache_bytes(np.savez_compressed)]


def corrupt(data, edits, keep):
    """A valid cache with some bytes overwritten, then cut to keep bytes
    (None keeps them all)."""
    data = bytearray(data)
    for pos, value in edits:
        data[pos % len(data)] = value
    return bytes(data[:keep])


mutated_cache = st.builds(
    corrupt,
    st.sampled_from(VALID_CACHES),
    st.lists(st.tuples(st.integers(0, 1 << 16), st.integers(0, 255)), max_size=4),
    st.one_of(st.none(), st.integers(0, 1024)),
)


@fuzz
@given(data=st.one_of(mutated_cache, st.binary(max_size=120)))
def test_embedding_cache_never_crashes(files, data):
    files["cache"].write_bytes(data)
    argv = ["--embeddings", str(files["cache"]), "perturb", "--epsilon", "1",
            "--input", files["empty"]]
    assert exit_code(argv) in CLEAN_EXITS


# --- transition-matrix TSV ----------------------------------------------------

probability = st.one_of(st.floats().map(repr), st.sampled_from(["0.2", "1", "-1", "x", ""]))
tsv_line = st.one_of(
    st.tuples(st.sampled_from(WORDS + ["q", ""]), st.sampled_from(WORDS), probability)
    .map("\t".join),
    st.sampled_from(["#samples 10", "#samples x", "#samples", "#samples -3", "#note", ""]),
    st.integers(-2, 10**30).map(lambda n: f"#samples {n}"),
    utf8_text,
)
tsv_text = st.tuples(
    st.sampled_from([MATRIX_TSV_MAGIC, "", "#other"]), st.lists(tsv_line, max_size=10)
).map(lambda t: "\n".join([t[0], *t[1]]))
# a valid permutation matrix, then arbitrary extra lines
valid_tsv = st.tuples(
    st.permutations(WORDS), st.integers(-2, 10**30), st.lists(tsv_line, max_size=3)
).map(lambda t: "\n".join(
    [MATRIX_TSV_MAGIC, f"#samples {t[1]}", *(f"{a}\t{b}\t1" for a, b in zip(WORDS, t[0])), *t[2]]
))


@fuzz
@given(data=st.one_of(tsv_text, valid_tsv, utf8_text, st.binary(max_size=120)))
def test_matrix_tsv_never_crashes(files, data):
    files["input"].write_bytes(as_bytes(data))
    for command in (["verify-dp", "--epsilon", "1"], ["attack", "--trials", "20"]):
        argv = ["--embeddings", files["emb"], command[0], "--matrix", str(files["input"]),
                *command[1:]]
        assert exit_code(argv) in CLEAN_EXITS


def parse_outcome(parse, store, text):
    """What a matrix parser makes of text: the matrix and sample count, or
    the error's type and message."""
    try:
        matrix = parse(store, text)
    except (MatrixFormatError, InvalidWordIdError) as exc:
        return type(exc), str(exc)
    return matrix.probs.tobytes(), matrix.sample_count


# lines a parser could class wrongly: two-tab comments and blank lines,
# blank first fields, repeated entries, other line breaks
odd_line = st.sampled_from([
    "#c\tv\t1", "#samples\t3\t4", "\t\t", " \t \t ", "\tv\t1", " #x\tv\t1",
    "v\tv\t0.5", "v\tv\t1", "v\tv\t1\t", "\u3000\t\t", "#samples 7\r", "v\tw\t1_0",
])
parser_tsv = st.tuples(
    st.one_of(tsv_text, valid_tsv),
    st.lists(st.tuples(st.integers(0, 12), st.one_of(odd_line, tsv_line)), max_size=4),
    st.sampled_from(["\n", "\r\n"]),
).map(lambda t: t[2].join(insert_lines(t[0].split("\n"), t[1])))


def insert_lines(lines, inserts):
    for pos, line in inserts:
        lines.insert(1 + pos % len(lines), line)
    return lines


@fuzz
@given(text=parser_tsv)
def test_matrix_parse_matches_line_by_line(text):
    store = EmbeddingStore.from_arrays(WORDS, np.arange(10.0).reshape(5, 2))
    fast = parse_outcome(matrix_from_tsv, store, text)
    slow = parse_outcome(matrix_from_tsv_by_line, store, text)
    if slow[0] is InvalidWordIdError:
        # the library's parser names the line as well as the word
        assert fast[0] is InvalidWordIdError and fast[1].endswith(slow[1])
    else:
        assert fast == slow


# --- pipeline JSON config -----------------------------------------------------

VALID_CONFIG = {
    "n_users": 2,
    "m_per_user": 2,
    "mechanism": {"variant": "baseline", "epsilon": 1.0},
    "amplifiers": [{"kind": "shuffle"}, {"kind": "subsample", "q": 0.5}],
    "seed": 3,
    "corpus": {"kind": "zipf", "s": 1.1},
}
FIELDS = [(key,) for key in VALID_CONFIG] + [
    ("mechanism", key)
    for key in ("variant", "epsilon", "sigma", "beta", "tau", "k", "mh_steps")
] + [("corpus", key) for key in ("kind", "s", "words_per_user")]


def mutate(path, value, delete):
    config = json.loads(json.dumps(VALID_CONFIG))
    parent = config if len(path) == 1 else config[path[0]]
    if delete:
        parent.pop(path[-1], None)
    else:
        parent[path[-1]] = value
    return json.dumps(config)


mutated_config = st.builds(mutate, st.sampled_from(FIELDS), json_value, st.booleans())


@fuzz
@given(data=st.one_of(mutated_config, json_value.map(json.dumps), utf8_text,
                      st.binary(max_size=120)))
def test_pipeline_config_never_crashes(files, data):
    files["input"].write_bytes(as_bytes(data))
    argv = ["--embeddings", files["emb"], "pipeline", "--config", str(files["input"])]
    assert exit_code(argv) in CLEAN_EXITS


# the keys a config may hold, at one level or another, and the places an
# unknown key can go: the top level or one of the nested objects
CONFIG_FIELDS = {
    f.name for cls in (ProtocolConfig, MechanismConfig, CorpusSpec, AmplifierConfig)
    for f in dataclasses.fields(cls)
}
KEY_PLACES = [(), ("mechanism",), ("corpus",), ("amplifiers", 0), ("amplifiers", 1)]


def with_unknown_key(path, key, value):
    config = json.loads(json.dumps(VALID_CONFIG))
    target = config
    for step in path:
        target = target[step]
    target[key] = value
    return json.dumps(config)


unknown_key_config = st.builds(
    with_unknown_key,
    st.sampled_from(KEY_PLACES),
    st.text(max_size=8).filter(lambda key: key not in CONFIG_FIELDS),
    json_value,
)


@fuzz
@given(data=unknown_key_config)
def test_pipeline_config_unknown_key_exits_2(files, data):
    files["input"].write_bytes(as_bytes(data))
    argv = ["--embeddings", files["emb"], "pipeline", "--config", str(files["input"])]
    assert exit_code(argv) == 2
