"""Property tests of the CLI's input parsers: whatever the bytes of an
embedding file, an embedding cache, a transition-matrix TSV or a pipeline
config, the CLI exits 0 (the input happened to be valid), 2 or 3. It never
raises, which would be a traceback, and never exits 4. And of the library's
public arguments: each count, real, word id, probability vector and point
array that is not one raises the typed error of its kind."""
import contextlib
import dataclasses
import io
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from privtext import (
    EmbeddingStore, Mechanism, MultivariateLaplaceParam, RngStream, SensitivityProfile,
    TransitionMatrix, amplified_epsilon, attack_accuracy, build_profile, build_transition_matrix,
    deniability_stats, kde_log_prior, kthreshold_batch, posterior, sample_from_matrix,
    sample_mv_laplace, sample_mv_laplace_truncated, sample_permutation, sample_unit_sphere,
    shuffle_batch, subsample_batch, verify_metric_dp,
)
from privtext.amplification import AmplifierConfig
from privtext.analysis import Posterior
from privtext.cli import main
from privtext.embeddings import CACHE_MAGIC
from privtext.errors import (
    ConfigError, DimensionMismatchError, InvalidWordIdError, MatrixFormatError,
    NonFiniteComponentError,
)
from privtext.pipeline import CorpusSpec, ProtocolConfig, zipf_probs
from privtext.randomizers import MATRIX_TSV_MAGIC, VARIANTS, MechanismConfig, matrix_from_tsv
from privtext.samplers import truncation_mass

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

# counts in range and past it (2**53, 2**63, 2**64), and what int() alone
# would take or round: '1.0', '1_0', '+1', ' 1'
count = st.one_of(
    st.integers(-2, 2**70).map(str),
    st.sampled_from(["0", "1", "10", "1.0", "-1", "1_0", "+1", " 1", "0.2", "x", "", str(2**53),
                     str(2**53 + 1), str(2**63), str(2**64 + 1)]),
    st.floats().map(repr),
)
tsv_line = st.one_of(
    st.tuples(st.sampled_from(WORDS + ["q", ""]), st.sampled_from(WORDS), count)
    .map("\t".join),
    st.sampled_from(["#samples 10", "#samples x", "#samples", "#samples -3", "#note", ""]),
    st.integers(-2, 10**30).map(lambda n: f"#samples {n}"),
    utf8_text,
)
tsv_text = st.tuples(
    st.sampled_from([MATRIX_TSV_MAGIC, "#privtext-matrix-v1", "", "#other"]),
    st.lists(tsv_line, max_size=10),
).map(lambda t: "\n".join([t[0], *t[1]]))
# a permutation matrix of one count per row, valid when it is in
# [1, 2**53], with a '#samples' comment, then arbitrary extra lines
valid_tsv = st.tuples(
    st.permutations(WORDS), st.one_of(st.integers(1, 2**53), st.integers(-2, 2**70)),
    st.integers(-2, 10**30), st.lists(tsv_line, max_size=3),
).map(lambda t: "\n".join(
    [MATRIX_TSV_MAGIC, f"#samples {t[2]}", *(f"{a}\t{b}\t{t[1]}" for a, b in zip(WORDS, t[0])),
     *t[3]]
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
    """What a matrix parser makes of text: the counts and sample count, or
    the error's type and message."""
    try:
        matrix = parse(store, text)
    except (MatrixFormatError, InvalidWordIdError) as exc:
        return type(exc), str(exc)
    return matrix.counts.tobytes(), matrix.sample_count


# lines a parser could class wrongly: two-tab comments and blank lines,
# blank first fields, repeated entries, other line breaks
odd_line = st.sampled_from([
    "#c\tv\t1", "#samples\t3\t4", "\t\t", " \t \t ", "\tv\t1", " #x\tv\t1",
    "v\tv\t0.5", "v\tv\t1", "v\tv\t1\t", "\u3000\t\t", "#samples 7\r", "v\tw\t1_0",
    "v\tv\t1.0", "v\tv\t-1", "v\tv\t+1", "v\tv\t\u0661", f"v\tv\t{2**63}", f"v\tv\t{2**64 + 1}",
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


# --- public library arguments -------------------------------------------------

# Each entry passes its value to one public argument, valid values to the
# rest; every entry succeeds at the kind's valid value (1 for a count, 0.5
# for a real, 0 for a word id). A check of its own that drifts from the
# errors rules (a bool read as 0 or 1, an infinity that passes a lower
# bound, a float cut to an int) makes its entry fail.
TABLE_STORE = EmbeddingStore.from_arrays(WORDS, [[0, 0], [8, 0], [0, 8], [8, 8], [4, 4]])
TABLE_MATRIX = TransitionMatrix(np.full((5, 5), 2))
BASELINE = Mechanism(TABLE_STORE, MechanismConfig("baseline", 1.0))
UNIFORM = np.full(5, 0.2)


def rng():
    return RngStream(0)


def laplace(dim=2, epsilon=1.0):
    return MultivariateLaplaceParam(dim, epsilon)


def protocol(n_users=1, m_per_user=1, seed=0):
    return ProtocolConfig(n_users, m_per_user, MechanismConfig("baseline", 1.0), seed=seed)


COUNT_ARGS = {
    "RngStream.seed": lambda v: RngStream(v),
    "RngStream.fork.stream_id": lambda v: rng().fork(v),
    "MultivariateLaplaceParam.dim": lambda v: laplace(dim=v),
    "sample_unit_sphere.dim": lambda v: sample_unit_sphere(rng(), v, 2),
    "sample_unit_sphere.size": lambda v: sample_unit_sphere(rng(), 2, v),
    "sample_mv_laplace.size": lambda v: sample_mv_laplace(rng(), laplace(), v),
    "sample_mv_laplace_truncated.size":
        lambda v: sample_mv_laplace_truncated(rng(), laplace(), 1.0, v),
    "sample_permutation.n": lambda v: sample_permutation(rng(), v),
    "EmbeddingStore.k_nearest.k": lambda v: TABLE_STORE.k_nearest(0, v),
    "MechanismConfig.k": lambda v: MechanismConfig("trunc_knn", 1.0, k=v),
    "MechanismConfig.mh_steps": lambda v: MechanismConfig("density", 1.0, mh_steps=v),
    "Mechanism.perturb_batch.n": lambda v: BASELINE.perturb_batch(rng(), 0, v),
    "build_transition_matrix.samples_per_word": lambda v: build_transition_matrix(
        TABLE_STORE, rng(), MechanismConfig("baseline", 1.0), v),
    "deniability_stats.n_trials": lambda v: deniability_stats(BASELINE, rng(), 0, v),
    "attack_accuracy.n_trials":
        lambda v: attack_accuracy(TABLE_STORE, rng(), TABLE_MATRIX, UNIFORM, v),
    "AmplifierConfig.k": lambda v: AmplifierConfig("kthreshold", k=v),
    "kthreshold_batch.k": lambda v: kthreshold_batch(np.array([1, 1, 2]), v),
    "ProtocolConfig.n_users": lambda v: protocol(n_users=v),
    "ProtocolConfig.m_per_user": lambda v: protocol(m_per_user=v),
    "ProtocolConfig.seed": lambda v: protocol(seed=v),
    "zipf_probs.n_words": lambda v: zipf_probs(v, 1.1),
}
REAL_ARGS = {
    "MultivariateLaplaceParam.epsilon": lambda v: laplace(epsilon=v),
    "truncation_mass.tau": lambda v: truncation_mass(laplace(), v),
    "sample_mv_laplace_truncated.tau":
        lambda v: sample_mv_laplace_truncated(rng(), laplace(), v, 2),
    "MechanismConfig.epsilon": lambda v: MechanismConfig("baseline", v),
    "MechanismConfig.sigma": lambda v: MechanismConfig("density", 1.0, sigma=v),
    "MechanismConfig.beta": lambda v: MechanismConfig("smooth", 1.0, beta=v),
    "MechanismConfig.tau": lambda v: MechanismConfig("trunc_distance", 1.0, tau=v),
    "kde_log_prior.sigma": lambda v: kde_log_prior(TABLE_STORE, np.zeros((1, 2)), v),
    "verify_metric_dp.epsilon": lambda v: verify_metric_dp(TABLE_MATRIX, TABLE_STORE, v),
    "verify_metric_dp.alpha": lambda v: verify_metric_dp(TABLE_MATRIX, TABLE_STORE, 1.0, v),
    "AmplifierConfig.q": lambda v: AmplifierConfig("subsample", q=v),
    "subsample_batch.q": lambda v: subsample_batch(rng(), np.array([1, 2]), v),
    "amplified_epsilon.epsilon": lambda v: amplified_epsilon(v, 0.5),
    "amplified_epsilon.q": lambda v: amplified_epsilon(1.0, v),
    "CorpusSpec.s": lambda v: CorpusSpec("zipf", s=v),
    "zipf_probs.s": lambda v: zipf_probs(5, v),
    "SensitivityProfile.beta": lambda v: SensitivityProfile(np.ones(5), v, np.ones(5)),
    "build_profile.beta": lambda v: build_profile(TABLE_STORE, v),
}
WORD_ID_ARGS = {
    "EmbeddingStore.check_id.w": lambda v: TABLE_STORE.check_id(v),
    "EmbeddingStore.vector.w": lambda v: TABLE_STORE.vector(v),
    "EmbeddingStore.distance_row.w": lambda v: TABLE_STORE.distance_row(v),
    "EmbeddingStore.k_nearest.w": lambda v: TABLE_STORE.k_nearest(v, 1),
    "Mechanism.perturb_batch.w": lambda v: BASELINE.perturb_batch(rng(), v, 1),
    "Mechanism.perturb_words.ids": lambda v: BASELINE.perturb_words(rng(), [v]),
    "deniability_stats.w": lambda v: deniability_stats(BASELINE, rng(), v, 1),
    "posterior.observed": lambda v: posterior(UNIFORM, TABLE_MATRIX, v),
    "sample_from_matrix.ids": lambda v: sample_from_matrix(rng(), TABLE_MATRIX, [v]),
    "shuffle_batch.batch": lambda v: shuffle_batch(rng(), [v]),
    "subsample_batch.batch": lambda v: subsample_batch(rng(), [v], 0.5),
    "kthreshold_batch.batch": lambda v: kthreshold_batch([v], 1),
}
PROBABILITY_ARGS = {
    "posterior.prior": lambda v: posterior(v, TABLE_MATRIX, 0),
    "attack_accuracy.prior": lambda v: attack_accuracy(TABLE_STORE, rng(), TABLE_MATRIX, v, 1),
    "Posterior.probs": lambda v: Posterior(0, v),
}
POINT_ARGS = {
    "EmbeddingStore.nearest_words.points": lambda v: TABLE_STORE.nearest_words(v),
    "kde_log_prior.points": lambda v: kde_log_prior(TABLE_STORE, v, 1.0),
}
ARG_TABLES = {"count": (COUNT_ARGS, 1), "real": (REAL_ARGS, 0.5), "word id": (WORD_ID_ARGS, 0),
              "probability vector": (PROBABILITY_ARGS, UNIFORM), "points": (POINT_ARGS, [[0.5, 0.5]])}

special = st.sampled_from([True, False, math.nan, math.inf, -math.inf])
# small floats: a check that let one through must not ask for a huge array
not_a_count = st.one_of(special, st.floats(-4, 4), st.text(max_size=3))
not_a_real = st.one_of(special, st.text(max_size=3), st.just(2**1024))
not_a_word_id = st.one_of(not_a_count, st.just(-1))
table_fuzz = settings(max_examples=15, deadline=None, derandomize=True, database=None)


def with_entry(vector, at, value):
    out = list(vector)
    out[at % len(out)] = value
    return out


def negative_entry(at, x):
    """The uniform vector over 5 words with entry at made -x and the next
    raised to keep the sum 1: only the sign is wrong."""
    out = [0.2] * 5
    out[at % 5], out[(at + 1) % 5] = -x, 0.4 + x
    return out


bad_entry = st.sampled_from([math.nan, math.inf, -math.inf, "x", None, 2**1024])
# a 0-d value is neither a vector nor a point array
zero_dimensional = st.one_of(special, st.floats(-4, 4), st.text(max_size=3))
not_a_probability_vector = st.one_of(
    zero_dimensional,
    st.builds(with_entry, st.just([0.2] * 5), st.integers(0, 4), bad_entry),
    st.builds(negative_entry, st.integers(0, 4), st.floats(1e-3, 4)),
    # bools that sum to 1, and vectors of the wrong width that sum to k / 5
    st.permutations([True, False, False, False, False]),
    st.sampled_from([1, 2, 3, 4, 6, 10]).map(lambda k: [0.2] * k),
)
not_points = st.one_of(
    zero_dimensional,
    st.lists(st.floats(-4, 4), min_size=2, max_size=2),
    st.lists(st.floats(-4, 4), max_size=4).filter(lambda row: len(row) != 2).map(lambda r: [r]),
    st.builds(with_entry, st.just([0.5, 0.5]), st.integers(0, 1), bad_entry).map(lambda r: [r]),
    st.lists(st.booleans(), min_size=2, max_size=2).map(lambda r: [r]),
    st.just([[1.0], [1.0, 2.0]]),
)


@pytest.mark.parametrize("kind, name", [(kind, name) for kind, (table, _) in ARG_TABLES.items()
                                        for name in table])
def test_argument_table_accepts_valid_values(kind, name):
    table, valid = ARG_TABLES[kind]
    table[name](valid)


@table_fuzz
@given(value=not_a_count)
@pytest.mark.parametrize("name", COUNT_ARGS)
def test_public_counts_reject_non_counts(name, value):
    with pytest.raises(ConfigError):
        COUNT_ARGS[name](value)


@table_fuzz
@given(value=not_a_real)
@pytest.mark.parametrize("name", REAL_ARGS)
def test_public_reals_reject_non_reals(name, value):
    with pytest.raises(ConfigError):
        REAL_ARGS[name](value)


@table_fuzz
@given(value=not_a_word_id)
@pytest.mark.parametrize("name", WORD_ID_ARGS)
def test_public_word_ids_reject_non_ids(name, value):
    with pytest.raises(InvalidWordIdError):
        WORD_ID_ARGS[name](value)


@table_fuzz
@given(value=not_a_probability_vector)
# the probes that ended in a bare ValueError or were accepted, whatever
# the strategy draws
@example(value="ab")
@example(value=[True, False, False, False, False])
@example(value=1.0)
@example(value=[0.6, -0.2, 0.2, 0.2, 0.2])
@example(value=[0.2] * 4)
@pytest.mark.parametrize("name", PROBABILITY_ARGS)
def test_public_probability_vectors_reject_non_vectors(name, value):
    with pytest.raises(ConfigError):
        PROBABILITY_ARGS[name](value)


@table_fuzz
@given(value=not_points)
@example(value=[["x", "y"]])
@example(value=[[True, False]])
@example(value=[[math.nan, 0.0]])
@example(value=[[0.0, 0.0, 0.0]])
@example(value=0.5)
@pytest.mark.parametrize("name", POINT_ARGS)
def test_public_points_reject_non_points(name, value):
    with pytest.raises((ConfigError, DimensionMismatchError, NonFiniteComponentError)):
        POINT_ARGS[name](value)
