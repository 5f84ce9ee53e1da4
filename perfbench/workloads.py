"""The four benchmark workloads.

Each workload makes its inputs from the seed (`prepare`), sets up what a
user pays before the first word can be perturbed (`setup`), and runs one
user operation at a time (`op`): a `run_protocol` call, a `privtext perturb`
call, or a matrix -> verify-dp -> attack audit. Every operation returns the
outputs it produced and the correctness checks it passed or failed. See
README.md in this directory for why each workload exists.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from privtext import cli, embeddings, pipeline, sensitivity
from privtext.amplification import AmplifierConfig
from privtext.randomizers import MechanismConfig

from .inputs import N_CLUSTERS, VocabSpec, make_vocabulary, write_text_embeddings, zipf_ids

L2_BYTES = 4 * 1024 * 1024  # the 2-core test box: 2 MiB per core, 4 MiB in all

ZIPF_S = 1.1
AMPLIFIERS = (
    {"kind": "shuffle"},
    {"kind": "subsample", "q": 0.5},
    {"kind": "kthreshold", "k": 3},
)


@dataclass
class Op:
    """One user operation: the items it processed, its user-visible wall
    time, named timings for the summary, its outputs and its checks."""

    items: int
    wall: float
    named: dict[str, float]
    output: str
    checks: list[tuple[str, bool]] = field(default_factory=list)


@dataclass
class Inputs:
    """Seed-derived inputs of one run, plus run-level tallies."""

    seed: int
    workdir: str
    words: list[str]
    paths: dict[str, str]
    unchanged: int = 0
    perturbed: int = 0


def op_seed(seed: int, i: int) -> int:
    return seed * 1000 + i


def call_cli(argv: list[str]) -> tuple[int, str, str, float]:
    """privtext.cli.main in-process with captured stdout/stderr; returns
    (exit code, stdout, stderr, wall seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        rc = cli.main(argv)
        wall = time.perf_counter() - t0
    return rc, out.getvalue(), err.getvalue(), wall


def _vocab_inputs(spec: VocabSpec, seed: int) -> tuple[list[str], np.ndarray]:
    gen = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    return make_vocabulary(spec, gen)


def _op_gen(seed: int, i: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, 1, i]))


def _vocab_facts(vocab: VocabSpec) -> dict:
    return {
        "n_clusters": N_CLUSTERS,
        "vocab_bytes": vocab.vocab_bytes,
        "vocab_over_l2": vocab.vocab_bytes / L2_BYTES,
    }


def _in_band(value: float, band: tuple[float, float]) -> bool:
    return band[0] <= value <= band[1]


@dataclass(frozen=True)
class PipelineWorkload:
    """run_protocol over a Zipf corpus with shuffle -> subsample -> kthreshold."""

    name: str
    vocab: VocabSpec
    mechanism: dict
    n_users: int
    m_per_user: int
    tv_band: tuple[float, float]  # utility_tv of the real mechanism, any seed
    setup_reps: int
    min_ops: int = 3

    def describe(self) -> dict:
        return {
            "kind": "pipeline",
            **asdict(self),
            "zipf_s": ZIPF_S,
            "amplifiers": list(AMPLIFIERS),
            "words_per_op": self.n_users * self.m_per_user,
            **_vocab_facts(self.vocab),
        }

    def prepare(self, seed: int, workdir: str) -> Inputs:
        words, vectors = _vocab_inputs(self.vocab, seed)
        path = os.path.join(workdir, "vocab.npz")
        embeddings.save_cache(embeddings.EmbeddingStore.from_arrays(words, vectors), path)
        return Inputs(seed, workdir, words, {"cache": path})

    def setup(self, inputs: Inputs):
        store = embeddings.load_cache(inputs.paths["cache"])
        profile = None
        if self.mechanism["variant"] == "smooth":
            profile = sensitivity.build_profile(store, self.mechanism["beta"])
        return store, profile

    def op(self, inputs: Inputs, ctx, i: int) -> Op:
        store, profile = ctx
        config = pipeline.ProtocolConfig(
            n_users=self.n_users,
            m_per_user=self.m_per_user,
            mechanism=MechanismConfig.from_dict(self.mechanism),
            amplifiers=tuple(AmplifierConfig.from_dict(a) for a in AMPLIFIERS),
            seed=op_seed(inputs.seed, i),
            corpus=pipeline.CorpusSpec(kind="zipf", s=ZIPF_S),
        )
        t0 = time.perf_counter()
        report = pipeline.run_protocol(store, config, profile)
        wall = time.perf_counter() - t0
        items = self.n_users * self.m_per_user
        return Op(
            items=items,
            wall=wall,
            named={"pipeline_words_per_s": items / wall},
            output=report.to_json(store),
            checks=self.check(report),
        )

    def check(self, report) -> list[tuple[str, bool]]:
        meta = report.metadata
        k = AMPLIFIERS[-1]["k"]
        tv = report.utility_tv
        return [
            ("histogram total == n_messages_amplified",
             sum(report.histogram.values()) == meta["n_messages_amplified"]),
            ("n_messages_local == n*m", meta["n_messages_local"] == self.n_users * self.m_per_user),
            (f"every surviving count >= {k}", all(c >= k for c in report.histogram.values())),
            (f"utility_tv {tv:.4f} in [0, 1] and in band {self.tv_band}",
             0.0 <= tv <= 1.0 and _in_band(tv, self.tv_band)),
        ]

    def run_checks(self, inputs: Inputs) -> list[tuple[str, bool]]:
        return []


@dataclass(frozen=True)
class PerturbCliWorkload:
    """`privtext perturb` with the density variant on Zipf-sampled lines."""

    name: str
    vocab: VocabSpec
    epsilon: float
    mh_step: float
    lines_per_call: int
    tokens_per_line: int
    setup_reps: int
    min_ops: int = 2

    def describe(self) -> dict:
        return {
            "kind": "cli-perturb",
            **asdict(self),
            "zipf_s": ZIPF_S,
            "mh": {"burn_in": 1000, "thin": 10, "proposal_step": self.mh_step},
            "tokens_per_op": self.lines_per_call * self.tokens_per_line,
            **_vocab_facts(self.vocab),
            "nn_pass_bytes_per_token": self.vocab.n_words**2 * 8,
        }

    def _argv(self, inputs: Inputs, seed: int, input_path: str) -> list[str]:
        return [
            "--embeddings", inputs.paths["embeddings"], "--seed", str(seed),
            "perturb", "--mechanism", "density", "--epsilon", repr(self.epsilon),
            "--mh-step", repr(self.mh_step), "--input", input_path,
        ]

    def prepare(self, seed: int, workdir: str) -> Inputs:
        words, vectors = _vocab_inputs(self.vocab, seed)
        emb = os.path.join(workdir, "vocab.txt")
        write_text_embeddings(emb, words, vectors)
        empty = os.path.join(workdir, "empty.txt")
        open(empty, "w", encoding="utf-8").close()
        return Inputs(seed, workdir, words, {"embeddings": emb, "empty": empty})

    def setup(self, inputs: Inputs):
        rc, _, err, _ = call_cli(self._argv(inputs, inputs.seed, inputs.paths["empty"]))
        if rc != 0:
            raise RuntimeError(f"perturb on empty input exited {rc}: {err.strip()}")
        return None

    def op(self, inputs: Inputs, ctx, i: int) -> Op:
        ids = zipf_ids(_op_gen(inputs.seed, i), len(inputs.words), ZIPF_S,
                       (self.lines_per_call, self.tokens_per_line))
        lines = [[inputs.words[w] for w in row] for row in ids]
        path = os.path.join(inputs.workdir, f"perturb_in_{i}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("".join(" ".join(line) + "\n" for line in lines))
        rc, out, err, wall = call_cli(self._argv(inputs, op_seed(inputs.seed, i), path))
        os.unlink(path)
        items = self.lines_per_call * self.tokens_per_line
        return Op(
            items=items,
            wall=wall,
            named={"perturb_tokens_per_s": items / wall},
            output=out,
            checks=self.check(inputs, rc, lines, out),
        )

    def check(self, inputs: Inputs, rc: int, lines, out: str) -> list[tuple[str, bool]]:
        out_lines = [line.split() for line in out.splitlines()]
        vocab = set(inputs.words)
        shape_ok = len(out_lines) == len(lines) and all(
            len(a) == len(b) for a, b in zip(lines, out_lines)
        )
        if shape_ok:
            for a, b in zip(lines, out_lines):
                inputs.unchanged += sum(x == y for x, y in zip(a, b))
                inputs.perturbed += len(a)
        return [
            ("perturb exit code 0", rc == 0),
            ("token count preserved per line", shape_ok),
            ("every output token in the vocabulary",
             all(t in vocab for line in out_lines for t in line)),
        ]

    def run_checks(self, inputs: Inputs) -> list[tuple[str, bool]]:
        frac = inputs.unchanged / inputs.perturbed if inputs.perturbed else -1.0
        return [(f"unchanged fraction {frac:.3f} strictly in (0, 1)", 0.0 < frac < 1.0)]


@dataclass(frozen=True)
class AuditWorkload:
    """`privtext matrix`, then `verify-dp`, then `attack` on an .npz cache."""

    name: str
    vocab: VocabSpec
    epsilon: float
    samples: int
    trials: int
    accuracy_band: tuple[float, float]  # attack accuracy of the real mechanism, any seed
    setup_reps: int
    min_ops: int = 1

    def describe(self) -> dict:
        return {
            "kind": "cli-audit",
            **asdict(self),
            "prior": f"zipf:{ZIPF_S}",
            **_vocab_facts(self.vocab),
            "pairwise_bytes": self.vocab.n_words**2 * 8,
        }

    def prepare(self, seed: int, workdir: str) -> Inputs:
        words, vectors = _vocab_inputs(self.vocab, seed)
        path = os.path.join(workdir, "vocab.npz")
        embeddings.save_cache(embeddings.EmbeddingStore.from_arrays(words, vectors), path)
        tsv = os.path.join(workdir, "matrix.tsv")
        return Inputs(seed, workdir, words, {"cache": path, "tsv": tsv})

    def setup(self, inputs: Inputs):
        return embeddings.load_cache(inputs.paths["cache"])

    def op(self, inputs: Inputs, ctx, i: int) -> Op:
        cache, tsv, seed = inputs.paths["cache"], inputs.paths["tsv"], str(op_seed(inputs.seed, i))
        eps = repr(self.epsilon)
        rc_m, _, _, matrix_s = call_cli([
            "--embeddings", cache, "--seed", seed, "--out", tsv, "--quiet",
            "matrix", "--epsilon", eps, "--samples", str(self.samples),
        ])
        rc_v, verify_out, _, verify_s = call_cli(
            ["--embeddings", cache, "verify-dp", "--matrix", tsv, "--epsilon", eps]
        )
        rc_a, attack_out, _, attack_s = call_cli([
            "--embeddings", cache, "--seed", seed, "attack", "--matrix", tsv,
            "--prior", f"zipf:{ZIPF_S}", "--trials", str(self.trials),
        ])
        with open(tsv, encoding="utf-8") as fh:
            tsv_text = fh.read()
        wall = matrix_s + verify_s + attack_s
        return Op(
            items=self.vocab.n_words,
            wall=wall,
            named={"matrix_s": matrix_s, "verify_s": verify_s, "attack_s": attack_s},
            output=tsv_text + verify_out + attack_out,
            checks=self.check((rc_m, rc_v, rc_a), verify_out, attack_out),
        )

    def max_prior(self) -> float:
        prior = np.arange(1, self.vocab.n_words + 1, dtype=np.float64) ** (-ZIPF_S)
        return float(prior[0] / prior.sum())

    def check(self, codes, verify_out: str, attack_out: str) -> list[tuple[str, bool]]:
        checks = [(f"{cmd} exit code 0", rc == 0)
                  for cmd, rc in zip(("matrix", "verify-dp", "attack"), codes)]
        if codes[1] == 0 and codes[2] == 0:
            satisfied = json.loads(verify_out)["satisfied"]
            acc = json.loads(attack_out)["accuracy"]
            checks += [
                ("verify-dp reports satisfied: true", satisfied is True),
                (f"attack accuracy {acc:.4f} in [max prior, 1] and in band {self.accuracy_band}",
                 self.max_prior() <= acc <= 1.0 and _in_band(acc, self.accuracy_band)),
            ]
        return checks

    def run_checks(self, inputs: Inputs) -> list[tuple[str, bool]]:
        return []


WORKLOADS = {
    w.name: w
    for w in (
        PipelineWorkload(
            name="lac-smooth-5k-d300",
            vocab=VocabSpec(5000, 300, spread=1.4),
            mechanism={"variant": "smooth", "epsilon": 2.0, "beta": 1.0},
            n_users=100,
            m_per_user=10,
            tv_band=(0.385, 0.47),
            setup_reps=3,
        ),
        # Runs by name but is not gated in BENCHMARK.json: it is Python-bound, and
        # its throughput spread 0.14-0.28 from run to run on the shared box.
        PipelineWorkload(
            name="lac-wide-1k",
            vocab=VocabSpec(1000, 50, spread=1.0),
            mechanism={"variant": "baseline", "epsilon": 4.0},
            n_users=1000,
            m_per_user=5,
            tv_band=(0.38, 0.53),
            setup_reps=2001,
        ),
        PerturbCliWorkload(
            name="cli-density-5k",
            vocab=VocabSpec(5000, 50, spread=6.0),
            epsilon=1.0,
            mh_step=0.3,
            lines_per_call=1,
            tokens_per_line=12,
            setup_reps=51,
        ),
        AuditWorkload(
            name="audit-1k",
            vocab=VocabSpec(1000, 50, spread=2.0),
            epsilon=2.5,
            samples=200,
            trials=10000,
            accuracy_band=(0.6, 0.9),
            # a 1 ms load_cache: 5001 set-ups span about 6 s, so one quiet or
            # busy moment of a shared machine moves the median less
            setup_reps=5001,
        ),
    )
}

# Small sizes for the self-tests: same code paths, seconds instead of minutes.
TINY = {
    "lac-smooth-5k-d300": replace(
        WORKLOADS["lac-smooth-5k-d300"],
        vocab=VocabSpec(400, 30, spread=1.4),
        n_users=100, m_per_user=10, tv_band=(0.34, 0.5), setup_reps=1, min_ops=1,
    ),
    "lac-wide-1k": replace(
        WORKLOADS["lac-wide-1k"],
        vocab=VocabSpec(200, 20), n_users=600, tv_band=(0.31, 0.44),
        setup_reps=1, min_ops=1,
    ),
    "cli-density-5k": replace(
        WORKLOADS["cli-density-5k"],
        vocab=VocabSpec(200, 10, spread=6.0),
        tokens_per_line=6, lines_per_call=2, setup_reps=1, min_ops=1,
    ),
    "audit-1k": replace(
        WORKLOADS["audit-1k"],
        vocab=VocabSpec(60, 10, spread=2.0),
        trials=2000, accuracy_band=(0.35, 0.95), setup_reps=1,
    ),
}
