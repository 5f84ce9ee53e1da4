"""End-to-end localize -> amplify -> curate protocol simulation.

n simulated users each release m words through a configured randomizer;
the batch of messages, one flat int64 array of payload word ids, then
passes through an ordered amplifier chain and finally the curator computes
a word-frequency histogram with utility accounting against the pre-noise
histogram of the same sampled corpus.

Every phase draws from streams forked off one root seed, and the local
phase draws through Mechanism.perturb_words, which forks one stream per
distinct word, so a (config, seed) pair reproduces byte-identical reports
however the words are grouped into draws.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .amplification import AmplifierConfig, amplified_epsilon, apply_amplifier
from .embeddings import EmbeddingStore
from .errors import ConfigError, require_real
from .randomizers import Mechanism, MechanismConfig
from .samplers import RngStream
from .sensitivity import SensitivityProfile

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class CorpusSpec:
    """Where user words come from: a synthetic Zipf(s) draw over the
    vocabulary, or explicit per-user word lists."""

    kind: str = "zipf"  # zipf | words
    s: float = 1.1
    words_per_user: tuple[tuple[str, ...], ...] | None = None

    def __post_init__(self):
        if self.kind == "zipf":
            require_real("s", self.s)
            if not self.s > 0:
                raise ConfigError(f"zipf exponent must be > 0, got {self.s}")
            object.__setattr__(self, "s", float(self.s))
        elif self.kind == "words":
            if not self.words_per_user:
                raise ConfigError("words corpus requires words_per_user")
            if not all(isinstance(w, str) for row in self.words_per_user for w in row):
                raise ConfigError("words_per_user entries must be strings")
        else:
            raise ConfigError(f"unknown corpus kind {self.kind!r}")

    def to_dict(self) -> dict:
        if self.kind == "zipf":
            return {"kind": "zipf", "s": self.s}
        return {"kind": "words", "words_per_user": [list(u) for u in self.words_per_user]}

    @classmethod
    def from_dict(cls, data: dict) -> "CorpusSpec":
        if data.get("kind") == "words":
            return cls(kind="words", words_per_user=tuple(tuple(u) for u in data["words_per_user"]))
        return cls(kind="zipf", s=data.get("s", 1.1))


@dataclass(frozen=True)
class ProtocolConfig:
    n_users: int
    m_per_user: int
    mechanism: MechanismConfig
    amplifiers: tuple[AmplifierConfig, ...] = ()
    seed: int = 0
    corpus: CorpusSpec = field(default_factory=CorpusSpec)

    def __post_init__(self):
        counts = (self.n_users, self.m_per_user)
        if any(type(v) is not int for v in (*counts, self.seed)) or min(counts) < 1:
            raise ConfigError("n_users and m_per_user must be integers >= 1 and seed an integer")
        object.__setattr__(self, "amplifiers", tuple(self.amplifiers))

    def to_dict(self) -> dict:
        return {
            "n_users": self.n_users,
            "m_per_user": self.m_per_user,
            "mechanism": self.mechanism.to_dict(),
            "amplifiers": [a.to_dict() for a in self.amplifiers],
            "seed": self.seed,
            "corpus": self.corpus.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ProtocolConfig":
        """Parse a JSON-decoded config; any missing or ill-typed field is a
        ConfigError."""
        try:
            return cls(
                n_users=data["n_users"],
                m_per_user=data["m_per_user"],
                mechanism=MechanismConfig.from_dict(data["mechanism"]),
                amplifiers=tuple(AmplifierConfig.from_dict(a) for a in data.get("amplifiers", [])),
                seed=data.get("seed", 0),
                corpus=CorpusSpec.from_dict(data.get("corpus", {"kind": "zipf"})),
            )
        except KeyError as exc:
            raise ConfigError(f"protocol config is missing the field {exc}") from None
        except (TypeError, ValueError, AttributeError, OverflowError) as exc:
            raise ConfigError(f"invalid protocol config: {exc}") from None


@dataclass(frozen=True)
class CuratorReport:
    histogram: dict[int, int]
    true_histogram: dict[int, int]
    utility_l1: float
    utility_tv: float
    metadata: dict

    def to_json(self, store: EmbeddingStore) -> str:
        """Deterministic JSON rendering with word strings as keys."""
        payload = {
            "schema_version": SCHEMA_VERSION,
            "histogram": {store.words[w]: c for w, c in sorted(self.histogram.items())},
            "true_histogram": {store.words[w]: c for w, c in sorted(self.true_histogram.items())},
            "utility_l1": self.utility_l1,
            "utility_tv": self.utility_tv,
            "metadata": self.metadata,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def sample_corpus(store: EmbeddingStore, rng: RngStream, config: ProtocolConfig) -> np.ndarray:
    """(n_users, m_per_user) array of input word ids."""
    n, m = config.n_users, config.m_per_user
    spec = config.corpus
    if spec.kind == "zipf":
        probs = np.arange(1, len(store) + 1, dtype=np.float64) ** (-spec.s)
        probs /= probs.sum()
        return rng.gen.choice(len(store), size=(n, m), p=probs)
    rows = spec.words_per_user
    if len(rows) != n or any(len(r) != m for r in rows):
        raise ConfigError("words_per_user shape does not match (n_users, m_per_user)")
    return np.array([[store.word_id(w) for w in row] for row in rows], dtype=np.int64)


def run_local_phase(
    store: EmbeddingStore,
    rng: RngStream,
    config: ProtocolConfig,
    inputs: np.ndarray,
    profile: SensitivityProfile | None = None,
) -> np.ndarray:
    """Perturb the (n_users, m_per_user) input ids through the configured mechanism.

    Returns the flat (n_users * m_per_user,) payload array in user-major
    order: entry i * m_per_user + j is user i's slot j. Draws fork per
    distinct word, not per user (see Mechanism.perturb_words).
    """
    return Mechanism(store, config.mechanism, profile).perturb_words(rng, inputs)


def run_amplifiers(
    rng: RngStream, batch: np.ndarray, amplifiers: tuple[AmplifierConfig, ...]
) -> np.ndarray:
    """Apply the amplifier chain left to right, one forked stream per stage."""
    for idx, amp in enumerate(amplifiers):
        batch = apply_amplifier(rng.fork(idx), batch, amp)
    return batch


def run_curator(batch: np.ndarray) -> dict[int, int]:
    """Exact payload frequency histogram."""
    words, counts = np.unique(batch, return_counts=True)
    return dict(zip(words.tolist(), counts.tolist()))


def _l1(batch: np.ndarray, true_batch: np.ndarray, n_words: int) -> float:
    hist = np.bincount(batch, minlength=n_words)
    true_hist = np.bincount(true_batch, minlength=n_words)
    return float(np.abs(hist - true_hist).sum())


def run_protocol(
    store: EmbeddingStore, config: ProtocolConfig, profile: SensitivityProfile | None = None
) -> CuratorReport:
    """Compose the three phases and account for utility loss.

    utility_l1 compares the amplified histogram against the pre-noise
    histogram of the same sampled corpus, isolating mechanism error from
    corpus sampling error.
    """
    root = RngStream(config.seed)
    inputs = sample_corpus(store, root.fork_named("corpus"), config)
    messages = run_local_phase(store, root.fork_named("local"), config, inputs, profile)
    amplified = run_amplifiers(root.fork_named("amplify"), messages, config.amplifiers)

    hist = run_curator(amplified)
    true_hist = run_curator(inputs)
    l1 = _l1(amplified, inputs.ravel(), len(store))
    tv = l1 / (2.0 * inputs.size)

    metadata: dict = {
        "schema_version": SCHEMA_VERSION,
        "config": config.to_dict(),
        "n_messages_local": len(messages),
        "n_messages_amplified": len(amplified),
    }
    for amp in config.amplifiers:
        if amp.kind == "subsample":
            metadata["amplified_epsilon"] = amplified_epsilon(config.mechanism.epsilon, amp.q)
    return CuratorReport(
        histogram=hist,
        true_histogram=true_hist,
        utility_l1=l1,
        utility_tv=tv,
        metadata=metadata,
    )
