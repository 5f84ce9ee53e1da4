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
from dataclasses import asdict, dataclass, field

import numpy as np

from .amplification import AmplifierConfig, amplified_epsilon, apply_amplifier
from .embeddings import EmbeddingStore
from .errors import ConfigError, require_count, require_params, require_positive, set_fields
from .randomizers import NO_CLAIM, Mechanism, MechanismConfig, claimed_factor
from .samplers import RngStream
from .sensitivity import SensitivityProfile

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class CorpusSpec:
    """Where user words come from: a synthetic Zipf(s) draw over the
    vocabulary (s unset is 1.1), or explicit per-user word lists, one list
    of word strings per user. Only the kind's own parameter may be set."""

    kind: str = "zipf"  # zipf | words
    s: float | None = None  # zipf exponent
    words_per_user: tuple[tuple[str, ...], ...] | None = None  # words

    def __post_init__(self):
        require_params(self, "kind", {"zipf": ("s",), "words": ("words_per_user",)})
        if self.kind == "zipf":
            s = 1.1 if self.s is None else self.s
            require_positive("s", s)
            object.__setattr__(self, "s", float(s))
            return
        rows = self.words_per_user
        if not (isinstance(rows, (list, tuple)) and rows
                and all(isinstance(row, (list, tuple)) for row in rows)):
            raise ConfigError("words corpus requires words_per_user, a non-empty list of lists")
        if not all(isinstance(w, str) for row in rows for w in row):
            raise ConfigError("words_per_user entries must be strings")
        object.__setattr__(self, "words_per_user", tuple(tuple(row) for row in rows))

    to_dict = set_fields


@dataclass(frozen=True)
class ProtocolConfig:
    n_users: int
    m_per_user: int
    mechanism: MechanismConfig
    amplifiers: tuple[AmplifierConfig, ...] = ()
    seed: int = 0
    corpus: CorpusSpec = field(default_factory=CorpusSpec)

    def __post_init__(self):
        for name, minimum in (("n_users", 1), ("m_per_user", 1), ("seed", None)):
            object.__setattr__(self, name, require_count(name, getattr(self, name), minimum))
        object.__setattr__(self, "amplifiers", tuple(self.amplifiers))

    def to_dict(self) -> dict:
        return {
            **asdict(self),
            "mechanism": self.mechanism.to_dict(),
            "amplifiers": [a.to_dict() for a in self.amplifiers],
            "corpus": self.corpus.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ProtocolConfig":
        """Parse a JSON-decoded config: the mechanism, amplifiers and corpus
        objects through their own constructors, then the whole through
        this one's. A missing required field, an unknown key at any level
        and an ill-typed value are each a ConfigError."""
        try:
            data = dict(data)
            if "mechanism" in data:
                data["mechanism"] = MechanismConfig.from_dict(data["mechanism"])
            if "amplifiers" in data:
                data["amplifiers"] = [AmplifierConfig.from_dict(a) for a in data["amplifiers"]]
            if "corpus" in data:
                data["corpus"] = CorpusSpec(**data["corpus"])
            return cls(**data)
        except (TypeError, ValueError, OverflowError) as exc:
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


def zipf_probs(n_words: int, s: float) -> np.ndarray:
    """Zipf(s) probabilities over word ids 0..n_words-1: id i has weight
    (i + 1) ** -s, normalised to sum to 1."""
    require_positive("s", s)
    probs = np.arange(1, require_count("n_words", n_words) + 1, dtype=np.float64) ** (-s)
    probs /= probs.sum()
    return probs


def sample_corpus(store: EmbeddingStore, rng: RngStream, config: ProtocolConfig) -> np.ndarray:
    """(n_users, m_per_user) array of input word ids."""
    n, m = config.n_users, config.m_per_user
    spec = config.corpus
    if spec.kind == "zipf":
        return rng.gen.choice(len(store), size=(n, m), p=zipf_probs(len(store), spec.s))
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
    corpus sampling error. Behind a subsample stage, the metadata carries
    the subsampled bound of the variant's claimed_factor, or, for a
    variant that claims none, "guarantee": null and the reason.
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
    factor = claimed_factor(config.mechanism)
    for amp in config.amplifiers:
        if amp.kind == "subsample" and factor is None:
            metadata.update(guarantee=None, guarantee_note=NO_CLAIM[config.mechanism.variant])
        elif amp.kind == "subsample":
            metadata["amplified_epsilon"] = {**amplified_epsilon(factor, amp.q),
                                             "unit": "per unit of embedding distance"}
    return CuratorReport(
        histogram=hist,
        true_histogram=true_hist,
        utility_l1=l1,
        utility_tv=tv,
        metadata=metadata,
    )
