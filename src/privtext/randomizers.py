"""Word-level privacy mechanisms over the embedding metric space.

Five variants share the same skeleton (perturb the word vector, project the
noisy point back to the vocabulary):

- baseline:        radial Laplacian noise with density exp(-eps * ||z||)
- density:         noise modulated by a KDE prior over the embedding,
                   sampled with a random-walk Metropolis-Hastings chain
- smooth:          baseline with the noise scale calibrated per word to the
                   beta-smooth sensitivity bound (normalized so beta = 0
                   reproduces the baseline exactly)
- trunc_distance:  outputs restricted to the radius-tau admissible ball,
                   either by projecting into it or by spending the residual
                   tail mass on a uniform draw outside it
- trunc_knn:       outputs restricted to the word's k nearest neighbors

Every operation takes an explicit RngStream and is deterministic given it.
The density variant is only 2*eps d_X-private even under exact sampling,
because its normalizer Z(w) also moves by up to e^(eps * d); the
finite-length chain is an approximation of that. No formal privacy
guarantee is claimed for the smooth or truncated variants; the analysis
module measures what they actually provide.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .embeddings import EmbeddingStore, _gemm_sq_distances
from .errors import (
    ConfigError, DimensionMismatchError, InvalidWordIdError, MatrixFormatError,
    NonFiniteComponentError, require_count, require_params, require_real, set_fields,
)
from .samplers import (
    MultivariateLaplaceParam,
    RngStream,
    sample_mv_laplace,
    sample_mv_laplace_truncated,
    truncation_mass,
)
from .sensitivity import SensitivityProfile, build_profile

logger = logging.getLogger(__name__)

# each variant's parameters: the MechanismConfig fields it may set
_VARIANT_PARAMS = {
    "baseline": (),
    "density": ("sigma", "mh_steps", "mh_step"),
    "smooth": ("beta",),
    "trunc_distance": ("tau", "trunc_strategy"),
    "trunc_knn": ("k",),
}
VARIANTS = tuple(_VARIANT_PARAMS)
TRUNC_STRATEGIES = ("project", "residual")

MATRIX_TSV_MAGIC = "#privtext-matrix-v1"


@dataclass(frozen=True)
class MechanismConfig:
    """Tagged mechanism descriptor. Only the active variant's parameters
    may be set; anything else is rejected. A density chain runs mh_steps
    random-walk steps (default 1010) and decodes only its final state."""

    variant: str
    epsilon: float
    sigma: float | None = None          # density: KDE bandwidth
    beta: float | None = None           # smooth
    tau: float | None = None            # trunc_distance
    k: int | None = None                # trunc_knn
    trunc_strategy: str | None = None   # trunc_distance
    mh_steps: int | None = None         # density: MH chain length
    mh_step: float | None = None        # density: MH proposal step

    def __post_init__(self):
        require_params(self, "variant", _VARIANT_PARAMS)
        require_real("epsilon", self.epsilon)
        if not self.epsilon > 0:
            raise ConfigError(f"epsilon must be > 0, got {self.epsilon}")
        for name in ("sigma", "beta", "tau", "mh_step"):
            if getattr(self, name) is not None:
                require_real(name, getattr(self, name))
        if self.variant == "density":
            for name in ("sigma", "mh_step"):
                value = getattr(self, name)
                if value is not None and not value > 0:
                    raise ConfigError(f"{name} must be > 0, got {value}")
            steps = 1010 if self.mh_steps is None else self.mh_steps
            object.__setattr__(self, "mh_steps", require_count("mh_steps", steps))
        elif self.variant == "smooth":
            if self.beta is None or self.beta < 0:
                raise ConfigError("smooth variant requires beta >= 0")
        elif self.variant == "trunc_distance":
            if self.tau is None or not self.tau > 0:
                raise ConfigError("trunc_distance variant requires tau > 0")
            strategy = self.trunc_strategy or "project"
            if strategy not in TRUNC_STRATEGIES:
                raise ConfigError(f"unknown truncation strategy {strategy!r}")
            object.__setattr__(self, "trunc_strategy", strategy)
        elif self.variant == "trunc_knn":
            object.__setattr__(self, "k", require_count("k", self.k))

    def to_dict(self) -> dict:
        return set_fields(self)

    @classmethod
    def from_dict(cls, data: dict) -> "MechanismConfig":
        try:
            return cls(**data)
        except TypeError as exc:
            raise ConfigError(str(exc)) from None


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic |W| x |W| estimate of Pr[M(w) = u]."""

    probs: np.ndarray
    sample_count: int

    def __post_init__(self):
        # a float64 holds every count up to 2**53 exactly
        count = self.sample_count
        if type(count) is not int or not 0 <= count <= 2**53:
            raise MatrixFormatError(f"the sample count must be an int in [0, 2**53], got {count!r}")
        p = np.asarray(self.probs, dtype=np.float64)
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise MatrixFormatError(f"transition matrix must be square, got shape {p.shape}")
        if not np.all(p >= 0):
            raise MatrixFormatError("transition matrix has negative or NaN entries")
        sums = p.sum(axis=1)
        bad = np.flatnonzero(~(np.abs(sums - 1.0) <= 1e-9))
        if bad.size:
            raise MatrixFormatError(
                f"transition matrix row {bad[0]} sums to {sums[bad[0]]:.12g}, not 1"
            )
        object.__setattr__(self, "probs", p)

    @property
    def size(self) -> int:
        return self.probs.shape[0]

    def row(self, w: int) -> np.ndarray:
        if not 0 <= w < self.size:
            raise InvalidWordIdError(f"word id {w} outside [0, {self.size})")
        return self.probs[w]


def kde_log_prior(store: EmbeddingStore, points, sigma: float) -> np.ndarray:
    """Log of the unnormalized RBF kernel density over the vocabulary, at
    each row of a (n, d) array of points. The squared distances take the
    store's GEMM form and operation order (_gemm_sq_distances) in one
    (n, |W|) array, which the rest works on in place; the log-sum-exp is
    shifted by each row's maximum, so a point far from every word still
    scores finite."""
    if not sigma > 0:
        raise ConfigError(f"sigma must be > 0, got {sigma}")
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != store.dim:
        raise DimensionMismatchError(f"points must have shape (n, {store.dim}), got {points.shape}")
    if not np.isfinite(points).all():
        raise NonFiniteComponentError("points must be finite")
    sq = _gemm_sq_distances(
        points, np.einsum("ij,ij->i", points, points), store.vectors, store.sq_norms
    )
    np.maximum(sq, 0.0, out=sq)
    # -sq / (2 sigma^2) in place: dividing by the negated denominator is exact
    np.divide(sq, -(2.0 * sigma**2), out=sq)
    mx = sq.max(axis=1)
    sq -= mx[:, None]
    np.exp(sq, out=sq)
    return np.log(sq.sum(axis=1)) + mx


class Mechanism:
    """A configured mechanism bound to a store: the one place a word is
    perturbed. perturb_words(rng, ids) draws one output per entry of an id
    array by its single-word form, perturb_batch(rng, w, n), which draws n
    outputs for word w through one of two kernels:

    - additive (baseline, smooth, trunc_knn, trunc_distance): radial
      Laplacian noise at a per-word epsilon, decoded over a per-word
      candidate set: every word; for trunc_knn the k nearest neighbors of w
      plus w itself; for trunc_distance the words within tau of w, with the
      noise truncated at tau (and the residual draw outside the ball)
    - density: a KDE-modulated Metropolis-Hastings chain

    Per-word constants are resolved once per Mechanism: the smooth epsilon
    vector here, the density bandwidth and MH step on the first density draw
    (both from the store's nn_distances, which it computes once and keeps).
    """

    def __init__(
        self,
        store: EmbeddingStore,
        config: MechanismConfig,
        profile: SensitivityProfile | None = None,
    ):
        self.store = store
        self.config = config
        # the additive kernel's per-word epsilon
        self._epsilon = np.full(len(store), config.epsilon)
        if config.variant == "smooth":
            if profile is None:
                profile = build_profile(store, config.beta)
            if len(profile.per_word_smooth) != len(store):
                raise ConfigError("sensitivity profile does not match the store")
            if profile.beta != config.beta:
                raise ConfigError(
                    f"sensitivity profile was built at beta={profile.beta}, not at the config's"
                    f" beta={config.beta}"
                )
            smooth = profile.per_word_smooth
            # noise scale smooth(w)/global of the baseline's: less noise in
            # dense regions; 0 marks a word whose smooth sensitivity is 0
            self._epsilon = np.divide(
                config.epsilon * profile.global_sensitivity,
                smooth,
                out=np.zeros(len(store)),
                where=smooth > 0,
            )
        elif config.variant == "trunc_knn" and not config.k <= len(store) - 1:
            raise ConfigError(f"k={config.k} out of range [1, {len(store) - 1}]")

    def perturb_words(self, rng: RngStream, ids) -> np.ndarray:
        """Perturb every entry of an array of word ids, flattened row-major:
        one output per entry, in order.

        Each distinct word w makes one perturb_batch(rng.fork(w), w, count)
        call, whose outputs fill that word's positions in order of
        occurrence. Given the word, the draws are i.i.d., so grouping leaves
        the output distribution unchanged.
        """
        ids = _word_ids(ids)
        out = np.empty(len(ids), dtype=np.int64)
        for w, at in _positions_by_word(ids):
            out[at] = self.perturb_batch(rng.fork(w), w, len(at))
        return out

    def perturb_batch(self, rng: RngStream, w: int, n: int) -> np.ndarray:
        w = self.store.check_id(w)
        if self.config.variant == "density":
            return self._density_batch(rng, w, n)
        return self._additive_batch(rng, w, n)

    def _additive_batch(self, rng, w, n) -> np.ndarray:
        """phi(w) plus radial Laplacian noise, decoded to the nearest of w's
        candidates. trunc_distance truncates the noise at tau and decodes
        over the ball; under residual, one uniform per draw first decides
        whether it lands inside (with the truncation mass), and the draws
        outside become uniform words outside the ball."""
        store, config = self.store, self.config
        epsilon = float(self._epsilon[w])
        if not epsilon > 0:
            raise ConfigError(f"smooth sensitivity is 0 at word {w}; cannot calibrate")
        param = MultivariateLaplaceParam(store.dim, epsilon)
        cands, inside, n_in = None, slice(None), n
        if config.variant == "trunc_knn":
            cands = np.append(store.k_nearest(w, config.k), w)
        elif config.variant == "trunc_distance":
            dists = store.distance_row(w)
            # w's distance to itself is 0 < tau: the ball always holds w
            cands = np.flatnonzero(dists <= config.tau)
            outside = np.flatnonzero(dists > config.tau)
            if config.trunc_strategy == "residual" and outside.size:
                inside = rng.gen.uniform(size=n) < truncation_mass(param, config.tau)
                n_in = int(inside.sum())
            elif config.trunc_strategy == "residual":
                logger.warning("residual truncation at word %d has an empty out-region;"
                               " falling back to project", w)
        out = np.empty(n, dtype=np.int64)
        # a truncation mass that underflows to 0 sends no draw inside
        if n_in:
            if config.variant == "trunc_distance":
                z = sample_mv_laplace_truncated(rng, param, config.tau, size=n_in)
            else:
                z = sample_mv_laplace(rng, param, size=n_in)
            out[inside] = store.nearest_words(store.vector(w)[None, :] + z, candidate_ids=cands)
        if n_in < n:
            out[~inside] = rng.gen.choice(outside, size=n - n_in)
        return out

    @cached_property
    def _sigma(self) -> float:
        """Density KDE bandwidth; default the median nearest-neighbor distance."""
        sigma = self.config.sigma
        return sigma if sigma is not None else self.store.median_nn_distance()

    @cached_property
    def _mh_step(self) -> float:
        """MH proposal step; default the mean nearest-neighbor distance, a
        step comparable to the local geometry."""
        step = self.config.mh_step
        return step if step is not None else self.store.mean_nn_distance()

    def _log_target(self, points: np.ndarray, w: int) -> np.ndarray:
        """Unnormalized log density of the density variant centered at w,
        at each row of points: KDE log prior minus eps * ||z - phi(w)||."""
        distance = np.linalg.norm(points - self.store.vectors[w], axis=1)
        return kde_log_prior(self.store, points, self._sigma) - self.config.epsilon * distance

    def _density_batch(self, rng, w, n) -> np.ndarray:
        """Run n independent MH chains in lockstep from phi(w) for mh_steps
        steps and decode each chain's final state to its nearest word."""
        x = np.tile(self.store.vector(w), (n, 1))
        logp = self._log_target(x, w)
        step = self._mh_step
        gen = rng.gen
        for _ in range(self.config.mh_steps):
            prop = x + step * gen.standard_normal(x.shape)
            logp_prop = self._log_target(prop, w)
            accept = np.log(gen.uniform(size=n)) < logp_prop - logp
            x[accept] = prop[accept]
            logp[accept] = logp_prop[accept]
        return self.store.nearest_words(x)


def _word_ids(ids) -> np.ndarray:
    """ids flattened to int64; InvalidWordIdError unless integers or empty."""
    ids = np.asarray(ids)
    if ids.size and ids.dtype.kind not in "iu":
        raise InvalidWordIdError(f"word ids must be integers, got {ids.dtype}")
    return ids.astype(np.int64, copy=False).ravel()


def _positions_by_word(ids: np.ndarray):
    """(w, positions of w in order of occurrence) for each distinct word w
    of a 1-D id array, in ascending w."""
    if not len(ids):
        return
    order = np.argsort(ids, kind="stable")
    grouped = ids[order]
    # a word's run starts where the sorted ids change
    bounds = [0, *(np.flatnonzero(grouped[1:] != grouped[:-1]) + 1).tolist(), len(ids)]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        yield int(grouped[lo]), order[lo:hi]


def build_transition_matrix(
    store: EmbeddingStore,
    rng: RngStream,
    config: MechanismConfig,
    samples_per_word: int,
) -> TransitionMatrix:
    """Monte Carlo estimate of the full output distribution: row w holds
    the output frequencies of one perturb_words call on samples_per_word
    copies of w, the draws of perturb_batch(rng.fork(w), w,
    samples_per_word). Drawing row by row keeps one row's draws in memory."""
    samples_per_word = require_count("samples_per_word", samples_per_word)
    mech = Mechanism(store, config)
    n_words = len(store)
    probs = np.empty((n_words, n_words), dtype=np.float64)
    for w in range(n_words):
        outs = mech.perturb_words(rng, np.full(samples_per_word, w))
        probs[w] = np.bincount(outs, minlength=n_words) / samples_per_word
    return TransitionMatrix(probs=probs, sample_count=samples_per_word)


def sample_from_matrix(rng: RngStream, matrix: TransitionMatrix, ids) -> np.ndarray:
    """One output per entry of a word-id array, drawn from that word's row
    of the matrix by inverting its cumulative sum at one uniform per entry
    (the uniforms are drawn in entry order)."""
    ids = _word_ids(ids)
    u = rng.gen.uniform(size=len(ids))
    out = np.empty(len(ids), dtype=np.int64)
    for w, at in _positions_by_word(ids):
        cum = np.cumsum(matrix.row(w))
        # scaled to the row's own total, which may miss 1 by up to 1e-9, each
        # uniform lands below it and so inside a cell of nonzero mass
        out[at] = np.searchsorted(cum, u[at] * cum[-1], side="right")
    return out


def matrix_to_tsv(store: EmbeddingStore, matrix: TransitionMatrix) -> str:
    """TSV serialization: input word, output word, probability; zero
    entries omitted."""
    lines = [MATRIX_TSV_MAGIC, f"#samples {matrix.sample_count}"]
    for w in range(matrix.size):
        row = matrix.probs[w]
        for u in np.nonzero(row)[0]:
            lines.append(f"{store.words[w]}\t{store.words[u]}\t{row[u]:.12g}")
    return "\n".join(lines) + "\n"


def matrix_from_tsv(store: EmbeddingStore, text: str) -> TransitionMatrix:
    """Parse matrix_to_tsv's format, one line at a time. Blank lines and
    lines starting with '#' are skipped, except '#samples <n>' lines, the
    last of which gives the sample count; every other line is
    'word<TAB>word<TAB>probability', and the last value of a repeated pair
    wins. The first line that breaks this raises, naming its line: a
    MatrixFormatError, or an InvalidWordIdError for an unknown word."""
    lines = text.splitlines()
    if not lines or lines[0] != MATRIX_TSV_MAGIC:
        raise MatrixFormatError("not a privtext transition-matrix TSV")
    word_id = store.word_id
    sample_count = 0
    probs = np.zeros((len(store), len(store)))
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            if line.startswith("#samples"):
                sample_count = int(line[len("#samples"):])
                continue
            if line.startswith("#"):
                continue
            w, u, p = line.split("\t")
            p = float(p)
        except ValueError:
            raise MatrixFormatError(
                f"line {lineno}: expected '#samples <n>' or 'word<TAB>word<TAB>probability',"
                f" got {line!r}"
            ) from None
        try:
            probs[word_id(w), word_id(u)] = p
        except InvalidWordIdError as exc:
            raise InvalidWordIdError(f"line {lineno}: {exc}") from None
    return TransitionMatrix(probs=probs, sample_count=sample_count)

