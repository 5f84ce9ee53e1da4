"""Word-level privacy mechanisms over the embedding metric space.

Five variants share the same skeleton (perturb the word vector, project the
noisy point back to the vocabulary):

- baseline:        radial Laplacian noise with density exp(-eps * ||z||)
- density:         noise modulated by a KDE prior over the embedding,
                   sampled with an independence Metropolis chain that
                   proposes the baseline's noise; the KDE is a store query
                   (EmbeddingStore._log_kde, on the float32 screen that
                   the decode uses), and this module runs the chain
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
finite-length chain approximates that law and carries no proven bound on
its distance from it. No formal privacy
guarantee is claimed for the smooth or truncated variants; the analysis
module measures what they actually provide.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .embeddings import _NN_BLOCK_ENTRIES, EmbeddingStore
from .errors import (
    ConfigError, InvalidWordIdError, MatrixFormatError, from_fields, require_bandwidth,
    require_count, require_nonnegative, require_params, require_positive, require_word_ids,
    set_fields,
)
from .samplers import (
    MultivariateLaplaceParam,
    RngStream,
    sample_mv_laplace,
    sample_mv_laplace_truncated,
    sample_unit_sphere,
    truncation_mass,
)
from .sensitivity import SensitivityProfile, build_profile

logger = logging.getLogger(__name__)

# each variant's parameters: the MechanismConfig fields it may set
_VARIANT_PARAMS = {
    "baseline": (),
    "density": ("sigma", "mh_steps"),
    "smooth": ("beta",),
    "trunc_distance": ("tau", "trunc_strategy"),
    "trunc_knn": ("k",),
}
VARIANTS = tuple(_VARIANT_PARAMS)
TRUNC_STRATEGIES = ("project", "residual")

MATRIX_TSV_MAGIC = "#privtext-matrix-v2"
_MAX_COUNT = 2**53  # a float64 holds every count and row total up to it exactly


@dataclass(frozen=True)
class MechanismConfig:
    """Tagged mechanism descriptor. Only the active variant's parameters
    may be set; anything else is rejected. A density chain runs mh_steps
    independence Metropolis steps (default 1010) and decodes only its final
    state."""

    variant: str
    epsilon: float
    sigma: float | None = None          # density: KDE bandwidth
    beta: float | None = None           # smooth
    tau: float | None = None            # trunc_distance
    k: int | None = None                # trunc_knn
    trunc_strategy: str | None = None   # trunc_distance
    mh_steps: int | None = None         # density: MH chain length

    def __post_init__(self):
        require_params(self, "variant", _VARIANT_PARAMS)
        require_positive("epsilon", self.epsilon)
        if self.variant == "density":
            if self.sigma is not None:
                require_bandwidth("sigma", self.sigma)
            steps = 1010 if self.mh_steps is None else self.mh_steps
            object.__setattr__(self, "mh_steps", require_count("mh_steps", steps))
        elif self.variant == "smooth":
            require_nonnegative("beta", self.beta)
        elif self.variant == "trunc_distance":
            require_positive("tau", self.tau)
            strategy = self.trunc_strategy or "project"
            if strategy not in TRUNC_STRATEGIES:
                raise ConfigError(f"unknown truncation strategy {strategy!r}")
            object.__setattr__(self, "trunc_strategy", strategy)
        elif self.variant == "trunc_knn":
            object.__setattr__(self, "k", require_count("k", self.k))

    to_dict = set_fields
    from_dict = classmethod(from_fields)


# why a variant claims no d_X-privacy factor (claimed_factor)
NO_CLAIM = {
    "density": "the chain has no proven distance from its target, whose factor is 2 eps",
    "smooth": "the per-word epsilon eps * GS / s_beta(w) is at least eps; no factor is proven",
    "trunc_distance": "truncation gives up d_X-privacy at large distances",
    "trunc_knn": "a word outside the k nearest neighbours is an output of probability 0",
}


def claimed_factor(config: MechanismConfig) -> float | None:
    """The variant's claimed d_X-privacy factor, per unit of embedding
    distance: eps for baseline, None for the variants of NO_CLAIM."""
    return None if config.variant in NO_CLAIM else config.epsilon


@dataclass(frozen=True)
class TransitionMatrix:
    """|W| x |W| output counts of a mechanism: counts[w, u] of the
    sample_count draws at w came out as u, and every row holds the same
    number of draws, so counts[w, u] / sample_count estimates Pr[M(w) = u]."""

    counts: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.counts)
        if c.ndim != 2 or c.shape[0] != c.shape[1] or not c.size:
            raise MatrixFormatError(f"the matrix must be square and non-empty, got shape {c.shape}")
        if c.dtype.kind not in "iu" or not (c.min() >= 0 and c.max() <= _MAX_COUNT):
            raise MatrixFormatError("the matrix counts must be integers in [0, 2**53]")
        c = c.astype(np.int64, copy=False)
        # a count above 2**63 / |W| could overflow an int64 total: sum Python ints then
        totals = c.sum(axis=1, dtype=object if c.max() > 2**63 // len(c) else np.int64)
        bad = np.flatnonzero(totals != totals[0])
        if bad.size:
            raise MatrixFormatError(f"matrix row {bad[0]} holds {totals[bad[0]]} samples and"
                                    f" row 0 {totals[0]}: the rows must hold one total")
        if not 1 <= totals[0] <= _MAX_COUNT:
            raise MatrixFormatError(f"the rows hold {totals[0]} samples each, outside [1, 2**53]")
        object.__setattr__(self, "counts", c)

    @property
    def size(self) -> int:
        return self.counts.shape[0]

    @property
    def sample_count(self) -> int:
        """The draws per row: each row's total."""
        return int(self.counts[0].sum())


def _accept_block(store, sigma, states, values, bounds, log_u) -> np.ndarray:
    """The row of states that each of n chains holds after a block of k
    steps. states (k + 1, n, d) holds the chains' states in row 0 and step
    t's proposals in row t + 1; values and bounds (k + 1, n) are their
    store._log_kde; log_u (k, n) the steps' log uniforms.

    The accept test ln u < L(prop) - L(x) runs on the screened values as a
    scan over the steps. A decision whose margin exceeds the proposal's
    bound plus the state's is the one the canonical values make (the bounds
    hold the rounding of the difference); the largest bound among a chain's
    rows stands in for its state's, which needs no gather. Each chain with
    another decision is walked again from the block's start by _settle."""
    k, n = log_u.shape
    took = np.empty((k, n), dtype=bool)
    margin = np.empty((k, n))
    held = values[0].copy()
    for t in range(k):
        np.subtract(values[t + 1], held, out=margin[t])
        np.less(log_u[t], margin[t], out=took[t])
        np.copyto(held, values[t + 1], where=took[t])
    margin -= log_u
    # NaN-safe: a margin that is not certainly clear is settled
    sure = np.abs(margin) > bounds[1:] + bounds.max(axis=0)
    last = (took * np.arange(1, k + 1)[:, None]).max(axis=0)
    for i in np.flatnonzero(~sure.all(axis=0)):
        last[i] = _settle(store, sigma, states[:, i], values[:, i], bounds[:, i], log_u[:, i])
    return last


def _settle(store, sigma, states, values, bounds, log_u) -> int:
    """One chain's steps of a block, from its start: each decision on the
    values when its margin exceeds its two rows' bounds, else on their
    canonical values, which replace the screened ones with bound 0. Returns
    the row held after the block. A step the scan was sure of is decided
    alike, with no canonical value."""
    held = 0
    for t in range(len(log_u)):
        p = t + 1
        if not abs(values[p] - values[held] - log_u[t]) > bounds[p] + bounds[held]:
            for r in (p, held):
                if bounds[r]:
                    values[r] = store._canonical_log_kde(states[r], sigma)
                    bounds[r] = 0.0
        if log_u[t] < values[p] - values[held]:
            held = p
    return held


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
    - density: an independence Metropolis chain whose target is the
      baseline's law at w modulated by a KDE prior over the vocabulary

    Per-word constants are resolved once per Mechanism: the smooth epsilon
    vector here, the density bandwidth on the first density draw (by the
    store's median_nn_distance, one float32 pass that computes no
    nn_distances).
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

        The outputs are private only while rng's seed is secret: anyone who
        knows it can redraw the noise. A release draws a fresh seed (the
        CLI's perturb does unless --seed is given), and two releases must
        never share one.
        """
        ids = require_word_ids(ids)
        out = np.empty(len(ids), dtype=np.int64)
        for w, at in _positions_by_word(ids):
            out[at] = self.perturb_batch(rng.fork(w), w, len(at))
        return out

    def perturb_batch(self, rng: RngStream, w: int, n: int) -> np.ndarray:
        w = self.store.check_id(w)
        n = require_count("n", n, minimum=0)
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
        """Density KDE bandwidth; default the median nearest-neighbor distance,
        refused like a given one (it is 0 if most words have a duplicate)."""
        if self.config.sigma is not None:
            return self.config.sigma
        sigma = self.store.median_nn_distance()
        require_bandwidth("the default sigma, the median nearest-neighbour distance"
                          " (set sigma, --sigma in the CLI),", sigma)
        return sigma

    def _density_batch(self, rng, w, n) -> np.ndarray:
        """n independence Metropolis chains in lockstep, decoded from their
        states after mh_steps steps. Each chain starts at, and each step
        proposes, phi(w) plus the baseline's noise at epsilon. The target
        KDE(z) * exp(-eps * ||z - phi(w)||) over that proposal leaves the KDE
        ratio as the acceptance ratio: the Laplace factors cancel.

        A proposal does not depend on the state, so the steps are taken a
        block at a time, and so are the draws. Each kind of draw has its own
        stream: forks 0, 1 and 2 of a stream seeded by one integer drawn
        from rng give the noise's unit directions, its Gamma(d, 1/eps) radii
        (sample_mv_laplace's law) and the accept uniforms. Each stream gives
        the starts' n rows first (the uniforms have none), then each step's
        n rows in step order, one generator call per block. NumPy's
        standard_normal, gamma and uniform give the same values however a
        stream's draws are split into calls, so the draws do not depend on
        the block size. One store._log_kde call scores the block's
        proposals in float32. _accept_block certifies every accept decision
        against the values' bounds and decides the rest on the canonical,
        BLAS-free log-KDE, so each decision is the one the canonical values
        make, whatever the BLAS kernel. A block holds as many steps as fit n
        rows each in _NN_BLOCK_ENTRIES // |W| rows, and at least one.
        store._log_kde scores its rows in blocks of at most that many, so
        the float32 kernels stay within one decode block however many
        chains there are."""
        store, sigma, steps = self.store, self._sigma, self.config.mh_steps
        dim, scale = store.dim, 1.0 / self.config.epsilon
        center = store.vector(w)[None, :]
        streams = RngStream(int(rng.gen.integers(2**63)))
        directions, radii, uniforms = (streams.fork(kind) for kind in range(3))

        def proposals(rows):
            z = sample_unit_sphere(directions, dim, rows)
            z *= radii.gen.gamma(shape=dim, scale=scale, size=rows)[:, None]
            return z

        x = center + proposals(n)
        value, bound = store._log_kde(x, sigma)
        per_block = max(1, _NN_BLOCK_ENTRIES // len(store) // max(n, 1))
        cols = np.arange(n)
        for lo in range(0, steps, per_block):
            k = min(per_block, steps - lo)
            states = np.empty((k + 1, n, dim))
            states[0] = x
            np.add(proposals(k * n).reshape(k, n, dim), center, out=states[1:])
            log_u = np.log(uniforms.gen.uniform(size=(k, n)))
            values, bounds = np.empty((k + 1, n)), np.empty((k + 1, n))
            values[0], bounds[0] = value, bound
            scored = store._log_kde(states[1:].reshape(k * n, dim), sigma)
            values[1:], bounds[1:] = (a.reshape(k, n) for a in scored)
            held = _accept_block(store, sigma, states, values, bounds, log_u)
            x, value, bound = states[held, cols], values[held, cols], bounds[held, cols]
        return store.nearest_words(x)


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
    the output counts of one perturb_words call on samples_per_word copies
    of w, the draws of perturb_batch(rng.fork(w), w, samples_per_word).
    Drawing row by row keeps one row's draws in memory."""
    samples_per_word = require_count("samples_per_word", samples_per_word)
    mech = Mechanism(store, config)
    n_words = len(store)
    counts = np.empty((n_words, n_words), dtype=np.int64)
    for w in range(n_words):
        outs = mech.perturb_words(rng, np.full(samples_per_word, w))
        counts[w] = np.bincount(outs, minlength=n_words)
    return TransitionMatrix(counts)


def sample_from_matrix(rng: RngStream, matrix: TransitionMatrix, ids) -> np.ndarray:
    """One output per entry of a word-id array, drawn from that word's row by
    inverting its cumulative count at u * sample_count, one uniform u in
    [0, 1) per entry, in entry order. For sample_count <= 2**53, u *
    sample_count < sample_count, so no draw lands on a zero count."""
    ids = require_word_ids(ids, matrix.size)
    u = rng.gen.uniform(size=len(ids))
    u *= matrix.sample_count
    out = np.empty(len(ids), dtype=np.int64)
    for w, at in _positions_by_word(ids):
        out[at] = np.searchsorted(np.cumsum(matrix.counts[w]), u[at], side="right")
    return out


def matrix_to_tsv(store: EmbeddingStore, matrix: TransitionMatrix) -> str:
    """TSV serialization, format v2: the magic line, then one line
    'input word<TAB>output word<TAB>count' per nonzero count, row by row."""
    words, lines = store.words, [MATRIX_TSV_MAGIC]
    # row by row: all entries as Python ints at once raised a |W| = 1000 audit's peak 6 MiB
    for w, row in enumerate(matrix.counts):
        us = np.flatnonzero(row)
        lines += [f"{words[w]}\t{words[u]}\t{c}" for u, c in zip(us.tolist(), row[us].tolist())]
    return "\n".join(lines) + "\n"


def matrix_from_tsv(store: EmbeddingStore, text: str) -> TransitionMatrix:
    """Parse matrix_to_tsv's format, one line at a time. Blank lines and
    '#' lines are skipped; each other line is 'word<TAB>word<TAB>count', the
    count in ASCII digits and at most 2**53, and the last count of a
    repeated pair wins. The first line that breaks this raises, naming its
    line: a MatrixFormatError, or an InvalidWordIdError for an unknown word.
    A v1 file is refused: its counts would rest on its '#samples' line."""
    lines = text.splitlines()
    if lines and lines[0] == "#privtext-matrix-v1":
        raise MatrixFormatError("a v1 matrix TSV holds rounded probabilities, not counts:"
                                " re-run `privtext matrix` with its flags to write v2")
    if not lines or lines[0] != MATRIX_TSV_MAGIC:
        raise MatrixFormatError("not a privtext transition-matrix TSV")
    word_id = store.word_id
    counts = np.zeros((len(store), len(store)), dtype=np.int64)
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip() or line.startswith("#"):
            continue
        try:
            w, u, c = line.split("\t")
            # int() alone would take '+1', ' 1' and '1_0'
            if not (c.isascii() and c.isdigit()) or int(c) > _MAX_COUNT:
                raise ValueError
        except ValueError:
            raise MatrixFormatError(f"line {lineno}: expected 'word<TAB>word<TAB>count' with a"
                                    f" count in [0, 2**53], got {line!r}") from None
        try:
            counts[word_id(w), word_id(u)] = int(c)
        except InvalidWordIdError as exc:
            raise InvalidWordIdError(f"line {lineno}: {exc}") from None
    return TransitionMatrix(counts)

