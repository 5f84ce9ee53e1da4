"""Word-level privacy mechanisms over the embedding metric space.

Five variants share the same skeleton (perturb the word vector, project the
noisy point back to the vocabulary):

- baseline:        radial Laplacian noise with density exp(-eps * ||z||)
- density:         noise modulated by a KDE prior over the embedding,
                   sampled with an independence Metropolis chain that
                   proposes the baseline's noise
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
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .embeddings import _NN_BLOCK_ENTRIES, _U, _U32, EmbeddingStore, _pair_sq_distances
from .errors import (
    ConfigError, InvalidWordIdError, MatrixFormatError, from_fields, require_bandwidth,
    require_count, require_nonnegative, require_params, require_points, require_positive,
    require_word_ids, set_fields,
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
# columns per float32 partial sum of a KDE row: each is within gamma_63 of
# its terms' sum, where one float32 sum of the row would carry gamma_{|W|-1}
_SUM_COLUMNS = 64


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


def _screened_log_kde(store: EmbeddingStore, points, sigma: float):
    """(values, bounds): the log of the unnormalized RBF kernel density over
    the vocabulary at each row of a (n, d) array of points, scored on the
    store's float32 decode screen, and a bound on each value's distance from
    _canonical_log_kde's. _gemm_log_kde scores the rows in blocks of
    _NN_BLOCK_ENTRIES // |W| (at least one), so its float32 kernels stay
    within one decode block however many rows there are. A row whose
    kernels all lie within u32 of 1 takes a closed form instead. A row the
    pass cannot bound (past the screen's limit, or so far out that the
    scaled kernels could overflow float32) has value 0 and bound Inf."""
    points = require_points("points", points, store.dim)
    screen, n_words, dim = store._screen, len(store), store.dim
    with np.errstate(over="ignore"):
        # the log kernel of a scaled squared distance s^2 q is kappa s^2 q
        kappa = float(np.float64(1.0) / -(2.0 * sigma**2) / screen.scale / screen.scale)
    # ||p^||^2 <= lim keeps every term of a row's dot product, and every
    # partial sum, under 2^100 (2 d + 3), within float32; a kappa outside
    # float32's normal range sends no row through the GEMM
    lim = (min(screen.limit, 2.0**100 / abs(kappa)) if 2.0**-100 <= abs(kappa) <= 2.0**100
           else -1.0)
    a, p_sq, err = store._screen_points(points, dim + 2)
    values, bounds = np.zeros(len(points)), np.full(len(points), np.inf)
    # q_top bounds the scaled squared distance from the row to every word:
    # (||p|| + ||v||)^2 <= 2 (||p||^2 + ||v||^2), with the rounding of p^,
    # of upper and of cdist's sum inside the factor 1 + 2^-20 (d < 2^16)
    q_top = p_sq + float(screen.upper.max())
    q_top *= 2.0 * (1 + 2.0**-20)
    with np.errstate(invalid="ignore"):
        flat = abs(kappa) * q_top <= _U32
    # Every log kernel of a flat row lies in [kappa q_top, 0] (kappa within
    # a relative u of 1 / (s^2 den), or 0 where that underflows, and then
    # below 2^-900 in size), so its log-KDE lies in [log N + kappa q_top,
    # log N]: the midpoint is within |kappa| q_top / 2 <= u32 / 2 of it,
    # below the GEMM path's floor of 75 u32. The float64 roundings of both
    # values, c u (log N + 1) for c < 64, take the last term.
    values[flat] = math.log(n_words) + kappa * q_top[flat] / 2
    bounds[flat] = (abs(kappa) * q_top[flat] / 2 * (1 + 2.0**-20)
                    + 64 * _U * (math.log(n_words) + 1))
    rows = np.flatnonzero((p_sq <= lim) & ~flat)
    step = max(1, _NN_BLOCK_ENTRIES // n_words)
    for lo in range(0, rows.size, step):
        at = rows[lo : lo + step]
        values[at], bounds[at] = _gemm_log_kde(screen, a[at], p_sq[at], err[at], kappa)
    return values, bounds


def _gemm_log_kde(screen, a, p_sq, err, kappa: float):
    """(values, bounds) of _screened_log_kde for the rows of a, a (rows,
    d + 2) float32 array holding p^ in its first d columns, with their p_sq
    and err from _screen_points; a and err are overwritten. One float32
    GEMM of the rows [kappa' (-2 p^), kappa', kappa (P - S / 2)] against
    the screen's [v^; upper; 1] forms the centred log kernels; exp runs on
    them in place, float32 sums of 64 columns each (np.matmul) and the
    float64 sum of those give each row's sum."""
    rows, dim = a.shape[0], a.shape[1] - 2
    n_words = screen.aug.shape[1]
    half_spread = float(screen.spread.max()) / 2
    # kappa' (-2 p^) in one rounding: doubling kappa' is exact
    a[:, :dim] *= np.float32(-2.0) * np.float32(kappa)
    a[:, dim] = kappa
    a[:, dim + 1] = kappa * (p_sq - half_spread)
    g = a @ screen.aug
    top = g.max(axis=1)
    # a row left unshifted keeps its largest term e^top within [2^-64,
    # 2^64]: its 64-term float32 sums stay below 2^70, and the subnormals'
    # absolute errors within N 2^-62 of its sum
    shift = np.where(np.abs(top) <= 64 * math.log(2), np.float32(0.0), top)
    if shift.any():
        g -= shift[:, None]
    np.exp(g, out=g)
    split = n_words - n_words % _SUM_COLUMNS
    sums = np.einsum("ij->i", g[:, split:], dtype=np.float64)
    if split:
        parts = np.matmul(g[:, :split].reshape(rows, -1, _SUM_COLUMNS),
                          np.ones(_SUM_COLUMNS, dtype=np.float32))
        sums += np.einsum("ij->i", parts, dtype=np.float64)
    values = np.log(sums) + shift
    # Why this bound. Write q_j for the squared distance from the point to
    # word j that cdist (and _pair_sq_distances, in its order) sums, den =
    # -(2 sigma^2) as rounded, N = |W|, LSE for log-sum-exp and u, u32 for
    # the unit roundoffs. LSE is monotone and moves by c when every entry
    # does, so it moves by at most the largest change of an entry: it is
    # 1-Lipschitz in the max norm. The canonical value is LSE(t), t_j =
    # q_j / den, rounded as below.
    # - The GEMM. With s the screen's scale, kappa = 1 / (s^2 den) < 0,
    #   P = ||p^||^2, nb_j = ||v^_j||^2, S the largest spread and err =
    #   _sq_error_bound(P, 0, d, u32, screen.eta): exactly, [-2 p^, 1, P] .
    #   [v^_j, upper_j, 1] = ||v^_j - p^||^2 + reach_j + (upper_j's own
    #   rounding, (d + 1) u32 nb_j), and ||v^_j - p^||^2 is within 8 u32
    #   (P + nb_j) of s^2 q_j (the rounding of p^ and v^, and cdist's sum:
    #   see _sq_error_bound). The row [kappa' (-2 p^), kappa', kappa (P -
    #   S / 2)] as computed adds kappa' for kappa, u32 |kappa| (P + 2 nb_j),
    #   its two roundings, u32 |kappa| (P + nb_j) and u32 |kappa| (P +
    #   S / 2), and the (d + 2)-term dot product adds gamma_{d+2} times its
    #   terms' absolute sum, at most |kappa| (2 P + 2 nb_j + S / 2). In all,
    #   g_j = t_j + |kappa| (S / 2 - reach_j) + |kappa| f_j with |f_j| <=
    #   (2 d + 15) u32 P + (3 d + 16) u32 nb_j + (d + 3) u32 S / 2, up to a
    #   factor 1 + O(d u32): within err + reach_j + (d + 3) u32 S / 2, as err
    #   holds 4 (d + 4) u32 P and reach_j 4 (d + 4) u32 nb_j, which leaves
    #   2 d + 1 and d for the O(d u32) terms (d < 2^16). The absolute terms
    #   of rounding p^, v^ and cdist's sum are within err's eta term, as in
    #   _sq_error_bound; the GEMM's products among the subnormals, (2 d + 3)
    #   eta32, go in the last u32. With 0 <= reach_j <= S / 2, g_j is within
    #   |kappa| (err + S / 2 (1 + (d + 3) u32)) of t_j, and LSE(g) of LSE(t).
    # - The shift g_j - top, on the few rows where exp would leave float32's
    #   normal range, is exact at the maximum and changes each x_j = top -
    #   g_j >= 0 by a relative u32. As a function of r, LSE(-r x) has slope
    #   minus the softmax mean of x, which is at most log N / r (r E[x] is at
    #   most the entropy, log N, since the largest term is 1), so that moves
    #   LSE by at most u32 log N.
    # - exp: within 4 ulps of e^x, 8 u32 of it, plus 2^-126 for a result
    #   among float32's subnormals (numpy's float32 exp is within 2.5 ulps;
    #   tests check the budget). The subnormals' errors are within N 2^-62
    #   < u32 of the sum (N < 2^38; see the shift).
    # - The sums: a float32 sum of at most 64 positive terms, in whatever
    #   order the BLAS adds them, is within a relative gamma_63 < 64 u32 of
    #   theirs; the float64 sum of the partial sums and the tail, within
    #   N u. With exp, the row's sum is within a relative 73 u32 + N u, and
    #   its log within 74 u32 + 2 N u.
    # - float64: the log and the additions, the canonical value's own
    #   division, exp (4 ulps), fsum and log, and the rounding of a
    #   difference of two values in the accept test, add c u for c < 64 times
    #   |top| + log N + |kappa| (P + S), which u32 (|top| + log N) and the
    #   factor 1 + 2^-20 on the first term (err >= 20 u32 P) cover.
    # In all: |kappa| (err + S / 2 (1 + (d + 3) u32)) (1 + 2^-20)
    # + u32 (|top| + 2 log N + 75) + 2 N u.
    err += half_spread * (1 + (dim + 3) * _U32)
    err *= abs(kappa) * (1 + 2.0**-20)
    err += _U32 * np.abs(top)
    err += _U32 * (2 * math.log(n_words) + 75) + 2 * n_words * _U
    return values, err

def _canonical_log_kde(store: EmbeddingStore, point, sigma: float) -> float:
    """The log-KDE at one point (d,) by a path that no BLAS kernel enters:
    the squared distances _pair_sq_distances sums (cdist's), each divided
    by -(2 sigma^2), and the exponentials, shifted by their maximum, added
    by math.fsum."""
    n = len(store)
    sq = _pair_sq_distances(point[None, :], store.vectors, np.broadcast_to(0, (n,)), np.arange(n))
    with np.errstate(invalid="ignore"):
        sq /= -(2.0 * sigma**2)
        mx = sq.max()
        return math.log(math.fsum(np.exp(sq - mx))) + mx


def _accept_block(store, sigma, states, values, bounds, log_u) -> np.ndarray:
    """The row of states that each of n chains holds after a block of k
    steps. states (k + 1, n, d) holds the chains' states in row 0 and step
    t's proposals in row t + 1; values and bounds (k + 1, n) are their
    _screened_log_kde; log_u (k, n) the steps' log uniforms.

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
                    values[r] = _canonical_log_kde(store, states[r], sigma)
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
        the block size. One _screened_log_kde call scores the block's
        proposals in float32. _accept_block certifies every accept decision
        against the values' bounds and decides the rest on the canonical,
        BLAS-free log-KDE, so each decision is the one the canonical values
        make, whatever the BLAS kernel. A block holds as many steps as fit n
        rows each in _NN_BLOCK_ENTRIES // |W| rows, and at least one.
        _screened_log_kde scores its rows in blocks of at most that many, so
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
        value, bound = _screened_log_kde(store, x, sigma)
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
            scored = _screened_log_kde(store, states[1:].reshape(k * n, dim), sigma)
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

