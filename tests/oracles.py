"""Independent numeric oracles used by the test suite.

These deliberately avoid the library's own sampling/evaluation code paths:
quadrature and grid enumeration here, Monte Carlo there. The loop forms of
the batched analysis paths (per-observation attack, full-matrix verifier),
the full-matrix cdist forms of the blocked geometry (local and smooth
sensitivity), the smooth envelope's prune widths as a count over every
pair, the one-point and cdist forms of the decode, the line-by-line
matrix TSV parser and the one-step-at-a-time density chain are kept here
as references that the fast code must match exactly. The density chain on
its former single stream, and the permutation test that compares two
chains' output laws, check that a change of the draws keeps the law.
"""
import math
import re

import numpy as np
from scipy import integrate
from scipy.spatial.distance import cdist

from privtext.analysis import MetricDpReport
from privtext.errors import MatrixFormatError
from privtext.embeddings import _gemm_sq_distances
from privtext.randomizers import MATRIX_TSV_MAGIC, TransitionMatrix
from privtext.samplers import (
    MultivariateLaplaceParam, RngStream, sample_mv_laplace, sample_unit_sphere,
)


def half_plane_mass(epsilon: float, half_gap: float) -> float:
    """Mass of the 2-D density (eps^2 / 2pi) exp(-eps ||z||) in the
    half-plane x > half_gap, by 1-D quadrature over the angle.

    For two words on the x-axis separated by 2*half_gap this is exactly
    Pr[baseline mechanism flips one word to the other].
    """

    def integrand(theta):
        a = half_gap / np.cos(theta)
        # closed form of the radial integral: int_a^inf r e^(-eps r) dr
        return np.exp(-epsilon * a) * (a / epsilon + 1.0 / epsilon**2)

    val, _ = integrate.quad(integrand, -np.pi / 2, np.pi / 2)
    return epsilon**2 / (2 * np.pi) * val


def density_output_distribution(positions, w, epsilon, sigma, pad=12.0, n_grid=200_001):
    """Output word distribution of the KDE-modulated mechanism on a 1-D
    vocabulary, by direct grid normalization of mu(z) exp(-eps |z - pos_w|)
    and Voronoi assignment of the grid mass.
    """
    positions = np.asarray(positions, dtype=np.float64)
    lo = positions.min() - pad / epsilon
    hi = positions.max() + pad / epsilon
    grid = np.linspace(lo, hi, n_grid)
    mu = np.zeros_like(grid)
    for p in positions:
        mu += np.exp(-((grid - p) ** 2) / (2 * sigma**2))
    dens = mu * np.exp(-epsilon * np.abs(grid - positions[w]))
    dens /= dens.sum()
    nearest = np.argmin(np.abs(grid[:, None] - positions[None, :]), axis=1)
    out = np.zeros(len(positions))
    for u in range(len(positions)):
        out[u] = dens[nearest == u].sum()
    return out


def baseline_output_distribution_1d(positions, w, epsilon, pad=12.0, n_grid=200_001):
    """Same grid construction with a flat prior: the unmodulated mechanism."""
    positions = np.asarray(positions, dtype=np.float64)
    lo = positions.min() - pad / epsilon
    hi = positions.max() + pad / epsilon
    grid = np.linspace(lo, hi, n_grid)
    dens = np.exp(-epsilon * np.abs(grid - positions[w]))
    dens /= dens.sum()
    nearest = np.argmin(np.abs(grid[:, None] - positions[None, :]), axis=1)
    out = np.zeros(len(positions))
    for u in range(len(positions)):
        out[u] = dens[nearest == u].sum()
    return out


def total_variation(p, q) -> float:
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(q)).sum())


def distance(store, w: int, u: int) -> float:
    """Euclidean distance between two vocabulary words (ids checked)."""
    return float(np.linalg.norm(store.vector(w) - store.vector(u)))


def nearest_word(store, point) -> int:
    """Nearest vocabulary word to one point, by an einsum over the
    differences; ties break toward the lowest id (np.argmin returns the
    first minimizer)."""
    point = np.asarray(point, dtype=np.float64)
    d2 = np.einsum("ij,ij->i", store.vectors - point, store.vectors - point)
    return int(np.argmin(d2))


def nearest_by_cdist(store, points, candidate_ids=None) -> np.ndarray:
    """Nearest word to each point (restricted to the sorted candidate_ids if
    given) as the argmin of the full cdist rows, lowest id on a tie."""
    ids = np.arange(len(store)) if candidate_ids is None else np.sort(candidate_ids)
    return ids[np.argmin(cdist(np.asarray(points, dtype=np.float64), store.vectors[ids]), axis=1)]


def local_by_cdist(store) -> np.ndarray:
    """Per-word nearest-distinct-neighbour distance, as a row minimum of the
    full cdist matrix with the diagonal masked."""
    d = cdist(store.vectors, store.vectors)
    np.fill_diagonal(d, np.inf)
    return d.min(axis=1)


def smooth_by_cdist(store, beta: float) -> np.ndarray:
    """Smooth envelope max_u local(u) e^(-beta d(w, u)) over the full cdist
    matrix, d(w, w) = 0."""
    d = cdist(store.vectors, store.vectors)
    np.fill_diagonal(d, np.inf)
    local = d.min(axis=1)
    np.fill_diagonal(d, 0.0)
    return np.max(local[None, :] * np.exp(-beta * d), axis=1)


def prune_widths_by_count(local, beta: float) -> np.ndarray:
    """Per word w, the number of words u with fl(local(u) * e^(-beta
    local(w))) >= local(w): the smooth envelope's prune, counted over every
    (w, u) pair."""
    reach = np.exp(-beta * local)
    return np.count_nonzero(local[None, :] * reach[:, None] >= local[:, None], axis=1)


def local_sensitivity_t(store, w: int, t: float) -> float:
    """Max local sensitivity (nearest-distinct-neighbour distance) over the
    radius-t ball around w, w included, by brute force."""
    vecs = store.vectors
    dists = np.linalg.norm(vecs - vecs[w], axis=1)
    local = [
        min(np.linalg.norm(vecs[u] - vecs[v]) for v in range(len(vecs)) if v != u)
        for u in range(len(vecs))
    ]
    return float(max(local[u] for u in range(len(vecs)) if dists[u] <= t))


def smooth_sensitivity_by_balls(store, w: int, beta: float) -> float:
    """Nissim-Raskhodnikova-Smith smooth sensitivity at w from its
    definition, max over t >= 0 of e^(-beta t) times the radius-t ball
    sensitivity; the max is attained at a distance from w to some word."""
    dists = np.linalg.norm(store.vectors - store.vectors[w], axis=1)
    return max(math.exp(-beta * t) * local_sensitivity_t(store, w, t) for t in dists)


def attack_decisions_per_observation(store, matrix, prior) -> np.ndarray:
    """The Bayes attack's guess for every observation y, one posterior and
    one distance-matrix product per y; -1 where y is unreachable."""
    prior = np.asarray(prior, dtype=np.float64)
    dist = cdist(store.vectors, store.vectors)
    decisions = np.full(matrix.size, -1, dtype=np.int64)
    for y in range(matrix.size):
        joint = prior * (matrix.counts[:, y] / matrix.sample_count)
        total = joint.sum()
        if total > 0:
            decisions[y] = int(np.argmin(dist @ (joint / total)))
    return decisions


def attack_by_fsum(store, probs) -> np.ndarray:
    """optimal_attack's guess for each column of a (|W|, k) posterior by
    canonical expected distances: for every guess, math.fsum of the rounded
    products of its cdist distances and the column, the lowest id winning a
    tie."""
    dist = cdist(store.vectors, store.vectors)
    return np.array([int(np.argmin([math.fsum(row * col) for row in dist]))
                     for col in np.asarray(probs).T], dtype=np.int64)


def attack_accuracy_per_trial(store, rng, matrix, prior, n_trials) -> float:
    """attack_accuracy with per-observation decisions and one inverse-CDF
    lookup per trial in the cumulative counts, its uniform scaled to the
    row's own total."""
    prior = np.asarray(prior, dtype=np.float64)
    decisions = attack_decisions_per_observation(store, matrix, prior)
    truths = rng.gen.choice(matrix.size, size=n_trials, p=prior)
    cum = np.cumsum(matrix.counts, axis=1)
    u = rng.gen.uniform(size=n_trials)
    observed = np.array(
        [np.searchsorted(cum[t], x * cum[t, -1], side="right") for t, x in zip(truths, u)]
    )
    return float(np.mean(decisions[observed] == truths))


def verify_metric_dp_full(matrix, store, epsilon, alpha=1e-3) -> MetricDpReport:
    """verify_metric_dp with full |W| x |W| violation and slack arrays for
    every output word."""
    n = matrix.sample_count
    p = matrix.counts / n
    dist = cdist(store.vectors, store.vectors)
    cp_upper = -math.expm1(math.log(alpha) / n)
    max_violation = -np.inf
    worst = (0, 0, 0)
    slack_at_worst = 0.0
    max_adjusted = -np.inf
    for y in range(matrix.size):
        col = p[:, y]
        has_num = col > 0
        if not np.any(has_num):
            continue
        log_num = np.where(has_num, np.log(np.where(has_num, col, 1.0)), -np.inf)
        log_den = np.log(np.where(col > 0, col, cp_upper))
        viol = log_num[:, None] - log_den[None, :] - epsilon * dist
        np.fill_diagonal(viol, -np.inf)
        se = np.where(col > 0, np.sqrt((1.0 - col) / (np.maximum(col, 1e-300) * n)), 0.0)
        slack = 3.0 * (se[:, None] + se[None, :])
        adjusted = viol - slack
        idx = np.unravel_index(np.argmax(viol), viol.shape)
        if viol[idx] > max_violation:
            max_violation = float(viol[idx])
            worst = (int(idx[0]), int(idx[1]), y)
            slack_at_worst = float(slack[idx])
        max_adjusted = max(max_adjusted, float(np.max(adjusted)))
    return MetricDpReport(
        epsilon=epsilon,
        sample_count=n,
        max_violation=max_violation,
        worst_triple=worst,
        slack_at_worst=slack_at_worst,
        max_violation_adjusted=max_adjusted,
        satisfied=bool(max_adjusted <= 0.0),
    )


def matrix_from_tsv_by_line(store, text) -> TransitionMatrix:
    """The transition-matrix TSV read one line at a time: a split, a digit
    pattern and two word lookups per entry line, the first bad line raising."""
    lines = text.splitlines()
    if lines and lines[0] == "#privtext-matrix-v1":
        raise MatrixFormatError("a v1 matrix TSV holds rounded probabilities, not counts:"
                                " re-run `privtext matrix` with its flags to write v2")
    if not lines or lines[0] != MATRIX_TSV_MAGIC:
        raise MatrixFormatError("not a privtext transition-matrix TSV")
    counts = np.zeros((len(store), len(store)), dtype=np.int64)
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 3 or not re.fullmatch("[0-9]+", fields[2]) or int(fields[2]) > 2**53:
            raise MatrixFormatError(
                f"line {lineno}: expected 'word<TAB>word<TAB>count' with a count in"
                f" [0, 2**53], got {line!r}"
            )
        counts[store.word_id(fields[0]), store.word_id(fields[1])] = int(fields[2])
    return TransitionMatrix(counts)


def density_chain_by_step(store, rng, w, n, epsilon, sigma, mh_steps) -> np.ndarray:
    """n density chains for word w, one step at a time (_chain_by_step), on
    the library's streams: forks 0, 1 and 2 of a stream seeded by one
    integer drawn from rng give the unit directions, the Gamma(d, 1/eps)
    radii and the uniforms. Each step is decided on store._canonical_log_kde
    values, which the library certifies each of its decisions against."""
    streams = RngStream(int(rng.gen.integers(2**63)))
    directions, radii, uniforms = (streams.fork(kind) for kind in range(3))

    def noise():
        z = sample_unit_sphere(directions, store.dim, n)
        z *= radii.gen.gamma(shape=store.dim, scale=1.0 / epsilon, size=n)[:, None]
        return z

    def log_kde(points):
        return np.array([store._canonical_log_kde(p, sigma) for p in points])

    return _chain_by_step(store, w, mh_steps, noise, lambda: uniforms.gen.uniform(size=n), log_kde)


def density_chain_single_stream(store, rng, w, n, epsilon, sigma, mh_steps) -> np.ndarray:
    """The same chains on one stream, in the order the library drew before
    it split its draws by kind: each step's n proposals by
    sample_mv_laplace, then its n uniforms, all from rng, each step decided
    on gemm_log_kde values. Its law is the library's and its draws are not:
    the reference of the law tests."""
    param = MultivariateLaplaceParam(store.dim, epsilon)
    return _chain_by_step(store, w, mh_steps, lambda: sample_mv_laplace(rng, param, size=n),
                          lambda: rng.gen.uniform(size=n),
                          lambda points: gemm_log_kde(store, points, sigma))


def gemm_log_kde(store, points, sigma) -> np.ndarray:
    """The log-KDE at each row of a (n, d) array of points in float64, the
    squared distances in the store's GEMM form (_gemm_sq_distances) in one
    (n, |W|) array worked on in place, the log-sum-exp shifted by each row's
    maximum: the form the library scored with before its float32 one, kept
    so that the law tests' reference draws stay as they were."""
    sq = _gemm_sq_distances(points, np.einsum("ij,ij->i", points, points), store.vectors,
                            store.sq_norms)
    np.maximum(sq, 0.0, out=sq)
    np.divide(sq, -(2.0 * sigma**2), out=sq)
    mx = sq.max(axis=1)
    sq -= mx[:, None]
    np.exp(sq, out=sq)
    return np.log(sq.sum(axis=1)) + mx


def _chain_by_step(store, w, mh_steps, noise, uniform, log_kde) -> np.ndarray:
    """Chains that start at phi(w) + noise() and take mh_steps steps, each
    drawing its proposals phi(w) + noise() and then its uniform(), and
    scoring the proposals with one log_kde call before the next step draws.
    The chains' final states are decoded once."""
    center = store.vector(w)[None, :]
    x = center + noise()
    logp = log_kde(x)
    for _ in range(mh_steps):
        prop = center + noise()
        logp_prop = log_kde(prop)
        accept = np.log(uniform()) < logp_prop - logp
        x[accept] = prop[accept]
        logp[accept] = logp_prop[accept]
    return store.nearest_words(x)


def floor_p_value(xs, ys, n_words, reps=1000):
    """The two-sample law test: a permutation p-value of the summed total
    variation between the output laws of paired samples xs[i], ys[i] (word
    ids below n_words; pair i may have its own law). Each permutation
    splits each pooled pair again at random, which draws the TV of two
    samples of one law, the seed-to-seed floor.

    It is a permutation test, so its false-alarm rate is at most alpha by
    construction: when each pair's pooled draws are exchangeable (i.i.d.
    from one law), the observed TV is exchangeable with the permuted ones,
    and (1 + #{null >= observed}) / (reps + 1) is at most alpha with
    probability at most alpha, over the draws and the permutations. The
    permutations come from a fixed seed, so each p-value is reproducible.
    Its smallest value is 1 / (reps + 1). Its measured power on the density
    chain is in test_randomizers.TestDensityLaw."""
    def tv(a, b):
        return np.abs(np.bincount(a, minlength=n_words) - np.bincount(b, minlength=n_words)).sum()

    gen = np.random.default_rng(0)
    observed = sum(tv(x, y) for x, y in zip(xs, ys))
    null = [
        sum(tv(*np.split(gen.permutation(np.concatenate([x, y])), [len(x)]))
            for x, y in zip(xs, ys))
        for _ in range(reps)
    ]
    return (1 + np.count_nonzero(np.array(null) >= observed)) / (reps + 1)
