"""Independent numeric oracles used by the test suite.

These deliberately avoid the library's own sampling/evaluation code paths:
quadrature and grid enumeration here, Monte Carlo there. The loop forms of
the batched analysis paths (per-observation attack, full-matrix verifier),
the full-matrix cdist forms of the blocked geometry (local and smooth
sensitivity), the one-point and cdist forms of the decode and the
line-by-line matrix TSV parser are kept here as references that the fast
code must match exactly.
"""
import math

import numpy as np
from scipy import integrate
from scipy.spatial.distance import cdist

from privtext.analysis import MetricDpReport
from privtext.errors import MatrixFormatError
from privtext.randomizers import MATRIX_TSV_MAGIC, TransitionMatrix


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
        joint = prior * matrix.probs[:, y]
        total = joint.sum()
        if total > 0:
            decisions[y] = int(np.argmin(dist @ (joint / total)))
    return decisions


def attack_accuracy_per_trial(store, rng, matrix, prior, n_trials) -> float:
    """attack_accuracy with per-observation decisions and one inverse-CDF
    lookup per trial, its uniform scaled to the row's own total."""
    prior = np.asarray(prior, dtype=np.float64)
    decisions = attack_decisions_per_observation(store, matrix, prior)
    truths = rng.gen.choice(matrix.size, size=n_trials, p=prior)
    cum = np.cumsum(matrix.probs, axis=1)
    u = rng.gen.uniform(size=n_trials)
    observed = np.array(
        [np.searchsorted(cum[t], x * cum[t, -1], side="right") for t, x in zip(truths, u)]
    )
    return float(np.mean(decisions[observed] == truths))


def verify_metric_dp_full(matrix, store, epsilon, alpha=1e-3) -> MetricDpReport:
    """verify_metric_dp with full |W| x |W| violation and slack arrays for
    every output word."""
    n = matrix.sample_count
    p = matrix.probs
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
    """The transition-matrix TSV read one line at a time: a split, a float
    and two word lookups per entry line, the first bad line raising."""
    lines = text.splitlines()
    if not lines or lines[0] != MATRIX_TSV_MAGIC:
        raise MatrixFormatError("not a privtext transition-matrix TSV")
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
            w_str, u_str, p_str = line.split("\t")
            p = float(p_str)
        except ValueError:
            raise MatrixFormatError(
                f"line {lineno}: expected '#samples <n>' or 'word<TAB>word<TAB>probability',"
                f" got {line!r}"
            ) from None
        probs[store.word_id(w_str), store.word_id(u_str)] = p
    return TransitionMatrix(probs=probs, sample_count=sample_count)
