"""Privacy/utility measurement: plausible-deniability statistics, empirical
metric-DP verification on a transition matrix, Bayesian posteriors over the
input word, and the distance-minimizing inference attack.

These tools report what a mechanism actually delivers; they never assume a
formal guarantee holds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddingStore
from .errors import (
    ConfigError, SingletonVocabularyError, UnreachableObservationError, require_count,
    require_real, require_word_ids,
)
from .randomizers import Mechanism, TransitionMatrix, sample_from_matrix
from .samplers import RngStream


@dataclass(frozen=True)
class DeniabilityStats:
    """Monte Carlo deniability surface for one word: the probability the
    word survives unchanged, the observed substitution support, and the
    empirical output entropy in nats."""

    word: int
    n_trials: int
    p_unchanged: float
    support_size: int
    entropy: float


@dataclass(frozen=True)
class Posterior:
    """Bayes posterior over input words: probs is (|W|,) for one observed
    id, or (|W|, k) with one column per id of an observed array."""

    observed: int | np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "probs", _probability_vectors("each posterior column", self.probs))


@dataclass(frozen=True)
class MetricDpReport:
    """Worst observed log-ratio excess over the metric-DP bound.

    max_violation uses the point estimates; slack_at_worst is the 3-sigma
    binomial slack for that triple, and satisfied means no triple exceeds
    the bound by more than its slack.
    """

    epsilon: float
    sample_count: int
    max_violation: float
    worst_triple: tuple[int, int, int]
    slack_at_worst: float
    max_violation_adjusted: float
    satisfied: bool


def deniability_stats(
    mechanism: Mechanism, rng: RngStream, w: int, n_trials: int
) -> DeniabilityStats:
    """Estimate the deniability surface of `mechanism` at word w from
    n_trials draws of mechanism.perturb_words(rng, ids), ids n_trials
    copies of w: the draws of perturb_batch(rng.fork(w), w, n_trials), so a
    repeated word gets the same estimate."""
    n_trials = require_count("n_trials", n_trials)
    store = mechanism.store
    w = store.check_id(w)
    outs = mechanism.perturb_words(rng, np.full(n_trials, w))
    counts = np.bincount(outs, minlength=len(store))
    freqs = counts / n_trials
    nz = freqs[freqs > 0]
    return DeniabilityStats(
        word=w,
        n_trials=n_trials,
        p_unchanged=float(freqs[w]),
        support_size=int(nz.size),
        entropy=float(-(nz * np.log(nz)).sum()),
    )


def verify_metric_dp(
    matrix: TransitionMatrix, store: EmbeddingStore, epsilon: float, alpha: float = 1e-3
) -> MetricDpReport:
    """Check ln P[w1 -> y] - ln P[w2 -> y] <= eps * d(w1, w2) on the
    estimated matrix, for every triple.

    Zero denominator estimates are replaced by the exact one-sided
    Clopper-Pearson upper bound at level alpha (1 - alpha^(1/n)); zero
    numerator estimates give no evidence of violation and are skipped. A
    one-word vocabulary has no pair to check: SingletonVocabularyError.
    """
    if matrix.size != len(store):
        raise ConfigError("matrix size does not match the store vocabulary")
    # with one word no pair is checked, and the report would read satisfied
    if len(store) < 2:
        raise SingletonVocabularyError("metric-DP verification needs at least 2 words")
    # NaN would make every violation NaN, and NaN is never the maximum: the
    # report would read satisfied. inf * 0 is NaN for two words at one point.
    require_real("epsilon", epsilon)
    if not epsilon >= 0:
        raise ConfigError(f"epsilon must be >= 0, got {epsilon}")
    # alpha >= 1 makes cp_upper <= 0: zero cells read -inf, the report satisfied
    require_real("alpha", alpha)
    if not 0 < alpha < 1:
        raise ConfigError(f"alpha must be in (0, 1), got {alpha}")
    n = matrix.sample_count
    eps_dist = store.pairwise_distances()
    eps_dist *= epsilon
    # 1 - alpha^(1/n) without the cancellation that rounds it to 0 at large n
    cp_upper = -math.expm1(math.log(alpha) / n)

    max_violation = -np.inf
    worst = (0, 0, 0)
    slack_at_worst = 0.0
    max_adjusted = -np.inf
    for y in range(matrix.size):
        col = matrix.counts[:, y] / n
        # a row with a zero numerator is -inf throughout, so only the rows
        # that reach y can violate; ascending rows keep the row-major argmax
        rows = np.flatnonzero(col > 0)
        if rows.size == 0:
            continue
        log_den = np.log(np.where(col > 0, col, cp_upper))
        viol = np.log(col[rows])[:, None] - log_den[None, :] - eps_dist[rows]
        viol[np.arange(rows.size), rows] = -np.inf
        # delta-method standard error of ln p-hat; zero cells already carry
        # a conservative bound, so their slack is zero
        se = np.where(col > 0, np.sqrt((1.0 - col) / (np.maximum(col, 1e-300) * n)), 0.0)
        slack = 3.0 * (se[rows][:, None] + se[None, :])
        adjusted = viol - slack
        i, j = np.unravel_index(np.argmax(viol), viol.shape)
        if viol[i, j] > max_violation:
            max_violation = float(viol[i, j])
            worst = (int(rows[i]), int(j), y)
            slack_at_worst = float(slack[i, j])
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


def _probability_vectors(name: str, p) -> np.ndarray:
    """p as float64; ConfigError unless it is >= 0 and each column sums to 1 within 1e-9."""
    p = np.asarray(p, dtype=np.float64)
    # written so that NaN fails every comparison
    if not (np.all(p >= 0) and np.all(np.abs(p.sum(axis=0) - 1.0) <= 1e-9)):
        raise ConfigError(f"{name} must be a probability vector")
    return p


def _check_prior(prior, size: int) -> np.ndarray:
    prior = np.asarray(prior, dtype=np.float64)
    if prior.shape != (size,):
        raise ConfigError(f"prior must have shape ({size},), got {prior.shape}")
    return _probability_vectors("prior", prior)


def posterior(prior, matrix: TransitionMatrix, observed) -> Posterior:
    """Bayes posterior over input words given the mechanism output.

    observed is one output id, or a 1-D array of them; an array gives one
    posterior column per id, each equal to the posterior of that id alone.
    """
    prior = _check_prior(prior, matrix.size)
    if np.ndim(observed) > 1:
        raise ConfigError("observed must be one id or a 1-D array of ids")
    flat = require_word_ids(observed, matrix.size)
    # one row per id, so that each total sums a contiguous row
    joint = matrix.counts.T[flat] / matrix.sample_count
    joint *= prior
    total = joint.sum(axis=1)
    if np.any(total <= 0):
        raise UnreachableObservationError(
            f"observed word {flat[np.argmax(total <= 0)]} has zero likelihood under every input"
        )
    probs = (joint / total[:, None]).T
    return Posterior(observed=observed, probs=probs if np.ndim(observed) else probs[:, 0])


def optimal_attack(store: EmbeddingStore, post: Posterior) -> int | np.ndarray:
    """Adversary guess minimizing the posterior-expected embedding distance
    to the true word, one guess per posterior column (an int for a 1-D
    posterior); ties break to the lowest id."""
    guess = np.argmin(store.pairwise_distances() @ post.probs, axis=0)
    return int(guess) if guess.ndim == 0 else guess


def attack_accuracy(
    store: EmbeddingStore,
    rng: RngStream,
    matrix: TransitionMatrix,
    prior,
    n_trials: int,
) -> float:
    """Fraction of trials where the Bayes attack recovers the true word.

    Inputs are drawn from the prior and outputs from the transition matrix,
    which the attacker also uses for its posterior (it knows the mechanism
    and prior).
    """
    n_trials = require_count("n_trials", n_trials)
    prior = _check_prior(prior, matrix.size)

    # the attack decision for every reachable observation, in one product
    decisions = np.full(matrix.size, -1, dtype=np.int64)
    reachable = np.flatnonzero((prior > 0) @ (matrix.counts > 0))
    decisions[reachable] = optimal_attack(store, posterior(prior, matrix, reachable))

    truths = rng.gen.choice(matrix.size, size=n_trials, p=prior)
    observed = sample_from_matrix(rng, matrix, truths)
    hits = decisions[observed] == truths
    return float(np.mean(hits))
