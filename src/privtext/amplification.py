"""Post-randomization privacy amplifiers: shuffle, sub-sample, k-threshold,
plus the sub-sampling epsilon accounting.

A batch of messages is a 1-D int64 array of payload word ids; nothing in
it names the sending user. Amplifiers never look at payload semantics;
they only rearrange or drop entries. The shuffler is simulated in-process
(no MPC/mixnet transport).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError, from_fields, require_count, require_params, require_positive, require_word_ids,
    set_fields,
)
from .samplers import RngStream, sample_permutation


@dataclass(frozen=True)
class AmplifierConfig:
    kind: str               # shuffle | subsample | kthreshold
    q: float | None = None  # subsample fraction
    k: int | None = None    # kthreshold multiplicity

    def __post_init__(self):
        require_params(self, "kind", {"shuffle": (), "subsample": ("q",), "kthreshold": ("k",)})
        if self.kind == "subsample":
            _require_rate(self.q)
        elif self.kind == "kthreshold":
            object.__setattr__(self, "k", require_count("k", self.k))

    to_dict = set_fields
    from_dict = classmethod(from_fields)


def _require_rate(q) -> None:
    """ConfigError unless q is a sub-sampling rate: a real in (0, 1]."""
    require_positive("q", q)
    if not q <= 1:
        raise ConfigError(f"q must be in (0, 1], got {q!r}")


def shuffle_batch(rng: RngStream, batch) -> np.ndarray:
    """Uniformly permute the payloads: the output position says nothing of
    the input position, and the payload multiset is preserved exactly."""
    batch = require_word_ids(batch)
    return batch[sample_permutation(rng, len(batch))]


def subsample_batch(rng: RngStream, batch, q: float) -> np.ndarray:
    """Keep each message independently with probability q (Poisson
    sub-sampling)."""
    _require_rate(q)
    batch = require_word_ids(batch)
    return batch[rng.gen.uniform(size=len(batch)) < q]


def kthreshold_batch(batch, k: int) -> np.ndarray:
    """Drop messages whose exact payload occurs fewer than k times in the
    batch; survivors keep their order."""
    k = require_count("k", k)
    batch = require_word_ids(batch)
    return batch[np.bincount(batch)[batch] >= k]


def apply_amplifier(rng: RngStream, batch: np.ndarray, config: AmplifierConfig) -> np.ndarray:
    if config.kind == "shuffle":
        return shuffle_batch(rng, batch)
    if config.kind == "subsample":
        return subsample_batch(rng, batch, config.q)
    return kthreshold_batch(batch, config.k)  # AmplifierConfig admits no other kind


def amplified_epsilon(epsilon: float, q: float) -> dict:
    """Poisson sub-sampling accounting.

    An eps-DP mechanism applied after keeping each record with probability
    q is ln(1 + q(e^eps - 1))-DP (Balle, Barthe & Gaboardi 2018), reported
    as epsilon_amplified. It is >= q * eps for every eps > 0; q * eps is
    reported only as the labelled first-order figure epsilon_first_order.
    """
    _require_rate(q)
    require_positive("epsilon", epsilon)
    # the same bound as eps + ln(1 - (1 - q)(1 - e^-eps)): no overflow at large eps
    tight = epsilon + math.log1p((1.0 - q) * math.expm1(-epsilon))
    return {
        "epsilon": epsilon,
        "q": q,
        "epsilon_amplified": tight,
        "epsilon_first_order": q * epsilon,
    }
