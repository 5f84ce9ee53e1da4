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

from .errors import ConfigError, require_params, require_real, set_fields
from .samplers import RngStream, sample_permutation


@dataclass(frozen=True)
class AmplifierConfig:
    kind: str               # shuffle | subsample | kthreshold
    q: float | None = None  # subsample fraction
    k: int | None = None    # kthreshold multiplicity

    def __post_init__(self):
        require_params(self, "kind", {"shuffle": (), "subsample": ("q",), "kthreshold": ("k",)})
        if self.kind == "subsample":
            if self.q is not None:
                require_real("q", self.q)
            if self.q is None or not 0 < self.q <= 1:
                raise ConfigError(f"subsample requires q in (0, 1], got {self.q}")
        elif self.kind == "kthreshold":
            if type(self.k) is not int or self.k < 1:
                raise ConfigError(f"kthreshold requires an integer k >= 1, got {self.k!r}")

    def to_dict(self) -> dict:
        return set_fields(self)

    @classmethod
    def from_dict(cls, data: dict) -> "AmplifierConfig":
        try:
            return cls(**data)
        except TypeError as exc:
            raise ConfigError(str(exc)) from None


def shuffle_batch(rng: RngStream, batch) -> np.ndarray:
    """Uniformly permute the payloads: the output position says nothing of
    the input position, and the payload multiset is preserved exactly."""
    batch = np.asarray(batch, dtype=np.int64)
    return batch[sample_permutation(rng, len(batch))]


def subsample_batch(rng: RngStream, batch, q: float) -> np.ndarray:
    """Keep each message independently with probability q (Poisson
    sub-sampling)."""
    if not 0 < q <= 1:
        raise ConfigError(f"q must be in (0, 1], got {q}")
    batch = np.asarray(batch, dtype=np.int64)
    return batch[rng.gen.uniform(size=len(batch)) < q]


def kthreshold_batch(batch, k: int) -> np.ndarray:
    """Drop messages whose exact payload occurs fewer than k times in the
    batch; survivors keep their order."""
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    batch = np.asarray(batch, dtype=np.int64)
    return batch[np.bincount(batch)[batch] >= k]


def apply_amplifier(rng: RngStream, batch: np.ndarray, config: AmplifierConfig) -> np.ndarray:
    if config.kind == "shuffle":
        return shuffle_batch(rng, batch)
    if config.kind == "subsample":
        return subsample_batch(rng, batch, config.q)
    if config.kind == "kthreshold":
        return kthreshold_batch(batch, config.k)
    raise ConfigError(f"unknown amplifier kind {config.kind!r}")


def amplified_epsilon(epsilon: float, q: float) -> dict:
    """Poisson sub-sampling accounting.

    An eps-DP mechanism applied after keeping each record with probability
    q is ln(1 + q(e^eps - 1))-DP (Balle, Barthe & Gaboardi 2018), reported
    as epsilon_amplified. It is >= q * eps for every eps > 0; q * eps is
    reported only as the labelled first-order figure epsilon_first_order.
    """
    if not 0 < q <= 1:
        raise ConfigError(f"q must be in (0, 1], got {q}")
    if not epsilon > 0:
        raise ConfigError(f"epsilon must be > 0, got {epsilon}")
    # the same bound as eps + ln(1 - (1 - q)(1 - e^-eps)): no overflow at large eps
    tight = epsilon + math.log1p((1.0 - q) * math.expm1(-epsilon))
    return {
        "epsilon": epsilon,
        "q": q,
        "epsilon_amplified": tight,
        "epsilon_first_order": q * epsilon,
    }
