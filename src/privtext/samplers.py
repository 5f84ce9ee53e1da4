"""Seedable random primitives: named streams, d-dimensional Laplacian noise,
truncated radial variants, and the uniform permutation behind the shuffler.

All randomness in the package flows through RngStream so that any run is
fully determined by (seed, stream path, call sequence). Streams fork
cheaply by integer or name, which is what makes parallel fan-out
reproducible regardless of worker count.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np
from scipy import stats

from .errors import ConfigError

_MASK64 = (1 << 64) - 1


def _name_to_id(name: str) -> int:
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class RngStream:
    """A deterministic random stream identified by (seed, spawn path).

    Distinct spawn paths under the same seed are statistically independent
    (numpy SeedSequence spawn keys).
    """

    def __init__(self, seed: int, path: tuple[int, ...] = ()):
        self.seed = int(seed) & _MASK64
        self.path = tuple(int(p) & _MASK64 for p in path)
        self._gen = np.random.default_rng(
            np.random.SeedSequence(entropy=self.seed, spawn_key=self.path)
        )

    @property
    def gen(self) -> np.random.Generator:
        return self._gen

    def fork(self, stream_id: int) -> "RngStream":
        return RngStream(self.seed, self.path + (stream_id,))

    def fork_named(self, name: str) -> "RngStream":
        return self.fork(_name_to_id(name))

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, path={self.path})"


@dataclass(frozen=True)
class MultivariateLaplaceParam:
    """Parameters of the radial noise with density proportional to exp(-eps * ||z||)."""

    dim: int
    epsilon: float

    def __post_init__(self):
        if self.dim < 1:
            raise ConfigError(f"dim must be >= 1, got {self.dim}")
        if not self.epsilon > 0:
            raise ConfigError(f"epsilon must be > 0, got {self.epsilon}")


def sample_unit_sphere(rng: RngStream, dim: int, size: int) -> np.ndarray:
    """(size, dim) uniform directions on the unit sphere in R^dim."""
    if dim < 1:
        raise ConfigError(f"dim must be >= 1, got {dim}")
    g = rng.gen.standard_normal((size, dim))
    norms = np.linalg.norm(g, axis=1)
    # a zero draw has probability 0 but would divide by zero; redraw those rows
    while np.any(norms == 0.0):
        bad = norms == 0.0
        g[bad] = rng.gen.standard_normal((int(bad.sum()), dim))
        norms = np.linalg.norm(g, axis=1)
    return g / norms[:, None]


def sample_mv_laplace(rng: RngStream, param: MultivariateLaplaceParam, size: int) -> np.ndarray:
    """(size, d) noise with density proportional to exp(-eps * ||z||) in R^d.

    Spherical factorization: direction uniform on the sphere, radius from
    Gamma(shape=d, scale=1/eps). The Jacobian r^(d-1) of polar coordinates
    turns that radius law into exactly the stated density.
    """
    u = sample_unit_sphere(rng, param.dim, size)
    r = rng.gen.gamma(shape=param.dim, scale=1.0 / param.epsilon, size=size)
    return u * r[:, None]


def truncation_mass(param: MultivariateLaplaceParam, tau: float) -> float:
    """Probability that an untruncated draw lands inside radius tau."""
    if not tau > 0:
        raise ConfigError(f"tau must be > 0, got {tau}")
    return float(stats.gamma.cdf(tau, a=param.dim, scale=1.0 / param.epsilon))


def sample_mv_laplace_truncated(
    rng: RngStream, param: MultivariateLaplaceParam, tau: float, size: int
) -> np.ndarray:
    """(size, d) radial Laplacian draws conditioned on ||z|| <= tau.

    Radius via inverse CDF on the Gamma restricted to [0, tau]: bounded
    runtime even when tau cuts off nearly all the mass.
    """
    cap = truncation_mass(param, tau)
    u = sample_unit_sphere(rng, param.dim, size)
    q = rng.gen.uniform(0.0, cap, size=size)
    r = stats.gamma.ppf(q, a=param.dim, scale=1.0 / param.epsilon)
    r = np.minimum(r, tau)  # ppf can overshoot by float error at q ~= cap
    return u * r[:, None]


def sample_permutation(rng: RngStream, n: int) -> np.ndarray:
    """Uniform permutation of [0, n)."""
    if n < 0:
        raise ConfigError(f"n must be >= 0, got {n}")
    return rng.gen.permutation(n)
