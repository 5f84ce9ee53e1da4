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

from .errors import ConfigError, require_count, require_positive

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
        self.seed = require_count("seed", seed, minimum=None) & _MASK64
        self.path = tuple(require_count("stream id", p, minimum=None) & _MASK64 for p in path)
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
        object.__setattr__(self, "dim", require_count("dim", self.dim))
        require_positive("epsilon", self.epsilon)


def sample_unit_sphere(rng: RngStream, dim: int, size: int) -> np.ndarray:
    """(size, dim) uniform directions on the unit sphere in R^dim."""
    dim = require_count("dim", dim)
    g = rng.gen.standard_normal((require_count("size", size, minimum=0), dim))
    # np.linalg.norm's own reduction, bit for bit, without its checks
    norms = np.sqrt(np.add.reduce(g * g, axis=1))
    # a zero draw has probability 0 but would divide by zero; redraw those rows
    while not norms.all():
        bad = norms == 0.0
        g[bad] = rng.gen.standard_normal((int(bad.sum()), dim))
        norms = np.sqrt(np.add.reduce(g * g, axis=1))
    g /= norms[:, None]
    return g


def sample_mv_laplace(rng: RngStream, param: MultivariateLaplaceParam, size: int) -> np.ndarray:
    """(size, d) noise with density proportional to exp(-eps * ||z||) in R^d.

    Spherical factorization: direction uniform on the sphere, radius from
    Gamma(shape=d, scale=1/eps). The Jacobian r^(d-1) of polar coordinates
    turns that radius law into exactly the stated density.
    """
    u = sample_unit_sphere(rng, param.dim, size)
    u *= rng.gen.gamma(shape=param.dim, scale=1.0 / param.epsilon, size=size)[:, None]
    return u


def truncation_mass(param: MultivariateLaplaceParam, tau: float) -> float:
    """Probability that an untruncated draw lands inside radius tau.

    The Gamma(shape=d, scale=1/eps) CDF at tau: the regularized lower
    incomplete gamma function P(d, tau / scale), with scale = 1/eps rounded
    first, the operation order of scipy.stats.gamma.cdf (bit-identical).
    """
    from scipy.special import gammainc  # loaded by the truncated variants only

    require_positive("tau", tau)
    return float(gammainc(param.dim, tau / (1.0 / param.epsilon)))


def sample_mv_laplace_truncated(
    rng: RngStream, param: MultivariateLaplaceParam, tau: float, size: int
) -> np.ndarray:
    """(size, d) radial Laplacian draws conditioned on ||z|| <= tau.

    Radius by inverse CDF on the Gamma restricted to [0, tau]: q uniform on
    [0, truncation_mass), then r = gammaincinv(d, q) * scale, as
    scipy.stats.gamma.ppf computes it. Bounded runtime even when tau cuts
    off nearly all the mass. A mass that underflows to 0 would make every
    radius 0, so it is a ConfigError.
    """
    from scipy.special import gammaincinv

    cap = truncation_mass(param, tau)
    if not cap > 0:
        raise ConfigError(
            f"truncation mass underflows to 0 at d={param.dim}, epsilon={param.epsilon}, "
            f"tau={tau}: no radius can be drawn; raise tau or epsilon"
        )
    u = sample_unit_sphere(rng, param.dim, size)
    q = rng.gen.uniform(0.0, cap, size=size)
    scale = 1.0 / param.epsilon
    r = gammaincinv(param.dim, q) * scale
    r = np.minimum(r, tau)  # the inverse can overshoot by float error at q ~= cap
    return u * r[:, None]


def sample_permutation(rng: RngStream, n: int) -> np.ndarray:
    """Uniform permutation of [0, n)."""
    return rng.gen.permutation(require_count("n", n, minimum=0))
