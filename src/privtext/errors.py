"""Exception hierarchy shared across the package, the checks, echo and
parse that the tagged configs share, and the one rule per kind of public
argument, by which every module checks its arguments:

- a real (require_real): an int or a float, not a bool, and finite;
- a positive real (require_positive): a real > 0;
- a bandwidth (require_bandwidth): a positive real whose 2 sigma^2 is a
  normal float;
- a non-negative real (require_nonnegative): a real >= 0;
- a count (require_count): an int or a numpy integer, not a bool, at least
  its minimum (1 unless given); a seed or stream id has no minimum;
- word ids (require_word_ids; EmbeddingStore.check_id for one): integers in
  [0, |W|), else an InvalidWordIdError;
- probability vectors (require_probabilities) and points (require_points,
  else a DimensionMismatchError or NonFiniteComponentError): arrays of
  numbers. The other rules raise ConfigError."""
import sys
from dataclasses import asdict, fields

import numpy as np


class PrivtextError(Exception):
    """Base class for all package errors."""


class EmbeddingFormatError(PrivtextError):
    """Embedding file could not be parsed."""


class DuplicateWordError(EmbeddingFormatError):
    """The same word appears more than once in an embedding file."""


class DimensionMismatchError(EmbeddingFormatError):
    """A vector has the wrong number of components."""


class NonFiniteComponentError(EmbeddingFormatError):
    """A vector contains NaN or infinity."""


class EmptyVocabularyError(EmbeddingFormatError):
    """Embedding file contains no records."""


class InvalidWordIdError(PrivtextError):
    """Word id outside [0, |W|) or unknown word string."""


class SingletonVocabularyError(PrivtextError):
    """Sensitivity is undefined for a one-word vocabulary."""


class ConfigError(PrivtextError):
    """Mechanism, amplifier, or protocol configuration is invalid."""


def require_real(name, value) -> None:
    """The real rule. A bool would run as 0 or 1 and be echoed as false or
    true; an infinity passes a lower bound, runs as no noise or a frozen
    chain and is echoed as Infinity, which is not JSON."""
    real = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (real and abs(value) <= sys.float_info.max):
        raise ConfigError(f"{name} must be a finite real number, got {value!r}")


def require_positive(name, value) -> None:
    """The positive-real rule: the (0, inf) parameters, epsilon among them."""
    require_real(name, value)
    if not value > 0:
        raise ConfigError(f"{name} must be > 0, got {value!r}")


def require_bandwidth(name, value) -> None:
    """The bandwidth rule: the density KDE's sigma, a positive real whose
    2 sigma^2, the log kernels' denominator, is a normal float. Past it
    sigma**2 overflows (an OverflowError); below it 2 sigma^2 rounds to 0
    or a subnormal, and the chain scores NaN and never accepts."""
    require_positive(name, value)
    with np.errstate(over="ignore"):
        den = 2.0 * np.float64(value) ** 2
    if not sys.float_info.min <= den <= sys.float_info.max:
        raise ConfigError(f"{name} must make 2 sigma^2 a normal float, sigma in about"
                          f" [1.06e-154, 9.48e153], got {value!r}")


def require_nonnegative(name, value) -> None:
    """The non-negative-real rule: smooth beta and the audit's epsilon."""
    require_real(name, value)
    if not value >= 0:
        raise ConfigError(f"{name} must be >= 0, got {value!r}")


def require_count(name, value, minimum: int | None = 1) -> int:
    """The count rule, no bound at minimum None; value as an int a JSON echo can write."""
    # concrete types: numbers.Integral is an ABC check, several times slower per draw
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or minimum is not None and value < minimum):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ConfigError(f"{name} must be an integer{bound}, got {value!r}")
    return int(value)


def require_word_ids(ids, size: int | None = None) -> np.ndarray:
    """ids flattened to int64; InvalidWordIdError unless each is an integer
    >= 0 and, given a size, < size. A float would be cut to another word's
    id, and a negative id names no word."""
    ids = np.asarray(ids)
    if ids.size and ids.dtype.kind not in "iu":
        raise InvalidWordIdError(f"word ids must be integers, got {ids.dtype}")
    ids = ids.astype(np.int64, copy=False).ravel()
    bad = ids[(ids < 0) | (ids >= size)] if size is not None else ids[ids < 0]
    if bad.size:
        raise InvalidWordIdError(f"word id {bad[0]} outside [0, {size or 'inf'})")
    return ids


def _floats(name, value) -> np.ndarray:
    """value as float64, or ConfigError unless it holds ints and floats only:
    a bool would run as 0 or 1; a string, an object or a ragged list is none.
    An array is judged by its dtype; a list or tuple also by its elements,
    since NumPy reads bools mixed with numbers as numbers."""
    if isinstance(value, (list, tuple)) and _holds_bool(value):
        raise ConfigError(f"{name} must hold numbers only, not bools, strings or objects")
    try:
        arr = np.asarray(value)
    except ValueError:  # a ragged list
        arr = np.asarray(None)
    # compared first: float64 is the hot path's type, and the cheapest test
    if arr.dtype != np.float64:
        if arr.dtype.kind not in "iuf":
            raise ConfigError(f"{name} must hold numbers only, not bools, strings or objects")
        arr = arr.astype(np.float64, order="C")
    return arr


def _holds_bool(seq) -> bool:
    """Whether a list or tuple holds a bool or a bool array at any depth.
    Each list or tuple is read once, so a repeated or self-containing one
    ends the walk."""
    seen, stack = {id(seq)}, [seq]
    while stack:
        for v in stack.pop():
            if isinstance(v, (list, tuple)):
                if id(v) not in seen:
                    seen.add(id(v))
                    stack.append(v)
            elif isinstance(v, (bool, np.bool_)) or isinstance(v, np.ndarray) and v.dtype == bool:
                return True
    return False


def require_probabilities(name, p, size: int | None = None) -> np.ndarray:
    """p as float64 probability vectors, one per column (>= 0, each column
    summing to 1 within 1e-9), of at least one dimension; given a size, (size,)."""
    p = _floats(name, p)
    if p.ndim == 0 or size is not None and p.shape != (size,):
        raise ConfigError(f"{name} has shape {p.shape}, not {(size,) if size else '(n, ...)'}")
    # written so that NaN fails every comparison
    if not ((p >= 0).all() and (abs(p.sum(axis=0) - 1.0) <= 1e-9).all()):
        raise ConfigError(f"{name} must be a probability vector")
    return p


def require_points(name, points, dim: int) -> np.ndarray:
    """points as a finite float64 (n, dim) array: the same array when it is
    one already, so that a decode or KDE pays no copy."""
    points = _floats(name, points)
    if points.ndim != 2 or points.shape[1] != dim:
        raise DimensionMismatchError(f"{name} must have shape (n, {dim}), got {points.shape}")
    if not np.isfinite(points).all():
        raise NonFiniteComponentError(f"{name} contain NaN or Inf")
    return points


def require_params(config, tag: str, allowed: dict) -> None:
    """ConfigError unless the tag field of a config dataclass is a key of
    allowed and every parameter it sets (a field whose default is None,
    given a value) is one of that key's names."""
    value = getattr(config, tag)
    if not (isinstance(value, str) and value in allowed):
        raise ConfigError(f"unknown {tag} {value!r}, expected one of {', '.join(allowed)}")
    for f in fields(config):
        if f.default is None and getattr(config, f.name) is not None:
            if f.name not in allowed[value]:
                raise ConfigError(f"{f.name} is not a parameter of {tag} {value!r}")


def set_fields(config) -> dict:
    """The JSON echo of a config dataclass: its fields that are not None,
    in field order, nested dataclasses as dicts."""
    return {name: v for name, v in asdict(config).items() if v is not None}


def from_fields(cls, data: dict):
    """cls(**data) for a config dataclass, a missing or unknown field (a
    TypeError) raised as a ConfigError."""
    try:
        return cls(**data)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None


class MatrixFormatError(PrivtextError):
    """A transition matrix or its TSV file is malformed, or its row totals differ."""


class UnreachableObservationError(PrivtextError):
    """Observed word has zero likelihood under every input word."""
