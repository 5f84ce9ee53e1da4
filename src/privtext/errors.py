"""Exception hierarchy shared across the package, and the checks and the
echo that the tagged configs share."""
from dataclasses import asdict, fields


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
    """ConfigError unless value is a real number: an int or a float, not a
    bool (which would run as 0 or 1 and be echoed as false or true) nor a
    string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a real number, got {value!r}")


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


class MatrixFormatError(PrivtextError):
    """A transition matrix or its TSV file is malformed or not row-stochastic."""


class UnreachableObservationError(PrivtextError):
    """Observed word has zero likelihood under every input word."""
