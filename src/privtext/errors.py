"""Exception hierarchy shared across the package."""


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


class MatrixFormatError(PrivtextError):
    """A transition matrix or its TSV file is malformed or not row-stochastic."""


class UnreachableObservationError(PrivtextError):
    """Observed word has zero likelihood under every input word."""
