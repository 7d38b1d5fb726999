"""Exceptions shared across the package: every check on an input raises
WordchainError or a subclass, so any other exception from inside it is a bug."""


class WordchainError(ValueError):
    """An input the package rejects; a ValueError, so library callers may catch either."""


class CapExceededError(WordchainError):
    """An input is larger than the configured size budget allows."""


class SizeMismatchError(WordchainError):
    """Two words do not have the sizes an operation requires."""


class ZeroMassStateError(WordchainError):
    """A conditioning state has zero mass under the harmonic function."""
