"""Exception types shared across the package."""


class OrthocountError(Exception):
    """Base class for all errors raised by this package."""


class BoundExceededError(OrthocountError):
    """A configured resource bound (field order, enumeration size,
    dense-matrix size) would be exceeded."""
