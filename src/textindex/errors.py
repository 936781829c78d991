"""Exception types shared across the package."""


class MalformedInputError(ValueError):
    """Serialized or encoded data that cannot be decoded."""


class UnsupportedPatternError(ValueError):
    """Pattern outside the shape an index supports.  No package code raises
    it any more: every index counts every nonempty pattern without the
    terminator.  It stays importable for code that still catches it."""
