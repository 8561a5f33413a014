"""Exception types shared across the package."""


class UnknownLabel(KeyError):
    """A label is not among the simple labels of the ring."""


class DegenerateEigenproblem(RuntimeError):
    """Eigenvalue clusters could not be separated after the retry budget."""


class NotSlightlyDegenerate(ValueError):
    """An operation requires slightly degenerate input."""


class CrossCheckMismatch(RuntimeError):
    """Two independent computations of the same invariant disagree."""


class GroupsTooLarge(ValueError):
    """A brute-force group search exceeds the size cap."""


class DatumTooLarge(ValueError):
    """The values of a datum would not fit the cap on one array."""


class UnknownCatalogKey(KeyError):
    """No catalog entry under this key."""
