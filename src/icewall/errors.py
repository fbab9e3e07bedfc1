"""Shared exception and warning types."""


class SingularParameterError(ValueError):
    """Parameters sit on (or too close to) a zero of a required sine factor."""


class SizeLimitError(ValueError):
    """Requested lattice size exceeds what the chosen method can handle."""


class PrecisionWarning(UserWarning):
    """The determinant condition estimate ate more than half the mantissa."""

