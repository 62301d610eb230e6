"""Exception and warning types shared across the package.  A request with no
valid outcome raises a plain ``ValueError`` (command-line exit code 2)."""


class CapacityError(Exception):
    """Request past a named size limit: the amplitude cap on what a dense
    engine stores, or a limit on harmonics, rows, rounds, trials or targets."""


class PrecisionWarning(UserWarning):
    """Numerical result may be less precise than the requested target."""
