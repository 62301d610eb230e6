"""Exception and warning types shared across the package."""


class CapacityError(Exception):
    """Request past a named size limit: the amplitude cap on what a dense
    engine stores, or a limit on harmonics, rows, rounds, trials or targets."""


class DegenerateInputError(ValueError):
    """Operation has no valid outcome: a postselected branch of zero
    probability (``extract_register``) or an arbitrary-index state whose
    dominant harmonic is not its target (``distill_k``)."""


class PrecisionWarning(UserWarning):
    """Numerical result may be less precise than the requested target."""
