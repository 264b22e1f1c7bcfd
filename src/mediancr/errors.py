"""Exception types shared across the package."""


class InfeasibleLevelError(ValueError):
    """The requested confidence level cannot be attained by the procedure.

    Carries the requested level and the maximum attainable level so callers
    (and the CLI) can report a concrete remedy.
    """

    def __init__(self, requested: float, attainable: float, detail: str = ""):
        self.requested = requested
        self.attainable = attainable
        msg = (
            f"confidence level {requested!r} is not attainable; "
            f"maximum attainable level is {attainable!r}"
        )
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class DegenerateDataError(ValueError):
    """Input data is degenerate for the requested procedure (ties, zero spread)."""


class UnsupportedSizeError(ValueError):
    """A size parameter exceeds what this implementation supports."""
