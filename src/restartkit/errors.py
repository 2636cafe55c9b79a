"""Exception types shared across the toolkit."""


class ParseError(ValueError):
    """A data file violates its declared format; the message names the line."""


class InsufficientDataError(ValueError):
    """An operation was asked to run on too little (or empty) data."""


class DegenerateTailError(ValueError):
    """All top order statistics coincide, so the tail index is undefined."""


class AllTrialsFailedError(RuntimeError):
    """Every Monte Carlo trial exhausted its budget without succeeding."""


class RunLogFormatError(ValueError):
    """A run-log file is malformed; the message names the offending line."""
