"""Exception types shared across the package, each carrying the exit code
``ebgp.cli`` returns for it."""


class EmulatorError(Exception):
    """Base class for all errors raised by this package; a data error."""

    exit_code = 2


class ParseError(EmulatorError):
    """A file could not be parsed; message carries line/column context."""


class SchemaError(EmulatorError):
    """Input parsed but its columns, names or values are not valid."""


class CompatibilityError(SchemaError):
    """Model and scenario disagree about the atmospheric agents."""

    exit_code = 4


class GridMismatch(EmulatorError):
    """Scenarios, fields or arrays have incompatible grids or shapes."""


class NonFinite(EmulatorError):
    """A likelihood, mean or covariance overflowed or is NaN; the parameters are degenerate."""

    exit_code = 3


class SingularGram(EmulatorError):
    """Gram matrix could not be factorized even at maximum jitter."""

    exit_code = 3
