"""Exception types shared across the package."""


class EmulatorError(Exception):
    """Base class for all errors raised by this package."""


class NonDiagonalizable(EmulatorError):
    """Feedback matrix has complex, repeated or otherwise degenerate modes."""


class NonPositiveConcentration(EmulatorError):
    """A log or sqrt forcing term received a concentration <= 0."""


class DimensionMismatch(EmulatorError):
    """Inputs have inconsistent shapes."""


class GridMismatch(EmulatorError):
    """Scenarios or fields live on incompatible grids."""


class SingularGram(EmulatorError):
    """Gram matrix could not be factorized even at maximum jitter."""


class NonFinite(EmulatorError):
    """Objective became NaN or infinite; parameters are degenerate."""


class DegenerateRegressor(EmulatorError):
    """Regression input is constant; slope undefined."""


class EmptyGrid(EmulatorError):
    """Spatial grid or field is empty."""


class LengthMismatch(EmulatorError):
    """Paired series have different lengths."""


class NonPositiveVariance(EmulatorError):
    """A predictive variance is zero or negative where positive is required."""


class ParseError(EmulatorError):
    """A file could not be parsed; message carries line/column context."""


class SchemaError(EmulatorError):
    """A file parsed but does not match the expected column schema."""


class CompatibilityError(SchemaError):
    """Model and scenario disagree about the atmospheric agents."""


class GridError(EmulatorError):
    """Scenario years are not a uniform annual grid."""


class UnknownScenario(EmulatorError):
    """A scenario name was requested that is not in the given set."""
