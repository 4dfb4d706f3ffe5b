"""Exception types shared across the package."""


class AlgebraError(Exception):
    """Base class for all domain errors raised by golodkit."""


class RingMismatchError(AlgebraError):
    """Operands live in different ambient rings."""


class HomogeneityError(AlgebraError):
    """An operation required a homogeneous input and did not get one."""


class ImproperIdealError(AlgebraError):
    """The unit ideal (or another out-of-domain ideal) was passed where a proper ideal is required."""


class ZeroColonError(AlgebraError):
    """Colon by the zero ideal is undefined."""


class SaturationLimitError(AlgebraError):
    """Saturation failed to stabilize within the iteration cap."""


class ContainmentError(AlgebraError):
    """A required ideal containment does not hold."""


class ParseError(AlgebraError):
    """Malformed polynomial, session, or graph text."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column})" if column is not None else ")")
        super().__init__(message + loc)
        self.message = message  # without the location, for callers that add their own
        self.line = line
        self.column = column
