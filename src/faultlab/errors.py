"""Exception types shared across faultlab modules."""


class FaultlabError(Exception):
    """Base class for all faultlab-specific errors."""


class ShapeMismatchError(FaultlabError, ValueError):
    """Array dimensions do not match what an operation requires."""


class InvariantViolation(FaultlabError, ValueError):
    """A dataset or model violates one of its declared invariants."""


class CsvFormatError(FaultlabError, ValueError):
    """A CSV file could not be parsed; carries the offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class TrainingDivergedError(FaultlabError, RuntimeError):
    """Training produced a non-finite loss."""


class ConfigError(FaultlabError, ValueError):
    """A configuration value is out of range or inconsistent."""


class DegenerateDataError(FaultlabError, ValueError):
    """Training data cannot support a model (e.g. a single class)."""
