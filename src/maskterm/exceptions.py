"""Exception types shared across the toolkit."""


class MasktermError(Exception):
    """Base class for all toolkit errors."""


class DimensionError(MasktermError):
    """Shapes or axes do not line up."""


class ContractError(MasktermError):
    """A caller violated a documented precondition."""


class NumericError(MasktermError):
    """A computation produced or received non-finite values."""


class CorpusParseError(MasktermError):
    """Malformed input document; carries line/column when known."""

    def __init__(self, message, line=None, column=None):
        if line is not None:
            where = f"line {line}" if column is None else f"line {line}, column {column}"
            message = f"{message} ({where})"
        super().__init__(message)
        self.line = line
        self.column = column


class SchemaError(MasktermError):
    """Document is well-formed but misses required structure."""


class AlignmentError(MasktermError):
    """Annotations do not align with the token stream."""


class EmptyInputError(MasktermError):
    """Operation received an empty input it cannot act on."""


class LengthError(MasktermError):
    """Sequence exceeds a configured maximum length."""


class CompatibilityError(MasktermError):
    """Checkpoint and requested configuration disagree."""


class ConfigError(MasktermError):
    """Invalid or unknown configuration values."""
