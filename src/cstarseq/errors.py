"""Exception hierarchy shared by all cstarseq modules."""


class CstarSeqError(Exception):
    """Base class for all library errors."""


class StructuralError(CstarSeqError):
    """Shape or carrier mismatch between algebra values."""


class DomainError(CstarSeqError, ValueError):
    """Argument outside the declared domain of an operation."""


class PreconditionError(CstarSeqError, ValueError):
    """A documented precondition was violated by the caller."""


class UnsupportedOperationError(CstarSeqError):
    """Operation is not available for the given ideal (e.g. lacks AP)."""


class InternalConsistencyError(CstarSeqError):
    """Two redundant computation routes disagreed beyond tolerance."""


class ConfigError(CstarSeqError, ValueError):
    """Invalid run configuration."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field
