"""Exception types shared across the package."""


class QtmineError(Exception):
    """Base class for all errors raised by this package."""


class DataFormatError(QtmineError):
    """A data file is missing, malformed beyond recovery, or violates its schema."""


class CheckpointError(QtmineError):
    """A checkpoint file is corrupt, truncated, or inconsistent with its sidecar."""


class OutputError(QtmineError, OSError):
    """An output file cannot be written. Also an OSError, as the failed write was."""


class TemplateError(QtmineError):
    """A query cannot be built or scored: no mask placeholder, a slot without its
    text or text without its slot, or more tokens than the model's max_seq."""


class EvalError(QtmineError):
    """An evaluation cannot proceed (empty item set, missing category, bad k)."""
