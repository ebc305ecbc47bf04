"""Exception hierarchy shared across the package.

Everything raised on bad data or broken contracts derives from
:class:`PipelineError`, so callers (and the CLI) can catch one type.
"""


class PipelineError(Exception):
    """Base class for all data and contract errors raised by this package."""


class InvalidEmbedding(PipelineError):
    """An embedding vector that cannot be normalized (zero or non-finite).

    Raised for a matrix of vectors, `row` is the index of the first bad one.
    """

    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row


class DimensionMismatch(PipelineError):
    """Two vectors (or a vector and a gallery) disagree on dimensionality."""


class EmptyInput(PipelineError):
    """An operation that needs at least one sample received none."""


class DuplicateLabel(PipelineError):
    """Two training tracks claim the same participant label."""


class EmptyGallery(PipelineError):
    """A gallery with no prototypes where at least one is required."""


class EmptyStream(PipelineError):
    """A detection stream with no frames."""


class OutOfOrderFrame(PipelineError):
    """Frame indices did not arrive in strictly increasing order."""


class InfeasibleSpec(PipelineError):
    """Scenario constraints could not be satisfied within the sampling budget."""


class InvalidSplit(PipelineError):
    """A train/test split that leaves one side empty."""


class MisalignedStreams(PipelineError):
    """Result frames and ground-truth frames do not cover the same range."""


class UnsupportedVersion(PipelineError):
    """A file declares a format version this build does not understand."""


class ParseError(PipelineError):
    """A malformed line in a stream or config file.

    Carries the 1-based line number when known.
    """

    def __init__(self, message, line_number=None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number
