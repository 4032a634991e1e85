"""Error types shared across the package.

Each stage raises a dedicated subclass so callers (and the CLI) can map
failures to exit codes without string matching.  ``exit_code`` is the
code the CLI returns for the class; subclasses inherit it.
"""


class VideoStudioError(Exception):
    """Base class for every error this package raises deliberately."""

    exit_code = 4


# --- structural / validation problems (CLI exit code 2) ---

class ValidationError(VideoStudioError):
    exit_code = 2


class MalformedScene(ValidationError):
    def __init__(self, message, line_number=None):
        super().__init__(message)
        self.line_number = line_number


class EmptyScript(ValidationError):
    pass


class NonContiguousIndices(ValidationError):
    pass


class UnknownCameraToken(ValidationError):
    pass


class EmptyPrompt(ValidationError):
    pass


class WrongExampleCount(ValidationError):
    pass


class EmptyDescription(ValidationError):
    pass


class BadRange(ValidationError):
    pass


class BadTimestepOrder(ValidationError):
    pass


class ShapeMismatch(ValidationError):
    pass


class DimensionMismatch(ValidationError):
    pass


class BadConfig(ValidationError):
    pass


class DivisionAtTZero(ValidationError):
    pass


class EmptyVocabulary(ValidationError):
    pass


class UnknownDirection(ValidationError):
    pass


class UnknownSpeed(ValidationError):
    pass


class NonFiniteField(ValidationError):
    pass


class TooFewFrames(ValidationError):
    pass


# --- metrics that cannot be computed on this video (CLI exit code 2) ---

class DetectorMiss(VideoStudioError):
    exit_code = 2


class NoCommonEntities(VideoStudioError):
    exit_code = 2


# --- backend / file-integrity problems (CLI exit code 3) ---

class BackendError(VideoStudioError):
    exit_code = 3


class ScriptGenerationExhausted(BackendError):
    def __init__(self, message, transcripts=None):
        super().__init__(message)
        self.transcripts = transcripts or []


class BadTensorFile(VideoStudioError):
    exit_code = 3


class ChecksumMismatch(VideoStudioError):
    exit_code = 3


# --- wrapper: the CLI reports the exit code of ``cause`` ---

class StageError(VideoStudioError):
    """Wraps a failure with the pipeline stage it happened in."""

    def __init__(self, stage, cause):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause
