"""Error types shared across the package.

One subclass per kind of failure, whichever module checks it, so callers
(and the CLI) can map failures to exit codes without string matching.
``exit_code`` is the code the CLI returns for the class; subclasses
inherit it.
"""


class VideoStudioError(Exception):
    """Base class for every error this package raises deliberately."""

    exit_code = 4


# --- structural / validation problems (CLI exit code 2) ---

class ValidationError(VideoStudioError):
    exit_code = 2


class MalformedScene(ValidationError):
    pass


class UnknownCameraToken(ValidationError):
    pass


class EmptyPrompt(ValidationError):
    pass


class BadRange(ValidationError):
    pass


class ShapeMismatch(ValidationError):
    pass


class BadConfig(ValidationError):
    pass


class EmptyVocabulary(ValidationError):
    pass


class NonFiniteField(ValidationError):
    pass


class NonFiniteLatent(ValidationError):
    pass


class TooFewFrames(ValidationError):
    pass


class UnwritablePath(ValidationError):
    pass


# --- backend / file-integrity problems (CLI exit code 3) ---

class BackendError(VideoStudioError):
    exit_code = 3


class ScriptGenerationExhausted(BackendError):
    pass


class BadTensorFile(VideoStudioError):
    exit_code = 3


class ChecksumMismatch(VideoStudioError):
    exit_code = 3


# --- wrapper: the CLI reports the exit code of ``cause`` ---

class StageError(VideoStudioError):
    """Wraps a failure with the pipeline stage it happened in and ``video``, what
    finished as a MultiSceneVideo (None when the run failed before its script)."""

    def __init__(self, stage, cause, video):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause
        self.video = video
