"""Exception types shared across the package."""


class QsupError(Exception):
    """Base class for all errors raised by this package."""


# -- question parsing ----------------------------------------------------

class MalformedQuestion(QsupError):
    """Question text is empty or otherwise unusable."""


class MixedImages(QsupError):
    """A multi-question operation received questions from different images."""


# -- vocabulary / featurization -------------------------------------------

class EmptyCorpus(QsupError):
    """A corpus-level operation received no questions."""


class KTooLarge(QsupError):
    """Requested more ranked words than the vocabulary contains."""


class UnknownMode(QsupError):
    """Mode string does not name a supported mode."""


# -- exemplar generation ---------------------------------------------------

class NoAnswered(QsupError):
    """A training record has no answered questions to build exemplars from."""


class TooManyExemplars(QsupError):
    """An image would give more exemplars than one image may."""


# -- model ------------------------------------------------------------------

class DimMismatch(QsupError):
    """Vector or matrix dimensions are inconsistent."""


class EmptyBatch(QsupError):
    """loss_and_grad received an empty batch."""


class NoTrainableExemplars(QsupError):
    """No exemplars survive answer-vocabulary filtering."""


class Diverged(QsupError):
    """Training left parameters outside the float32 range the model file stores."""


# -- evaluation ---------------------------------------------------------------

class EmptyAnswer(QsupError):
    """An answer string is empty after trimming."""


class EmptyVector(QsupError):
    """A statistics routine received an empty input vector."""


class LengthMismatch(QsupError):
    """Paired inputs differ in length or keys."""


# -- file I/O ------------------------------------------------------------------

class ParseError(QsupError):
    """A structured-text input is malformed; the message carries context."""


class DanglingReference(QsupError):
    """A record references an id that does not exist."""


class BadMagic(QsupError):
    """A binary file does not start with the expected magic bytes."""


class TruncatedFile(QsupError):
    """A binary file ended before the declared payload was read."""


class DuplicateId(QsupError):
    """The same id occurs twice where ids must be unique."""


class VersionMismatch(QsupError):
    """A binary file declares an unsupported format version."""
