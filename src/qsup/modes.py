"""The modes of exemplar generation and of word targets, apart from
``augment`` and ``vocab`` so that the command line lists them without numpy."""

import enum

from .errors import UnknownMode

__all__ = ["AugmentMode", "WordTargetMode"]


class AugmentMode(enum.Enum):
    PLAIN = "plain"
    POWERSET = "powerset"
    CONCAT_ONLY = "concat_only"
    POWERSET_NO_EMPTY = "powerset_no_empty"


class WordTargetMode(enum.Enum):
    FULL = "full"
    TFIDF_1024 = "tfidf1024"
    CLASSES_80 = "classes80"


def coerce(kind: type[enum.Enum], mode, what: str):
    """``mode``, a member or value of ``kind``, as its member; any other
    value is UnknownMode naming the ``what`` mode."""
    try:
        return kind(mode)
    except ValueError:
        raise UnknownMode(f"unknown {what} mode {mode!r}") from None
