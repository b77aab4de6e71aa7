"""Training-exemplar generation: per-image question sets, powerset
augmentation, and the dataset simulations used in the experiments.

An image's exemplars are enumerated as index arrays: each row is a target
question plus extra questions selected by a mask, where bit b picks question
b of ``answered + unanswered``.  ``exemplar_rows`` gives the exemplars of
many images as an ``ExemplarRows`` table with one entry per answered
question, and its ``decode`` computes the questions of any rows from it, so
training stores no row.  ``ExemplarRows.rows`` reads every row in order as
question indices, decoded a bounded number at a time; ``generate_exemplars``
streams the rows of one image as ``Exemplar`` objects or as whatever its
``make`` builds from a row's indices (``qsup augment`` builds each JSONL
line).  ``ExemplarRows.from_exemplars`` lays out any stream of ``Exemplar``
objects as a table, one entry each.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import NoAnswered, TooManyExemplars
from .modes import AugmentMode, coerce
from .qparse import Question

__all__ = [
    "ImageRecord",
    "Exemplar",
    "AugmentMode",
    "ExemplarRows",
    "generate_exemplars",
    "exemplar_rows",
    "simulate_unanswered",
    "simulate_answered_fraction",
]


@dataclass(frozen=True)
class ImageRecord:
    """One image with its answered and unanswered questions.

    ``answered + unanswered`` is the full question set of the image; the
    two parts never share a question id.
    """

    image_id: int
    answered: tuple[Question, ...]
    unanswered: tuple[Question, ...] = ()
    feature_ref: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "answered", tuple(self.answered))
        object.__setattr__(self, "unanswered", tuple(self.unanswered))
        ids = [q.id for q in self.answered + self.unanswered]
        if len(set(ids)) != len(ids):
            raise ValueError(f"image {self.image_id}: duplicate question ids")
        for q in self.answered:
            if q.answer is None:
                raise ValueError(f"question {q.id!r} listed as answered without an answer")
        for q in self.unanswered:
            if q.answer is not None:
                raise ValueError(f"question {q.id!r} listed as unanswered but has an answer")

    @property
    def all_questions(self) -> tuple[Question, ...]:
        return self.answered + self.unanswered


@dataclass(frozen=True)
class Exemplar:
    """One training instance: target question and extra-question set; its
    answer is the target's."""

    image_id: int
    target_question: Question
    extra: tuple[Question, ...]

    @property
    def answer(self) -> str:
        return self.target_question.answer


_STREAM_ROWS = 4096  # rows decoded at a time by ExemplarRows.rows; bounds its memory
MAX_IMAGE_EXEMPLARS = 1 << 20  # of one image; at the limit (n=16, powerset) train peaks at 48 MiB


def _rows_per_target(n_total, mode: AugmentMode):
    """Exemplars per answered question of images with ``n_total`` questions (int or array)."""
    if mode in (AugmentMode.POWERSET, AugmentMode.POWERSET_NO_EMPTY):
        return 2**n_total - (mode is AugmentMode.POWERSET_NO_EMPTY)
    return n_total**0  # 1, shaped as n_total


def _exemplar_count(record: ImageRecord, mode: AugmentMode) -> None:
    """TooManyExemplars if ``record`` gives more than MAX_IMAGE_EXEMPLARS exemplars."""
    m, n = len(record.answered), len(record.all_questions)
    total = m * _rows_per_target(n, mode)
    if total > MAX_IMAGE_EXEMPLARS:
        raise TooManyExemplars(
            f"image {record.image_id}: {m} answered of {n} questions give {total} {mode.value} "
            f"exemplars, more than the limit of {MAX_IMAGE_EXEMPLARS}; use mode plain or concat_only")


class ExemplarRows(NamedTuple):
    """Exemplars as a table with one entry per answered (target) question,
    over ``questions``: entry k is question ``targets[k]`` of the
    ``sizes[k]`` questions ``questions[starts[k]:starts[k] + sizes[k]]`` of
    image ``image_ids[k]``, and its exemplars, in ``generate_exemplars``
    order, are rows ``ends[k]:ends[k + 1]``.  ``decode`` computes any rows'
    questions from the table, so no row is stored."""

    mode: AugmentMode
    questions: tuple[Question, ...]
    image_ids: np.ndarray
    starts: np.ndarray
    sizes: np.ndarray
    targets: np.ndarray
    ends: np.ndarray

    @classmethod
    def from_exemplars(cls, exemplars: Iterable[Exemplar]) -> ExemplarRows:
        """The table of ``exemplars`` in order: each is one concat_only entry
        [target, *extras] of target 0 and one row, whose extras decode as its own."""
        questions: list[Question] = []
        image_ids, starts = [], []
        for exemplar in exemplars:
            image_ids.append(exemplar.image_id)
            starts.append(len(questions))
            questions += (exemplar.target_question, *exemplar.extra)
        starts = np.array(starts, np.int64)
        return _table(AugmentMode.CONCAT_ONLY, tuple(questions), np.array(image_ids, object),
                      starts, np.diff(starts, append=len(questions)), np.zeros_like(starts))

    def select(self, keep: np.ndarray) -> ExemplarRows:
        """The table of the entries ``keep`` selects, its rows renumbered."""
        return _table(self.mode, self.questions, *(part[keep] for part in self[2:6]))

    def decode(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(entries, owners, extras) of exemplar ``rows``: the table entry of
        each row, and its extras as indices into ``questions``, ascending per
        row, each with its row's place in ``rows``."""
        entries = np.searchsorted(self.ends, rows, side="right") - 1
        sizes = self.sizes[entries]
        others = np.arange(int(sizes.max(initial=0)))
        if self.mode is AugmentMode.PLAIN:
            chosen = np.zeros((len(rows), 0), bool)
        elif self.mode is AugmentMode.CONCAT_ONLY:
            chosen = (others != self.targets[entries, None]) & (others < sizes[:, None])
        else:  # a binary counter over the subsets: bit b of the mask selects question b
            masks = rows - self.ends[entries] + (self.mode is AugmentMode.POWERSET_NO_EMPTY)
            chosen = masks[:, None] >> others & 1
        owners, extras = np.nonzero(chosen)
        return entries, owners, self.starts[entries[owners]] + extras

    def rows(self) -> Iterator[tuple[int, list[int]]]:
        """(target, extras) of every row in order, as indices into
        ``questions``, decoded ``_STREAM_ROWS`` rows at a time."""
        total = int(self.ends[-1])
        for lo in range(0, total, _STREAM_ROWS):
            entries, owners, extras = self.decode(np.arange(lo, min(lo + _STREAM_ROWS, total)))
            ptr = np.searchsorted(owners, np.arange(len(entries) + 1)).tolist()
            extras = extras.tolist()
            for row, target in enumerate((self.starts[entries] + self.targets[entries]).tolist()):
                yield target, extras[ptr[row] : ptr[row + 1]]


def _table(mode: AugmentMode, questions: tuple[Question, ...], image_ids: np.ndarray,
           starts: np.ndarray, sizes: np.ndarray, targets: np.ndarray) -> ExemplarRows:
    ends = np.zeros(len(targets) + 1, np.int64)
    np.cumsum(_rows_per_target(sizes, mode), out=ends[1:])
    return ExemplarRows(mode, questions, image_ids, starts, sizes, targets, ends)


def exemplar_rows(records: Iterable[ImageRecord], mode: AugmentMode | str) -> ExemplarRows:
    """The table of the exemplars ``generate_exemplars`` gives for each
    record with an answered question, in the same order."""
    mode = coerce(AugmentMode, mode, "augmentation")
    questions: list[Question] = []
    image_ids, entries = [], []  # entries: (start, size, target) of each answered question
    for record in filter(lambda record: record.answered, records):
        _exemplar_count(record, mode)
        image_ids += [record.image_id] * len(record.answered)
        entries += [(len(questions), len(record.all_questions), target)
                    for target in range(len(record.answered))]
        questions += record.all_questions
    # image ids stay Python ints: a manifest's ids need not fit 64 bits
    return _table(mode, tuple(questions), np.array(image_ids, object),
                  *np.array(entries, np.int64).reshape(-1, 3).T)


def generate_exemplars(
    record: ImageRecord,
    mode: AugmentMode | str = AugmentMode.POWERSET,
    make: Callable[[int, list[int]], object] | None = None,
) -> Iterator[object]:
    """Stream training exemplars for one image.

    plain: one exemplar per answered question, no extras.
    powerset: one exemplar per answered question and per subset of the
        image's full question set, so m answered and n total questions give
        m * 2**n exemplars.  Subsets are enumerated in binary-counter order
        over (answered, then unanswered) questions; bit b selects question b.
    concat_only: one exemplar per answered question with every other
        question as extras.
    powerset_no_empty: powerset without the empty-extras exemplars.

    The exemplars are the rows of ``exemplar_rows([record], mode).rows()``
    as ``Exemplar`` objects or, given ``make``, as ``make(target, extras)``
    of each row's indices into ``record.all_questions``.
    """
    table = exemplar_rows([record], mode)  # its count is checked here, not at the first row
    if not record.answered:
        raise NoAnswered(f"image {record.image_id} has no answered questions")
    if make is not None:
        return (make(target, extras) for target, extras in table.rows())
    q = table.questions
    return (Exemplar(record.image_id, q[target], tuple(map(q.__getitem__, extras)))
            for target, extras in table.rows())


def _strip_answer(question: Question) -> Question:
    return dataclasses.replace(question, answer=None)


def simulate_unanswered(
    dataset: Sequence[ImageRecord], keep_per_image: int, seed: int
) -> list[ImageRecord]:
    """Keep a random subset of answered questions per image; demote the rest.

    Demoted questions lose their answer and join the unanswered list, after
    any questions already there.  Images with at most ``keep_per_image``
    answered questions pass through unchanged.
    """
    if keep_per_image < 0:
        raise ValueError("keep_per_image must be >= 0")
    rng = np.random.default_rng(seed)
    out = []
    for record in dataset:
        m = len(record.answered)
        if m <= keep_per_image:
            out.append(record)
            continue
        chosen = set(rng.choice(m, size=keep_per_image, replace=False).tolist())
        kept = tuple(q for i, q in enumerate(record.answered) if i in chosen)
        demoted = tuple(_strip_answer(q) for i, q in enumerate(record.answered) if i not in chosen)
        out.append(
            dataclasses.replace(record, answered=kept, unanswered=record.unanswered + demoted)
        )
    return out


def simulate_answered_fraction(
    dataset: Sequence[ImageRecord], fraction: float, seed: int
) -> tuple[list[ImageRecord], list[ImageRecord]]:
    """Image-level split: a random fraction keeps its answers, the rest lose all.

    The kept count is floor(fraction * n_images).  Both returned lists
    preserve the original dataset order.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must lie in [0, 1]")
    n = len(dataset)
    # epsilon guards against float artifacts like 0.3 * 10 == 2.9999...
    n_keep = int(math.floor(fraction * n + 1e-12))
    rng = np.random.default_rng(seed)
    chosen = set(rng.choice(n, size=n_keep, replace=False).tolist()) if n else set()
    answered_subset = []
    stripped_subset = []
    for i, record in enumerate(dataset):
        if i in chosen:
            answered_subset.append(record)
        else:
            stripped = tuple(_strip_answer(q) for q in record.answered)
            stripped_subset.append(
                dataclasses.replace(
                    record, answered=(), unanswered=record.unanswered + stripped
                )
            )
    return answered_subset, stripped_subset
