"""Training-exemplar generation: per-image question sets, powerset
augmentation, and the dataset simulations used in the experiments.

An image's exemplars are enumerated as index arrays: each row is a target
question plus extra questions selected by a mask, where bit b picks question
b of ``answered + unanswered``.  ``exemplar_rows`` gives the rows of many
images as one ``ExemplarRows`` without an object per exemplar, for training;
``generate_exemplars`` streams the same rows of one image, a bounded number
of rows at a time, as ``Exemplar`` objects or as whatever its ``make`` builds
from a row's indices (``qsup augment`` builds each JSONL line).
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


_STREAM_ROWS = 4096  # exemplars enumerated at a time by generate_exemplars; bounds its memory
MAX_IMAGE_EXEMPLARS = 1 << 20  # of one image; the largest measured (n=16, powerset) trains in 355 MiB


def _rows_per_target(n_total: int, mode: AugmentMode) -> int:
    """Exemplars per answered question of an image with ``n_total`` questions."""
    if mode in (AugmentMode.POWERSET, AugmentMode.POWERSET_NO_EMPTY):
        return 2**n_total - (mode is AugmentMode.POWERSET_NO_EMPTY)
    return 1


def _exemplar_count(record: ImageRecord, mode: AugmentMode) -> int:
    """The exemplars of ``record``; more than MAX_IMAGE_EXEMPLARS is TooManyExemplars."""
    m, n = len(record.answered), len(record.all_questions)
    total = m * _rows_per_target(n, mode)
    if total > MAX_IMAGE_EXEMPLARS:
        raise TooManyExemplars(
            f"image {record.image_id}: {m} answered of {n} questions give {total} {mode.value} "
            f"exemplars, more than the limit of {MAX_IMAGE_EXEMPLARS}; use mode plain or concat_only")
    return total


def _exemplar_rows(n_answered: int, n_total: int, mode: AugmentMode,
                   lo: int = 0, hi: int | None = None):
    """(targets, extra_ptr, extras) of exemplars ``lo:hi`` of one image, in
    ``generate_exemplars`` order, as indices into its ``answered +
    unanswered`` questions: row r has the target ``targets[r]`` and the
    extras ``extras[extra_ptr[r]:extra_ptr[r + 1]]``, in ascending order."""
    start = 1 if mode is AugmentMode.POWERSET_NO_EMPTY else 0
    per_target = _rows_per_target(n_total, mode)
    total = n_answered * per_target
    targets, masks = np.divmod(np.arange(lo, total if hi is None else min(hi, total)), per_target)
    others = np.arange(n_total)
    if mode is AugmentMode.PLAIN:
        chosen = np.zeros((len(targets), n_total), bool)
    elif mode is AugmentMode.CONCAT_ONLY:
        chosen = others != targets[:, None]
    else:  # a binary counter over the subsets: bit b of the mask selects question b
        chosen = (masks + start)[:, None] >> others & 1
    extra_ptr = np.zeros(len(targets) + 1, np.intp)
    np.cumsum(chosen.sum(axis=1), out=extra_ptr[1:])
    return targets, extra_ptr, np.nonzero(chosen)[1]


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

    Given ``make``, each exemplar is ``make(target, extras)`` instead of an
    ``Exemplar``, from its question indices into ``record.all_questions``.
    """
    mode = coerce(AugmentMode, mode, "augmentation")
    if not record.answered:
        raise NoAnswered(f"image {record.image_id} has no answered questions")
    total = _exemplar_count(record, mode)  # checked here, not at the first row
    q_all = record.all_questions
    if make is None:
        def make(target: int, chosen: list[int]) -> Exemplar:
            return Exemplar(record.image_id, q_all[target], tuple(map(q_all.__getitem__, chosen)))

    def _generate() -> Iterator[object]:
        for lo in range(0, total, _STREAM_ROWS):
            rows = _exemplar_rows(len(record.answered), len(q_all), mode, lo, lo + _STREAM_ROWS)
            targets, extra_ptr, extras = (part.tolist() for part in rows)
            for row, target in enumerate(targets):
                yield make(target, extras[extra_ptr[row] : extra_ptr[row + 1]])

    return _generate()


class ExemplarRows(NamedTuple):
    """Exemplars as index arrays over ``questions``: row r is an exemplar of
    image ``image_ids[r]`` with the target ``questions[targets[r]]``, whose
    answer it takes, and the extras ``questions[extras[extra_ptr[r]:extra_ptr[r + 1]]]``."""

    questions: tuple[Question, ...]
    image_ids: np.ndarray
    targets: np.ndarray
    extra_ptr: np.ndarray
    extras: np.ndarray


def exemplar_rows(records: Iterable[ImageRecord], mode: AugmentMode | str) -> ExemplarRows:
    """The exemplars ``generate_exemplars`` gives for each record with an
    answered question, in the same order, with no object per exemplar."""
    mode = coerce(AugmentMode, mode, "augmentation")
    questions: list[Question] = []
    image_ids, targets, extra_ptr, extras = [], [], [np.zeros(1, np.intp)], []
    for record in records:
        if not record.answered:
            continue
        _exemplar_count(record, mode)  # before the image's rows are built
        rows, ptr, chosen = _exemplar_rows(len(record.answered), len(record.all_questions), mode)
        image_ids.append(np.full(len(rows), record.image_id, np.int64))
        targets.append(rows + len(questions))
        extras.append(chosen + len(questions))
        extra_ptr.append(ptr[1:] + extra_ptr[-1][-1])
        questions.extend(record.all_questions)
    empty = [np.zeros(0, np.intp)]
    return ExemplarRows(tuple(questions), *(np.concatenate(part or empty)
                                            for part in (image_ids, targets, extra_ptr, extras)))


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
