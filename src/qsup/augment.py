"""Training-exemplar generation: per-image question sets, powerset
augmentation, and the dataset simulations used in the experiments."""

from __future__ import annotations

import dataclasses
import enum
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import NoAnswered, UnknownMode
from .qparse import Question

__all__ = [
    "ImageRecord",
    "Exemplar",
    "AugmentMode",
    "generate_exemplars",
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
    """One training instance: target question, extra-question set, answer."""

    image_id: int
    target_question: Question
    extra: tuple[Question, ...]
    answer: str


class AugmentMode(enum.Enum):
    PLAIN = "plain"
    POWERSET = "powerset"
    CONCAT_ONLY = "concat_only"
    POWERSET_NO_EMPTY = "powerset_no_empty"


def _coerce_mode(mode: AugmentMode | str) -> AugmentMode:
    if isinstance(mode, AugmentMode):
        return mode
    try:
        return AugmentMode(mode)
    except ValueError:
        raise UnknownMode(f"unknown augmentation mode {mode!r}") from None


def generate_exemplars(
    record: ImageRecord, mode: AugmentMode | str = AugmentMode.POWERSET
) -> Iterator[Exemplar]:
    """Stream training exemplars for one image.

    plain: one exemplar per answered question, no extras.
    powerset: one exemplar per answered question and per subset of the
        image's full question set, so m answered and n total questions give
        m * 2**n exemplars.  Subsets are enumerated in binary-counter order
        over (answered, then unanswered) questions; bit b selects question b.
    concat_only: one exemplar per answered question with every other
        question as extras.
    powerset_no_empty: powerset without the empty-extras exemplars.
    """
    mode = _coerce_mode(mode)
    if not record.answered:
        raise NoAnswered(f"image {record.image_id} has no answered questions")

    def _generate() -> Iterator[Exemplar]:
        q_all = record.all_questions
        n = len(q_all)
        for target in record.answered:
            answer = target.answer
            assert answer is not None
            if mode is AugmentMode.PLAIN:
                yield Exemplar(record.image_id, target, (), answer)
            elif mode is AugmentMode.CONCAT_ONLY:
                extras = tuple(q for q in q_all if q.id != target.id)
                yield Exemplar(record.image_id, target, extras, answer)
            else:
                start = 1 if mode is AugmentMode.POWERSET_NO_EMPTY else 0
                for mask in range(start, 2**n):
                    extras = tuple(q_all[b] for b in range(n) if mask >> b & 1)
                    yield Exemplar(record.image_id, target, extras, answer)

    return _generate()


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
