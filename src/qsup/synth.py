"""Seeded synthetic datasets for training sanity checks and experiments.

Two constructions:

* a linearly separable set where one bag-of-words token in the target
  question determines the answer, and
* a paired set where the answer needs both the image feature (color) and an
  unanswered question (shape), so models that ignore extra questions top out
  at the color marginal.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from .augment import ImageRecord
from .model import LinearModel, predict_images
from .qparse import Question
from .vocab import Vocabulary

__all__ = [
    "make_separable_dataset",
    "make_pair_dataset",
    "answer_accuracy",
    "majority_baseline",
]

_FILLERS = ["what", "is", "the", "thing", "near", "shown", "object", "in", "picture"]


def make_separable_dataset(
    n_images: int, seed: int, d_img: int = 4
) -> tuple[list[ImageRecord], dict[int, np.ndarray]]:
    """One answered question per image; the keyword token decides the answer."""
    rng = np.random.default_rng(seed)
    records = []
    features = {}
    for i in range(n_images):
        keyword = "left" if rng.integers(2) == 0 else "right"
        fillers = rng.choice(_FILLERS, size=3, replace=True)
        text = f"{fillers[0]} {fillers[1]} {keyword} {fillers[2]}"
        question = Question(f"q{i}", i, text, answer=keyword)
        records.append(ImageRecord(image_id=i, answered=(question,)))
        features[i] = rng.normal(size=d_img)
    return records, features


def make_pair_dataset(
    n_images: int, seed: int, id_offset: int = 0
) -> tuple[list[ImageRecord], dict[int, np.ndarray]]:
    """Answer = color (in the image feature) + shape (in an unanswered question).

    The target question is uninformative, so a model that never sees the
    extra question can at best recover the color half of the answer.
    """
    rng = np.random.default_rng(seed)
    colors = ("red", "blue")
    shapes = ("circle", "square")
    records = []
    features = {}
    for k in range(n_images):
        i = id_offset + k
        color_bit = int(rng.integers(2))
        shape_bit = int(rng.integers(2))
        target = Question(
            f"t{i}", i, "what item is shown here", answer=f"{colors[color_bit]} {shapes[shape_bit]}"
        )
        hint = Question(f"h{i}", i, f"is the item shaped like a {shapes[shape_bit]}")
        records.append(ImageRecord(image_id=i, answered=(target,), unanswered=(hint,)))
        feat = np.zeros(4)
        feat[color_bit] = 1.0
        feat[2:] = 0.1 * rng.normal(size=2)
        features[i] = feat
    return records, features


def answer_accuracy(
    model: LinearModel,
    vocab: Vocabulary,
    records: Sequence[ImageRecord],
    features: Mapping[int, np.ndarray],
    use_extras: bool = False,
) -> float:
    """Exact-match accuracy over every answered question in the records;
    with ``use_extras`` a question's extras are the other questions of its image."""
    records = [record for record in records if record.answered]
    results = predict_images(model, vocab, ((features[r.image_id], r.all_questions)
                                            for r in records), use_extras)
    asked = (q for r in records for q in r.all_questions)
    # the unanswered questions have no answer
    hits = [answer == q.answer for (answer, _), q in zip(results, asked) if q.answer is not None]
    return sum(hits) / len(hits) if hits else 0.0


def majority_baseline(records: Sequence[ImageRecord]) -> float:
    """Accuracy of always predicting the most frequent answer."""
    counts: dict[str, int] = {}
    total = 0
    for record in records:
        for q in record.answered:
            counts[q.answer] = counts.get(q.answer, 0) + 1
            total += 1
    return max(counts.values()) / total if total else 0.0
