"""Evaluation statistics: extraction precision/recall, max-fusion and mAP,
answer-type accuracy breakdown, and bootstrap confidence intervals."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import DimMismatch, EmptyAnswer, EmptyVector, LengthMismatch
from .qparse import LabelSet

__all__ = [
    "ClassPR",
    "PrReport",
    "AnswerType",
    "AccuracyReport",
    "per_class_pr",
    "fuse_max",
    "mean_average_precision",
    "classify_answer_type",
    "vqa_accuracy",
    "correct_flags",
    "bootstrap_ci",
]


@dataclass(frozen=True)
class ClassPR:
    precision: float
    recall: float
    support: int


@dataclass(frozen=True)
class PrReport:
    """Per-class precision/recall plus unweighted means over all classes."""

    per_class: Mapping[str, ClassPR]
    mean_precision: float
    mean_recall: float


def per_class_pr(predicted: Sequence[LabelSet], truth: Sequence[LabelSet]) -> PrReport:
    """Precision and recall per class over aligned image label sets.

    Classes never predicted get precision 0; classes with zero support get
    recall 0.  The means are unweighted over every class in the vocabulary.
    """
    if len(predicted) != len(truth):
        raise LengthMismatch(f"{len(predicted)} predictions vs {len(truth)} truths")
    if not predicted:
        raise LengthMismatch("need at least one image")
    classes = predicted[0].classes
    for ls in list(predicted) + list(truth):
        if ls.classes != classes:
            raise LengthMismatch("label sets use different class vocabularies")

    per_class = {}
    for cls in classes:
        tp = fp = fn = 0
        for pred, true in zip(predicted, truth):
            p = cls in pred.present
            t = cls in true.present
            tp += p and t
            fp += p and not t
            fn += t and not p
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        per_class[cls] = ClassPR(precision, recall, tp + fn)
    mean_p = float(np.mean([c.precision for c in per_class.values()]))
    mean_r = float(np.mean([c.recall for c in per_class.values()]))
    return PrReport(per_class, mean_p, mean_r)


def fuse_max(x_o: np.ndarray, x_c: np.ndarray) -> np.ndarray:
    """Elementwise max of the question-derived vector and classifier scores."""
    x_o = np.asarray(x_o, dtype=np.float64)
    x_c = np.asarray(x_c, dtype=np.float64)
    if x_o.shape != x_c.shape:
        raise DimMismatch(f"shapes {x_o.shape} and {x_c.shape} differ")
    return np.maximum(x_o, x_c)


def mean_average_precision(
    scores: Mapping[int, np.ndarray],
    truth: Mapping[int, np.ndarray],
    classes: Sequence[str],
) -> tuple[dict[str, float | None], float]:
    """Non-interpolated average precision per class and its unweighted mean.

    Images are ranked per class by descending score, ties broken by
    ascending image id; AP averages precision-at-rank over the positive
    ranks.  Classes with no positive image get AP None and are excluded
    from the mean; the mean is 0.0 if no class has positives.
    """
    if set(scores) != set(truth):
        raise LengthMismatch("score and truth image ids differ")
    ids = sorted(scores)
    n_classes = len(classes)
    for i in ids:
        if len(scores[i]) != n_classes or len(truth[i]) != n_classes:
            raise DimMismatch(f"image {i}: vectors must have length {n_classes}")

    per_class: dict[str, float | None] = {}
    for j, cls in enumerate(classes):
        ranked = sorted(ids, key=lambda i: (-float(scores[i][j]), i))
        n_pos = sum(int(truth[i][j]) for i in ids)
        if n_pos == 0:
            per_class[cls] = None
            continue
        hits = 0
        ap = 0.0
        for rank, i in enumerate(ranked, start=1):
            if truth[i][j]:
                hits += 1
                ap += hits / rank
        per_class[cls] = ap / n_pos
    valid = [ap for ap in per_class.values() if ap is not None]
    return per_class, float(np.mean(valid)) if valid else 0.0


class AnswerType(enum.Enum):
    NUMBER = "number"
    YES_NO = "yes/no"
    WORD = "word"


_NUMBER_WORDS = {
    "zero", "one", "two", "three", "four", "five",
    "six", "seven", "eight", "nine", "ten",
}


def classify_answer_type(answer: str) -> AnswerType:
    """Partition an answer into number / yes-no / word.

    Numbers are ASCII digit strings or the words zero through ten; larger
    spelled-out numbers count as words.
    """
    normalized = answer.strip().lower()
    if not normalized:
        raise EmptyAnswer("cannot classify an empty answer")
    if normalized in ("yes", "no"):
        return AnswerType.YES_NO
    if (normalized.isascii() and normalized.isdigit()) or normalized in _NUMBER_WORDS:
        return AnswerType.NUMBER
    return AnswerType.WORD


@dataclass(frozen=True)
class AccuracyReport:
    """Overall accuracy plus the per-answer-type cells that make it up."""

    overall: float
    by_type: Mapping[AnswerType, float]
    n_examples: Mapping[AnswerType, int]


def _normalize_answer(answer: str) -> str:
    words = answer.strip().lower().split()
    if len(words) > 1 and words[0] in ("a", "an", "the"):
        words = words[1:]
    return " ".join(words)


def _answer_match(pred: str, truth: str) -> bool:
    return _normalize_answer(pred) == _normalize_answer(truth)


def vqa_accuracy(
    predictions: Sequence[tuple[str, str | Sequence[str]]],
    consensus: bool = False,
) -> AccuracyReport:
    """Accuracy of predicted answers, broken down by ground-truth answer type.

    Matching is case-insensitive after trimming and leading-article removal.
    With ``consensus`` the ground truth may be a list of human answers and
    each example scores min(matching answers / 3, 1); otherwise a single
    ground-truth string is matched exactly.
    """
    if not predictions:
        raise ValueError("predictions must be non-empty")
    scores: dict[AnswerType, list[float]] = {t: [] for t in AnswerType}
    for pred, truth in predictions:
        if isinstance(truth, str):
            truths = [truth]
        else:
            truths = list(truth)
            if not truths:
                raise EmptyAnswer("ground truth has no answers")
        answer_type = classify_answer_type(truths[0])
        if consensus:
            matches = sum(_answer_match(pred, t) for t in truths)
            score = min(matches / 3.0, 1.0)
        else:
            score = float(_answer_match(pred, truths[0]))
        scores[answer_type].append(score)

    by_type = {t: float(np.mean(v)) for t, v in scores.items() if v}
    n_examples = {t: len(v) for t, v in scores.items() if v}
    overall = float(np.mean([s for v in scores.values() for s in v]))
    return AccuracyReport(overall, by_type, n_examples)


def correct_flags(predictions: Sequence[tuple[str, str]]) -> list[int]:
    """1 for each (predicted, ground-truth) answer pair that matches under
    ``vqa_accuracy``'s single-answer rule, else 0."""
    return [int(_answer_match(pred, truth)) for pred, truth in predictions]


def bootstrap_ci(
    correct: Sequence[int] | np.ndarray,
    confidence: float,
    resamples: int,
    seed: int,
) -> tuple[float, float]:
    """Percentile bootstrap interval for mean accuracy.

    Each resample draws n of n with replacement using its own generator
    seeded with (seed + resample index), so the result does not depend on
    how resamples are scheduled.  The bounds are linear-interpolation
    percentiles of the resampled accuracies.
    """
    data = np.asarray(correct, dtype=np.float64)
    if data.size == 0:
        raise EmptyVector("cannot bootstrap an empty vector")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must lie strictly between 0 and 1")
    if resamples < 1000:
        raise ValueError("resamples must be >= 1000")
    n = data.size
    accs = np.empty(resamples)
    for i in range(resamples):
        rng = np.random.default_rng(seed + i)
        accs[i] = data[rng.integers(0, n, n)].mean()
    alpha = (1.0 - confidence) / 2.0
    lower, upper = np.percentile(accs, [100 * alpha, 100 * (1 - alpha)], method="linear")
    return float(lower), float(upper)
