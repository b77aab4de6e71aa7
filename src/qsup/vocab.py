"""Text vocabularies, bag-of-words features, tf-idf ranking and word targets."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import EmptyCorpus, KTooLarge, ParseError
from .modes import WordTargetMode, coerce
from .qparse import (
    ObjectVocabulary,
    Question,
    QuestionTypeTable,
    extract_objects_multi,
    read_text,
    tokenize,
    write_lines,
)

__all__ = [
    "Vocabulary",
    "BowVector",
    "WordTarget",
    "WordTargetMode",
    "build_vocabulary",
    "bow_featurize",
    "token_positions",
    "tfidf_rank",
    "word_targets",
    "save_vocabulary",
    "load_vocabulary",
]


class Vocabulary:
    """Ordered set of unique words with dense positions 0..n-1."""

    def __init__(self, words: Sequence[str]):
        self.words: tuple[str, ...] = tuple(words)
        if len(set(self.words)) != len(self.words):
            raise ValueError("vocabulary words must be unique")
        self.index: Mapping[str, int] = {w: i for i, w in enumerate(self.words)}

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, word: str) -> bool:
        return word in self.index

    def __eq__(self, other) -> bool:
        return isinstance(other, Vocabulary) and self.words == other.words

    def __repr__(self) -> str:
        return f"Vocabulary({len(self.words)} words)"


@dataclass(frozen=True)
class BowVector:
    """Sparse token counts over a fixed vocabulary."""

    entries: Mapping[int, int]
    vocab_size: int

    def __post_init__(self):
        object.__setattr__(self, "entries", dict(self.entries))
        for pos, count in self.entries.items():
            if not 0 <= pos < self.vocab_size:
                raise ValueError(f"position {pos} outside vocabulary of {self.vocab_size}")
            if count < 1:
                raise ValueError(f"count {count} at position {pos} must be >= 1")

    def total(self) -> int:
        return sum(self.entries.values())


def build_vocabulary(corpus: Sequence[Question], min_count: int = 1) -> Vocabulary:
    """All tokens with frequency >= min_count, most frequent first, ties A-Z.

    Each distinct question text is tokenized once and counts once per question.
    """
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    if not corpus:
        raise EmptyCorpus("cannot build a vocabulary from zero questions")
    counts = Counter()
    for text, n in Counter(q.text for q in corpus).items():
        for tok in tokenize(text):
            counts[tok] += n
    kept = sorted(
        (w for w, c in counts.items() if c >= min_count),
        key=lambda w: (-counts[w], w),
    )
    return Vocabulary(kept)


def token_positions(text: str, vocab: Vocabulary) -> list[int]:
    """Vocabulary positions of the in-vocabulary tokens of ``text``, in token order."""
    index = vocab.index
    return [index[tok] for tok in tokenize(text) if tok in index]


def bow_featurize(text: str, vocab: Vocabulary) -> BowVector:
    """Count in-vocabulary tokens of ``text``; out-of-vocabulary tokens are dropped."""
    return BowVector(Counter(token_positions(text, vocab)), len(vocab))


def _documents_by_image(corpus: Sequence[Question]) -> list[str]:
    # One document per image: all of its question texts concatenated.
    grouped: dict[int, list[str]] = {}
    for q in corpus:
        grouped.setdefault(q.image_id, []).append(q.text)
    return [" ".join(texts) for texts in grouped.values()]


def tfidf_rank(corpus: Sequence[Question], vocab: Vocabulary, k: int) -> list[str]:
    """Top-k vocabulary words by tf * idf.

    tf is the total corpus count of the word; idf is ln(N / (1 + df)) where a
    document is the concatenation of one image's questions and df counts the
    documents containing the word.  Ties break lexicographically.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if k > len(vocab):
        raise KTooLarge(f"k={k} exceeds vocabulary size {len(vocab)}")
    if not corpus:
        raise EmptyCorpus("cannot rank words over zero questions")
    docs = _documents_by_image(corpus)
    tf = Counter()
    df = Counter()
    for doc in docs:
        tokens = [t for t in tokenize(doc) if t in vocab]
        tf.update(tokens)
        df.update(set(tokens))
    n_docs = len(docs)
    scores = {w: tf[w] * math.log(n_docs / (1 + df[w])) for w in vocab.words}
    ranked = sorted(vocab.words, key=lambda w: (-scores[w], w))
    return ranked[:k]


@dataclass(frozen=True)
class WordTarget:
    """Word-presence labels for one image: the ascending label-space
    positions of the words present."""

    image_id: int
    indices: tuple[int, ...]


def word_targets(
    questions_by_image: Mapping[int, Sequence[Question]],
    mode: WordTargetMode | str,
    vocab: Vocabulary | None = None,
    object_vocab: ObjectVocabulary | None = None,
    type_table: QuestionTypeTable | None = None,
) -> tuple[tuple[str, ...], list[WordTarget]]:
    """(words, targets): multi-label word targets per image for visual-model
    finetuning, and the label-space words they index.

    full: the vocabulary words in the image's questions.
    tfidf1024: the same, restricted to the top tf-idf words (at most 1024).
    classes80: the extracted object classes.
    """
    mode = coerce(WordTargetMode, mode, "word-target")
    if mode is WordTargetMode.CLASSES_80:
        if object_vocab is None or type_table is None:
            raise ValueError("classes80 mode needs an object vocabulary and type table")
        position = object_vocab.class_index
        return object_vocab.class_names, [
            WordTarget(image_id, tuple(sorted(position[c] for c in extract_objects_multi(
                list(qs), object_vocab, type_table).present)))
            for image_id, qs in questions_by_image.items()
        ]

    if vocab is None:
        raise ValueError(f"{mode.value} mode needs a vocabulary")
    if mode is WordTargetMode.TFIDF_1024:
        corpus = [q for qs in questions_by_image.values() for q in qs]
        vocab = Vocabulary(tfidf_rank(corpus, vocab, min(1024, len(vocab))))
    return vocab.words, [
        WordTarget(image_id, tuple(sorted(set().union(
            *(token_positions(q.text, vocab) for q in qs)))))
        for image_id, qs in questions_by_image.items()
    ]


def save_vocabulary(vocab: Vocabulary, path: str) -> None:
    """Newline-delimited UTF-8, position = line number."""
    write_lines(path, vocab.words)


def load_vocabulary(path: str) -> Vocabulary:
    """One word per non-empty line of UTF-8; a repeated word is a ParseError."""
    words = [line for line in read_text(path).split("\n") if line]
    repeated = [w for w, n in Counter(words).items() if n > 1]
    if repeated:
        raise ParseError(f"{path}: word {repeated[0]!r} occurs more than once")
    return Vocabulary(words)
