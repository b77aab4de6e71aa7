"""Rule-based extraction of object-class labels from visual questions.

A question first gets a type (confirmed / unconfirmed) by longest-prefix
match against a fixed table of question-type phrases.  Confirmed questions
are then scanned for the 80 target object classes: multi-word classes and
multi-word synonyms match as exact-order n-grams over lemmatized tokens,
single words match against names, synonyms and super-category members, and
a matched phrase class suppresses its colliding one-word class so that
"teddy bear" never also signals "bear".
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from importlib import resources
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import MalformedQuestion, MixedImages, ParseError

__all__ = [
    "Question",
    "QuestionType",
    "QuestionTypeTable",
    "ObjectClass",
    "ObjectVocabulary",
    "LabelSet",
    "tokenize",
    "normalize_token",
    "classify_question_type",
    "extract_objects",
    "extract_objects_multi",
    "load_question_types",
    "load_object_vocabulary",
    "default_question_types",
    "default_object_vocabulary",
]


@dataclass(frozen=True)
class Question:
    """One visual question, optionally with its answer and answer choices."""

    id: str | int
    image_id: int
    text: str
    answer: str | None = None
    choices: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.choices is not None:
            object.__setattr__(self, "choices", tuple(self.choices))
            if self.answer is not None and self.answer not in self.choices:
                raise ValueError(
                    f"question {self.id!r}: answer {self.answer!r} not among choices"
                )


class QuestionType(enum.Enum):
    CONFIRMED = "confirmed"
    UNCONFIRMED = "unconfirmed"


# ---------------------------------------------------------------------------
# tokenization and lemmatization


def tokenize(text: str) -> list[str]:
    """Lowercase tokens with punctuation stripped; intra-word hyphens survive."""
    chars = []
    for ch in text.lower():
        if ch.isalnum() or ch == "-":
            chars.append(ch)
        elif ch.isspace():
            chars.append(" ")
    tokens = []
    for raw in "".join(chars).split():
        tok = raw.strip("-")
        if tok:
            tokens.append(tok)
    return tokens


# Irregular plural -> singular.  Only forms that matter for matching everyday
# object nouns; anything absent falls through to the suffix rules.
_IRREGULAR_PLURALS = {
    "people": "person",
    "men": "man",
    "women": "woman",
    "children": "child",
    "mice": "mouse",
    "geese": "goose",
    "feet": "foot",
    "teeth": "tooth",
    "knives": "knife",
    "wives": "wife",
    "loaves": "loaf",
    "leaves": "leaf",
    "wolves": "wolf",
    "halves": "half",
    "calves": "calf",
    "shelves": "shelf",
    "buses": "bus",
    "busses": "bus",
    "skis": "ski",
}

# Words ending in s that are not plurals; never singularized.
_NOT_PLURAL = {
    "is", "this", "his", "has", "was", "does", "yes", "its", "as", "us",
    "scissors", "gas", "glass", "grass", "dress", "chess", "less",
}

# Documented alternate spellings mapped onto the canonical form.
_SPELL_VARIANTS = {
    "dryer": "drier",
    "doughnut": "donut",
}


def _singularize(token: str) -> str:
    if token in _NOT_PLURAL:
        return token
    if token in _IRREGULAR_PLURALS:
        return _IRREGULAR_PLURALS[token]
    if len(token) > 3 and token.endswith(("sses", "ches", "shes", "xes", "zes")):
        return token[:-2]
    if len(token) > 3 and token.endswith("ies"):
        return token[:-3] + "y"
    if len(token) > 2 and token.endswith("s") and not token.endswith(("ss", "us", "is")):
        return token[:-1]
    return token


def normalize_token(token: str) -> str:
    """Map a lowercase token to its lemma: singular form, canonical spelling."""
    lemma = _singularize(token)
    return _SPELL_VARIANTS.get(lemma, lemma)


def _normalize_phrase(phrase: str) -> tuple[str, ...]:
    return tuple(normalize_token(t) for t in tokenize(phrase))


# ---------------------------------------------------------------------------
# question-type classification


@dataclass(frozen=True)
class QuestionTypeTable:
    """Prefix phrases that do (confirmed) or do not (unconfirmed) imply objects."""

    confirmed: tuple[str, ...]
    unconfirmed: tuple[str, ...]
    # (token tuple, type) pairs sorted longest-first, built once.
    _entries: tuple[tuple[tuple[str, ...], QuestionType], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        for name, entries in (("confirmed", self.confirmed), ("unconfirmed", self.unconfirmed)):
            for phrase in entries:
                if phrase != phrase.strip() or phrase != phrase.lower():
                    raise ValueError(f"{name} entry {phrase!r} must be lowercase and trimmed")
        overlap = set(self.confirmed) & set(self.unconfirmed)
        if overlap:
            raise ValueError(f"phrases in both lists: {sorted(overlap)}")
        entries = [(tuple(p.split()), QuestionType.CONFIRMED) for p in self.confirmed]
        entries += [(tuple(p.split()), QuestionType.UNCONFIRMED) for p in self.unconfirmed]
        entries.sort(key=lambda e: len(e[0]), reverse=True)
        object.__setattr__(self, "_entries", tuple(entries))


def classify_question_type(question: Question, table: QuestionTypeTable) -> QuestionType:
    """Longest-prefix match over both lists; no match is unconfirmed."""
    return _question_type(tokenize(question.text), table)


def _question_type(tokens: list[str], table: QuestionTypeTable) -> QuestionType:
    for prefix, qtype in table._entries:
        if len(prefix) <= len(tokens) and tuple(tokens[: len(prefix)]) == prefix:
            return qtype
    return QuestionType.UNCONFIRMED


# ---------------------------------------------------------------------------
# object vocabulary


@dataclass(frozen=True)
class ObjectClass:
    name: str
    synonyms: frozenset[str] = frozenset()
    subterms: frozenset[str] = frozenset()
    collides: frozenset[str] = frozenset()

    @property
    def is_phrase(self) -> bool:
        return " " in self.name


class ObjectVocabulary:
    """The 80 target classes plus the lookup tables used for matching.

    ``class_names`` fixes the canonical order of label vectors.  Matching
    tables are keyed by lemmatized token tuples: ``phrase_map`` holds every
    multi-word term (names, synonyms, subterms), ``word_map`` every
    single-word term.
    """

    def __init__(self, classes: Sequence[ObjectClass]):
        names = [c.name for c in classes]
        if len(set(names)) != len(names):
            raise ValueError("duplicate class names")
        self.classes: tuple[ObjectClass, ...] = tuple(classes)
        self.class_names: tuple[str, ...] = tuple(names)
        self.class_index: Mapping[str, int] = {n: i for i, n in enumerate(names)}

        self.word_map: dict[str, str] = {}
        self.phrase_map: dict[tuple[str, ...], str] = {}
        name_lemmas = {_normalize_phrase(c.name): c.name for c in classes}
        for cls in classes:
            for term in {cls.name} | set(cls.synonyms) | set(cls.subterms):
                lemmas = _normalize_phrase(term)
                if not lemmas:
                    raise ValueError(f"class {cls.name!r}: empty term {term!r}")
                target = self.phrase_map if len(lemmas) > 1 else self.word_map
                key = lemmas if len(lemmas) > 1 else lemmas[0]
                owner = target.get(key)
                if owner is not None and owner != cls.name:
                    raise ValueError(f"term {term!r} maps to both {owner!r} and {cls.name!r}")
                target[key] = cls.name
        # A phrase class must declare exclusivity for every component word
        # that is itself a class name.
        for cls in classes:
            if not cls.is_phrase:
                continue
            for word in _normalize_phrase(cls.name):
                hit = name_lemmas.get((word,))
                if hit is not None and hit != cls.name and hit not in cls.collides:
                    raise ValueError(
                        f"phrase class {cls.name!r} contains class name {hit!r} "
                        "but does not list it under excl"
                    )
        self.max_phrase_len = max((len(k) for k in self.phrase_map), default=1)

    def __len__(self) -> int:
        return len(self.classes)

    def __iter__(self):
        return iter(self.classes)


@dataclass(frozen=True)
class LabelSet:
    """Set of extracted class names plus its binary vector in canonical order."""

    present: frozenset[str]
    classes: tuple[str, ...]

    def __post_init__(self):
        unknown = self.present - set(self.classes)
        if unknown:
            raise ValueError(f"labels outside the vocabulary: {sorted(unknown)}")

    @property
    def as_vector(self) -> np.ndarray:
        return np.array([1 if c in self.present else 0 for c in self.classes], dtype=np.int8)

    def __or__(self, other: "LabelSet") -> "LabelSet":
        if self.classes != other.classes:
            raise ValueError("label sets use different vocabularies")
        return LabelSet(self.present | other.present, self.classes)


# ---------------------------------------------------------------------------
# extraction

# Tokens that never act as the noun following an attribute-like class word;
# used only by the optional adjective filter.
_FUNCTION_WORDS = {
    "the", "a", "an", "is", "are", "was", "were", "be", "been", "being",
    "do", "does", "did", "have", "has", "had", "of", "in", "on", "at",
    "to", "for", "with", "and", "or", "but", "it", "its", "this", "that",
    "these", "those", "there", "here", "he", "she", "they", "you", "i",
    "we", "his", "her", "their", "your", "my", "our", "one", "not", "no",
}


def extract_objects(
    question: Question,
    vocab: ObjectVocabulary,
    table: QuestionTypeTable,
    adjective_filter: bool = False,
) -> LabelSet:
    """Extract the object classes a single question signals.

    Unconfirmed questions signal nothing.  Phrase terms are matched first
    (longest n-grams win and consume their tokens), then single-word terms.
    Classes listed in a matched class's exclusivity set are removed at the
    end, whatever route produced either match.  With ``adjective_filter`` a
    single-word match is skipped when the next token looks like the noun it
    modifies ("orange cones").
    """
    if not question.text.strip():
        raise MalformedQuestion(f"question {question.id!r} has empty text")
    tokens = tokenize(question.text)
    if _question_type(tokens, table) is QuestionType.UNCONFIRMED:
        return LabelSet(frozenset(), vocab.class_names)

    lemmas = [normalize_token(t) for t in tokens]
    found: set[str] = set()
    consumed = [False] * len(lemmas)

    for n in range(min(vocab.max_phrase_len, len(lemmas)), 1, -1):
        for i in range(len(lemmas) - n + 1):
            if any(consumed[i : i + n]):
                continue
            cls_name = vocab.phrase_map.get(tuple(lemmas[i : i + n]))
            if cls_name is None:
                continue
            found.add(cls_name)
            for j in range(i, i + n):
                consumed[j] = True

    for i, lemma in enumerate(lemmas):
        if consumed[i]:
            continue
        cls_name = vocab.word_map.get(lemma)
        if cls_name is None:
            continue
        if adjective_filter and i + 1 < len(lemmas):
            nxt = lemmas[i + 1]
            if not consumed[i + 1] and nxt not in _FUNCTION_WORDS and nxt != lemma:
                continue
        found.add(cls_name)

    # Exclusivity is question-wide: however a class matched, the classes it
    # collides with are dropped so the two never co-occur.
    suppressed: set[str] = set()
    for name in found:
        suppressed |= vocab.classes[vocab.class_index[name]].collides
    return LabelSet(frozenset(found - suppressed), vocab.class_names)


def extract_objects_multi(
    questions: Sequence[Question],
    vocab: ObjectVocabulary,
    table: QuestionTypeTable,
    adjective_filter: bool = False,
) -> LabelSet:
    """Union of per-question extractions for one image."""
    image_ids = {q.image_id for q in questions}
    if len(image_ids) > 1:
        raise MixedImages(f"questions span images {sorted(image_ids)}")
    found: set[str] = set()
    for q in questions:
        found |= extract_objects(q, vocab, table, adjective_filter).present
    return LabelSet(frozenset(found), vocab.class_names)


# ---------------------------------------------------------------------------
# table loading


def _data_lines(text: str) -> Iterable[tuple[int, str]]:
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _parse_question_types(text: str, source: str) -> QuestionTypeTable:
    sections: dict[str, list[str]] = {"confirmed": [], "unconfirmed": []}
    current: list[str] | None = None
    for lineno, line in _data_lines(text):
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1]
            if name not in sections:
                raise ParseError(f"{source}:{lineno}: unknown section {name!r}")
            current = sections[name]
        elif current is None:
            raise ParseError(f"{source}:{lineno}: phrase before any section header")
        else:
            current.append(line.lower())
    if not sections["confirmed"] or not sections["unconfirmed"]:
        raise ParseError(f"{source}: both sections must be non-empty")
    try:
        return QuestionTypeTable(tuple(sections["confirmed"]), tuple(sections["unconfirmed"]))
    except ValueError as exc:
        raise ParseError(f"{source}: {exc}") from exc


def _parse_object_vocab(text: str, source: str) -> ObjectVocabulary:
    classes = []
    for lineno, line in _data_lines(text):
        parts = [p.strip() for p in line.split("|")]
        name = parts[0]
        if not name:
            raise ParseError(f"{source}:{lineno}: missing class name")
        fields = {"syn": frozenset(), "sub": frozenset(), "excl": frozenset()}
        for part in parts[1:]:
            key, sep, values = part.partition(":")
            key = key.strip()
            if not sep or key not in fields:
                raise ParseError(f"{source}:{lineno}: bad field {part!r}")
            fields[key] = frozenset(v.strip() for v in values.split(",") if v.strip())
        classes.append(
            ObjectClass(
                name=name,
                synonyms=fields["syn"],
                subterms=fields["sub"],
                collides=fields["excl"],
            )
        )
    try:
        return ObjectVocabulary(classes)
    except ValueError as exc:
        raise ParseError(f"{source}: {exc}") from exc


def load_question_types(path: str) -> QuestionTypeTable:
    """Load a question-type table from its text-file form."""
    with open(path, encoding="utf-8") as fh:
        return _parse_question_types(fh.read(), path)


def load_object_vocabulary(path: str) -> ObjectVocabulary:
    """Load an object vocabulary from its text-file form."""
    with open(path, encoding="utf-8") as fh:
        return _parse_object_vocab(fh.read(), path)


def default_question_types() -> QuestionTypeTable:
    """The packaged question-type table."""
    text = resources.files("qsup").joinpath("data/question_types.txt").read_text("utf-8")
    return _parse_question_types(text, "qsup/data/question_types.txt")


def default_object_vocabulary() -> ObjectVocabulary:
    """The packaged 80-class object vocabulary."""
    text = resources.files("qsup").joinpath("data/object_vocab.txt").read_text("utf-8")
    return _parse_object_vocab(text, "qsup/data/object_vocab.txt")
