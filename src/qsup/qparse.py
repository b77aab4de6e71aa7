"""Rule-based extraction of object-class labels from visual questions.

A question is tokenized once (``bytes.translate`` drops every ASCII
character that is neither alphanumeric, whitespace nor "-"; other text goes
through one precompiled regex) and gets a type (confirmed / unconfirmed) by
longest-prefix match against a fixed table of question-type phrases, one
dict lookup per length of a phrase that starts with its first token.
Confirmed questions are then scanned for the 80 target object classes over
lemmas from a bounded per-process cache: multi-word classes and multi-word
synonyms match as exact-order n-grams, single words match against names,
synonyms and super-category members, and a matched phrase class suppresses
its colliding one-word class so that "teddy bear" never also signals "bear".
Every text file the package reads goes through ``read_text`` (UTF-8, else a
ParseError); every JSON and line output, through ``write_json``/``write_lines``.
"""

from __future__ import annotations

import enum
import functools
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .errors import MalformedQuestion, MixedImages, ParseError

if TYPE_CHECKING:
    import numpy as np

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
    "read_text",
    "write_json",
    "write_lines",
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


_DROPPED_CHARS = re.compile(r"[^\w\s-]|_")  # "_" is a regex word character, not alphanumeric
_ASCII_DROPPED = bytes(c for c in range(128) if _DROPPED_CHARS.match(chr(c)))  # for translate


def tokenize(text: str) -> list[str]:
    """Lowercase tokens: a character is kept if ``str.isalnum()`` or "-", splits
    tokens if ``str.isspace()`` and is dropped otherwise; "-" is then stripped
    from each token's ends, so intra-word hyphens survive."""
    if text.isascii():
        words = text.lower().encode().translate(None, _ASCII_DROPPED).decode().split()
        if "-" not in text:
            return words
    else:
        words = _DROPPED_CHARS.sub("", text.lower()).split()
    return [tok for tok in (w.strip("-") for w in words) if tok]


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


# Question tokens follow a Zipf law, so most lookups hit; bounded so that a
# stream of novel tokens cannot grow the cache without limit.
@functools.lru_cache(maxsize=1 << 16)
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
    # token tuple -> type; first token -> the lengths of the tuples it starts, longest first
    _prefixes: dict[tuple[str, ...], QuestionType] = field(init=False, repr=False, compare=False)
    _lengths: dict[str, list[int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # Phrases that split to the same tokens ("what is", "what  is") share
        # a key; the first listed wins, confirmed before unconfirmed.
        prefixes: dict[tuple[str, ...], QuestionType] = {}
        pairs = [(p, QuestionType.CONFIRMED) for p in self.confirmed]
        for phrase, qtype in pairs + [(p, QuestionType.UNCONFIRMED) for p in self.unconfirmed]:
            if phrase != phrase.strip() or phrase != phrase.lower():
                raise ValueError(f"{qtype.value} entry {phrase!r} must be lowercase and trimmed")
            prefixes.setdefault(tuple(phrase.split()), qtype)
        overlap = set(self.confirmed) & set(self.unconfirmed)
        if overlap:
            raise ValueError(f"phrases in both lists: {sorted(overlap)}")
        object.__setattr__(self, "_prefixes", prefixes)
        lengths: dict[str, set[int]] = {}
        for key in filter(None, prefixes):
            lengths.setdefault(key[0], set()).add(len(key))
        object.__setattr__(self, "_lengths", {w: sorted(ns)[::-1] for w, ns in lengths.items()})


def classify_question_type(question: Question, table: QuestionTypeTable) -> QuestionType:
    """Longest-prefix match over both lists; no match is unconfirmed."""
    return _question_type(tokenize(question.text), table)


def _question_type(tokens: list[str], table: QuestionTypeTable) -> QuestionType:
    if tokens:
        for n in table._lengths.get(tokens[0], ()):
            if n <= len(tokens):
                qtype = table._prefixes.get(tuple(tokens[:n]))
                if qtype is not None:
                    return qtype
    # only the empty phrase, which splits to no tokens, prefixes every question
    return table._prefixes.get((), QuestionType.UNCONFIRMED)


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
    single-word term, ``phrase_starts`` the first lemma of every phrase,
    ``collisions`` the exclusivity set of each class that declares one.
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
        self.phrase_starts = frozenset(k[0] for k in self.phrase_map)
        self.collisions = {c.name: c.collides for c in classes if c.collides}


@dataclass(frozen=True)
class LabelSet:
    """Set of extracted class names plus its binary vector in canonical order."""

    present: frozenset[str]
    classes: tuple[str, ...]

    def __post_init__(self):
        unknown = self.present.difference(self.classes)
        if unknown:
            raise ValueError(f"labels outside the vocabulary: {sorted(unknown)}")

    @property
    def as_vector(self) -> np.ndarray:
        import numpy as np
        return np.array([1 if c in self.present else 0 for c in self.classes], dtype=np.int8)


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

    lemmas: list[str | None] = list(map(normalize_token, tokens))
    phrases = set()
    if not vocab.phrase_starts.isdisjoint(lemmas):
        # a matched phrase's lemmas become None, which no table holds
        starts = [i for i, lemma in enumerate(lemmas) if lemma in vocab.phrase_starts]
        for n in range(min(vocab.max_phrase_len, len(lemmas)), 1, -1):
            for i in starts:
                if i + n <= len(lemmas):
                    cls_name = vocab.phrase_map.get(tuple(lemmas[i : i + n]))
                    if cls_name is not None:
                        phrases.add(cls_name)
                        lemmas[i : i + n] = [None] * n
    word_map = vocab.word_map
    if adjective_filter:  # kept before a matched phrase, the end, a function word or itself
        found = {word_map[lemma] for lemma, nxt in zip(lemmas, lemmas[1:] + [None])
                 if lemma in word_map and (nxt is None or nxt in _FUNCTION_WORDS or nxt == lemma)}
    else:
        found = {word_map[lemma] for lemma in lemmas if lemma in word_map}
    found |= phrases

    # Exclusivity is question-wide: however a class matched, the classes it
    # collides with are dropped so the two never co-occur.
    for name in found.intersection(vocab.collisions):
        found -= vocab.collisions[name]
    return LabelSet(frozenset(found), vocab.class_names)


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


def load_question_types(path: str | Path) -> QuestionTypeTable:
    """Load a question-type table from its text-file form."""
    return _parse_question_types(read_text(path), str(path))


def load_object_vocabulary(path: str | Path) -> ObjectVocabulary:
    """Load an object vocabulary from its text-file form."""
    return _parse_object_vocab(read_text(path), str(path))


def default_question_types() -> QuestionTypeTable:
    """The packaged question-type table."""
    return load_question_types(Path(__file__).with_name("data") / "question_types.txt")


def default_object_vocabulary() -> ObjectVocabulary:
    """The packaged 80-class object vocabulary."""
    return load_object_vocabulary(Path(__file__).with_name("data") / "object_vocab.txt")


# ---------------------------------------------------------------------------
# text files: the one reader of every text input, the two writers of every output


def read_text(path: str | Path) -> str:
    """UTF-8 text, newlines translated; bytes that do not decode are a ParseError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc


def write_json(path: str | Path, payload, **options) -> None:
    """JSON with indent 1 and a final newline; ``options`` go to ``json.dumps``."""
    write_lines(path, [json.dumps(payload, indent=1, **options)])


def write_lines(path: str | Path, lines: Iterable[str]) -> int:
    """Each line plus a newline, as UTF-8 text; the number of lines written."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for count, line in enumerate(lines, start=1):
            fh.write(line + "\n")
    return count
