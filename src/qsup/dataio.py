"""Dataset manifests, binary feature/model files, and run configuration.

Binary formats (all integers little-endian, floats IEEE-754 32-bit):

  feature file  "QVFT" | version u32 | count u32 | dim u32 |
                count rows of (image_id u64, dim float32)
  model file    "QSMD" | version u32 | d_img u32 | d_t u32 | d_e u32 |
                n_answers u32 | vocab_size u32 |
                n_answers answers as (byte length u32, UTF-8 bytes) |
                embed_target, embed_extra, fc_weights, fc_bias as
                row-major float32
"""

from __future__ import annotations

import dataclasses
import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Mapping

import numpy as np

from .augment import ImageRecord
from .errors import (
    BadMagic,
    DanglingReference,
    DuplicateId,
    ParseError,
    TruncatedFile,
    VersionMismatch,
)
from .model import LinearModel, TrainConfig
from .qparse import Question

__all__ = [
    "ImageEntry",
    "DatasetManifest",
    "RunConfig",
    "load_dataset",
    "save_dataset",
    "load_vqa_dataset",
    "load_predictions",
    "load_labels",
    "build_image_records",
    "questions_by_image",
    "save_features",
    "load_features",
    "save_model",
    "load_model",
    "load_run_config",
]

FEATURE_MAGIC = b"QVFT"
MODEL_MAGIC = b"QSMD"
FORMAT_VERSION = 1


@dataclass(frozen=True)
class ImageEntry:
    image_id: int
    feature_ref: int
    gt_labels: tuple[str, ...] | None = None


@dataclass(frozen=True)
class DatasetManifest:
    images: tuple[ImageEntry, ...]
    questions: tuple[Question, ...]


# ---------------------------------------------------------------------------
# JSON inputs: every reader checks its fields with _field


def _read_json(path: str | Path, lines: bool = False):
    """The JSON object in ``path``; with ``lines``, a list of (line number,
    object) for each non-blank line of a JSONL file."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    if lines:
        chunks = [(n, c) for n, c in enumerate(text.split("\n"), start=1) if c.strip()]
    else:
        chunks = [(1, text)]
    values = []
    for first, chunk in chunks:
        try:
            value = json.loads(chunk)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}:{first + exc.lineno - 1}: {exc.msg}") from exc
        if not isinstance(value, dict):
            raise ParseError(f"{path}:{first}: expected an object")
        values.append((first, value))
    return values if lines else values[0][1]


_REQUIRED = object()


def _field(record: dict, key: str, kind: tuple, context: str, default=_REQUIRED):
    """``record[key]`` if the check of ``kind``, a (check, what) pair,
    accepts it; an optional field that is absent or null gives ``default``.
    Anything else is a ParseError saying the field must be ``what``."""
    check, what = kind
    value = record.get(key)
    if check(value):
        return value
    if value is None and default is not _REQUIRED:
        return default
    if key not in record:
        raise ParseError(f"{context}: missing field {key!r}")
    raise ParseError(f"{context}: field {key!r} must be {what}")


def _is_int(value) -> bool:
    return type(value) is int  # JSON true decodes to bool, an int subclass


# (check, what) kinds for _field; no check accepts None
_INT = (_is_int, "an integer")
_INDEX = (lambda v: _is_int(v) and v >= 0, "a non-negative integer")
_POSITIVE = (lambda v: _is_int(v) and v >= 1, "an integer >= 1")
_NUMBER = (lambda v: _is_int(v) or (isinstance(v, float) and math.isfinite(v)), "a finite number")
_STR = (lambda v: isinstance(v, str), "a string")
_TEXT = (lambda v: isinstance(v, str) and bool(v.strip()), "a non-empty string")
_ID = (lambda v: type(v) in (str, int), "a string or an integer")
_STRINGS = (
    lambda v: isinstance(v, list) and all(isinstance(s, str) for s in v), "a list of strings"
)
_LIST = (lambda v: isinstance(v, list), "a list")
_OBJECT = (lambda v: isinstance(v, dict), "an object")


def _records(payload: dict, key: str, context: str):
    """(context, record) for each object in the list ``payload[key]``."""
    prefix = f"{context}: {key}"
    for i, record in enumerate(_field(payload, key, _LIST, context, [])):
        if not isinstance(record, dict):
            raise ParseError(f"{prefix}[{i}]: expected an object")
        yield f"{prefix}[{i}]", record


def _parse_question(
    record: dict, context: str, keys=("id", "text", "choices"), answers: dict | None = None
) -> Question:
    """A question from its id, text and choices ``keys``; its answer is the
    record's own ``answer`` or, given ``answers``, looked up there by id."""
    id_key, text_key, choices_key = keys
    qid = _field(record, id_key, _ID, context)
    image_id = _field(record, "image_id", _INT, context)
    text = _field(record, text_key, _TEXT, context)
    choices = _field(record, choices_key, _STRINGS, context, None)
    answer = _field(record, "answer", _STR, context, None) if answers is None else answers.get(qid)
    try:
        return Question(qid, image_id, text, answer, choices)
    except ValueError as exc:
        raise ParseError(f"{context}: {exc}") from exc


def _validate_manifest(images: list[ImageEntry], questions: list[Question]) -> DatasetManifest:
    image_ids = set()
    for entry in images:
        if entry.image_id in image_ids:
            raise ParseError(f"duplicate image_id {entry.image_id}")
        image_ids.add(entry.image_id)
    seen_q = set()
    for q in questions:
        if q.id in seen_q:
            raise ParseError(f"duplicate question id {q.id!r}")
        seen_q.add(q.id)
        if q.image_id not in image_ids:
            raise DanglingReference(
                f"question {q.id!r} references unknown image {q.image_id}"
            )
    return DatasetManifest(tuple(images), tuple(questions))


def load_dataset(path: str | Path) -> DatasetManifest:
    """Read and validate a dataset manifest (native JSON layout)."""
    payload = _read_json(path)
    images = []
    for context, record in _records(payload, "images", path):
        image_id = _field(record, "image_id", _INDEX, context)
        gt = _field(record, "gt_labels", _STRINGS, context, None)
        feature_ref = _field(record, "feature_ref", _INDEX, context, image_id)
        images.append(ImageEntry(image_id, feature_ref, None if gt is None else tuple(gt)))
    questions = [_parse_question(r, context) for context, r in _records(payload, "questions", path)]
    return _validate_manifest(images, questions)


def save_dataset(manifest: DatasetManifest, path: str | Path) -> None:
    payload = {
        "images": [
            {
                "image_id": e.image_id,
                "feature_ref": e.feature_ref,
                **({"gt_labels": list(e.gt_labels)} if e.gt_labels is not None else {}),
            }
            for e in manifest.images
        ],
        "questions": [
            {
                "id": q.id,
                "image_id": q.image_id,
                "text": q.text,
                **({"answer": q.answer} if q.answer is not None else {}),
                **({"choices": list(q.choices)} if q.choices is not None else {}),
            }
            for q in manifest.questions
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def load_vqa_dataset(questions_path: str | Path, annotations_path: str | Path | None = None) -> DatasetManifest:
    """Adapter for the official VQA multiple-choice annotation layout.

    ``questions_path`` holds {"questions": [{question_id, image_id, question,
    multiple_choices?}]}; the optional annotations file holds
    {"annotations": [{question_id, multiple_choice_answer}]}.
    """
    answers: dict = {}
    if annotations_path is not None:
        payload = _read_json(annotations_path)
        for context, record in _records(payload, "annotations", annotations_path):
            qid = _field(record, "question_id", _ID, context)
            answers[qid] = _field(record, "multiple_choice_answer", _STR, context)
    questions = [
        _parse_question(r, context, ("question_id", "question", "multiple_choices"), answers)
        for context, r in _records(_read_json(questions_path), "questions", questions_path)
    ]
    # dict.fromkeys keeps first-appearance order and runs in linear time
    images = [ImageEntry(i, i, None) for i in dict.fromkeys(q.image_id for q in questions)]
    return _validate_manifest(images, questions)


def load_predictions(path: str | Path) -> dict[str | int, str]:
    """Question id -> answer from a predictions JSONL file, one
    {question_id, answer} object per line."""
    predictions = {}
    for lineno, record in _read_json(path, lines=True):
        context = f"{path}:{lineno}"
        qid = _field(record, "question_id", _ID, context)
        predictions[qid] = _field(record, "answer", _STR, context)
    return predictions


def load_labels(path: str | Path) -> dict[int, list[str]]:
    """Image id -> labels from an extracted-labels JSONL file, one
    {image_id, labels} object per line."""
    labels = {}
    for lineno, record in _read_json(path, lines=True):
        context = f"{path}:{lineno}"
        image_id = _field(record, "image_id", _INT, context)
        labels[image_id] = _field(record, "labels", _STRINGS, context)
    return labels


def questions_by_image(manifest: DatasetManifest) -> dict[int, list[Question]]:
    grouped: dict[int, list[Question]] = {e.image_id: [] for e in manifest.images}
    for q in manifest.questions:
        grouped[q.image_id].append(q)
    return grouped


def build_image_records(manifest: DatasetManifest) -> list[ImageRecord]:
    """Group manifest questions into per-image records by answer presence."""
    grouped = questions_by_image(manifest)
    records = []
    for entry in manifest.images:
        qs = grouped[entry.image_id]
        records.append(
            ImageRecord(
                image_id=entry.image_id,
                answered=tuple(q for q in qs if q.answer is not None),
                unanswered=tuple(q for q in qs if q.answer is None),
                feature_ref=entry.feature_ref,
            )
        )
    return records


# ---------------------------------------------------------------------------
# binary helpers


def _read_exact(fh: BinaryIO, size: int, what: str) -> bytes:
    data = fh.read(size)
    if len(data) != size:
        raise TruncatedFile(f"file ended while reading {what}")
    return data


def _check_header(fh: BinaryIO, magic: bytes) -> None:
    got = _read_exact(fh, 4, "magic")
    if got != magic:
        raise BadMagic(f"expected magic {magic!r}, found {got!r}")
    (version,) = struct.unpack("<I", _read_exact(fh, 4, "version"))
    if version != FORMAT_VERSION:
        raise VersionMismatch(f"unsupported format version {version}")


# ---------------------------------------------------------------------------
# feature files


def save_features(features: Mapping[int, np.ndarray], path: str | Path, dim: int | None = None) -> None:
    """Write an image-feature table; ``dim`` is required only when empty."""
    items = list(features.items())
    if items:
        dims = {len(np.asarray(v).ravel()) for _, v in items}
        if len(dims) != 1:
            raise ValueError(f"feature vectors have mixed dimensions {sorted(dims)}")
        dim = dims.pop()
    elif dim is None:
        dim = 0
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sIII", FEATURE_MAGIC, FORMAT_VERSION, len(items), dim))
        for image_id, vec in items:
            fh.write(struct.pack("<Q", image_id))
            fh.write(np.asarray(vec, dtype="<f4").ravel().tobytes())


def load_features(path: str | Path) -> dict[int, np.ndarray]:
    """Read an image-feature table; rejects duplicate ids and short files."""
    with open(path, "rb") as fh:
        _check_header(fh, FEATURE_MAGIC)
        count, dim = struct.unpack("<II", _read_exact(fh, 8, "count/dim header"))
        table: dict[int, np.ndarray] = {}
        for row in range(count):
            (image_id,) = struct.unpack("<Q", _read_exact(fh, 8, f"row {row} id"))
            raw = _read_exact(fh, 4 * dim, f"row {row} features")
            if image_id in table:
                raise DuplicateId(f"image {image_id} appears twice")
            table[image_id] = np.frombuffer(raw, dtype="<f4").astype(np.float64)
    return table


# ---------------------------------------------------------------------------
# model files


def save_model(model: LinearModel, path: str | Path) -> None:
    d_img, d_t, d_e, n_answers = model.dims
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sI", MODEL_MAGIC, FORMAT_VERSION))
        fh.write(struct.pack("<5I", d_img, d_t, d_e, n_answers, model.vocab_size))
        for answer in model.answer_vocab:
            raw = answer.encode("utf-8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
        for name in ("embed_target", "embed_extra", "fc_weights", "fc_bias"):
            fh.write(np.ascontiguousarray(getattr(model, name), dtype="<f4").tobytes())


def load_model(path: str | Path) -> LinearModel:
    """Read a model file; parameters come back as float64 copies of the
    stored float32 values, so save -> load -> save is byte-identical."""
    with open(path, "rb") as fh:
        _check_header(fh, MODEL_MAGIC)
        d_img, d_t, d_e, n_answers, vocab_size = struct.unpack(
            "<5I", _read_exact(fh, 20, "dimension header")
        )
        answers = []
        for i in range(n_answers):
            (length,) = struct.unpack("<I", _read_exact(fh, 4, f"answer {i} length"))
            answers.append(_read_exact(fh, length, f"answer {i}").decode("utf-8"))

        def read_array(shape: tuple[int, ...], what: str) -> np.ndarray:
            size = int(np.prod(shape)) if shape else 1
            raw = _read_exact(fh, 4 * size, what)
            return np.frombuffer(raw, dtype="<f4").astype(np.float64).reshape(shape)

        embed_target = read_array((vocab_size, d_t), "target embedding")
        embed_extra = read_array((vocab_size, d_e), "extra embedding")
        fc_weights = read_array((n_answers, d_img + d_t + d_e), "fc weights")
        fc_bias = read_array((n_answers,), "fc bias")
    return LinearModel(embed_target, embed_extra, fc_weights, fc_bias, tuple(answers))


# ---------------------------------------------------------------------------
# run configuration


@dataclass(frozen=True)
class RunConfig:
    """Paths plus training and pipeline switches for one CLI run."""

    dataset: Path
    features: Path
    out_dir: Path
    train: TrainConfig
    seed: int
    augment_mode: str = "powerset"
    vocab: Path | None = None  # prebuilt text vocabulary; built from data if absent
    min_count: int = 1


_TRAIN_FIELDS = {
    f.name: _INT if f.type in (int, "int") else _NUMBER
    for f in dataclasses.fields(TrainConfig)
}


def load_run_config(path: str | Path) -> RunConfig:
    payload = _read_json(path)
    base = Path(path).parent

    def resolve(key: str, required: bool = True) -> Path | None:
        value = _field(payload, key, _STR, path, _REQUIRED if required else None)
        if value is None:
            return None
        p = base / value
        if key != "out_dir" and not p.exists():
            raise ParseError(f"{path}: {key} path {p} does not exist")
        return p

    seed = _field(payload, "seed", _INDEX, path)
    section = _field(payload, "train", _OBJECT, path, {})
    train_params = {"seed": seed}
    for key in section:
        if key not in _TRAIN_FIELDS:
            raise ParseError(f"{path}: train: unknown field {key!r}")
        train_params[key] = _field(section, key, _TRAIN_FIELDS[key], f"{path}: train")
    try:
        train_cfg = TrainConfig(**train_params)
    except ValueError as exc:
        raise ParseError(f"{path}: bad train section: {exc}") from exc

    return RunConfig(
        dataset=resolve("dataset"),
        features=resolve("features"),
        out_dir=resolve("out_dir", required=False) or base / "out",
        train=train_cfg,
        seed=seed,
        augment_mode=_field(payload, "augment_mode", _STR, path, "powerset"),
        vocab=resolve("vocab", required=False),
        min_count=_field(payload, "min_count", _POSITIVE, path, 1),
    )
