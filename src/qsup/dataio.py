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
# manifest JSON


def _require(record: dict, key: str, context: str):
    if key not in record:
        raise ParseError(f"{context}: missing field {key!r}")
    return record[key]


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)  # JSON true is no id


def _question_id(record: dict, key: str, context: str) -> str | int:
    qid = _require(record, key, context)
    if not (isinstance(qid, str) or _is_int(qid)):
        raise ParseError(f"{context}: field {key!r} must be a string or an integer")
    return qid


def _parse_question(record: dict, context: str) -> Question:
    if not isinstance(record, dict):
        raise ParseError(f"{context}: expected an object")
    qid = _question_id(record, "id", context)
    image_id = _require(record, "image_id", context)
    text = _require(record, "text", context)
    if not isinstance(text, str) or not text.strip():
        raise ParseError(f"{context}: field 'text' must be a non-empty string")
    if not _is_int(image_id):
        raise ParseError(f"{context}: field 'image_id' must be an integer")
    answer = record.get("answer")
    choices = record.get("choices")
    if choices is not None:
        if not isinstance(choices, list) or not all(isinstance(c, str) for c in choices):
            raise ParseError(f"{context}: field 'choices' must be a list of strings")
        choices = tuple(choices)
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
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}: {exc.msg}") from exc
    if not isinstance(payload, dict):
        raise ParseError(f"{path}: top level must be an object")

    images = []
    for i, record in enumerate(payload.get("images", [])):
        context = f"{path}: images[{i}]"
        if not isinstance(record, dict):
            raise ParseError(f"{context}: expected an object")
        image_id = _require(record, "image_id", context)
        if not _is_int(image_id) or image_id < 0:
            raise ParseError(f"{context}: 'image_id' must be a non-negative integer")
        gt = record.get("gt_labels")
        if gt is not None:
            if not isinstance(gt, list) or not all(isinstance(g, str) for g in gt):
                raise ParseError(f"{context}: 'gt_labels' must be a list of strings")
            gt = tuple(gt)
        feature_ref = record.get("feature_ref", image_id)
        if not _is_int(feature_ref) or feature_ref < 0:
            raise ParseError(f"{context}: 'feature_ref' must be a non-negative integer")
        images.append(ImageEntry(image_id, feature_ref, gt))

    questions = [
        _parse_question(record, f"{path}: questions[{i}]")
        for i, record in enumerate(payload.get("questions", []))
    ]
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
    try:
        with open(questions_path, encoding="utf-8") as fh:
            q_payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{questions_path}:{exc.lineno}: {exc.msg}") from exc

    answers: dict = {}
    if annotations_path is not None:
        try:
            with open(annotations_path, encoding="utf-8") as fh:
                a_payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{annotations_path}:{exc.lineno}: {exc.msg}") from exc
        for i, record in enumerate(a_payload.get("annotations", [])):
            context = f"{annotations_path}: annotations[{i}]"
            qid = _question_id(record, "question_id", context)
            answers[qid] = _require(record, "multiple_choice_answer", context)

    questions = []
    for i, record in enumerate(q_payload.get("questions", [])):
        context = f"{questions_path}: questions[{i}]"
        qid = _question_id(record, "question_id", context)
        image_id = _require(record, "image_id", context)
        text = _require(record, "question", context)
        if not _is_int(image_id):
            raise ParseError(f"{context}: 'image_id' must be an integer")
        choices = record.get("multiple_choices")
        if choices is not None:
            choices = tuple(choices)
        try:
            questions.append(Question(qid, image_id, text, answers.get(qid), choices))
        except ValueError as exc:
            raise ParseError(f"{context}: {exc}") from exc

    # dict.fromkeys keeps first-appearance order and runs in linear time
    images = [ImageEntry(i, i, None) for i in dict.fromkeys(q.image_id for q in questions)]
    return _validate_manifest(images, questions)


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
    types: Path
    object_vocab: Path
    out_dir: Path
    train: TrainConfig
    seed: int
    augment_mode: str = "powerset"
    vocab: Path | None = None  # prebuilt text vocabulary; built from data if absent
    min_count: int = 1


def load_run_config(path: str | Path) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}: {exc.msg}") from exc
    base = Path(path).parent

    def resolve(key: str, required: bool = True) -> Path | None:
        value = payload.get(key)
        if value is None:
            if required:
                raise ParseError(f"{path}: missing path {key!r}")
            return None
        p = base / value
        if key != "out_dir" and not p.exists():
            raise ParseError(f"{path}: {key} path {p} does not exist")
        return p

    if "seed" not in payload:
        raise ParseError(f"{path}: missing field 'seed'")
    train_params = dict(payload.get("train", {}))
    train_params.setdefault("seed", payload["seed"])
    try:
        train_cfg = TrainConfig(**train_params)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: bad train section: {exc}") from exc

    return RunConfig(
        dataset=resolve("dataset"),
        features=resolve("features"),
        types=resolve("types"),
        object_vocab=resolve("object_vocab"),
        out_dir=resolve("out_dir", required=False) or base / "out",
        train=train_cfg,
        seed=int(payload["seed"]),
        augment_mode=payload.get("augment_mode", "powerset"),
        vocab=resolve("vocab", required=False),
        min_count=int(payload.get("min_count", 1)),
    )


def run_config_snapshot(config: RunConfig) -> dict:
    """JSON-serializable view of a run config, for reproducibility logs."""
    snap = dataclasses.asdict(config)
    for key, value in snap.items():
        if isinstance(value, Path):
            snap[key] = str(value)
    return snap
