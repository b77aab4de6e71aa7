"""Dataset manifests, binary feature/model files, and run configuration.

Binary formats (all integers little-endian, floats IEEE-754 32-bit):

  feature file  "QVFT" | version u32 | count u32 | dim u32 |
                count rows of (image_id u64, dim float32)
  model file    "QSMD" | version u32 | d_img u32 | d_t u32 | d_e u32 |
                n_answers u32 | vocab_size u32 |
                n_answers >= 1 distinct answers as (byte length u32, UTF-8) |
                embed_target, embed_extra, fc_weights, fc_bias as
                row-major float32
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import struct
from dataclasses import dataclass
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii as _encode
from pathlib import Path
from typing import TYPE_CHECKING, BinaryIO, Iterable, Mapping

from .errors import (
    BadMagic,
    DanglingReference,
    DuplicateId,
    ParseError,
    TruncatedFile,
    VersionMismatch,
)
from .modes import AugmentMode
from .qparse import Question, read_text, write_lines

if TYPE_CHECKING:  # the feature and model files, and the run config, import these where used
    import numpy as np
    from .augment import ImageRecord
    from .model import LinearModel, TrainConfig

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
# JSON inputs: every record list is read by _records, with the field kinds below


def _read_json(path: str | Path, lines: bool = False):
    """The JSON object in ``path``; with ``lines``, the objects on the
    non-blank lines of a JSONL file and a function naming the i-th of them
    by its line number."""
    text = read_text(path)
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
        except (RecursionError, ValueError) as exc:  # no line: nesting or an integer too long
            what = "integer literal too long" if isinstance(exc, ValueError) else "nesting too deep"
            where = f"{path}:{first}" if lines else path
            raise ParseError(f"{where}: {what}") from exc
        if not isinstance(value, dict):
            raise ParseError(f"{path}:{first}: expected an object")
        values.append(value)
    if not lines:
        return values[0]
    numbers = [n for n, _ in chunks]
    return values, lambda i: f"{path}:{numbers[i]}"


def _listed(payload: dict, key: str, path: str | Path) -> tuple:
    """The record list ``payload[key]`` (absent or null: empty) and a
    function naming its i-th record."""
    return _field(payload, key, _LIST, path, []), lambda i: f"{path}: {key}[{i}]"


_REQUIRED = object()


def _field(record: dict, key: str, kind: tuple, context: str, default=_REQUIRED):
    """``record[key]`` if the check of ``kind``, a (check, what) pair,
    accepts it; an optional field that is absent or null gives ``default``.
    Anything else is a ParseError saying the field must be ``what``."""
    check, what = kind
    value = record.get(key)
    if check([value]):
        return value
    if value is None and default is not _REQUIRED:
        return default
    if key not in record:
        raise ParseError(f"{context}: missing field {key!r}")
    raise ParseError(f"{context}: field {key!r} must be {what}")


def _types(values, *types) -> bool:
    return set(map(type, values)) <= set(types)  # exact: JSON true is a bool, not an int


# (check, what) kinds for _field and _records: a check takes a column, a list of
# values, and says whether each value is ``what``; no check accepts None
_INT = (lambda c: _types(c, int), "an integer")
_INDEX = (lambda c: _types(c, int) and min(c, default=0) >= 0, "a non-negative integer")
_POSITIVE = (lambda c: _types(c, int) and min(c, default=1) >= 1, "an integer >= 1")
_NUMBER = (lambda c: _types(c, int, float) and all(math.isfinite(v) for v in c if type(v) is float),
           "a finite number")  # isfinite would overflow on a 400-digit int
_STR = (lambda c: _types(c, str), "a string")
_TEXT = (lambda c: _types(c, str) and all(map(str.strip, c)), "a non-empty string")
_ID = (lambda c: _types(c, str, int), "a string or an integer")
_STRINGS = (lambda c: _types(c, list) and _types(chain.from_iterable(c), str), "a list of strings")
_LIST = (lambda c: _types(c, list), "a list")
_OBJECT = (lambda c: _types(c, dict), "an object")


def _records(records: list, where, fields: tuple, build, closed: bool = False,
             unique: str | None = None) -> list:
    """``build(*values)`` for each object of ``records``, with the values of
    ``fields`` (absent optional ones None).  A fault is a field its check
    refuses, a key outside ``fields`` when ``closed``, a value of the field
    ``unique`` seen before, or a ValueError from ``build``.  Each column is
    read once and checked whole, an optional one without its Nones; only on
    a fault are the records walked one by one, field by field, so that the
    first faulty record, ``where(i)``, raises."""
    keys = [k for k, _, _ in fields]
    if _types(records, dict) and not (closed and set().union(*records).difference(keys)):
        columns = [list(map(dict.get, records, repeat(k))) for k in keys]
        if (all(check([v for v in c if v is not None] if optional else c)
                for c, (_, (check, _), optional) in zip(columns, fields))
                and (unique is None or len(set(columns[keys.index(unique)])) == len(records))):
            try:
                return list(map(build, *columns))
            except ValueError:
                pass  # an answer outside its choices: the walk names the record
    built, first = [], {}  # first: value of ``unique`` -> its first record
    for i, record in enumerate(records):
        context = where(i)
        if not isinstance(record, dict):
            raise ParseError(f"{context}: expected an object")
        values = []
        for k, kind, optional in fields:
            values.append(_field(record, k, kind, context, None if optional else _REQUIRED))
            if k == unique and first.setdefault(values[-1], i) != i:
                raise ParseError(f"{context}: repeated {k} {values[-1]!r}")
        unknown = [k for k in record if k not in keys] if closed else []
        if unknown:
            raise ParseError(f"{context}: unknown field {unknown[0]!r}")
        try:
            built.append(build(*values))
        except ValueError as exc:
            raise ParseError(f"{context}: {exc}") from exc
    return built


# (key, kind, optional) fields in the order they are checked
_IMAGE_FIELDS = (("image_id", _INDEX, False), ("gt_labels", _STRINGS, True),
                 ("feature_ref", _INDEX, True))
_QUESTION_FIELDS = (("id", _ID, False), ("image_id", _INT, False), ("text", _TEXT, False),
                    ("choices", _STRINGS, True), ("answer", _TEXT, True))
_VQA_QUESTION_FIELDS = (("question_id", _ID, False), ("image_id", _INDEX, False),
                        ("question", _TEXT, False), ("multiple_choices", _STRINGS, True))
_ANNOTATION_FIELDS = (("question_id", _ID, False), ("multiple_choice_answer", _TEXT, False))


def load_dataset(path: str | Path) -> DatasetManifest:
    """Read and validate a dataset manifest (native JSON layout).  A record
    key outside ``_IMAGE_FIELDS``/``_QUESTION_FIELDS`` and a repeated image
    or question id are ParseErrors, and a question of an image no record
    lists is a DanglingReference; each names the file and the record."""
    payload = _read_json(path)
    images = _records(*_listed(payload, "images", path), _IMAGE_FIELDS,
                      lambda i, gt, ref: ImageEntry(i, i if ref is None else ref,
                                                    None if gt is None else tuple(gt)),
                      True, "image_id")
    questions = _records(*_listed(payload, "questions", path), _QUESTION_FIELDS,
                         lambda qid, image_id, text, choices, answer:
                         Question(qid, image_id, text, answer, choices), True, "id")
    image_ids = {e.image_id for e in images}
    if not image_ids.issuperset(q.image_id for q in questions):
        i, q = next((i, q) for i, q in enumerate(questions) if q.image_id not in image_ids)
        raise DanglingReference(f"{path}: questions[{i}]: question {q.id!r} "
                                f"references unknown image {q.image_id}")
    return DatasetManifest(tuple(images), tuple(questions))


_int = int.__repr__  # as json.dumps writes an int


def _json_list(items: list[str], indent: str) -> str:
    """JSON texts ``items`` as ``json.dumps(indent=1)`` lays out a list whose
    closing bracket sits at ``indent``."""
    inner = f",\n{indent} "
    return f"[\n{indent} {inner.join(items)}\n{indent}]" if items else "[]"


def save_dataset(manifest: DatasetManifest, path: str | Path) -> None:
    """Write ``manifest`` byte for byte as ``write_json`` writes its payload
    dict.  The records are formatted here from C-encoded strings, because
    ``json.dumps`` with an indent runs the pure-Python encoder."""
    images = []
    for e in manifest.images:
        fields = f'"image_id": {_int(e.image_id)},\n   "feature_ref": {_int(e.feature_ref)}'
        if e.gt_labels is not None:
            fields += f',\n   "gt_labels": {_json_list(list(map(_encode, e.gt_labels)), "   ")}'
        images.append(f"{{\n   {fields}\n  }}")
    questions = []
    for q in manifest.questions:
        qid = _encode(q.id) if isinstance(q.id, str) else _int(q.id)
        fields = f'"id": {qid},\n   "image_id": {_int(q.image_id)},\n   "text": {_encode(q.text)}'
        if q.answer is not None:
            fields += f',\n   "answer": {_encode(q.answer)}'
        if q.choices is not None:
            fields += f',\n   "choices": {_json_list(list(map(_encode, q.choices)), "   ")}'
        questions.append(f"{{\n   {fields}\n  }}")
    write_lines(path, ["{", f' "images": {_json_list(images, " ")},',
                       f' "questions": {_json_list(questions, " ")}', "}"])


def load_vqa_dataset(questions_path: str | Path, annotations_path: str | Path | None = None) -> DatasetManifest:
    """Adapter for the official VQA multiple-choice annotation layout.

    ``questions_path`` holds {"questions": [{question_id, image_id, question,
    multiple_choices?}]}; the optional annotations file holds
    {"annotations": [{question_id, multiple_choice_answer}]}, at most one per
    question and each naming one.  A question id repeated in either file is
    a ParseError.  Records may carry keys not read here.
    """
    answers: dict = {}
    if annotations_path is not None:
        answers = dict(_records(*_listed(_read_json(annotations_path), "annotations",
                                         annotations_path),
                                _ANNOTATION_FIELDS, lambda *pair: pair, unique="question_id"))
    questions = _records(*_listed(_read_json(questions_path), "questions", questions_path),
                         _VQA_QUESTION_FIELDS, lambda qid, image_id, text, choices:
                         Question(qid, image_id, text, answers.get(qid), choices),
                         unique="question_id")
    dangling = answers.keys() - (q.id for q in questions)
    if dangling:  # answers' keys are in record order, one per record
        i, qid = next((i, qid) for i, qid in enumerate(answers) if qid in dangling)
        raise ParseError(f"{annotations_path}: annotations[{i}]: question_id {qid!r} "
                         "names no question")
    # dict.fromkeys keeps first-appearance order and runs in linear time
    images = (ImageEntry(i, i, None) for i in dict.fromkeys(q.image_id for q in questions))
    return DatasetManifest(tuple(images), tuple(questions))


def load_predictions(path: str | Path) -> dict[str | int, str]:
    """Question id -> answer from a predictions JSONL file, one
    {question_id, answer} object per line."""
    return dict(_records(*_read_json(path, lines=True), (("question_id", _ID, False),
                         ("answer", _STR, False)), lambda *pair: pair, unique="question_id"))


def load_labels(path: str | Path) -> dict[int, list[str]]:
    """Image id -> labels from an extracted-labels JSONL file, one
    {image_id, labels} object per line."""
    return dict(_records(*_read_json(path, lines=True), (("image_id", _INT, False),
                         ("labels", _STRINGS, False)), lambda *pair: pair, unique="image_id"))


def questions_by_image(manifest: DatasetManifest) -> dict[int, list[Question]]:
    grouped: dict[int, list[Question]] = {e.image_id: [] for e in manifest.images}
    for q in manifest.questions:
        grouped[q.image_id].append(q)
    return grouped


def build_image_records(manifest: DatasetManifest) -> list[ImageRecord]:
    """Group manifest questions into per-image records by answer presence."""
    from .augment import ImageRecord
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
# binary helpers: their errors name the file, since one command reads several


def _check_left(fh: BinaryIO, size: int, what: str) -> None:
    if size > os.fstat(fh.fileno()).st_size - fh.tell():  # before a buffer of ``size`` is made
        raise TruncatedFile(f"{fh.name}: file ended while reading {what}")


def _read_exact(fh: BinaryIO, size: int, what: str) -> bytes:
    _check_left(fh, size, what)
    return fh.read(size)


def _check_header(fh: BinaryIO, magic: bytes) -> None:
    if not fh.seekable():  # a pipe, say: _read_exact needs the bytes left
        raise ParseError(f"{fh.name}: not a regular file")
    got = _read_exact(fh, 4, "magic")
    if got != magic:
        raise BadMagic(f"{fh.name}: expected magic {magic!r}, found {got!r}")
    (version,) = struct.unpack("<I", _read_exact(fh, 4, "version"))
    if version != FORMAT_VERSION:
        raise VersionMismatch(f"{fh.name}: unsupported format version {version}")


# ---------------------------------------------------------------------------
# feature files


def save_features(features: Mapping[int, np.ndarray], path: str | Path, dim: int | None = None) -> None:
    """Write an image-feature table; ``dim`` is required only when empty."""
    import numpy as np
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


def load_features(path: str | Path, refs: Iterable[int] | None = None) -> dict[int, np.ndarray]:
    """Read an image-feature table as the float32 rows the file stores: every
    row, or with ``refs`` only the rows whose ids it names (ids it names that
    the file lacks are absent).  Every row is checked either way: a repeated
    id, kept or not, and a file shorter or longer than its header declares
    are faults, and so is a kept row holding NaN or an infinity."""
    import numpy as np
    wanted = None if refs is None else set(refs)
    with open(path, "rb") as fh:
        _check_header(fh, FEATURE_MAGIC)
        count, dim = struct.unpack("<II", _read_exact(fh, 8, "count/dim header"))
        row_size = 8 + 4 * dim
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        whole = min(count, left // row_size)  # the rows the file holds in full
        ids = np.empty(whole, "<u8")
        table: dict[int, np.ndarray] = {}
        # blocks of at most 64 KiB, read into one buffer, stay below malloc's mmap
        # threshold, which a larger buffer raises once freed; a block's kept rows are
        # copied out together
        step = max(1, (1 << 16) // row_size)
        buffer = np.empty((min(step, whole), row_size), np.uint8)
        for lo in range(0, whole, step):
            rows = buffer[: min(step, whole - lo)]
            fh.readinto(rows)
            ids[lo : lo + len(rows)] = rows[:, :8].view("<u8")[:, 0]
            block = ids[lo : lo + len(rows)].tolist()
            keep = [j for j, i in enumerate(block) if wanted is None or i in wanted]
            kept = rows[keep, 8:].view("<f4")
            bad = ~np.isfinite(kept).all(axis=1)
            if bad.any():
                image_id = block[keep[bad.argmax()]]
                raise ParseError(f"{path}: image {image_id}: non-finite feature value")
            table.update(zip(map(block.__getitem__, keep), kept))
        firsts = np.unique(ids, return_index=True)[1]
        if len(firsts) < whole:  # name the first id seen twice
            repeats = np.ones(whole, bool)
            repeats[firsts] = False
            raise DuplicateId(f"{path}: image {int(ids[repeats.argmax()])} appears twice")
        if whole < count:
            what = "id" if left - whole * row_size < 8 else "features"
            raise TruncatedFile(f"{fh.name}: file ended while reading row {whole} {what}")
        if fh.read(1):
            raise ParseError(f"{path}: file goes on after the {count} rows its header declares")
    return table


# ---------------------------------------------------------------------------
# model files


def save_model(model: LinearModel, path: str | Path) -> None:
    import numpy as np
    from .model import encode_answers
    d_img, d_t, d_e, n_answers = model.dims
    raws = encode_answers(model.answer_vocab)  # before the file is opened: a bad answer leaves none
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sI", MODEL_MAGIC, FORMAT_VERSION))
        fh.write(struct.pack("<5I", d_img, d_t, d_e, n_answers, model.vocab_size))
        for raw in raws:
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
        for param in model.parameters().values():
            # float32 in blocks of about 64 KiB, not one full-size copy per table
            step = max(1, (1 << 14) // max(1, math.prod(param.shape[1:])))
            for lo in range(0, len(param), step):
                fh.write(np.ascontiguousarray(param[lo : lo + step], dtype="<f4"))


def load_model(path: str | Path) -> LinearModel:
    """Read a model file.  The embedding tables come back as the stored
    float32 values, read straight into their arrays, and the fc weights and
    bias as float64 copies of theirs; float32 -> float64 is exact, so every
    product sees the doubles it would have seen on a float64 copy, and
    save -> load -> save is byte-identical.  A NaN or infinite parameter is
    a fault."""
    import numpy as np
    from .model import LinearModel
    with open(path, "rb") as fh:
        _check_header(fh, MODEL_MAGIC)
        d_img, d_t, d_e, n_answers, vocab_size = struct.unpack(
            "<5I", _read_exact(fh, 20, "dimension header")
        )
        if n_answers == 0:
            raise ParseError(f"{path}: model has no answers")
        answers = []
        for i in range(n_answers):
            (length,) = struct.unpack("<I", _read_exact(fh, 4, f"answer {i} length"))
            answers.append(_read_exact(fh, length, f"answer {i}"))

        def read_array(shape: tuple[int, ...], what: str) -> np.ndarray:
            _check_left(fh, 4 * math.prod(shape), what)  # Python ints: no overflow
            array = np.empty(shape, "<f4")
            fh.readinto(array)
            return array

        embed_target = read_array((vocab_size, d_t), "target embedding")
        embed_extra = read_array((vocab_size, d_e), "extra embedding")
        fc_weights = read_array((n_answers, d_img + d_t + d_e), "fc weights").astype(np.float64)
        fc_bias = read_array((n_answers,), "fc bias").astype(np.float64)
        if fh.read(1):
            raise ParseError(f"{path}: file goes on after the fc bias")
    try:
        answer_vocab = tuple(raw.decode("utf-8") for raw in answers)
        model = LinearModel(embed_target, embed_extra, fc_weights, fc_bias, answer_vocab)
    except ValueError as exc:  # undecodable (UnicodeDecodeError) or repeated answers
        raise ParseError(f"{path}: {exc}") from exc
    if not model.storable():
        raise ParseError(f"{path}: non-finite parameter values")
    return model


# ---------------------------------------------------------------------------
# run configuration


@dataclass(frozen=True)
class RunConfig:
    """Paths plus training and pipeline switches for one CLI run."""

    dataset: Path
    features: Path
    out_dir: Path
    train: TrainConfig
    augment_mode: str = "powerset"
    vocab: Path | None = None  # prebuilt text vocabulary; built from data if absent
    min_count: int = 1


# the top-level keys of a run config; types and object_vocab, of older configs, are not read
_RUN_CONFIG_KEYS = ("dataset", "features", "seed", "out_dir", "vocab", "augment_mode",
                    "min_count", "train", "types", "object_vocab")
_AUGMENT_MODES = tuple(m.value for m in AugmentMode)
_AUGMENT_MODE = (lambda c: all(map(_AUGMENT_MODES.__contains__, c)),
                 "one of " + ", ".join(_AUGMENT_MODES))


def load_run_config(path: str | Path) -> RunConfig:
    from .model import TrainConfig
    payload = _read_json(path)
    base = Path(path).parent
    for key in payload:
        if key not in _RUN_CONFIG_KEYS:
            raise ParseError(f"{path}: unknown field {key!r}")

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
    types = {f.name: f.type for f in dataclasses.fields(TrainConfig)}
    for key in section:
        if key not in types:
            raise ParseError(f"{path}: train: unknown field {key!r}")
        kind = _INT if types[key] in (int, "int") else _NUMBER
        train_params[key] = _field(section, key, kind, f"{path}: train")
    try:
        train_cfg = TrainConfig(**train_params)
    except ValueError as exc:
        raise ParseError(f"{path}: bad train section: {exc}") from exc

    if payload.get("vocab") is not None and payload.get("min_count") is not None:
        raise ParseError(f"{path}: min_count is not read with vocab")
    return RunConfig(
        dataset=resolve("dataset"),
        features=resolve("features"),
        out_dir=resolve("out_dir", required=False) or base / "out",
        train=train_cfg,
        augment_mode=_field(payload, "augment_mode", _AUGMENT_MODE, path, "powerset"),
        vocab=resolve("vocab", required=False),
        min_count=_field(payload, "min_count", _POSITIVE, path, 1),
    )
