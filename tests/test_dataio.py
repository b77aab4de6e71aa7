import json
import struct

import numpy as np
import pytest

from qsup.dataio import (
    DatasetManifest,
    ImageEntry,
    build_image_records,
    load_dataset,
    load_features,
    load_model,
    load_run_config,
    load_vqa_dataset,
    questions_by_image,
    save_dataset,
    save_features,
    save_model,
)
from qsup.errors import (
    BadMagic,
    DanglingReference,
    DuplicateId,
    ParseError,
    TruncatedFile,
    VersionMismatch,
)
from qsup.model import LinearModel, predict
from qsup.qparse import Question
from qsup.vocab import Vocabulary


class TestManifest:
    def test_minimal_round_trip(self, tmp_path):
        path = tmp_path / "data.json"
        path.write_text(json.dumps({
            "images": [{"image_id": 1}],
            "questions": [{"id": "q1", "image_id": 1, "text": "What color is the bus?"}],
        }))
        manifest = load_dataset(path)
        assert len(manifest.images) == 1
        assert manifest.images[0].feature_ref == 1  # defaults to the image id
        assert len(manifest.questions) == 1

        out = tmp_path / "copy.json"
        save_dataset(manifest, out)
        assert load_dataset(out) == manifest

    def test_dangling_reference(self, tmp_path):
        path = tmp_path / "data.json"
        path.write_text(json.dumps({
            "images": [{"image_id": 1}],
            "questions": [{"id": "q1", "image_id": 2, "text": "What is it?"}],
        }))
        with pytest.raises(DanglingReference) as excinfo:
            load_dataset(path)
        assert "q1" in str(excinfo.value)

    def test_parse_error_context(self, tmp_path):
        path = tmp_path / "data.json"
        path.write_text(json.dumps({
            "images": [{"image_id": 1}],
            "questions": [{"id": "q1", "image_id": 1, "text": "   "}],
        }))
        with pytest.raises(ParseError) as excinfo:
            load_dataset(path)
        assert "questions[0]" in str(excinfo.value)

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "data.json"
        path.write_text('{\n "images": [,]\n}')
        with pytest.raises(ParseError) as excinfo:
            load_dataset(path)
        assert ":2:" in str(excinfo.value)

    def test_duplicate_ids_rejected(self, tmp_path):
        path = tmp_path / "data.json"
        path.write_text(json.dumps({
            "images": [{"image_id": 1}, {"image_id": 1}],
            "questions": [],
        }))
        with pytest.raises(ParseError):
            load_dataset(path)

    def test_answer_must_be_among_choices(self, tmp_path):
        path = tmp_path / "data.json"
        path.write_text(json.dumps({
            "images": [{"image_id": 1}],
            "questions": [{
                "id": "q1", "image_id": 1, "text": "What is it?",
                "answer": "cat", "choices": ["dog", "bus"],
            }],
        }))
        with pytest.raises(ParseError):
            load_dataset(path)

    def test_build_image_records_splits_by_answer(self):
        manifest = DatasetManifest(
            images=(ImageEntry(1, 1), ImageEntry(2, 2)),
            questions=(
                Question("a", 1, "What color is it?", answer="red"),
                Question("b", 1, "Is it big?"),
                Question("c", 2, "How many?"),
            ),
        )
        records = build_image_records(manifest)
        assert [r.image_id for r in records] == [1, 2]
        assert [q.id for q in records[0].answered] == ["a"]
        assert [q.id for q in records[0].unanswered] == ["b"]
        assert records[1].answered == ()
        grouped = questions_by_image(manifest)
        assert [q.id for q in grouped[1]] == ["a", "b"]


class TestVqaAdapter:
    def test_equivalent_to_native_layout(self, tmp_path):
        q_path = tmp_path / "questions.json"
        a_path = tmp_path / "annotations.json"
        q_path.write_text(json.dumps({
            "questions": [
                {"question_id": 10, "image_id": 1,
                 "question": "What color is the bus?",
                 "multiple_choices": ["red", "blue"]},
                {"question_id": 11, "image_id": 2, "question": "How many cats?"},
                {"question_id": 12, "image_id": 3, "question": "Is it sunny?"},
            ]
        }))
        a_path.write_text(json.dumps({
            "annotations": [
                {"question_id": 10, "image_id": 1, "multiple_choice_answer": "red"},
                {"question_id": 11, "image_id": 2, "multiple_choice_answer": "2"},
            ]
        }))
        adapted = load_vqa_dataset(q_path, a_path)

        native = tmp_path / "native.json"
        native.write_text(json.dumps({
            "images": [{"image_id": 1}, {"image_id": 2}, {"image_id": 3}],
            "questions": [
                {"id": 10, "image_id": 1, "text": "What color is the bus?",
                 "answer": "red", "choices": ["red", "blue"]},
                {"id": 11, "image_id": 2, "text": "How many cats?", "answer": "2"},
                {"id": 12, "image_id": 3, "text": "Is it sunny?"},
            ],
        }))
        assert adapted == load_dataset(native)

    def test_round_trips_through_native_format(self, tmp_path):
        q_path = tmp_path / "questions.json"
        q_path.write_text(json.dumps({
            "questions": [{"question_id": 1, "image_id": 5, "question": "What is it?"}]
        }))
        manifest = load_vqa_dataset(q_path)
        out = tmp_path / "native.json"
        save_dataset(manifest, out)
        assert load_dataset(out) == manifest


class TestFeatureFile:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(0)
        table = {7: rng.normal(size=5), 9: rng.normal(size=5)}
        path = tmp_path / "feats.qvft"
        save_features(table, path)
        loaded = load_features(path)
        assert set(loaded) == {7, 9}
        for key in table:
            np.testing.assert_array_equal(
                loaded[key], np.asarray(table[key], dtype=np.float32).astype(np.float64)
            )
        # writing the loaded table back is byte-identical
        path2 = tmp_path / "feats2.qvft"
        save_features(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_empty_table(self, tmp_path):
        path = tmp_path / "empty.qvft"
        save_features({}, path, dim=4)
        assert load_features(path) == {}

    def test_truncated(self, tmp_path):
        path = tmp_path / "feats.qvft"
        save_features({1: np.zeros(4), 2: np.ones(4)}, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-5])
        with pytest.raises(TruncatedFile):
            load_features(path)

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "feats.qvft"
        payload = struct.pack("<4sIII", b"QVFT", 1, 2, 1)
        payload += struct.pack("<Q", 3) + struct.pack("<f", 1.0)
        payload += struct.pack("<Q", 3) + struct.pack("<f", 2.0)
        path.write_bytes(payload)
        with pytest.raises(DuplicateId):
            load_features(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "feats.qvft"
        path.write_bytes(b"NOPE" + b"\x00" * 12)
        with pytest.raises(BadMagic):
            load_features(path)

    def test_mixed_dims_rejected_on_save(self, tmp_path):
        with pytest.raises(ValueError):
            save_features({1: np.zeros(3), 2: np.zeros(4)}, tmp_path / "x.qvft")


def toy_model(seed=0):
    rng = np.random.default_rng(seed)
    return LinearModel(
        embed_target=rng.normal(size=(4, 3)),
        embed_extra=rng.normal(size=(4, 2)),
        fc_weights=rng.normal(size=(3, 5 + 3 + 2)),
        fc_bias=rng.normal(size=3),
        answer_vocab=("yes", "no", "2"),
    )


class TestModelFile:
    def test_save_load_save_byte_identical(self, tmp_path):
        model = toy_model()
        first = tmp_path / "m1.qsmd"
        second = tmp_path / "m2.qsmd"
        save_model(model, first)
        save_model(load_model(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_round_trip_preserves_answers_and_dims(self, tmp_path):
        model = toy_model()
        path = tmp_path / "m.qsmd"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.answer_vocab == model.answer_vocab
        assert loaded.dims == model.dims

    def test_version_bump_rejected(self, tmp_path):
        model = toy_model()
        path = tmp_path / "m.qsmd"
        save_model(model, path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = struct.pack("<I", 2)
        path.write_bytes(bytes(raw))
        with pytest.raises(VersionMismatch):
            load_model(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.qsmd"
        path.write_bytes(b"JUNK" + b"\x00" * 30)
        with pytest.raises(BadMagic):
            load_model(path)

    def test_loaded_model_predicts_like_saved_one(self, tmp_path):
        rng = np.random.default_rng(3)
        model = toy_model()
        # float32 parameters so serialization is lossless for this check
        for name, param in model.parameters().items():
            setattr(model, name, param.astype(np.float32).astype(np.float64))
        path = tmp_path / "m.qsmd"
        save_model(model, path)
        loaded = load_model(path)
        vocab = Vocabulary(["what", "is", "the", "thing"])
        for i in range(10):
            image = rng.normal(size=5)
            question = Question(f"q{i}", 1, "what is the thing")
            mem_answer, mem_probs = predict(model, vocab, image, question)
            disk_answer, disk_probs = predict(loaded, vocab, image, question)
            assert mem_answer == disk_answer
            np.testing.assert_array_equal(mem_probs, disk_probs)


class TestRunConfig:
    def test_load_and_validate(self, tmp_path):
        (tmp_path / "data.json").write_text(json.dumps({
            "images": [{"image_id": 1}],
            "questions": [{"id": "q", "image_id": 1, "text": "What is it?", "answer": "cat"}],
        }))
        save_features({1: np.zeros(2)}, tmp_path / "feats.qvft")
        (tmp_path / "types.txt").write_text("[confirmed]\nwhat\n[unconfirmed]\nis\n")
        (tmp_path / "objects.txt").write_text("cat\ndog\n")
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({
            "dataset": "data.json",
            "features": "feats.qvft",
            "types": "types.txt",
            "object_vocab": "objects.txt",
            "out_dir": "out",
            "seed": 7,
            "train": {"learning_rate": 0.2, "epochs": 2, "batch_size": 4,
                      "answer_vocab_size": 5, "embed_dim": 8},
        }))
        cfg = load_run_config(cfg_path)
        assert cfg.seed == 7
        assert cfg.train.seed == 7  # inherited from the run seed
        assert cfg.train.learning_rate == 0.2
        assert cfg.augment_mode == "powerset"

    def test_missing_path_rejected(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({
            "dataset": "absent.json", "features": "x", "types": "y",
            "object_vocab": "z", "seed": 1,
        }))
        with pytest.raises(ParseError):
            load_run_config(cfg_path)

    def test_missing_seed_rejected(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text("{}")
        with pytest.raises(ParseError):
            load_run_config(cfg_path)


def test_vqa_adapter_lists_images_in_first_appearance_order(tmp_path):
    q_path = tmp_path / "questions.json"
    q_path.write_text(json.dumps({
        "questions": [
            {"question_id": qid, "image_id": image_id, "question": f"What is {qid}?"}
            for qid, image_id in enumerate([1, 2, 1, 3, 2])
        ]
    }))
    manifest = load_vqa_dataset(q_path)
    assert [e.image_id for e in manifest.images] == [1, 2, 3]
    assert [q.image_id for q in manifest.questions] == [1, 2, 1, 3, 2]


@pytest.mark.parametrize("bad_id", [[1], {"a": 1}, 1.5, True])
def test_vqa_adapter_rejects_non_scalar_question_ids(tmp_path, bad_id):
    q_path = tmp_path / "questions.json"
    a_path = tmp_path / "annotations.json"
    q_path.write_text(json.dumps({
        "questions": [{"question_id": 1, "image_id": 5, "question": "What is it?"}]
    }))
    a_path.write_text(json.dumps({
        "annotations": [{"question_id": bad_id, "multiple_choice_answer": "cat"}]
    }))
    with pytest.raises(ParseError):
        load_vqa_dataset(q_path, a_path)
    q_path.write_text(json.dumps({
        "questions": [{"question_id": bad_id, "image_id": 5, "question": "What is it?"}]
    }))
    with pytest.raises(ParseError):
        load_vqa_dataset(q_path)


@pytest.mark.parametrize("image, question", [
    ({"image_id": True}, {"image_id": True}),
    ({"image_id": 1, "feature_ref": True}, {"image_id": 1}),
    ({"image_id": 1, "feature_ref": -1}, {"image_id": 1}),
    ({"image_id": 1}, {"image_id": 1, "id": False}),
])
def test_manifest_rejects_booleans_and_negative_feature_refs(tmp_path, image, question):
    path = tmp_path / "data.json"
    path.write_text(json.dumps({
        "images": [image],
        "questions": [{"id": "q1", "text": "What is it?", **question}],
    }))
    with pytest.raises(ParseError):
        load_dataset(path)


@pytest.mark.parametrize("question, annotation", [
    ({"question": 7}, {}),
    ({"question": ""}, {}),
    ({"multiple_choices": 5}, {}),
    ({}, {"multiple_choice_answer": 3}),
])
def test_vqa_adapter_checks_field_types(tmp_path, question, annotation):
    q_path = tmp_path / "questions.json"
    a_path = tmp_path / "annotations.json"
    q_path.write_text(json.dumps({"questions": [
        {"question_id": 1, "image_id": 5, "question": "What is it?", **question}
    ]}))
    a_path.write_text(json.dumps({"annotations": [
        {"question_id": 1, "multiple_choice_answer": "cat", **annotation}
    ]}))
    with pytest.raises(ParseError):
        load_vqa_dataset(q_path, a_path)


@pytest.mark.parametrize("fields, train", [
    ({"seed": "7"}, {}),
    ({"seed": 7.0}, {}),
    ({"seed": -1}, {}),
    ({"min_count": "2"}, {}),
    ({"min_count": 0}, {}),
    ({"dataset": 1}, {}),
    ({"out_dir": ["out"]}, {}),
    ({"train": [1]}, {}),
    ({}, {"epochs": 2.5}),
    ({}, {"answer_vocab_size": 3.5}),
    ({}, {"seed": True}),
    ({}, {"seed": -3}),
    ({}, {"weight_init_scale": True}),
    ({}, {"learning_rate": float("inf")}),
])
def test_run_config_checks_field_types(tmp_path, fields, train):
    (tmp_path / "data.json").write_text(json.dumps({"images": [], "questions": []}))
    save_features({1: np.zeros(2)}, tmp_path / "feats.qvft")
    (tmp_path / "types.txt").write_text("[confirmed]\nwhat\n[unconfirmed]\nis\n")
    (tmp_path / "objects.txt").write_text("cat\n")
    cfg = {"dataset": "data.json", "features": "feats.qvft", "types": "types.txt",
           "object_vocab": "objects.txt", "seed": 7,
           "train": {"epochs": 2, **train}, **fields}
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    with pytest.raises(ParseError):
        load_run_config(cfg_path)


@pytest.mark.parametrize("loader", [load_dataset, load_run_config, load_vqa_dataset])
def test_json_inputs_must_be_utf8(tmp_path, loader):
    path = tmp_path / "input.json"
    path.write_bytes(b'\xff\xfe{"images": []}')
    with pytest.raises(ParseError):
        loader(path)


def test_run_config_ignores_table_paths(tmp_path):
    (tmp_path / "data.json").write_text(json.dumps({"images": [], "questions": []}))
    save_features({1: np.zeros(2)}, tmp_path / "feats.qvft")
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"dataset": "data.json", "features": "feats.qvft", "seed": 7,
                                    "types": "absent.txt", "object_vocab": "absent.txt"}))
    assert load_run_config(cfg_path).dataset == tmp_path / "data.json"
