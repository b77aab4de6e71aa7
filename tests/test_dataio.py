import dataclasses
import json
import os
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qsup import cli, dataio
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
from qsup.qparse import Question, write_json
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
        save_dataset(adapted, tmp_path / "saved.json")
        assert load_dataset(tmp_path / "saved.json") == adapted

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

    @pytest.mark.parametrize("read", [
        load_features,
        lambda path: load_features(path, [3]),
        lambda path: cli._image_features(path, [(7, 3)]),
    ], ids=["all rows", "named rows", "image features"])
    @pytest.mark.parametrize("ids, kept, error, message", [
        ([1, 2, 3], 16 + 5, TruncatedFile, "{path}: file ended while reading row 1 id"),
        ([1, 2, 3], 16 + 8, TruncatedFile, "{path}: file ended while reading row 1 features"),
        ([1, 2, 3], 16 + 11, TruncatedFile, "{path}: file ended while reading row 1 features"),
        ([1, 2, 3], 0, TruncatedFile, "{path}: file ended while reading row 0 id"),
        ([5, 5, 3], 16 + 16 + 3, DuplicateId, "{path}: image 5 appears twice"),  # read before the cut
        ([5, 6, 5], 16 + 16 + 3, TruncatedFile, "{path}: file ended while reading row 2 id"),
    ])
    def test_the_first_fault_in_row_order_is_named(self, tmp_path, ids, kept, error, message,
                                                   read):
        # rows of 16 bytes (an 8-byte id and two floats); ``kept`` bytes follow the header
        path = tmp_path / "feats.qvft"
        payload = struct.pack("<4sIII", b"QVFT", 1, len(ids), 2)
        payload += b"".join(struct.pack("<Qff", i, 1.0, 2.0) for i in ids)
        path.write_bytes(payload[: 16 + kept])
        with pytest.raises(error) as caught:
            read(path)
        assert str(caught.value) == message.format(path=path)

    def test_named_rows_come_back_as_the_stored_float32(self, tmp_path):
        rng = np.random.default_rng(1)
        table = {i: rng.normal(size=3) for i in range(1, 200)}
        path = tmp_path / "feats.qvft"
        save_features(table, path)
        loaded = load_features(path, [150, 2, 999, 2])  # 999 is not in the file
        assert sorted(loaded) == [2, 150]
        for key, row in loaded.items():
            assert row.dtype == np.float32
            np.testing.assert_array_equal(row, table[key].astype(np.float32))
        assert load_features(path, []) == {}
        assert all(row.dtype == np.float32 for row in load_features(path).values())
        features = cli._image_features(path, [(10, 150), (11, 2)])
        assert sorted(features) == [10, 11]
        np.testing.assert_array_equal(features[10], loaded[150])

    @pytest.mark.parametrize("fault", ["repeated unnamed id", "truncated last row",
                                       "trailing bytes"])
    def test_reading_named_rows_keeps_every_check(self, tmp_path, fault):
        ids = [1, 2, 3, 2] if fault == "repeated unnamed id" else [1, 2, 3]
        payload = struct.pack("<4sIII", b"QVFT", 1, len(ids), 2)
        payload += b"".join(struct.pack("<Qff", i, 1.0, 2.0) for i in ids)
        path = tmp_path / "feats.qvft"
        path.write_bytes({"truncated last row": payload[:-3],
                          "trailing bytes": payload + b"\0"}.get(fault, payload))
        expected = {
            "repeated unnamed id": (DuplicateId, f"{path}: image 2 appears twice"),
            "truncated last row": (TruncatedFile, f"{path}: file ended while reading row 2 features"),
            "trailing bytes": (ParseError, f"{path}: file goes on after the 3 rows its header declares"),
        }[fault]
        for read in (load_features, lambda p: load_features(p, [1]),
                     lambda p: cli._image_features(p, [(7, 1)])):
            with pytest.raises(expected[0]) as caught:
                read(path)
            assert (type(caught.value), str(caught.value)) == expected

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_kept_row_with_a_non_finite_value_is_named(self, tmp_path, bad):
        path = tmp_path / "feats.qvft"
        save_features({1: np.ones(3), 2: np.array([0.5, bad, 1.0]), 3: np.zeros(3)}, path)
        for read in (load_features, lambda p: load_features(p, [3, 2])):
            with pytest.raises(ParseError) as caught:
                read(path)
            assert str(caught.value) == f"{path}: image 2: non-finite feature value"
        assert sorted(load_features(path, [1, 3])) == [1, 3]  # only kept rows are values

    def test_a_ref_the_file_lacks_is_a_dangling_reference(self, tmp_path):
        path = tmp_path / "feats.qvft"
        save_features({1: np.zeros(2), 2: np.ones(2)}, path)
        with pytest.raises(DanglingReference) as caught:
            cli._image_features(path, [(7, 1), (8, 3)])
        assert str(caught.value) == f"{path}: image 8: no features under ref 3"

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

    def test_a_pipe_is_refused_naming_it(self):
        read_end, write_end = os.pipe()
        os.write(write_end, struct.pack("<4sIII", b"QVFT", 1, 0, 4))
        os.close(write_end)
        try:
            with pytest.raises(ParseError, match=f"^/dev/fd/{read_end}: not a regular file$"):
                load_features(f"/dev/fd/{read_end}")
        finally:
            os.close(read_end)

    def test_mixed_dims_rejected_on_save(self, tmp_path):
        with pytest.raises(ValueError):
            save_features({1: np.zeros(3), 2: np.zeros(4)}, tmp_path / "x.qvft")


def toy_model(seed=0, d_e=2):
    rng = np.random.default_rng(seed)
    return LinearModel(
        embed_target=rng.normal(size=(4, 3)),
        embed_extra=rng.normal(size=(4, d_e)),
        fc_weights=rng.normal(size=(3, 5 + 3 + d_e)),
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

    def test_a_model_without_an_extra_block_stores_d_e_0_and_no_extra_values(self, tmp_path):
        model = toy_model(d_e=0)  # as train makes it when no exemplar has an extra question
        first, second = tmp_path / "m1.qsmd", tmp_path / "m2.qsmd"
        save_model(model, first)
        loaded = load_model(first)
        save_model(loaded, second)
        raw = first.read_bytes()
        assert second.read_bytes() == raw
        assert loaded.dims == model.dims == (5, 3, 0, 3)
        d_img, d_t, d_e, n_answers, vocab_size = struct.unpack_from("<5I", raw, 8)
        assert d_e == 0
        answers = sum(4 + len(answer.encode()) for answer in model.answer_vocab)
        floats = vocab_size * (d_t + d_e) + n_answers * (d_img + d_t + d_e + 1)
        assert len(raw) == 28 + answers + 4 * floats

    def test_round_trip_preserves_answers_and_dims(self, tmp_path):
        model = toy_model()
        path = tmp_path / "m.qsmd"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.answer_vocab == model.answer_vocab
        assert loaded.dims == model.dims

    def test_an_answer_that_is_not_unicode_text_is_refused_before_the_file_opens(self, tmp_path):
        model = dataclasses.replace(toy_model(), answer_vocab=("yes", "\ud800", "2"))
        with pytest.raises(ParseError, match=r"^answer '\\ud800' is not Unicode text$"):
            save_model(model, tmp_path / "m.qsmd")
        assert not (tmp_path / "m.qsmd").exists()

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

    @pytest.mark.parametrize("name, bad", [("embed_target", np.nan), ("embed_extra", -np.inf),
                                           ("fc_weights", np.inf), ("fc_bias", np.nan)])
    def test_a_non_finite_parameter_is_a_parse_error(self, tmp_path, name, bad):
        model = toy_model()
        model.parameters()[name].flat[-1] = bad
        path = tmp_path / "m.qsmd"
        save_model(model, path)
        with pytest.raises(ParseError, match="m.qsmd: non-finite parameter values$"):
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
            assert disk_probs.dtype == np.float64
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
    ({"image_id": -5}, {}),
    ({}, {"multiple_choice_answer": "   "}),
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


# every (check, what) field kind of dataio
_KINDS = {name: kind for name, kind in vars(dataio).items()
          if isinstance(kind, tuple) and len(kind) == 2 and callable(kind[0])}
_JSON_SCALARS = st.one_of(
    st.booleans(), st.integers(-3, 3), st.sampled_from([2**64, 10**400]), st.floats(),
    st.sampled_from(["", " ", "\t\n", "\ud800", "x", "plain", "powerset"]), st.text(max_size=3))
_JSON_VALUES = st.recursive(_JSON_SCALARS, lambda inner: st.lists(inner, max_size=3)
                            | st.dictionaries(st.text(max_size=2), inner, max_size=2),
                            max_leaves=6)
# mixed columns, and columns of one JSON type, which some kinds accept
_COLUMNS = st.lists(_JSON_VALUES, max_size=5) | st.one_of(
    st.lists(st.integers(-3, 3) | st.sampled_from([2**64, 10**400]), max_size=5),
    st.lists(st.floats() | st.integers(0, 3), max_size=5),
    st.lists(_JSON_SCALARS.filter(lambda v: type(v) is str), max_size=5),
    st.lists(st.lists(st.text(max_size=2), max_size=2), max_size=5))


@settings(max_examples=500, deadline=None)
@given(column=_COLUMNS)
def test_a_kind_checks_a_column_as_it_checks_each_value(column):
    assert {"_INT", "_INDEX", "_POSITIVE", "_NUMBER", "_STR", "_TEXT", "_ID", "_STRINGS", "_LIST",
            "_OBJECT", "_AUGMENT_MODE"} <= _KINDS.keys()
    for name, (check, _) in _KINDS.items():
        assert check(column) == all(check([v]) for v in column), name


def test_records_reads_the_columns_the_field_walk_reads(monkeypatch):
    """On a valid manifest of 200 questions the column pass returns the
    values a field-by-field walk with _field reads, and walks no record."""
    images = [{"image_id": i, "feature_ref": None if i % 3 else i + 100,
               **({"gt_labels": ["bus", "cat"][: i % 3]} if i % 2 else {})} for i in range(50)]
    questions = [{"id": i if i % 2 else f"q{i}", "image_id": i % 50, "text": f"what is {i}?",
                  **({"answer": "red"} if i % 3 else {"answer": None}),
                  **({"choices": ["red", "blue"]} if i % 4 == 1 else {})} for i in range(200)]
    for records, fields, unique in [(images, dataio._IMAGE_FIELDS, "image_id"),
                                    (questions, dataio._QUESTION_FIELDS, "id")]:
        walked = [tuple(dataio._field(r, k, kind, "", None if optional else dataio._REQUIRED)
                        for k, kind, optional in fields) for r in records]
        with monkeypatch.context() as m:
            m.setattr(dataio, "_field", None)  # a walk would call it
            assert dataio._records(records, str, fields, lambda *v: v, True, unique) == walked


def test_run_config_ignores_table_paths(tmp_path):
    (tmp_path / "data.json").write_text(json.dumps({"images": [], "questions": []}))
    save_features({1: np.zeros(2)}, tmp_path / "feats.qvft")
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"dataset": "data.json", "features": "feats.qvft", "seed": 7,
                                    "types": "absent.txt", "object_vocab": "absent.txt"}))
    assert load_run_config(cfg_path).dataset == tmp_path / "data.json"


@pytest.mark.parametrize("annotations, message", [
    ([("red", 1), ("blue", 1)], "annotations[1]: repeated question_id 1"),
    ([("red", 1), ("blue", 1), (3, 1)], "annotations[1]: repeated question_id 1"),
    ([("red", 1), (3, 2), ("blue", 1)],
     "annotations[1]: field 'multiple_choice_answer' must be a non-empty string"),
    ([("red", "q1"), ("blue", "q1")], "annotations[1]: repeated question_id 'q1'"),
    ([("red", 1), ("blue", 99)], "annotations[1]: question_id 99 names no question"),
    ([("red", "1")], "annotations[0]: question_id '1' names no question"),
])
def test_vqa_adapter_rejects_a_repeated_annotation(tmp_path, annotations, message):
    q_path = tmp_path / "questions.json"
    a_path = tmp_path / "annotations.json"
    q_path.write_text(json.dumps({"questions": [
        {"question_id": 1, "image_id": 5, "question": "What color is it?"}
    ]}))
    a_path.write_text(json.dumps({"annotations": [
        {"question_id": qid, "multiple_choice_answer": answer} for answer, qid in annotations
    ]}))
    with pytest.raises(ParseError) as excinfo:
        load_vqa_dataset(q_path, a_path)
    assert str(excinfo.value) == f"{a_path}: {message}"


# quotes, backslashes, control, line-separator, non-ASCII and astral characters, then any
_CHARS = st.one_of(st.sampled_from('"\\/\n\t\x00\x1f\x7f\u2028\u00e9\U0001f600'), st.characters())
_TEXTS = st.text(_CHARS, max_size=6)
_STRING_LISTS = st.lists(_TEXTS, max_size=3)
_NON_BLANK = st.text(_CHARS, min_size=1, max_size=8).filter(str.strip)


@st.composite
def _manifests(draw):
    image_ids = draw(st.lists(st.integers(0, 2**70), unique=True, max_size=4))
    images = tuple(
        ImageEntry(i, draw(st.integers(0, 2**70)), draw(st.none() | _STRING_LISTS.map(tuple)))
        for i in image_ids)
    ids = st.one_of(st.integers(-2**70, 2**70), _TEXTS)
    questions = []
    for qid in draw(st.lists(ids, unique=True, max_size=5)) if image_ids else []:
        answer = draw(st.none() | _NON_BLANK)
        choices = draw(st.none() | _STRING_LISTS)
        if answer is not None and choices is not None and answer not in choices:
            choices.append(answer)
        text = draw(_NON_BLANK)
        questions.append(Question(qid, draw(st.sampled_from(image_ids)), text, answer, choices))
    return DatasetManifest(images, tuple(questions))


def _reference_payload(manifest: DatasetManifest) -> dict:
    """The manifest as the JSON payload whose ``write_json`` output is the
    manifest format."""
    return {
        "images": [
            {"image_id": e.image_id, "feature_ref": e.feature_ref,
             **({"gt_labels": list(e.gt_labels)} if e.gt_labels is not None else {})}
            for e in manifest.images
        ],
        "questions": [
            {"id": q.id, "image_id": q.image_id, "text": q.text,
             **({"answer": q.answer} if q.answer is not None else {}),
             **({"choices": list(q.choices)} if q.choices is not None else {})}
            for q in manifest.questions
        ],
    }


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(manifest=_manifests())
def test_save_dataset_writes_the_reference_bytes_and_reads_back(tmp_path, manifest):
    save_dataset(manifest, tmp_path / "saved.json")
    write_json(tmp_path / "reference.json", _reference_payload(manifest))
    assert (tmp_path / "saved.json").read_bytes() == (tmp_path / "reference.json").read_bytes()
    assert load_dataset(tmp_path / "saved.json") == manifest


@pytest.mark.parametrize("manifest", [
    DatasetManifest((), ()),
    DatasetManifest((ImageEntry(0, 0, ()),), ()),
    DatasetManifest((ImageEntry(2**64, 3, ("a", "\U0001f600")),),
                    (Question(-1, 2**64, " \\\"\x00 ", None, ()),
                     Question("\u2028", 2**64, "t", "a", ("a",)))),
])
def test_save_dataset_edge_cases(tmp_path, manifest):
    save_dataset(manifest, tmp_path / "saved.json")
    write_json(tmp_path / "reference.json", _reference_payload(manifest))
    assert (tmp_path / "saved.json").read_bytes() == (tmp_path / "reference.json").read_bytes()
    assert load_dataset(tmp_path / "saved.json") == manifest
