from pathlib import Path

import pytest

import gen
from qsup import dataio
from qsup.qparse import default_object_vocabulary, default_question_types


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("signal", [{}, {"signal": "hint", "hints": 4, "keywords": 0}])
def test_same_seed_gives_identical_bytes(tmp_path, tiny_spec, signal):
    spec = tiny_spec(**signal)
    gen.generate(spec, 5, tmp_path / "a")
    gen.generate(spec, 5, tmp_path / "b")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")


def test_other_seed_gives_other_inputs(tmp_path, tiny_spec):
    spec = tiny_spec()
    gen.generate(spec, 5, tmp_path / "a")
    gen.generate(spec, 6, tmp_path / "b")
    a, b = _files(tmp_path / "a"), _files(tmp_path / "b")
    for name in ("train.json", "eval.json", "vqa_questions.json", "features.qvft"):
        assert a[name] != b[name], name


def test_outputs_load_and_match_meta(tmp_path, tiny_spec):
    meta = gen.generate(tiny_spec(), 3, tmp_path)
    train = dataio.load_dataset(tmp_path / "train.json")
    held = dataio.load_dataset(tmp_path / "eval.json")
    converted = dataio.load_vqa_dataset(tmp_path / "vqa_questions.json",
                                        tmp_path / "vqa_annotations.json")
    features = dataio.load_features(tmp_path / "features.qvft")
    assert len(train.questions) == meta["train_questions"]
    assert (len(converted.images), len(converted.questions)) == (
        meta["eval_images"], meta["eval_questions"])
    assert [q.answer for q in converted.questions] == [q.answer for q in held.questions]
    assert set(features) == {e.image_id for e in train.images + held.images}
    records = dataio.build_image_records(train)
    assert meta["exemplars"] == sum(len(r.answered) * 2 ** len(r.all_questions) for r in records)


def test_hintless_ceiling_sits_near_one_over_hints(tmp_path):
    spec = gen.WORKLOADS["powerset_many_q"]
    meta = gen.generate(spec, 1, tmp_path)
    # grouping by (cluster, kind) can only beat one answer for everything
    assert meta["majority_baseline"] <= meta["hintless_ceiling"]
    assert meta["hintless_ceiling"] < 1.5 / spec["hints"]


def test_made_up_words_never_hit_the_extractor():
    obj_vocab = default_object_vocabulary()
    table = default_question_types()
    reserved = set(obj_vocab.word_map) | {w for p in obj_vocab.phrase_map for w in p}
    reserved |= {w for phrase in table.confirmed + table.unconfirmed for w in phrase.split()}
    biggest = max(spec["vocab_types"] for spec in gen.WORKLOADS.values())
    words = gen.pseudo_words(biggest) + gen.pseudo_words(8, 200_000) + gen.pseudo_words(
        400, 300_000)
    assert len(set(words)) == len(words)
    assert not reserved & set(words)


def test_object_classes_exist_in_the_packaged_vocabulary():
    names = set(default_object_vocabulary().class_names)
    assert {cls for _, cls in gen.OBJECTS} <= names
