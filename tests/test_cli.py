import json
import struct
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from qsup import dataio, qparse, vocab
from qsup.cli import main
from qsup.dataio import DatasetManifest, ImageEntry, save_dataset, save_features
from qsup.synth import make_pair_dataset


def write_table2_fixture(path):
    payload = {
        "images": [{"image_id": i} for i in range(1, 5)],
        "questions": [
            {"id": "q1", "image_id": 1, "text": "What color is the bus?"},
            {"id": "q2", "image_id": 2, "text": "Are people waiting for the food truck?"},
            {"id": "q3", "image_id": 3, "text": "How many umbrellas are in the image?"},
            {"id": "q4", "image_id": 4, "text": "Is the bird sitting on a plant?"},
        ],
    }
    path.write_text(json.dumps(payload))


def records_to_manifest(records):
    images = tuple(ImageEntry(r.image_id, r.image_id) for r in records)
    questions = tuple(q for r in records for q in r.all_questions)
    return DatasetManifest(images, questions)


@pytest.fixture
def pair_setup(tmp_path):
    records, features = make_pair_dataset(60, seed=5)
    save_dataset(records_to_manifest(records), tmp_path / "data.json")
    save_features(features, tmp_path / "feats.qvft")
    cfg = {
        "dataset": "data.json",
        "features": "feats.qvft",
        "types": "types.txt",
        "object_vocab": "objects.txt",
        "out_dir": "out",
        "seed": 3,
        "augment_mode": "powerset",
        "train": {"learning_rate": 0.5, "epochs": 4, "batch_size": 16,
                  "answer_vocab_size": 8, "weight_init_scale": 0.01, "embed_dim": 8},
    }
    (tmp_path / "types.txt").write_text("[confirmed]\nwhat\n[unconfirmed]\nis\n")
    (tmp_path / "objects.txt").write_text("cat\n")
    (tmp_path / "run.json").write_text(json.dumps(cfg))
    return tmp_path


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_no_subcommand(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().err

    def test_missing_required_flag(self, capsys):
        assert main(["extract", "--out", "x.jsonl"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        code = main(["extract", "--questions", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path / "out.jsonl")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_simulate_needs_exactly_one_mode(self, tmp_path, capsys):
        write_table2_fixture(tmp_path / "data.json")
        assert main(["simulate", "--in", str(tmp_path / "data.json"),
                     "--seed", "1", "--out", str(tmp_path / "o.json")]) == 1


class TestExtract:
    def test_table2_fixture(self, tmp_path):
        data = tmp_path / "data.json"
        out = tmp_path / "labels.jsonl"
        write_table2_fixture(data)
        assert main(["extract", "--questions", str(data), "--out", str(out)]) == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        by_image = {r["image_id"]: set(r["labels"]) for r in rows}
        assert by_image == {
            1: {"bus"},
            2: {"person", "truck"},
            3: {"umbrella"},
            4: {"bird", "potted plant"},
        }
        assert (tmp_path / "extract.snapshot.json").exists()


class TestAugment:
    def test_powerset_counts(self, tmp_path):
        records, _ = make_pair_dataset(3, seed=1)
        save_dataset(records_to_manifest(records), tmp_path / "data.json")
        out = tmp_path / "ex.jsonl"
        assert main(["augment", "--in", str(tmp_path / "data.json"),
                     "--mode", "powerset", "--out", str(out)]) == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(rows) == 3 * 4  # 1 answered, |Q_all|=2 per image
        assert {"image_id", "target_id", "extra_ids", "answer"} <= set(rows[0])


class TestTrainPredictEval:
    def test_pipeline_and_determinism(self, pair_setup):
        base = pair_setup
        assert main(["train", "--config", str(base / "run.json")]) == 0
        first = (base / "out" / "model.qsmd").read_bytes()
        assert (base / "out" / "vocab.txt").exists()
        assert (base / "out" / "train.snapshot.json").exists()

        assert main(["train", "--config", str(base / "run.json")]) == 0
        second = (base / "out" / "model.qsmd").read_bytes()
        assert first == second

        pred = base / "pred.jsonl"
        assert main(["predict",
                     "--model", str(base / "out" / "model.qsmd"),
                     "--vocab", str(base / "out" / "vocab.txt"),
                     "--features", str(base / "feats.qvft"),
                     "--questions", str(base / "data.json"),
                     "--use-extras",
                     "--out", str(pred)]) == 0
        rows = [json.loads(line) for line in pred.read_text().splitlines()]
        assert len(rows) == 120  # answered + unanswered questions

        assert main(["eval", "--task", "vqa", "--pred", str(pred),
                     "--dataset", str(base / "data.json"),
                     "--out-prefix", str(base / "report")]) == 0
        report = json.loads((base / "report.json").read_text())
        assert 0.0 <= report["overall"] <= 1.0
        assert (base / "report.csv").exists()

        assert main(["bootstrap", "--pred", str(pred),
                     "--dataset", str(base / "data.json"),
                     "--confidence", "0.9", "--resamples", "1000", "--seed", "2",
                     "--out", str(base / "ci.json")]) == 0
        ci = json.loads((base / "ci.json").read_text())
        assert ci["lower"] <= ci["accuracy"] <= ci["upper"]

    @pytest.mark.parametrize("given_vocab", [False, True])
    def test_train_tokenizes_each_distinct_text_once(self, pair_setup, monkeypatch, given_vocab):
        config = pair_setup / "run.json"
        if given_vocab:
            (pair_setup / "vocab.txt").write_text("what\ncolor\nis\n")
            config.write_text(json.dumps({**json.loads(config.read_text()), "vocab": "vocab.txt"}))
        calls = Counter()

        def counting_tokenize(text, tokenize=qparse.tokenize):
            calls[text] += 1
            return tokenize(text)

        monkeypatch.setattr(qparse, "tokenize", counting_tokenize)
        monkeypatch.setattr(vocab, "tokenize", counting_tokenize)
        assert main(["train", "--config", str(config)]) == 0
        texts = Counter(q.text for q in dataio.load_dataset(pair_setup / "data.json").questions)
        assert len(texts) < sum(texts.values())  # texts repeat across questions
        assert calls == Counter(dict.fromkeys(texts, 1))

    def test_unused_feature_rows_leave_the_model_unchanged(self, pair_setup):
        assert main(["train", "--config", str(pair_setup / "run.json")]) == 0
        table = dataio.load_features(pair_setup / "feats.qvft")
        rng = np.random.default_rng(6)
        table.update({1000 + k: rng.normal(size=4) for k in range(40)})
        save_features(table, pair_setup / "wide.qvft")
        assert main(_run_config_with(pair_setup, features="wide.qvft", out_dir="wide")) == 0
        model = (pair_setup / "out" / "model.qsmd").read_bytes()
        assert (pair_setup / "wide" / "model.qsmd").read_bytes() == model

    def test_eval_rerun_is_reproducible(self, pair_setup, capsys):
        base = pair_setup
        main(["train", "--config", str(base / "run.json")])
        pred = base / "pred.jsonl"
        main(["predict", "--model", str(base / "out" / "model.qsmd"),
              "--vocab", str(base / "out" / "vocab.txt"),
              "--features", str(base / "feats.qvft"),
              "--questions", str(base / "data.json"), "--out", str(pred)])
        main(["eval", "--pred", str(pred), "--dataset", str(base / "data.json"),
              "--out-prefix", str(base / "r1")])
        main(["eval", "--pred", str(pred), "--dataset", str(base / "data.json"),
              "--out-prefix", str(base / "r2")])
        assert (base / "r1.json").read_text() == (base / "r2.json").read_text()


class TestExtractionEval:
    def test_per_class_report(self, tmp_path):
        payload = {
            "images": [
                {"image_id": 1, "gt_labels": ["bus"]},
                {"image_id": 2, "gt_labels": ["person", "truck", "cat"]},
            ],
            "questions": [
                {"id": "q1", "image_id": 1, "text": "What color is the bus?"},
                {"id": "q2", "image_id": 2, "text": "Are people waiting for the food truck?"},
            ],
        }
        data = tmp_path / "data.json"
        data.write_text(json.dumps(payload))
        labels = tmp_path / "labels.jsonl"
        assert main(["extract", "--questions", str(data), "--out", str(labels)]) == 0
        assert main(["eval", "--task", "extraction", "--labels", str(labels),
                     "--dataset", str(data), "--out-prefix", str(tmp_path / "pr")]) == 0
        report = json.loads((tmp_path / "pr.json").read_text())
        assert report["per_class"]["bus"]["recall"] == 1.0
        assert report["per_class"]["cat"]["recall"] == 0.0
        assert report["per_class"]["person"]["precision"] == 1.0


class TestWordTargets:
    def test_full_mode(self, tmp_path):
        write_table2_fixture(tmp_path / "data.json")
        out = tmp_path / "targets.jsonl"
        assert main(["word-targets", "--questions", str(tmp_path / "data.json"),
                     "--mode", "full", "--out", str(out)]) == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(rows) == 4
        words = (tmp_path / "targets.jsonl.words").read_text().split()
        row1 = rows[0]
        assert {words[i] for i in row1["indices"]} == {"what", "color", "is", "the", "bus"}

    def test_tfidf1024_mode_ranks_the_vocabulary_once(self, tmp_path, monkeypatch):
        write_table2_fixture(tmp_path / "data.json")
        calls = []
        rank = vocab.tfidf_rank
        monkeypatch.setattr(vocab, "tfidf_rank", lambda *a: calls.append(1) or rank(*a))
        out = tmp_path / "targets.jsonl"
        assert main(["word-targets", "--questions", str(tmp_path / "data.json"),
                     "--mode", "tfidf1024", "--out", str(out)]) == 0
        assert len(calls) == 1
        manifest = dataio.load_dataset(tmp_path / "data.json")
        expected = vocab.word_targets(dataio.questions_by_image(manifest), "tfidf1024",
                                      vocab.build_vocabulary(list(manifest.questions)))
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert rows == [{"image_id": t.image_id, "indices": t.indices()} for t in expected]

    def test_classes80_mode(self, tmp_path):
        write_table2_fixture(tmp_path / "data.json")
        out = tmp_path / "targets.jsonl"
        assert main(["word-targets", "--questions", str(tmp_path / "data.json"),
                     "--mode", "classes80", "--out", str(out)]) == 0
        words = (tmp_path / "targets.jsonl.words").read_text().splitlines()
        assert len(words) == 80
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert {words[i] for i in rows[0]["indices"]} == {"bus"}


class TestSimulate:
    def test_keep_mode(self, tmp_path):
        records, _ = make_pair_dataset(5, seed=2)
        save_dataset(records_to_manifest(records), tmp_path / "data.json")
        out = tmp_path / "sim.json"
        assert main(["simulate", "--in", str(tmp_path / "data.json"),
                     "--seed", "4", "--keep", "0", "--out", str(out)]) == 0
        result = json.loads(out.read_text())
        assert all("answer" not in q for q in result["questions"])

    def test_fraction_mode(self, tmp_path):
        records, _ = make_pair_dataset(10, seed=2)
        save_dataset(records_to_manifest(records), tmp_path / "data.json")
        kept = tmp_path / "kept.json"
        rest = tmp_path / "rest.json"
        assert main(["simulate", "--in", str(tmp_path / "data.json"),
                     "--seed", "4", "--fraction", "0.5",
                     "--out", str(kept), "--out-rest", str(rest)]) == 0
        kept_payload = json.loads(kept.read_text())
        rest_payload = json.loads(rest.read_text())
        assert len(kept_payload["images"]) == 5
        assert len(rest_payload["images"]) == 5
        assert all("answer" not in q for q in rest_payload["questions"])


def _config_with_momentum(base):
    cfg = json.loads((base / "run.json").read_text())
    cfg["train"]["momentum"] = 0.9
    (base / "momentum.json").write_text(json.dumps(cfg))
    return ["train", "--config", str(base / "momentum.json")]


def _labels_outside_vocabulary(base):
    (base / "gt.json").write_text(json.dumps({
        "images": [{"image_id": 1, "gt_labels": ["bus"]}],
        "questions": [{"id": "q1", "image_id": 1, "text": "What color is the bus?"}],
    }))
    (base / "labels.jsonl").write_text(json.dumps({"image_id": 1, "labels": ["unicorn"]}) + "\n")
    return ["eval", "--task", "extraction", "--labels", str(base / "labels.jsonl"),
            "--dataset", str(base / "gt.json"), "--out-prefix", str(base / "pr")]


def _manifest_with(base, image=None, question=None):
    """A one-question manifest whose image and question records gain the given fields."""
    (base / "odd.json").write_text(json.dumps({
        "images": [{"image_id": 1, **(image or {})}],
        "questions": [{"id": "q1", "image_id": 1, "text": "What color is the bus?",
                       "answer": "red", **(question or {})}],
    }))
    return base / "odd.json"


def _run_config_with(base, **fields):
    """The pair_setup run config with the given top-level fields replaced."""
    cfg = json.loads((base / "run.json").read_text())
    cfg.update(fields)
    (base / "odd_run.json").write_text(json.dumps(cfg))
    return ["train", "--config", str(base / "odd_run.json")]


def _train_fields(**fields):
    return lambda b: _run_config_with(
        b, train={**json.loads((b / "run.json").read_text())["train"], **fields})


def _jsonl(base, record):
    (base / "odd.jsonl").write_text(json.dumps(record) + "\n")
    return str(base / "odd.jsonl")


def _eval_vqa_predictions(record):
    return lambda b: ["eval", "--pred", _jsonl(b, record), "--dataset", str(_manifest_with(b)),
                      "--out-prefix", str(b / "r")]


def _unanswered_manifest(base):
    (base / "unanswered.json").write_text(json.dumps({
        "images": [{"image_id": 1}],
        "questions": [{"id": "q1", "image_id": 1, "text": "What color is the bus?"}],
    }))
    return str(base / "unanswered.json")


def _repeated_word_vocab(base):
    (base / "repeated.txt").write_text("what\ncolor\nwhat\n")
    return str(base / "repeated.txt")


def _non_utf8_manifest(base):
    (base / "odd.json").write_bytes(b"\xff\xfe{}")
    return ["extract", "--questions", str(base / "odd.json"), "--out", str(base / "l.jsonl")]


def _bytes_file(base, name, raw):
    (base / name).write_bytes(raw)
    return str(base / name)


def _model_file(base, answers):
    """A model file over pair_setup's features with one-dimensional text
    blocks, one word and the given raw answers."""
    d_img = len(next(iter(dataio.load_features(base / "feats.qvft").values())))
    n = len(answers)
    raw = struct.pack("<4sI5I", b"QSMD", 1, d_img, 1, 1, n, 1)
    raw += b"".join(struct.pack("<I", len(a)) + a for a in answers)
    # embeddings, fc weights and fc bias
    raw += np.zeros(2 + n * (d_img + 2) + n, dtype="<f4").tobytes()
    return _bytes_file(base, "m.qsmd", raw)


def _predict_with(answers, text_vocab=b"what\n"):
    return lambda b: ["predict", "--model", _model_file(b, answers),
                      "--vocab", _bytes_file(b, "v.txt", text_vocab),
                      "--features", str(b / "feats.qvft"), "--questions", str(b / "data.json"),
                      "--out", str(b / "p.jsonl")]


def _predict_with_cut_file(flag, cut):
    """predict with a well-formed model and features, the file of ``flag``
    replaced by ``cut`` of its bytes."""
    def build(base):
        argv = _predict_with([b"yes", b"no"])(base)
        at = argv.index(flag) + 1
        argv[at] = _bytes_file(base, "cut.bin", cut(Path(argv[at]).read_bytes()))
        return argv
    return build


def _features_without(base, image_id):
    """pair_setup's feature file without the row of ``image_id``; its name."""
    table = dataio.load_features(base / "feats.qvft")
    del table[image_id]
    save_features(table, base / "partial.qvft")
    return "partial.qvft"


def _predict_without_features_of(image_id):
    def build(base):
        argv = _predict_with([b"yes", b"no"])(base)
        argv[argv.index("--features") + 1] = str(base / _features_without(base, image_id))
        return argv
    return build


def _extract_with(flag, raw):
    return lambda b: ["extract", "--questions", str(b / "data.json"),
                      flag, _bytes_file(b, "table.txt", raw), "--out", str(b / "l.jsonl")]


# (argv built from the pair_setup directory, expected exit code):
# 1 = bad flag value or combination, 2 = bad data
CONTRACT_CASES = {
    "bootstrap_too_few_resamples": (
        lambda b: ["bootstrap", "--pred", str(b / "p.jsonl"), "--dataset", str(b / "data.json"),
                   "--resamples", "10"], 1),
    "bootstrap_confidence_above_one": (
        lambda b: ["bootstrap", "--pred", str(b / "p.jsonl"), "--dataset", str(b / "data.json"),
                   "--confidence", "1.5"], 1),
    "simulate_negative_keep": (
        lambda b: ["simulate", "--in", str(b / "data.json"), "--seed", "1", "--keep", "-1",
                   "--out", str(b / "s.json")], 1),
    "simulate_fraction_above_one": (
        lambda b: ["simulate", "--in", str(b / "data.json"), "--seed", "1", "--fraction", "2",
                   "--out", str(b / "s.json"), "--out-rest", str(b / "r.json")], 1),
    "simulate_fraction_without_out_rest": (
        lambda b: ["simulate", "--in", str(b / "data.json"), "--seed", "1", "--fraction", "0.5",
                   "--out", str(b / "s.json")], 1),
    "word_targets_zero_min_count": (
        lambda b: ["word-targets", "--questions", str(b / "data.json"), "--mode", "full",
                   "--min-count", "0", "--out", str(b / "t.jsonl")], 1),
    "eval_vqa_without_pred": (
        lambda b: ["eval", "--dataset", str(b / "data.json"), "--out-prefix", str(b / "r")], 1),
    "eval_extraction_without_labels": (
        lambda b: ["eval", "--task", "extraction", "--dataset", str(b / "data.json"),
                   "--out-prefix", str(b / "r")], 1),
    "eval_extraction_label_outside_vocabulary": (_labels_outside_vocabulary, 2),
    "train_config_sets_momentum": (_config_with_momentum, 2),
    "augment_list_question_id": (
        lambda b: ["augment", "--in", str(_manifest_with(b, question={"id": [1]})),
                   "--out", str(b / "e.jsonl")], 2),
    "extract_dict_question_id": (
        lambda b: ["extract", "--questions", str(_manifest_with(b, question={"id": {"a": 1}})),
                   "--out", str(b / "l.jsonl")], 2),
    "augment_float_question_id": (
        lambda b: ["augment", "--in", str(_manifest_with(b, question={"id": 1.5})),
                   "--out", str(b / "e.jsonl")], 2),
    "augment_text_feature_ref": (
        lambda b: ["augment", "--in", str(_manifest_with(b, image={"feature_ref": "x"})),
                   "--out", str(b / "e.jsonl")], 2),
    "eval_vqa_numeric_manifest_answer": (
        lambda b: ["eval", "--task", "vqa",
                   "--pred", _jsonl(b, {"question_id": "q1", "answer": "red"}),
                   "--dataset", str(_manifest_with(b, question={"answer": 5})),
                   "--out-prefix", str(b / "r")], 2),
    "eval_numeric_predicted_answer": (_eval_vqa_predictions({"question_id": "q1", "answer": 5}), 2),
    "eval_list_predicted_question_id": (
        _eval_vqa_predictions({"question_id": ["a"], "answer": "red"}), 2),
    "eval_extraction_list_label_image_id": (
        lambda b: ["eval", "--task", "extraction",
                   "--labels", _jsonl(b, {"image_id": [1], "labels": ["bus"]}),
                   "--dataset", str(_manifest_with(b, image={"gt_labels": ["bus"]})),
                   "--out-prefix", str(b / "pr")], 2),
    "train_config_text_min_count": (lambda b: _run_config_with(b, min_count="x"), 2),
    "train_config_zero_min_count": (lambda b: _run_config_with(b, min_count=0), 2),
    "train_config_text_seed": (lambda b: _run_config_with(b, seed="abc"), 2),
    "train_config_numeric_train_section": (lambda b: _run_config_with(b, train=5), 2),
    "train_config_numeric_dataset_path": (lambda b: _run_config_with(b, dataset=3), 2),
    "train_config_numeric_vocab_path": (lambda b: _run_config_with(b, vocab=3), 2),
    "train_config_fractional_epochs": (_train_fields(epochs=1.5), 2),
    "train_config_fractional_batch_size": (_train_fields(batch_size=1.5), 2),
    "train_config_fractional_embed_dim": (_train_fields(embed_dim=1.5), 2),
    "train_config_text_train_seed": (_train_fields(seed="x"), 2),
    "train_config_nan_learning_rate": (_train_fields(learning_rate=float("nan")), 2),
    "train_config_negative_seed": (lambda b: _run_config_with(b, seed=-1), 2),
    "extract_non_utf8_manifest": (_non_utf8_manifest, 2),
    "eval_vqa_no_answered_question": (
        lambda b: ["eval", "--pred", _jsonl(b, {"question_id": "q1", "answer": "red"}),
                   "--dataset", _unanswered_manifest(b), "--out-prefix", str(b / "r")], 2),
    "word_targets_vocab_repeated_word": (
        lambda b: ["word-targets", "--questions", str(b / "data.json"), "--mode", "full",
                   "--text-vocab", _repeated_word_vocab(b), "--out", str(b / "t.jsonl")], 2),
    "train_config_vocab_repeated_word": (
        lambda b: _run_config_with(b, vocab=_repeated_word_vocab(b)), 2),
    "predict_non_utf8_text_vocab": (_predict_with([b"yes"], b"what\n\xff\n"), 2),
    "extract_non_utf8_question_types": (
        _extract_with("--types", b"[confirmed]\nwhat\n[unconfirmed]\nis \xff\n"), 2),
    "extract_non_utf8_object_vocabulary": (_extract_with("--vocab", b"cat\n\xff\n"), 2),
    "predict_model_non_utf8_answer": (_predict_with([b"yes", b"\xffno"]), 2),
    "predict_model_repeated_answer": (_predict_with([b"yes", b"yes"]), 2),
    "predict_model_no_answers": (_predict_with([]), 2),
    "predict_truncated_model": (_predict_with_cut_file("--model", lambda raw: raw[:100]), 2),
    "predict_truncated_features": (
        _predict_with_cut_file("--features", lambda raw: raw[:1000]), 2),
    "predict_features_wrong_magic": (
        _predict_with_cut_file("--features", lambda raw: b"XXXX" + raw[4:]), 2),
    "train_image_without_features": (
        lambda b: _run_config_with(b, features=_features_without(b, 59)), 2),
    "predict_image_without_features": (_predict_without_features_of(59), 2),
    "predict_vocab_size_mismatch": (_predict_with([b"yes", b"no"], b"what\ncolor\n"), 2),
}


@pytest.mark.parametrize("case, flag", [("predict_truncated_model", "--model"),
                                        ("predict_truncated_features", "--features"),
                                        ("predict_features_wrong_magic", "--features")])
def test_binary_file_errors_name_the_file(case, flag, pair_setup, capsys):
    argv = CONTRACT_CASES[case][0](pair_setup)
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"qsup: error: {argv[argv.index(flag) + 1]}: ")


@pytest.mark.parametrize("case", ["train_image_without_features",
                                  "predict_image_without_features"])
def test_missing_features_name_the_image_before_any_output(case, pair_setup, capsys):
    assert main(CONTRACT_CASES[case][0](pair_setup)) == 2
    assert capsys.readouterr().err == "qsup: error: image 59: no features under ref 59\n"
    assert not (pair_setup / "p.jsonl").exists()
    assert not (pair_setup / "out").exists()


def test_predict_reads_the_well_formed_contract_model(pair_setup):
    assert main(_predict_with([b"yes", b"no"])(pair_setup)) == 0
    assert len((pair_setup / "p.jsonl").read_text().splitlines()) == 120


@pytest.mark.parametrize("case", sorted(CONTRACT_CASES))
def test_cli_contract_exit_codes(case, pair_setup, capsys):
    build_argv, expected = CONTRACT_CASES[case]
    code = main(build_argv(pair_setup))
    err = capsys.readouterr().err
    assert code == expected
    assert "Traceback" not in err
    error_lines = [line for line in err.splitlines() if "error:" in line]
    assert len(error_lines) == 1, err
    if expected == 1:
        assert "usage:" in err
    else:
        assert error_lines[0].startswith("qsup: error:")
