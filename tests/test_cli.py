import json

import pytest

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


def _non_utf8_manifest(base):
    (base / "odd.json").write_bytes(b"\xff\xfe{}")
    return ["extract", "--questions", str(base / "odd.json"), "--out", str(base / "l.jsonl")]


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
}


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
