import json
import os
import random
import struct
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import qsup
from qsup import augment, dataio, qparse, vocab
from qsup.augment import generate_exemplars
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
        assert (tmp_path / "labels.jsonl.snapshot.json").exists()

    def test_lines_are_json_dumps_bytes(self, tmp_path):
        # class names that need escapes, a large image id and an image with no labels
        (tmp_path / "objects.txt").write_text('cat\ncaf\u00e9\nsay "hi" \\ now\n',
                                              encoding="utf-8")
        (tmp_path / "data.json").write_text(json.dumps({
            "images": [{"image_id": 2**70}, {"image_id": 0}],
            "questions": [{"id": 1, "image_id": 2**70, "text": "What cat, caf\u00e9, say hi now?"},
                          {"id": 2, "image_id": 0, "text": "What is it?"}],
        }))
        assert main(["extract", "--questions", str(tmp_path / "data.json"),
                     "--vocab", str(tmp_path / "objects.txt"),
                     "--out", str(tmp_path / "labels.jsonl")]) == 0
        assert (tmp_path / "labels.jsonl").read_bytes() == "".join(
            json.dumps({"image_id": image_id, "labels": labels}) + "\n" for image_id, labels in
            [(2**70, ["caf\u00e9", "cat", 'say "hi" \\ now']), (0, [])]).encode()


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

    @pytest.mark.parametrize("mode", ["plain", "powerset", "concat_only", "powerset_no_empty"])
    def test_each_line_is_json_dumps_of_its_exemplar(self, tmp_path, mode):
        questions = [
            {"id": 7, "image_id": 1, "text": "What is it?", "answer": 'caf\u00e9 "x"'},
            {"id": 'q\u00e9"\\', "image_id": 1, "text": "Is it red?", "answer": "no"},
            {"id": -3, "image_id": 1, "text": "How many?"},
            {"id": "a", "image_id": 2, "text": "What color?", "answer": "\U0001f600"},
            {"id": "b", "image_id": 3, "text": "Why?"},
        ]
        data = tmp_path / "data.json"
        data.write_text(json.dumps({"images": [{"image_id": i} for i in (1, 2, 3)],
                                    "questions": questions}))
        out = tmp_path / "ex.jsonl"
        assert main(["augment", "--in", str(data), "--mode", mode, "--out", str(out)]) == 0
        expected = [
            json.dumps({"image_id": ex.image_id, "target_id": ex.target_question.id,
                        "extra_ids": [q.id for q in ex.extra], "answer": ex.answer})
            for record in dataio.build_image_records(dataio.load_dataset(data)) if record.answered
            for ex in generate_exemplars(record, mode)
        ]
        assert out.read_text(encoding="utf-8").splitlines() == expected

    @pytest.mark.parametrize("mode", ["plain", "powerset", "concat_only", "powerset_no_empty"])
    def test_lines_across_decode_windows_stream_through_generate_exemplars(self, tmp_path, mode,
                                                                            monkeypatch):
        questions = [
            {"id": f"q{i}{j}" if j % 2 else 10 * i + j, "image_id": i, "text": f"what is {j}",
             **({"answer": f"ans {i}{j}"} if j < i else {})}
            for i in (1, 2, 3, 4) for j in range(3)
        ]
        data = tmp_path / "data.json"
        data.write_text(json.dumps({"images": [{"image_id": i} for i in (1, 2, 3, 4)],
                                    "questions": questions}))
        records = dataio.build_image_records(dataio.load_dataset(data))
        # at the default window each image's rows decode in one window
        expected = [
            json.dumps({"image_id": ex.image_id, "target_id": ex.target_question.id,
                        "extra_ids": [q.id for q in ex.extra], "answer": ex.answer})
            for record in records if record.answered for ex in generate_exemplars(record, mode)
        ]
        assert len(expected) > 7  # plain: 1 + 2 + 3 + 3 answered questions
        # 7 rows a window: an image's rows straddle windows, and a window spans images
        monkeypatch.setattr(augment, "_STREAM_ROWS", 7)
        generate, yielded = augment.generate_exemplars, []

        def counting(record, mode, make=None):
            for exemplar in generate(record, mode, make):
                yielded.append(record.image_id)
                yield exemplar

        monkeypatch.setattr(augment, "generate_exemplars", counting)
        out = tmp_path / "ex.jsonl"
        assert main(["augment", "--in", str(data), "--mode", mode, "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines == expected
        # every line is an item of generate_exemplars, which the traced benchmark counts
        assert yielded == [json.loads(line)["image_id"] for line in lines]


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
        # each snapshot is named after the output it describes
        for name in ("pred.jsonl", "report", "ci.json"):
            assert (base / f"{name}.snapshot.json").exists(), name

    def test_a_plain_model_predicts_the_same_with_and_without_extras(self, pair_setup):
        # a plain model has no extra block (d_e = 0), so the image's other questions add
        # nothing; at this initial scale a random, untrained one changes answers
        fields = {**json.loads((pair_setup / "run.json").read_text())["train"],
                  "weight_init_scale": 1.0}
        assert main(_run_config_with(pair_setup, augment_mode="plain", out_dir="plain",
                                     train=fields)) == 0
        assert dataio.load_model(pair_setup / "plain" / "model.qsmd").dims.d_e == 0
        preds = []
        for flags in ([], ["--use-extras"]):
            out = pair_setup / f"pred_{len(flags)}.jsonl"
            assert main(["predict", "--model", str(pair_setup / "plain" / "model.qsmd"),
                         "--vocab", str(pair_setup / "plain" / "vocab.txt"),
                         "--features", str(pair_setup / "feats.qvft"),
                         "--questions", str(pair_setup / "data.json"),
                         "--out", str(out), *flags]) == 0
            preds.append(out.read_bytes())
        assert preds[0] == preds[1]
        assert len({json.loads(line)["answer"] for line in preds[0].splitlines()}) > 1

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
        # the indexer tokenizes each distinct text once, and so does the vocabulary
        # builder when the config names no vocabulary
        assert calls == Counter(dict.fromkeys(texts, 1 if given_vocab else 2))

    def test_a_given_vocabulary_trains_as_the_one_built_from_the_data(self, pair_setup):
        assert main(["train", "--config", str(pair_setup / "run.json")]) == 0
        assert main(_run_config_with(pair_setup, vocab="out/vocab.txt", out_dir="given")) == 0
        model = (pair_setup / "out" / "model.qsmd").read_bytes()
        assert (pair_setup / "given" / "model.qsmd").read_bytes() == model

    def test_unused_feature_rows_leave_the_model_unchanged(self, pair_setup):
        assert main(["train", "--config", str(pair_setup / "run.json")]) == 0
        table = dataio.load_features(pair_setup / "feats.qvft")
        rng = np.random.default_rng(6)
        table.update({1000 + k: rng.normal(size=4) for k in range(40)})
        save_features(table, pair_setup / "wide.qvft")
        assert main(_run_config_with(pair_setup, features="wide.qvft", out_dir="wide")) == 0
        model = (pair_setup / "out" / "model.qsmd").read_bytes()
        assert (pair_setup / "wide" / "model.qsmd").read_bytes() == model

    def test_an_image_without_answers_needs_no_feature_row(self, pair_setup):
        payload = json.loads((pair_setup / "data.json").read_text())
        payload["images"].append({"image_id": 500, "feature_ref": 999})
        payload["questions"].append({"id": "u500", "image_id": 500, "text": "is it a circle"})
        (pair_setup / "weak.json").write_text(json.dumps(payload))
        assert main(_run_config_with(pair_setup, dataset="weak.json", out_dir="lacking")) == 0
        table = dataio.load_features(pair_setup / "feats.qvft")
        save_features({**table, 999: np.ones(4)}, pair_setup / "full.qvft")
        assert main(_run_config_with(pair_setup, dataset="weak.json", features="full.qvft",
                                     out_dir="full")) == 0
        model = (pair_setup / "full" / "model.qsmd").read_bytes()
        assert (pair_setup / "lacking" / "model.qsmd").read_bytes() == model

    def test_a_min_count_above_every_word_trains_and_predicts_over_no_words(self, pair_setup,
                                                                           capsys):
        # both text blocks of every step are empty: the model sees the image alone
        assert main(_run_config_with(pair_setup, min_count=10**6, out_dir="wordless")) == 0
        assert "trained model over 0 words and " in capsys.readouterr().out
        assert (pair_setup / "wordless" / "vocab.txt").read_text() == ""
        pred = pair_setup / "wordless.jsonl"
        assert main(["predict", "--model", str(pair_setup / "wordless" / "model.qsmd"),
                     "--vocab", str(pair_setup / "wordless" / "vocab.txt"),
                     "--features", str(pair_setup / "feats.qvft"),
                     "--questions", str(pair_setup / "data.json"),
                     "--use-extras", "--out", str(pred)]) == 0
        answers = {}
        for line in pred.read_text().splitlines():
            row = json.loads(line)
            answers.setdefault(row["image_id"], set()).add(row["answer"])
        assert len(answers) == 60 and all(len(a) == 1 for a in answers.values())

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


def _predict_inputs(base, answers, questions, images):
    """A random model over four words and the given answers, its vocabulary,
    features for the (image id, feature ref) pairs of ``images`` whose ref
    is below 100, and a manifest of ``images`` and ``questions``; the model
    as predict reads it back."""
    from qsup.model import LinearModel
    words = ["what", "is", "the", "cat"]
    rng = np.random.default_rng(12)
    dataio.save_model(LinearModel(
        rng.normal(size=(4, 3)), rng.normal(size=(4, 3)), rng.normal(size=(len(answers), 8)),
        rng.normal(size=len(answers)), answers), base / "m.qsmd")
    vocab.save_vocabulary(vocab.Vocabulary(words), base / "v.txt")
    save_features({ref: rng.normal(size=2) for _, ref in images if ref < 100}, base / "f.qvft")
    save_dataset(DatasetManifest(tuple(ImageEntry(*pair) for pair in images), tuple(questions)),
                 base / "data.json")
    return dataio.load_model(base / "m.qsmd")


def predict_probe_peak_mib(extra_rows):
    """Peak resident MiB of the `qsup predict --use-extras` child of the predict
    scale probe, whose feature file holds ``extra_rows`` rows (d=256) of images
    its 500-question manifest does not name."""
    src = Path(qsup.__file__).parents[1]
    probe = src.parent / "scripts" / "predict_scale_probe.py"
    run = subprocess.run(
        [sys.executable, str(probe), "--questions-per-image", "5", "--questions", "500",
         "--extra-feature-rows", str(extra_rows)],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    figures = json.loads(run.stdout)
    assert figures["extra_feature_rows"] == extra_rows
    return figures["peak_mib"]


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="the probe reaps its child with os.wait4")
def test_predict_memory_is_flat_in_the_feature_rows_the_manifest_does_not_name():
    # 20,000 unnamed rows are ~40 MiB as float64 vectors, ~20 MiB as float32
    none, many = predict_probe_peak_mib(0), predict_probe_peak_mib(20000)
    assert many - none <= 6.0, (none, many)


# runs the command in sys.argv[1:] as its child and prints the child's exit code and
# peak resident size; a fresh interpreter, so the child does not take on the test's peak
_PEAK_OF_CHILD = (
    "import os, subprocess, sys\n"
    "child = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)\n"
    "_, status, usage = os.wait4(child.pid, 0)\n"
    "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n"
)


def word_targets_peak_mib(base, pool_size):
    """Peak resident MiB of `qsup word-targets --mode full` on 5,000 images of
    5 questions of 4 words each, drawn from a pool of ``pool_size`` words."""
    rng = random.Random(8)
    pool = [f"w{i}" for i in range(pool_size)]
    questions = tuple(qparse.Question(f"q{image}.{k}", image, " ".join(rng.choices(pool, k=4)))
                      for image in range(5000) for k in range(5))
    base.mkdir()
    save_dataset(DatasetManifest(tuple(ImageEntry(i, i) for i in range(5000)), questions),
                 base / "data.json")
    argv = [sys.executable, "-m", "qsup.cli", "word-targets", "--questions",
            str(base / "data.json"), "--mode", "full", "--out", str(base / "t.jsonl")]
    env = dict(os.environ, PYTHONPATH=str(Path(qsup.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", _PEAK_OF_CHILD, *argv], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    code, peak = map(int, run.stdout.split())
    assert code == 0
    # ru_maxrss is in KiB on Linux and in bytes on macOS
    return peak / (1 << 20 if sys.platform == "darwin" else 1 << 10)


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="the probe reaps its child with os.wait4")
def test_word_target_memory_is_flat_in_the_vocabulary_size(tmp_path):
    # 5,000 images over a ~20,000-word vocabulary are ~95 MiB as dense int8 rows
    small = word_targets_peak_mib(tmp_path / "small", 200)
    large = word_targets_peak_mib(tmp_path / "large", 20000)
    assert large - small <= 16.0, (small, large)


class TestPredictOutput:
    def predict(self, base, use_extras):
        argv = ["predict", "--model", str(base / "m.qsmd"), "--vocab", str(base / "v.txt"),
                "--features", str(base / "f.qvft"), "--questions", str(base / "data.json"),
                "--out", str(base / "p.jsonl")]
        assert main(argv + ["--use-extras"] * use_extras) == 0
        return (base / "p.jsonl").read_text(encoding="utf-8").splitlines()

    @pytest.mark.parametrize("use_extras", [False, True])
    def test_lines_follow_the_manifest_when_it_interleaves_images(self, tmp_path, use_extras):
        from qsup.model import predict
        texts = ["what is the cat", "is the cat", "what cat", "the the cat", "what is it"]
        questions = [qparse.Question(f"q{i}", 1 + i % 2, text) for i, text in enumerate(texts)]
        # image 3 has no question and no feature row
        model = _predict_inputs(tmp_path, ("yes", "no", "two"), questions,
                                [(1, 1), (2, 2), (3, 300)])
        features = dataio.load_features(tmp_path / "f.qvft")
        text_vocab = vocab.load_vocabulary(tmp_path / "v.txt")
        rows = [json.loads(line) for line in self.predict(tmp_path, use_extras)]
        assert [row["question_id"] for row in rows] == [q.id for q in questions]
        for q, row in zip(questions, rows):
            extras = [x for x in questions if x.image_id == q.image_id and x is not q]
            answer, _ = predict(model, text_vocab, features[q.image_id], q,
                                extras if use_extras else None)
            assert (row["image_id"], row["answer"]) == (q.image_id, answer)

    def test_lines_are_json_dumps_bytes(self, tmp_path):
        # answers and string ids that need escapes, int ids and a large image id
        answers = ('caf\u00e9 "au" lait', "\u96ea \\ snow", "na\u00efve \\ \"x\"")
        ids = [7, 'say "hi"', "back\\slash", "\u00fcn\u00efcode", 2**40, "\u96ea"]
        questions = [qparse.Question(qid, [1, 2**70][i % 2], ["what is the cat", "the cat"][i % 2])
                     for i, qid in enumerate(ids)]
        _predict_inputs(tmp_path, answers, questions, [(1, 1), (2**70, 2)])
        lines = self.predict(tmp_path, True)
        assert len(lines) == len(questions)
        for q, line in zip(questions, lines):
            answer = json.loads(line)["answer"]
            assert answer in answers
            assert line == json.dumps({"question_id": q.id, "image_id": q.image_id,
                                       "answer": answer})


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
        _, expected = vocab.word_targets(dataio.questions_by_image(manifest), "tfidf1024",
                                      vocab.build_vocabulary(list(manifest.questions)))
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert rows == [{"image_id": t.image_id, "indices": list(t.indices)} for t in expected]

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


def _empty_object_vocabulary(base):
    (base / "gt.json").write_text(json.dumps({
        "images": [{"image_id": 1, "gt_labels": []}],
        "questions": [{"id": "q1", "image_id": 1, "text": "What color is the bus?"}],
    }))
    (base / "labels.jsonl").write_text(json.dumps({"image_id": 1, "labels": []}) + "\n")
    (base / "no_classes.txt").write_text("# no classes\n")
    return ["eval", "--task", "extraction", "--labels", str(base / "labels.jsonl"),
            "--dataset", str(base / "gt.json"), "--vocab", str(base / "no_classes.txt"),
            "--out-prefix", str(base / "pr")]


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


def _undercount(raw):
    """A feature file whose header declares one row fewer than it holds."""
    (count,) = struct.unpack_from("<I", raw, 8)
    return raw[:8] + struct.pack("<I", count - 1) + raw[12:]


def _features_without(base, image_id):
    """pair_setup's feature file without the row of ``image_id``; its name."""
    table = dataio.load_features(base / "feats.qvft")
    del table[image_id]
    save_features(table, base / "partial.qvft")
    return "partial.qvft"


def _features_with_repeated_row(base):
    """pair_setup's feature file with its first row written again at the end; its name."""
    raw = (base / "feats.qvft").read_bytes()
    magic, version, count, dim = struct.unpack_from("<4sIII", raw)
    first_row = raw[16 : 16 + 8 + 4 * dim]
    (base / "twice.qvft").write_bytes(
        struct.pack("<4sIII", magic, version, count + 1, dim) + raw[16:] + first_row)
    return "twice.qvft"


def _predict_without_features_of(image_id):
    def build(base):
        argv = _predict_with([b"yes", b"no"])(base)
        argv[argv.index("--features") + 1] = str(base / _features_without(base, image_id))
        return argv
    return build


def _features_with_nan(base, image_id):
    """pair_setup's feature file with one value of ``image_id``'s row NaN; its name."""
    table = dataio.load_features(base / "feats.qvft")
    table[image_id] = np.where(np.arange(len(table[image_id])) == 1, np.nan, table[image_id])
    save_features(table, base / "nan.qvft")
    return "nan.qvft"


def _predict_with_nan_features_of(image_id):
    def build(base):
        argv = _predict_with([b"yes", b"no"])(base)
        argv[argv.index("--features") + 1] = str(base / _features_with_nan(base, image_id))
        return argv
    return build


def _nan_bias(raw):
    """A model file whose last fc bias value is NaN."""
    return raw[:-4] + struct.pack("<f", float("nan"))


def _predict_with_wide_features(base):
    """predict with pair_setup's features widened by one dimension."""
    table = dataio.load_features(base / "feats.qvft")
    argv = _predict_with([b"yes", b"no"])(base)
    save_features({i: np.append(vec, 0.0) for i, vec in table.items()}, base / "wide.qvft")
    argv[argv.index("--features") + 1] = str(base / "wide.qvft")
    return argv


def _declaring(at, *values):
    """A binary file's bytes with the u32 header fields from byte ``at`` on
    declaring ``values``, a payload far past the file's end."""
    return lambda raw: raw[:at] + struct.pack(f"<{len(values)}I", *values) + raw[at + 4 * len(values):]


def _many_questions_manifest(base):
    """A manifest of one image with 40 questions, one of them answered; its name."""
    questions = [{"id": i, "image_id": 1, "text": f"What is thing {i}?"} for i in range(40)]
    questions[0]["answer"] = "red"
    (base / "many.json").write_text(json.dumps({"images": [{"image_id": 1}],
                                                "questions": questions}))
    return "many.json"


def _repeated_jsonl(base, record):
    (base / "odd.jsonl").write_text(2 * (json.dumps(record) + "\n"))
    return str(base / "odd.jsonl")


def _extract_with(flag, raw):
    return lambda b: ["extract", "--questions", str(b / "data.json"),
                      flag, _bytes_file(b, "table.txt", raw), "--out", str(b / "l.jsonl")]


def _deeply_nested_manifest(base):
    """extract on a manifest whose gt_labels is nested 100,000 deep, written as
    text, since json.dumps stops at the recursion limit."""
    nested = "[" * 100_000 + "]" * 100_000
    (base / "deep.json").write_text(f'{{"images": [{{"image_id": 1, "gt_labels": {nested}}}], '
                                    '"questions": []}')
    return ["extract", "--questions", str(base / "deep.json"), "--out", str(base / "l.jsonl")]


def _long_integer(base, name, payload):
    """``payload`` written to ``name`` with its "LONG" string as a 5,000-digit
    integer literal, past the digit limit of int(); json.dumps refuses to write one."""
    (base / name).write_text(json.dumps(payload).replace('"LONG"', "1" * 5000) + "\n")
    return str(base / name)


def _skip_where_integers_have_no_digit_limit(case):
    """Python 3.10 before 3.10.7 reads integer literals of any length."""
    if (case in ("eval_long_integer_question_id", "train_config_long_integer_seed")
            and not hasattr(sys, "get_int_max_str_digits")):
        pytest.skip("this Python reads integer literals of any length")


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
    "word_targets_classes80_with_text_vocab": (
        lambda b: ["word-targets", "--questions", str(b / "data.json"), "--mode", "classes80",
                   "--text-vocab", str(b / "absent" / "v.txt"), "--out", str(b / "t.jsonl")], 1),
    "word_targets_classes80_with_min_count": (
        lambda b: ["word-targets", "--questions", str(b / "data.json"), "--mode", "classes80",
                   "--min-count", "5", "--out", str(b / "t.jsonl")], 1),
    "word_targets_full_with_object_vocab": (
        lambda b: ["word-targets", "--questions", str(b / "data.json"), "--mode", "full",
                   "--vocab", str(b / "absent" / "o.txt"), "--out", str(b / "t.jsonl")], 1),
    "word_targets_tfidf1024_with_types": (
        lambda b: ["word-targets", "--questions", str(b / "data.json"), "--mode", "tfidf1024",
                   "--types", str(b / "absent" / "t.txt"), "--out", str(b / "t.jsonl")], 1),
    "eval_vqa_with_labels": (
        lambda b: ["eval", "--pred", str(b / "p.jsonl"), "--labels", str(b / "absent"),
                   "--dataset", str(b / "data.json"), "--out-prefix", str(b / "r")], 1),
    "eval_vqa_with_object_vocab": (
        lambda b: ["eval", "--task", "vqa", "--pred", str(b / "p.jsonl"),
                   "--vocab", str(b / "absent"), "--dataset", str(b / "data.json"),
                   "--out-prefix", str(b / "r")], 1),
    "eval_extraction_with_pred": (
        lambda b: ["eval", "--task", "extraction", "--labels", str(b / "l.jsonl"),
                   "--pred", str(b / "absent"), "--dataset", str(b / "data.json"),
                   "--out-prefix", str(b / "r")], 1),
    "simulate_keep_with_out_rest": (
        lambda b: ["simulate", "--in", str(b / "data.json"), "--seed", "1", "--keep", "1",
                   "--out", str(b / "s.json"), "--out-rest", str(b / "absent" / "r.json")], 1),
    "eval_vqa_without_pred": (
        lambda b: ["eval", "--dataset", str(b / "data.json"), "--out-prefix", str(b / "r")], 1),
    "eval_extraction_without_labels": (
        lambda b: ["eval", "--task", "extraction", "--dataset", str(b / "data.json"),
                   "--out-prefix", str(b / "r")], 1),
    "eval_extraction_label_outside_vocabulary": (_labels_outside_vocabulary, 2),
    "eval_extraction_empty_object_vocabulary": (_empty_object_vocabulary, 2),
    "train_config_sets_momentum": (_config_with_momentum, 2),
    "augment_misspelled_answer_field": (
        lambda b: ["augment", "--in", str(_manifest_with(b, question={"answer": None,
                                                                       "anwser": "red"})),
                   "--out", str(b / "e.jsonl")], 2),
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
    "eval_vqa_blank_manifest_answer": (
        lambda b: ["eval", "--task", "vqa",
                   "--pred", _jsonl(b, {"question_id": "q1", "answer": "red"}),
                   "--dataset", str(_manifest_with(b, question={"answer": "   "})),
                   "--out-prefix", str(b / "r")], 2),
    "train_blank_manifest_answer": (
        lambda b: _run_config_with(b, dataset=_manifest_with(b, question={"answer": "   "}).name),
        2),
    "eval_vqa_missing_prediction": (_eval_vqa_predictions({"question_id": "q2", "answer": "red"}),
                                    2),
    "bootstrap_missing_prediction": (
        lambda b: ["bootstrap", "--pred", _jsonl(b, {"question_id": "q2", "answer": "red"}),
                   "--dataset", str(_manifest_with(b))], 2),
    "eval_extraction_missing_labels": (
        lambda b: ["eval", "--task", "extraction",
                   "--labels", _jsonl(b, {"image_id": 2, "labels": ["bus"]}),
                   "--dataset", str(_manifest_with(b, image={"gt_labels": ["bus"]})),
                   "--out-prefix", str(b / "pr")], 2),
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
    "train_config_misspelled_key": (lambda b: _run_config_with(b, augment_mod="plain"), 2),
    "train_config_unknown_augment_mode": (
        lambda b: _run_config_with(b, augment_mode="powerst"), 2),
    "train_config_weight_init_scale_past_float32": (_train_fields(weight_init_scale=1e39), 2),
    "train_config_integer_learning_rate_past_float": (_train_fields(learning_rate=10**400), 2),
    # 11 words at 10**13 dims: an 800 TiB first table, past the 128 TiB user address
    # space; refused by the config's 2**31 - 1 bound before any table is allocated
    "train_config_embed_dim_past_memory": (_train_fields(embed_dim=10**13), 2),
    # past the config's 2**31 - 1 bound, where numpy's size arithmetic can overflow
    "train_config_batch_size_past_size_bound": (_train_fields(batch_size=2**62), 2),
    "train_config_embed_dim_past_size_bound": (_train_fields(embed_dim=10**400), 2),
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
    "predict_features_rows_past_count": (_predict_with_cut_file("--features", _undercount), 2),
    "predict_model_bytes_past_bias": (
        _predict_with_cut_file("--model", lambda raw: raw + b"\0\0\0\0"), 2),
    # d_t 2**20 and vocab_size 2**16: a 256 GiB target embedding
    "predict_model_embedding_past_file_end": (
        _predict_with_cut_file("--model", _declaring(12, 2**20, 1, 2, 2**16)), 2),
    # every dim but n_answers at 2**32 - 1: a byte count past the int64 range
    "predict_model_dims_at_u32_max": (
        _predict_with_cut_file("--model", _declaring(8, *[2**32 - 1] * 3, 2, 2**32 - 1)), 2),
    "predict_features_dim_past_file_end": (
        _predict_with_cut_file("--features", _declaring(12, 2**32 - 1)), 2),
    "train_powerset_image_past_the_limit": (
        lambda b: _run_config_with(b, dataset=_many_questions_manifest(b)), 2),
    "augment_powerset_image_past_the_limit": (
        lambda b: ["augment", "--in", str(b / _many_questions_manifest(b)),
                   "--out", str(b / "e.jsonl")], 2),
    "train_config_min_count_with_vocab": (
        lambda b: _run_config_with(b, vocab=_bytes_file(b, "v.txt", b"what\n"), min_count=2), 2),
    "train_image_without_features": (
        lambda b: _run_config_with(b, features=_features_without(b, 59)), 2),
    "predict_image_without_features": (_predict_without_features_of(59), 2),
    "train_nan_feature_value": (
        lambda b: _run_config_with(b, features=_features_with_nan(b, 59)), 2),
    "predict_nan_feature_value": (_predict_with_nan_features_of(59), 2),
    "train_repeated_feature_row": (
        lambda b: _run_config_with(b, features=_features_with_repeated_row(b)), 2),
    "train_diverging_learning_rate": (_train_fields(learning_rate=1e300), 2),
    "predict_model_nan_parameter": (_predict_with_cut_file("--model", _nan_bias), 2),
    "predict_vocab_size_mismatch": (_predict_with([b"yes", b"no"], b"what\ncolor\n"), 2),
    "predict_feature_dim_mismatch": (_predict_with_wide_features, 2),
    "bootstrap_negative_seed": (
        lambda b: ["bootstrap", "--pred", str(b / "p.jsonl"), "--dataset", str(b / "data.json"),
                   "--seed", "-1"], 1),
    "simulate_negative_seed": (
        lambda b: ["simulate", "--in", str(b / "data.json"), "--seed", "-3", "--keep", "1",
                   "--out", str(b / "s.json")], 1),
    "train_without_config": (lambda b: ["train"], 1),
    "extract_out_under_a_file": (
        lambda b: ["extract", "--questions", str(b / "data.json"),
                   "--out", str(b / "data.json" / "x.jsonl")], 2),
    "eval_out_prefix_under_a_file": (
        lambda b: ["eval", "--pred", _jsonl(b, {"question_id": "q1", "answer": "red"}),
                   "--dataset", str(b / "data.json"), "--out-prefix", str(b / "data.json" / "r")],
        2),
    "eval_vqa_repeated_question_id": (
        lambda b: ["eval", "--pred", _repeated_jsonl(b, {"question_id": "q1", "answer": "red"}),
                   "--dataset", str(_manifest_with(b)), "--out-prefix", str(b / "r")], 2),
    "eval_extraction_repeated_image_id": (
        lambda b: ["eval", "--task", "extraction",
                   "--labels", _repeated_jsonl(b, {"image_id": 1, "labels": ["bus"]}),
                   "--dataset", str(_manifest_with(b, image={"gt_labels": ["bus"]})),
                   "--out-prefix", str(b / "pr")], 2),
    "extract_deeply_nested_manifest": (_deeply_nested_manifest, 2),
    "eval_long_integer_question_id": (
        lambda b: ["eval", "--pred", _long_integer(b, "long.jsonl", {"question_id": "LONG",
                                                                     "answer": "red"}),
                   "--dataset", str(_manifest_with(b)), "--out-prefix", str(b / "r")], 2),
    "train_config_long_integer_seed": (
        lambda b: ["train", "--config", _long_integer(
            b, "long_run.json", {**json.loads((b / "run.json").read_text()), "seed": "LONG"})], 2),
    "train_lone_surrogate_answer": (
        lambda b: _run_config_with(b, dataset=_manifest_with(b, question={"answer": "\ud800"}).name),
        2),
}


@pytest.mark.parametrize("case, flag", [("predict_truncated_model", "--model"),
                                        ("predict_truncated_features", "--features"),
                                        ("predict_features_wrong_magic", "--features"),
                                        ("predict_features_rows_past_count", "--features"),
                                        ("predict_model_bytes_past_bias", "--model"),
                                        ("predict_model_embedding_past_file_end", "--model"),
                                        ("predict_model_dims_at_u32_max", "--model"),
                                        ("predict_features_dim_past_file_end", "--features"),
                                        ("predict_model_nan_parameter", "--model")])
def test_binary_file_errors_name_the_file(case, flag, pair_setup, capsys):
    argv = CONTRACT_CASES[case][0](pair_setup)
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"qsup: error: {argv[argv.index(flag) + 1]}: ")
    assert not (pair_setup / "p.jsonl").exists()


@pytest.mark.parametrize("case", ["train_image_without_features",
                                  "predict_image_without_features"])
def test_missing_features_name_the_image_before_any_output(case, pair_setup, capsys):
    assert main(CONTRACT_CASES[case][0](pair_setup)) == 2
    assert capsys.readouterr().err == (f"qsup: error: {pair_setup / 'partial.qvft'}: "
                                       "image 59: no features under ref 59\n")
    assert not (pair_setup / "p.jsonl").exists()
    assert not (pair_setup / "out").exists()


@pytest.mark.parametrize("case", ["train_nan_feature_value", "predict_nan_feature_value"])
def test_non_finite_features_name_the_file_and_image_before_any_output(case, pair_setup, capsys):
    assert main(CONTRACT_CASES[case][0](pair_setup)) == 2
    err = capsys.readouterr().err
    assert err == f"qsup: error: {pair_setup / 'nan.qvft'}: image 59: non-finite feature value\n"
    assert not (pair_setup / "p.jsonl").exists()
    assert not (pair_setup / "out").exists()


def test_a_repeated_feature_row_names_the_file_before_any_output(pair_setup, capsys):
    assert main(CONTRACT_CASES["train_repeated_feature_row"][0](pair_setup)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"qsup: error: {pair_setup / 'twice.qvft'}: image ")
    assert err.endswith(" appears twice\n") and err.count("\n") == 1
    assert not (pair_setup / "out").exists()


@pytest.mark.parametrize("case, named", [
    ("train_config_misspelled_key", "unknown field 'augment_mod'"),
    ("train_config_unknown_augment_mode",
     "field 'augment_mode' must be one of plain, powerset, concat_only, powerset_no_empty"),
    ("train_config_weight_init_scale_past_float32", "bad train section: weight_init_scale must"),
    ("train_config_integer_learning_rate_past_float", "bad train section: learning_rate must"),
    ("train_config_batch_size_past_size_bound", "bad train section: batch_size must be in [1, "),
    ("train_config_embed_dim_past_size_bound", "bad train section: embed_dim must be in [1, "),
])
def test_run_config_errors_name_the_file_and_key_before_any_output(case, named, pair_setup,
                                                                   capsys):
    argv = CONTRACT_CASES[case][0](pair_setup)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"qsup: error: {argv[-1]}: {named}") and err.count("\n") == 1
    assert not (pair_setup / "out").exists()


def test_diverged_training_names_the_epoch_and_saves_no_model(pair_setup, capsys):
    assert main(CONTRACT_CASES["train_diverging_learning_rate"][0](pair_setup)) == 2
    err = capsys.readouterr().err
    assert err == "qsup: error: training diverged in epoch 1: parameters past float32 range\n"
    assert not (pair_setup / "out").exists()


@pytest.mark.parametrize("case, flag", [("predict_vocab_size_mismatch", "--vocab"),
                                        ("predict_feature_dim_mismatch", "--features")])
def test_predict_mismatches_name_both_files_before_any_output(case, flag, pair_setup, capsys):
    argv = CONTRACT_CASES[case][0](pair_setup)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"qsup: error: {argv[argv.index(flag) + 1]}: ")
    assert argv[argv.index("--model") + 1] in err
    assert not (pair_setup / "p.jsonl").exists()


@pytest.mark.parametrize("case, repeated", [("eval_vqa_repeated_question_id", "question_id 'q1'"),
                                            ("eval_extraction_repeated_image_id", "image_id 1")])
def test_repeated_jsonl_keys_name_the_line(case, repeated, pair_setup, capsys):
    assert main(CONTRACT_CASES[case][0](pair_setup)) == 2
    err = capsys.readouterr().err
    assert err == f"qsup: error: {pair_setup / 'odd.jsonl'}:2: repeated {repeated}\n"


@pytest.mark.parametrize("case", ["eval_vqa_blank_manifest_answer",
                                  "train_blank_manifest_answer"])
def test_blank_manifest_answers_name_the_manifest_record_and_field(case, pair_setup, capsys):
    assert main(CONTRACT_CASES[case][0](pair_setup)) == 2
    assert capsys.readouterr().err == (f"qsup: error: {pair_setup / 'odd.json'}: questions[0]: "
                                       "field 'answer' must be a non-empty string\n")
    assert not (pair_setup / "out").exists()


@pytest.mark.parametrize("case, flag, missing", [
    ("eval_vqa_missing_prediction", "--pred", "no prediction for question 'q1'"),
    ("bootstrap_missing_prediction", "--pred", "no prediction for question 'q1'"),
    ("eval_extraction_missing_labels", "--labels", "no extracted labels for image 1"),
])
def test_missing_references_name_the_file_they_refer_to(case, flag, missing, pair_setup, capsys):
    argv = CONTRACT_CASES[case][0](pair_setup)
    assert main(argv) == 2
    assert capsys.readouterr().err == f"qsup: error: {argv[argv.index(flag) + 1]}: {missing}\n"


@pytest.mark.parametrize("case, message", [
    ("word_targets_classes80_with_text_vocab",
     "word-targets: --text-vocab is not read with --mode classes80"),
    ("eval_vqa_with_labels", "eval: --labels is not read with --task vqa"),
    ("eval_extraction_with_pred", "eval: --pred is not read with --task extraction"),
    ("simulate_keep_with_out_rest", "simulate: --out-rest is not read with --keep 1"),
])
def test_unread_flags_are_named_with_the_mode(case, message, pair_setup, capsys):
    assert main(CONTRACT_CASES[case][0](pair_setup)) == 1
    assert capsys.readouterr().err.endswith(f"error: {message}\n")
    assert not list(pair_setup.glob("*.snapshot.json"))


@pytest.mark.parametrize("case", ["train_powerset_image_past_the_limit",
                                  "augment_powerset_image_past_the_limit"])
def test_a_powerset_image_past_the_limit_is_refused_at_once(case, pair_setup, capsys):
    started = time.perf_counter()
    assert main(CONTRACT_CASES[case][0](pair_setup)) == 2
    assert time.perf_counter() - started < 1.0
    assert capsys.readouterr().err == (
        "qsup: error: image 1: 1 answered of 40 questions give 1099511627776 powerset exemplars, "
        "more than the limit of 1048576; use mode plain or concat_only\n")
    assert not (pair_setup / "out").exists()


def test_image_ids_past_64_bits_augment_train_and_predict(tmp_path):
    big = 2**64 + 3
    (tmp_path / "m.json").write_text(json.dumps({
        "images": [{"image_id": big, "feature_ref": 1}],
        "questions": [{"id": "q1", "image_id": big, "text": "what is it", "answer": "cat"},
                      {"id": "q2", "image_id": big, "text": "is it red"}]}))
    save_features({1: np.ones(4)}, tmp_path / "f.qvft")
    (tmp_path / "run.json").write_text(json.dumps({
        "dataset": "m.json", "features": "f.qvft", "out_dir": "out", "seed": 1,
        "train": {"epochs": 1, "batch_size": 2, "answer_vocab_size": 2, "embed_dim": 4}}))
    t = str(tmp_path)
    assert main(["augment", "--in", f"{t}/m.json", "--out", f"{t}/e.jsonl"]) == 0
    lines = (tmp_path / "e.jsonl").read_text().splitlines()
    assert {json.loads(line)["image_id"] for line in lines} == {big}
    assert main(["train", "--config", f"{t}/run.json"]) == 0
    assert main(["predict", "--model", f"{t}/out/model.qsmd", "--vocab", f"{t}/out/vocab.txt",
                 "--features", f"{t}/f.qvft", "--questions", f"{t}/m.json",
                 "--out", f"{t}/p.jsonl", "--use-extras"]) == 0


def test_augment_refuses_an_image_past_the_limit_before_opening_its_output(pair_setup):
    argv = CONTRACT_CASES["augment_powerset_image_past_the_limit"][0](pair_setup)
    assert main(argv) == 2
    assert not Path(argv[argv.index("--out") + 1]).exists()


def test_min_count_next_to_vocab_names_the_config(pair_setup, capsys):
    argv = CONTRACT_CASES["train_config_min_count_with_vocab"][0](pair_setup)
    assert main(argv) == 2
    assert capsys.readouterr().err == f"qsup: error: {argv[-1]}: min_count is not read with vocab\n"


def test_bootstrap_without_out_writes_its_snapshot_next_to_the_predictions(tmp_path, capsys):
    write_table2_fixture(tmp_path / "data.json")
    manifest = json.loads((tmp_path / "data.json").read_text())
    for q in manifest["questions"]:
        q["answer"] = "red"
    (tmp_path / "data.json").write_text(json.dumps(manifest))
    (tmp_path / "preds").mkdir()
    pred = tmp_path / "preds" / "pred.jsonl"
    pred.write_text("".join(json.dumps({"question_id": q["id"], "image_id": q["image_id"],
                                        "answer": "red"}) + "\n"
                            for q in manifest["questions"]))
    assert main(["bootstrap", "--pred", str(pred), "--dataset", str(tmp_path / "data.json"),
                 "--resamples", "1000", "--seed", "4"]) == 0
    assert json.loads(capsys.readouterr().out)["accuracy"] == 1.0
    snapshot = json.loads((tmp_path / "preds" / "pred.jsonl.bootstrap.snapshot.json").read_text())
    assert snapshot["seed"] == 4 and snapshot["out"] is None


def test_predict_reads_the_well_formed_contract_model(pair_setup):
    assert main(_predict_with([b"yes", b"no"])(pair_setup)) == 0
    assert len((pair_setup / "p.jsonl").read_text().splitlines()) == 120


@pytest.mark.parametrize("case, message", [
    ("extract_deeply_nested_manifest", "deep.json: nesting too deep"),
    ("eval_long_integer_question_id", "long.jsonl:1: integer literal too long"),
    ("train_config_long_integer_seed", "long_run.json: integer literal too long"),
])
def test_json_past_the_decoder_limits_names_the_file(case, message, pair_setup, capsys):
    _skip_where_integers_have_no_digit_limit(case)
    assert main(CONTRACT_CASES[case][0](pair_setup)) == 2
    assert capsys.readouterr().err == f"qsup: error: {pair_setup / message}\n"


def test_an_answer_that_is_not_unicode_text_writes_no_model(pair_setup, capsys):
    assert main(CONTRACT_CASES["train_lone_surrogate_answer"][0](pair_setup)) == 2
    assert capsys.readouterr().err == "qsup: error: answer '\\ud800' is not Unicode text\n"
    assert not (pair_setup / "out" / "model.qsmd").exists()


@pytest.mark.parametrize("case", sorted(CONTRACT_CASES))
def test_cli_contract_exit_codes(case, pair_setup, capsys):
    _skip_where_integers_have_no_digit_limit(case)
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


# wrong-typed stand-ins for a field or a record list; JSON reads NaN back as a float,
# and "\ud800" as a lone surrogate
_WRONG_VALUES = [None, True, -1, 1.5, 2**64, float("nan"), "", "x", "\ud800", [], [1], ["a"], {},
                 {"a": 1}]


def _mutate(payload: dict, rng) -> str:
    """Replace, delete or duplicate one field or record of the manifest
    ``payload`` in place; says what it did."""
    key = rng.choice(["images", "questions"])
    records = payload[key]
    action = rng.choice(["replace", "replace", "delete", "duplicate", "replace list"])
    if action == "replace list" or not isinstance(records, list) or not records:
        payload[key] = rng.choice(_WRONG_VALUES)
        return f"{key} = {payload[key]!r}"
    i = rng.randrange(len(records))
    if action == "duplicate" or not isinstance(records[i], dict):
        records.insert(rng.randrange(len(records) + 1), records[i])
        return f"{key}[{i}] duplicated"
    field = rng.choice(sorted(records[i]) + ["gt_labels", "choices", "answer"])
    if action == "delete":
        records[i] = {k: v for k, v in records[i].items() if k != field}
        return f"{key}[{i}].{field} deleted"
    records[i] = {**records[i], field: rng.choice(_WRONG_VALUES)}
    return f"{key}[{i}].{field} = {records[i][field]!r}"


def test_seeded_manifest_mutations_keep_the_cli_contract(tmp_path, capsys):
    """100 seeded mutations of a small demo manifest, each run through every
    command that reads a manifest: each run exits 0, 1 or 2, a failure with
    one error line, and no run raises (a command missing an import would).
    A field of the other record type is an unknown field, and an error.
    ``extract`` reads only the manifest and the packaged tables, so each of
    its data errors names the manifest."""
    records, features = make_pair_dataset(20, seed=7)
    save_dataset(records_to_manifest(records), tmp_path / "demo.json")
    save_features(features, tmp_path / "f.qvft")
    run = {"features": "f.qvft", "seed": 1,
           "train": {"epochs": 1, "batch_size": 16, "answer_vocab_size": 4, "embed_dim": 4}}
    # the model and predictions of the intact manifest, read by predict, eval and bootstrap
    (tmp_path / "base.json").write_text(
        json.dumps({**run, "dataset": "demo.json", "out_dir": "base"}))
    (tmp_path / "run.json").write_text(json.dumps({**run, "dataset": "m.json", "out_dir": "out"}))
    m, t = str(tmp_path / "m.json"), str(tmp_path)
    assert main(["train", "--config", f"{t}/base.json"]) == 0
    assert main(["predict", "--model", f"{t}/base/model.qsmd", "--vocab", f"{t}/base/vocab.txt",
                 "--features", f"{t}/f.qvft", "--questions", f"{t}/demo.json",
                 "--out", f"{t}/pred.jsonl"]) == 0
    commands = [
        ["extract", "--questions", m, "--out", f"{t}/l.jsonl"],
        ["augment", "--in", m, "--out", f"{t}/e.jsonl"],
        ["train", "--config", f"{t}/run.json"],
        ["predict", "--model", f"{t}/base/model.qsmd", "--vocab", f"{t}/base/vocab.txt",
         "--features", f"{t}/f.qvft", "--questions", m, "--out", f"{t}/p.jsonl", "--use-extras"],
        ["eval", "--pred", f"{t}/pred.jsonl", "--dataset", m, "--out-prefix", f"{t}/r"],
        ["bootstrap", "--pred", f"{t}/pred.jsonl", "--dataset", m, "--resamples", "1000"],
        ["word-targets", "--questions", m, "--mode", "full", "--out", f"{t}/w.jsonl"],
        ["simulate", "--in", m, "--seed", "1", "--keep", "1", "--out", f"{t}/s.json"],
    ]
    codes = Counter()
    capsys.readouterr()
    for seed in range(100):
        rng = random.Random(seed)
        payload = json.loads((tmp_path / "demo.json").read_text())
        what = "; ".join(_mutate(payload, rng) for _ in range(rng.randint(1, 3)))
        (tmp_path / "m.json").write_text(json.dumps(payload))
        for argv in commands:
            try:
                code = main(argv)
            except Exception as exc:  # any exception breaks the contract; name the mutation
                pytest.fail(f"seed {seed} ({what}), {argv[0]} raised {exc!r}")
            err = capsys.readouterr().err
            error_lines = [line for line in err.splitlines() if "error:" in line]
            context = f"seed {seed} ({what}), {argv[0]} exit {code}: {err!r}"
            assert code in (0, 1, 2) and "Traceback" not in err, context
            assert len(error_lines) == (code != 0), context
            if argv[0] == "extract" and code == 2:  # it reads no file but the manifest
                assert error_lines[0].startswith(f"qsup: error: {m}: "), context
            codes[code] += 1
    assert codes[0] > 50 and codes[2] > 50, codes  # the mutations reach both outcomes
