"""What the package and each command load: names resolve on first use, and
the commands that do no array math start without numpy."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qsup
from qsup.dataio import DatasetManifest, ImageEntry, save_dataset, save_features
from qsup.synth import make_pair_dataset

# every name the package exported when it imported its modules eagerly, by module
PACKAGE_NAMES = {
    "augment": ["AugmentMode", "Exemplar", "ImageRecord", "generate_exemplars"],
    "evalstats": ["AccuracyReport", "AnswerType", "PrReport", "bootstrap_ci",
                  "classify_answer_type", "fuse_max", "mean_average_precision", "per_class_pr",
                  "vqa_accuracy"],
    "model": ["FeatureBlock", "LinearModel", "TrainConfig", "forward", "loss_and_grad", "predict",
              "predict_multiple_choice", "train"],
    "qparse": ["LabelSet", "ObjectVocabulary", "Question", "QuestionType", "QuestionTypeTable",
               "classify_question_type", "default_object_vocabulary", "default_question_types",
               "extract_objects", "extract_objects_multi", "normalize_token", "tokenize"],
    "vocab": ["BowVector", "Vocabulary", "WordTargetMode", "bow_featurize", "build_vocabulary",
              "tfidf_rank", "word_targets"],
}


def test_package_names_resolve_to_their_module_objects():
    for module_name, names in PACKAGE_NAMES.items():
        module = importlib.import_module(f"qsup.{module_name}")
        for name in names:
            assert getattr(qsup, name) is getattr(module, name), name
    assert qsup.errors is importlib.import_module("qsup.errors")
    assert sorted(qsup.__all__) == sorted(["errors", *sum(PACKAGE_NAMES.values(), [])])
    from qsup import train

    assert train is importlib.import_module("qsup.model").train


def test_unknown_package_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        qsup.no_such_name


# runs `qsup <argv>` in a fresh interpreter; exits nonzero if it fails or loads numpy
_WITHOUT_NUMPY = (
    "import sys\n"
    "from qsup.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "sys.exit(code or ('numpy' in sys.modules and 'numpy was imported'))\n"
)


def test_extract_eval_and_word_targets_start_without_numpy(tmp_path):
    records, features = make_pair_dataset(120, seed=7)  # the README's demo data
    manifest = DatasetManifest(tuple(ImageEntry(r.image_id, r.image_id, ()) for r in records),
                               tuple(q for r in records for q in r.all_questions))
    save_dataset(manifest, tmp_path / "data.json")
    save_features(features, tmp_path / "features.qvft")
    (tmp_path / "pred.jsonl").write_text("".join(
        json.dumps({"question_id": q.id, "image_id": q.image_id, "answer": "yes"}) + "\n"
        for q in manifest.questions))
    env = dict(os.environ, PYTHONPATH=str(Path(qsup.__file__).parents[1]))
    modes = ("full", "tfidf1024", "classes80")
    for argv in (["extract", "--questions", "data.json", "--out", "labels.jsonl"],
                 ["eval", "--task", "vqa", "--pred", "pred.jsonl", "--dataset", "data.json",
                  "--out-prefix", "report"],
                 ["eval", "--task", "extraction", "--labels", "labels.jsonl",
                  "--dataset", "data.json", "--out-prefix", "extraction"],
                 *(["word-targets", "--questions", "data.json", "--mode", mode,
                    "--out", f"targets_{mode}.jsonl"] for mode in modes)):
        run = subprocess.run([sys.executable, "-c", _WITHOUT_NUMPY, *argv], cwd=tmp_path,
                             env=env, capture_output=True, text=True)
        assert run.returncode == 0, (argv[0], run.stderr)
    assert len((tmp_path / "labels.jsonl").read_text().splitlines()) == 120
    assert json.loads((tmp_path / "report.json").read_text())["n_examples"]
    assert len(json.loads((tmp_path / "extraction.json").read_text())["per_class"]) == 80
    for mode in modes:
        assert len((tmp_path / f"targets_{mode}.jsonl").read_text().splitlines()) == 120
