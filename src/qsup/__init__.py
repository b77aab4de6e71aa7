"""Weak supervision from visual questions.

Extracts object labels from question text, generates powerset-augmented
training exemplars, trains bag-of-words linear VQA models over ingested
image features, and computes the associated evaluation statistics.

The names below are imported from their modules on first use, so that
importing the package (or one numpy-free module of it) loads no numpy.
"""

from importlib import import_module

from . import errors

__version__ = "0.1.0"

_EXPORTS = {name: module for module, names in {
    "augment": "Exemplar ImageRecord generate_exemplars",
    "evalstats": "AccuracyReport AnswerType PrReport bootstrap_ci classify_answer_type fuse_max "
                 "mean_average_precision per_class_pr vqa_accuracy",
    "model": "FeatureBlock LinearModel TrainConfig forward loss_and_grad predict "
             "predict_multiple_choice train",
    "modes": "AugmentMode WordTargetMode",
    "qparse": "LabelSet ObjectVocabulary Question QuestionType QuestionTypeTable "
              "classify_question_type default_object_vocabulary default_question_types "
              "extract_objects extract_objects_multi normalize_token tokenize",
    "vocab": "BowVector Vocabulary bow_featurize build_vocabulary tfidf_rank word_targets",
}.items() for name in names.split()}

__all__ = ["errors", *_EXPORTS]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
