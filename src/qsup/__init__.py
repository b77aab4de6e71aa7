"""Weak supervision from visual questions.

Extracts object labels from question text, generates powerset-augmented
training exemplars, trains bag-of-words linear VQA models over ingested
image features, and computes the associated evaluation statistics.
"""

from . import errors
from .augment import AugmentMode, Exemplar, ImageRecord, generate_exemplars
from .evalstats import (
    AccuracyReport,
    AnswerType,
    PrReport,
    bootstrap_ci,
    classify_answer_type,
    fuse_max,
    mean_average_precision,
    per_class_pr,
    vqa_accuracy,
)
from .model import (
    FeatureBlock,
    LinearModel,
    TrainConfig,
    forward,
    loss_and_grad,
    predict,
    predict_batch,
    predict_multiple_choice,
    train,
)
from .qparse import (
    LabelSet,
    ObjectVocabulary,
    Question,
    QuestionType,
    QuestionTypeTable,
    classify_question_type,
    default_object_vocabulary,
    default_question_types,
    extract_objects,
    extract_objects_multi,
    normalize_token,
    tokenize,
)
from .vocab import (
    BowVector,
    Vocabulary,
    WordTargetMode,
    bow_featurize,
    build_vocabulary,
    tfidf_rank,
    word_targets,
)

__version__ = "0.1.0"
