"""Bag-of-words linear VQA model with a second text block for extra questions.

The representation concatenates three independently L2-normalized blocks:
ingested image features, an embedded bag-of-words of the target question,
and an embedded bag-of-words of the extra questions concatenated together.
A learned affine layer plus softmax predicts the answer class.  One batched
forward pass, over count matrices of just the words a batch uses, serves
training, the full-data loss and predict (64 examples at a time).  Training
is plain mini-batch SGD with analytic gradients, including the Jacobian of
the L2 normalization applied to the two text blocks; each step updates only
the embedding rows of words in the batch, the only rows with a gradient.
"""

from __future__ import annotations

import itertools
import logging
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .augment import Exemplar
from .errors import (
    DanglingReference,
    DimMismatch,
    EmptyBatch,
    NoTrainableExemplars,
)
from .qparse import Question
from .vocab import BowVector, Vocabulary, bow_featurize

__all__ = [
    "ModelDims",
    "LinearModel",
    "FeatureBlock",
    "Gradients",
    "TrainConfig",
    "embed_bow",
    "l2_normalize",
    "make_feature_block",
    "forward",
    "loss_and_grad",
    "build_answer_vocab",
    "train",
    "predict",
    "predict_batch",
    "predict_multiple_choice",
]

logger = logging.getLogger(__name__)

_NORM_EPS = 1e-12
_PREDICT_CHUNK = 64  # examples per predict forward pass; bounds its memory


class ModelDims(NamedTuple):
    d_img: int
    d_t: int
    d_e: int
    n_answers: int


@dataclass
class LinearModel:
    """Parameters of the two-text-block linear softmax model."""

    embed_target: np.ndarray  # (vocab, d_t)
    embed_extra: np.ndarray  # (vocab, d_e)
    fc_weights: np.ndarray  # (n_answers, d_img + d_t + d_e)
    fc_bias: np.ndarray  # (n_answers,)
    answer_vocab: tuple[str, ...]

    def __post_init__(self):
        self.answer_vocab = tuple(self.answer_vocab)
        if len(set(self.answer_vocab)) != len(self.answer_vocab):
            raise ValueError("answer vocabulary has duplicate entries")
        if self.fc_bias.shape != (len(self.answer_vocab),):
            raise DimMismatch("fc_bias length must equal the answer vocabulary size")
        if self.fc_weights.shape[0] != len(self.answer_vocab):
            raise DimMismatch("fc_weights rows must equal the answer vocabulary size")
        if self.fc_weights.shape[1] < self.embed_target.shape[1] + self.embed_extra.shape[1]:
            raise DimMismatch("fc_weights columns too few for the text blocks")

    @property
    def dims(self) -> ModelDims:
        d_t = self.embed_target.shape[1]
        d_e = self.embed_extra.shape[1]
        d_img = self.fc_weights.shape[1] - d_t - d_e
        return ModelDims(d_img, d_t, d_e, len(self.answer_vocab))

    @property
    def vocab_size(self) -> int:
        return self.embed_target.shape[0]

    def parameters(self) -> dict[str, np.ndarray]:
        return {
            "embed_target": self.embed_target,
            "embed_extra": self.embed_extra,
            "fc_weights": self.fc_weights,
            "fc_bias": self.fc_bias,
        }


@dataclass(frozen=True)
class FeatureBlock:
    """Inputs for one example: image vector plus the two text bags.

    The text blocks are kept as bag-of-words counts; they are embedded and
    L2-normalized against the current parameters inside the forward pass,
    which is what makes gradients w.r.t. the embedding matrices well
    defined.  The image vector is expected to be normalized already
    (``make_feature_block`` does it).
    """

    image: np.ndarray
    target_bow: BowVector
    extra_bow: BowVector


@dataclass
class Gradients:
    embed_target: np.ndarray
    embed_extra: np.ndarray
    fc_weights: np.ndarray
    fc_bias: np.ndarray


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.1
    epochs: int = 10
    batch_size: int = 32
    seed: int = 0
    answer_vocab_size: int = 1000
    weight_init_scale: float = 0.01
    embed_dim: int = 256

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if self.answer_vocab_size < 1 or self.embed_dim < 1:
            raise ValueError("answer_vocab_size and embed_dim must be >= 1")
        if self.weight_init_scale < 0:
            raise ValueError("weight_init_scale must be >= 0")


# ---------------------------------------------------------------------------
# building blocks


def _embed_bags(bags: Sequence[BowVector], embedding: np.ndarray):
    """Embed bags over just the words they use: the sorted positions of those
    words, the (bags, words) count matrix and the (bags, dim) embedded sums."""
    v = embedding.shape[0]
    for bag in bags:
        if bag.vocab_size != v:
            raise DimMismatch(f"bow over {bag.vocab_size} words vs embedding with {v} rows")
    sizes = [len(bag.entries) for bag in bags]
    chain = itertools.chain.from_iterable
    positions = np.fromiter(chain(bag.entries for bag in bags), np.intp, sum(sizes))
    counts = np.fromiter(chain(bag.entries.values() for bag in bags), np.float64, sum(sizes))
    words, cols = np.unique(positions, return_inverse=True)
    matrix = np.zeros((len(bags), len(words)))
    matrix[np.repeat(np.arange(len(bags)), sizes), cols] = counts
    return words, matrix, matrix @ embedding[words]


def _normalize_rows(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows (last axis) divided by their L2 norms, and the norms; near-zero
    rows stay unchanged."""
    norms = np.linalg.norm(raw, axis=-1, keepdims=True)
    return raw / np.where(norms > _NORM_EPS, norms, 1.0), norms


def embed_bow(counts: BowVector, embedding: np.ndarray) -> np.ndarray:
    """Sum of count * embedding row over the bag's entries."""
    return _embed_bags([counts], embedding)[2][0]


def l2_normalize(v: np.ndarray) -> np.ndarray:
    """v / ||v||, with vectors of near-zero norm returned unchanged."""
    return _normalize_rows(np.asarray(v))[0]


def make_feature_block(
    vocab: Vocabulary,
    image_feat: np.ndarray,
    target_q: Question,
    extra_qs: Sequence[Question] | None = None,
) -> FeatureBlock:
    """Featurize one example; absent extras give an all-zero extra bag."""
    extra_text = " ".join(q.text for q in extra_qs) if extra_qs else ""
    return FeatureBlock(
        image=l2_normalize(np.asarray(image_feat, dtype=np.float64)),
        target_bow=bow_featurize(target_q.text, vocab),
        extra_bow=bow_featurize(extra_text, vocab),
    )


def _forward(model: LinearModel, blocks: Sequence[FeatureBlock]):
    """(log_probs, x, texts) for a batch: x is the concatenated normalized
    input and texts holds (word positions, counts, norms) per text block."""
    d_img = model.dims.d_img
    for block in blocks:
        if block.image.shape != (d_img,):
            raise DimMismatch(f"image block has shape {block.image.shape}, expected ({d_img},)")
    parts = [np.stack([block.image for block in blocks])]
    texts = []
    for bags, embedding in (([b.target_bow for b in blocks], model.embed_target),
                            ([b.extra_bow for b in blocks], model.embed_extra)):
        words, counts, raw = _embed_bags(bags, embedding)
        normed, norms = _normalize_rows(raw)
        parts.append(normed)
        texts.append((words, counts, norms))
    x = np.concatenate(parts, axis=1)
    z = x @ model.fc_weights.T + model.fc_bias
    z -= z.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True)), x, texts


def forward(model: LinearModel, block: FeatureBlock) -> np.ndarray:
    """Probability vector over answers for one feature block."""
    return np.exp(_forward(model, [block])[0][0])


# ---------------------------------------------------------------------------
# loss and gradients


def _backward(model: LinearModel, blocks: Sequence[FeatureBlock], labels: np.ndarray):
    """(loss, d fc_weights, d fc_bias, text rows) of the batch's mean cross-entropy;
    text rows holds (word positions, gradient rows) for each embedding, whose
    other rows have zero gradient."""
    log_probs, x, texts = _forward(model, blocks)
    picked = np.arange(len(blocks)), labels
    loss = float(-log_probs[picked].mean())
    dz = np.exp(log_probs)
    dz[picked] -= 1.0
    dz /= len(blocks)

    d_img, d_t, _, _ = model.dims
    dx = dz @ model.fc_weights
    text_rows = []
    for (words, counts, norms), lo, hi in zip(texts, (d_img, d_img + d_t), (d_img + d_t, None)):
        g, normed = dx[:, lo:hi], x[:, lo:hi]
        safe = norms > _NORM_EPS
        inner = (g * normed).sum(axis=1, keepdims=True)
        d_raw = np.where(safe, (g - normed * inner) / np.where(safe, norms, 1.0), g)
        text_rows.append((words, counts.T @ d_raw))
    return loss, dz.T @ x, dz.sum(axis=0), text_rows


def loss_and_grad(
    model: LinearModel, batch: Sequence[tuple[FeatureBlock, int]]
) -> tuple[float, Gradients]:
    """Mean cross-entropy over the batch and analytic parameter gradients.

    Backpropagation runs through the affine layer, the concatenation, the
    L2 normalization of each text block (Jacobian (I - vv^T/||v||^2)/||v||)
    and the bag-of-words embedding sums.  Zero-norm text blocks pass the
    upstream gradient through unchanged, matching the identity behaviour of
    ``l2_normalize`` there.
    """
    if not batch:
        raise EmptyBatch("loss_and_grad needs at least one example")
    blocks, labels = zip(*batch)
    labels = np.asarray(labels, dtype=np.int64)
    n_answers = len(model.answer_vocab)
    if not ((labels >= 0) & (labels < n_answers)).all():
        raise ValueError(f"labels outside answer vocabulary of {n_answers}: {labels}")
    loss, d_weights, d_bias, text_rows = _backward(model, blocks, labels)
    d_embed = [np.zeros_like(model.embed_target), np.zeros_like(model.embed_extra)]
    for grad, (words, rows) in zip(d_embed, text_rows):
        grad[words] = rows
    return loss, Gradients(*d_embed, d_weights, d_bias)


# ---------------------------------------------------------------------------
# training


def build_answer_vocab(answers: Iterable[str], size: int) -> tuple[str, ...]:
    """The ``size`` most frequent answers, most frequent first, ties A-Z."""
    counts = Counter(answers)
    ranked = sorted(counts, key=lambda a: (-counts[a], a))
    return tuple(ranked[:size])


def train(
    exemplars: Iterable[Exemplar],
    features: Mapping[int, np.ndarray],
    vocab: Vocabulary,
    config: TrainConfig,
    on_epoch_end: Callable[[int, float], None] | None = None,
) -> LinearModel:
    """Mini-batch SGD over the exemplar stream; deterministic given the seed.

    The answer vocabulary is the most frequent answers in the stream;
    exemplars whose answer falls outside it are dropped (and counted in the
    log).  ``on_epoch_end`` receives (epoch, full-dataset loss) after each
    epoch when provided, computed ``batch_size`` examples at a time.
    """
    exemplar_list = list(exemplars)
    if not exemplar_list:
        raise NoTrainableExemplars("empty exemplar stream")

    answer_vocab = build_answer_vocab(
        (e.answer for e in exemplar_list), config.answer_vocab_size
    )
    answer_index = {a: i for i, a in enumerate(answer_vocab)}
    kept = [e for e in exemplar_list if e.answer in answer_index]
    dropped = len(exemplar_list) - len(kept)
    if dropped:
        logger.info("dropped %d exemplars with out-of-vocabulary answers", dropped)
    if not kept:
        raise NoTrainableExemplars("no exemplars with in-vocabulary answers")

    image_cache: dict[int, np.ndarray] = {}

    def image_vec(image_id: int) -> np.ndarray:
        if image_id not in image_cache:
            if image_id not in features:
                raise DanglingReference(f"no features for image {image_id}")
            image_cache[image_id] = l2_normalize(
                np.asarray(features[image_id], dtype=np.float64)
            )
        return image_cache[image_id]

    blocks = [
        make_feature_block(vocab, image_vec(e.image_id), e.target_question, e.extra)
        for e in kept
    ]
    labels = np.array([answer_index[e.answer] for e in kept], dtype=np.int64)

    d_img = blocks[0].image.shape[0]
    d = config.embed_dim
    n_answers = len(answer_vocab)
    v = len(vocab)
    s = config.weight_init_scale
    rng = np.random.default_rng(config.seed)
    model = LinearModel(
        embed_target=rng.uniform(-s, s, (v, d)),
        embed_extra=rng.uniform(-s, s, (v, d)),
        fc_weights=rng.uniform(-s, s, (n_answers, d_img + 2 * d)),
        fc_bias=rng.uniform(-s, s, n_answers),
        answer_vocab=answer_vocab,
    )

    n = len(blocks)
    lr = config.learning_rate
    chunks = range(0, n, config.batch_size)
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        for lo in chunks:
            idx = order[lo : lo + config.batch_size]
            _, d_weights, d_bias, embeds = _backward(model, [blocks[i] for i in idx], labels[idx])
            model.fc_weights -= lr * d_weights
            model.fc_bias -= lr * d_bias
            for embedding, (words, rows) in zip((model.embed_target, model.embed_extra), embeds):
                embedding[words] -= lr * rows
        for param in model.parameters().values():
            if not np.isfinite(param).all():
                raise FloatingPointError(f"non-finite parameters after epoch {epoch}")
        if on_epoch_end is not None:
            nll = 0.0
            for lo in chunks:
                hi = lo + config.batch_size
                log_probs = _forward(model, blocks[lo:hi])[0]
                nll -= log_probs[np.arange(len(log_probs)), labels[lo:hi]].sum()
            on_epoch_end(epoch, float(nll / n))
    return model


# ---------------------------------------------------------------------------
# inference


def predict(
    model: LinearModel,
    vocab: Vocabulary,
    image_feat: np.ndarray,
    target_q: Question,
    extra_qs: Sequence[Question] | None = None,
) -> tuple[str, np.ndarray]:
    """Most probable answer and the full probability vector.

    Absent or empty ``extra_qs`` leave the extra block at the zero vector,
    the standard single-question test protocol.  Provided extra questions
    are concatenated into one string before featurization.
    """
    return next(predict_batch(model, vocab, [(image_feat, target_q, extra_qs)]))


def predict_batch(
    model: LinearModel,
    vocab: Vocabulary,
    examples: Iterable[tuple[np.ndarray, Question, Sequence[Question] | None]],
) -> Iterator[tuple[str, np.ndarray]]:
    """Generate ``predict`` results for (image_feat, target_q, extra_qs)
    examples in order, 64 per forward pass, so memory stays bounded."""
    examples = iter(examples)
    while chunk := list(itertools.islice(examples, _PREDICT_CHUNK)):
        blocks = [make_feature_block(vocab, *example) for example in chunk]
        for probs in np.exp(_forward(model, blocks)[0]):
            yield model.answer_vocab[int(np.argmax(probs))], probs  # ties: lowest index


def predict_multiple_choice(
    model: LinearModel,
    vocab: Vocabulary,
    image_feat: np.ndarray,
    target_q: Question,
    extra_qs: Sequence[Question] | None,
    choices: Sequence[str],
) -> str:
    """The choice with the highest model probability.

    Choices absent from the answer vocabulary score -inf; if none is
    present the first choice is returned.  Ties go to the earliest choice.
    """
    if not choices:
        raise ValueError("choices must be non-empty")
    _, probs = predict(model, vocab, image_feat, target_q, extra_qs)
    index = {a: i for i, a in enumerate(model.answer_vocab)}
    best_choice = choices[0]
    best_score = -np.inf
    for choice in choices:
        pos = index.get(choice)
        score = probs[pos] if pos is not None else -np.inf
        if score > best_score:
            best_choice = choice
            best_score = score
    return best_choice
