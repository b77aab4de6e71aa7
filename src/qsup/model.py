"""Bag-of-words linear VQA model with a second text block for extra questions.

The representation concatenates three independently L2-normalized blocks:
ingested image features, an embedded bag-of-words of the target question,
and an embedded bag-of-words of the extra questions concatenated together.
A learned affine layer plus softmax predicts the answer class.

``train`` and ``predict_batch`` tokenize each distinct question text once
into one bag-of-words row (CSR arrays of positions, counts and row offsets)
and describe each example by indices: an image row, the target question's
row and the extra questions' rows.  The extra block's bag is the sum of its
rows, since joining texts with a space never merges tokens.  A batch's count
matrix gathers those rows over just the words the batch uses, and one
batched forward pass over it serves training, the full-data loss and predict
(64 examples at a time).  Training is plain mini-batch SGD with analytic
gradients, including the Jacobian of the L2 normalization applied to the two
text blocks; each step updates only the embedding rows of words in the
batch, the only rows with a gradient.  The one-example API (``FeatureBlock``,
``forward``, ``loss_and_grad``) builds its batches the same way.
"""

from __future__ import annotations

import functools
import itertools
import logging
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Iterator, Mapping, NamedTuple, Sequence

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
        if self.seed < 0:
            raise ValueError("seed must be >= 0")  # numpy seeds are non-negative


# ---------------------------------------------------------------------------
# building blocks


class _Bags(NamedTuple):
    """Bags of words as CSR rows: row r counts ``counts[ptr[r]:ptr[r + 1]]``
    of the words at ``positions[ptr[r]:ptr[r + 1]]``."""

    ptr: np.ndarray
    positions: np.ndarray
    counts: np.ndarray


class _Examples(NamedTuple):
    """Examples as indices.  Example i has the image ``images[image_rows[i]]``;
    for each text block, (ptr, rows) in ``texts``, its bag is the sum of the
    bag rows ``rows[ptr[i]:ptr[i + 1]]``: one row for the target question,
    one per extra question.  This holds because joining texts with a space
    never merges tokens, so the bag of the joined extras is the sum of the
    bags of each."""

    images: np.ndarray
    image_rows: np.ndarray
    bags: _Bags
    texts: tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]


def _bag_rows(bags: Sequence[BowVector], vocab_size: int) -> _Bags:
    for bag in bags:
        if bag.vocab_size != vocab_size:
            raise DimMismatch(f"bow over {bag.vocab_size} words vs {vocab_size} embedding rows")
    ptr = np.zeros(len(bags) + 1, np.intp)
    np.cumsum([len(bag.entries) for bag in bags], out=ptr[1:])
    chain = itertools.chain.from_iterable
    positions = np.fromiter(chain(bag.entries for bag in bags), np.intp, ptr[-1])
    counts = np.fromiter(chain(bag.entries.values() for bag in bags), np.float64, ptr[-1])
    return _Bags(ptr, positions, counts)


def _image_matrix(vectors: Sequence[np.ndarray], d_img: int) -> np.ndarray:
    for vec in vectors:
        if np.shape(vec) != (d_img,):
            raise DimMismatch(f"image block has shape {np.shape(vec)}, expected ({d_img},)")
    return np.array(vectors, dtype=np.float64)


def _index_examples(
    images: np.ndarray,
    items: Iterable[tuple[int, Hashable, Sequence[Hashable]]],
    bag_of: Callable[[Hashable], BowVector],
    vocab_size: int,
) -> _Examples:
    """Index (image row, target key, extra keys) items, where a key names a
    bag (a question text, say); ``bag_of`` is called once per distinct key."""
    rows: dict[Hashable, int] = {}
    image_rows, target_rows, extra_rows, extra_ptr = [], [], [], [0]
    for image_row, target, extras in items:
        image_rows.append(image_row)
        target_rows.append(rows.setdefault(target, len(rows)))
        extra_rows.extend(rows.setdefault(key, len(rows)) for key in extras)
        extra_ptr.append(len(extra_rows))
    n = len(image_rows)
    return _Examples(
        images,
        np.array(image_rows, np.intp),
        _bag_rows([bag_of(key) for key in rows], vocab_size),
        ((np.arange(n + 1), np.array(target_rows, np.intp)),
         (np.array(extra_ptr, np.intp), np.array(extra_rows, np.intp))),
    )


def _segments(ptr: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The flat indices of the elements of CSR segments ``idx``, and for each
    element its segment's place in ``idx``."""
    starts = ptr[idx]
    sizes = ptr[idx + 1] - starts
    owners = np.repeat(np.arange(len(idx)), sizes)
    return np.arange(len(owners)) + np.repeat(starts - np.cumsum(sizes) + sizes, sizes), owners


def _count_matrix(bags: _Bags, ptr: np.ndarray, rows: np.ndarray, idx: np.ndarray):
    """(words, counts) for examples ``idx`` of one text block: the sorted
    positions of the words they use and the (examples, words) matrix of the
    summed counts of each example's bag rows."""
    lists, examples = _segments(ptr, idx)
    slots, owners = _segments(bags.ptr, rows[lists])
    words, cols = np.unique(bags.positions[slots], return_inverse=True)
    counts = np.zeros((len(idx), len(words)))
    np.add.at(counts, (examples[owners], cols), bags.counts[slots])
    return words, counts


def _batch(examples: _Examples, idx: np.ndarray):
    """(image rows, (words, counts) per text block) for examples ``idx``."""
    texts = [_count_matrix(examples.bags, ptr, rows, idx) for ptr, rows in examples.texts]
    return examples.images[examples.image_rows[idx]], texts


def _normalize_rows(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows (last axis) divided by their L2 norms, and the norms; near-zero
    rows stay unchanged."""
    norms = np.linalg.norm(raw, axis=-1, keepdims=True)
    return raw / np.where(norms > _NORM_EPS, norms, 1.0), norms


def embed_bow(counts: BowVector, embedding: np.ndarray) -> np.ndarray:
    """Sum of count * embedding row over the bag's entries."""
    one = np.arange(1)
    words, matrix = _count_matrix(_bag_rows([counts], embedding.shape[0]), np.arange(2), one, one)
    return (matrix @ embedding[words])[0]


def l2_normalize(v: np.ndarray) -> np.ndarray:
    """v / ||v|| (row by row for a matrix), with vectors of near-zero norm
    returned unchanged."""
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


def _forward(model: LinearModel, batch):
    """(log_probs, x, norms) for a batch from ``_batch``: x is the
    concatenated normalized input and norms holds the raw norms of each
    text block."""
    images, texts = batch
    parts, norms = [images], []
    for (words, counts), embedding in zip(texts, (model.embed_target, model.embed_extra)):
        normed, raw_norms = _normalize_rows(counts @ embedding[words])
        parts.append(normed)
        norms.append(raw_norms)
    x = np.concatenate(parts, axis=1)
    z = x @ model.fc_weights.T + model.fc_bias
    z -= z.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True)), x, norms


def _block_batch(model: LinearModel, blocks: Sequence[FeatureBlock]):
    """A batch of feature blocks, each indexed as its own two bags."""
    n = len(blocks)
    bags = [b.target_bow for b in blocks] + [b.extra_bow for b in blocks]
    images = _image_matrix([b.image for b in blocks], model.dims.d_img)
    items = ((i, i, [n + i]) for i in range(n))
    return _batch(_index_examples(images, items, bags.__getitem__, model.vocab_size), np.arange(n))


def forward(model: LinearModel, block: FeatureBlock) -> np.ndarray:
    """Probability vector over answers for one feature block."""
    return np.exp(_forward(model, _block_batch(model, [block]))[0][0])


# ---------------------------------------------------------------------------
# loss and gradients


def _backward(model: LinearModel, batch, labels: np.ndarray):
    """(loss, d fc_weights, d fc_bias, text rows) of the batch's mean cross-entropy;
    text rows holds (word positions, gradient rows) for each embedding, whose
    other rows have zero gradient."""
    log_probs, x, text_norms = _forward(model, batch)
    picked = np.arange(len(labels)), labels
    loss = float(-log_probs[picked].mean())
    dz = np.exp(log_probs)
    dz[picked] -= 1.0
    dz /= len(labels)

    d_img, d_t, _, _ = model.dims
    dx = dz @ model.fc_weights
    text_rows = []
    bounds = zip(batch[1], text_norms, (d_img, d_img + d_t), (d_img + d_t, None))
    for (words, counts), norms, lo, hi in bounds:
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
    loss, d_weights, d_bias, text_rows = _backward(model, _block_batch(model, blocks), labels)
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

    image_ids = list(dict.fromkeys(e.image_id for e in kept))  # in order of first use
    for image_id in image_ids:
        if image_id not in features:
            raise DanglingReference(f"no features for image {image_id}")
    image_rows = {image_id: row for row, image_id in enumerate(image_ids)}
    vectors = [features[image_id] for image_id in image_ids]
    d_img = np.shape(vectors[0])[0]
    # normalized twice, as by make_feature_block on a normalized vector, so
    # that results stay bit for bit those of per-example blocks
    images = l2_normalize(l2_normalize(_image_matrix(vectors, d_img)))
    examples = _index_examples(
        images,
        ((image_rows[e.image_id], e.target_question.text, [q.text for q in e.extra])
         for e in kept),
        functools.partial(bow_featurize, vocab=vocab),
        len(vocab),
    )
    labels = np.array([answer_index[e.answer] for e in kept], dtype=np.int64)

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

    n = len(kept)
    lr = config.learning_rate
    chunks = range(0, n, config.batch_size)
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        for lo in chunks:
            idx = order[lo : lo + config.batch_size]
            _, d_weights, d_bias, embeds = _backward(model, _batch(examples, idx), labels[idx])
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
                idx = np.arange(lo, min(lo + config.batch_size, n))
                log_probs = _forward(model, _batch(examples, idx))[0]
                nll -= log_probs[np.arange(len(idx)), labels[idx]].sum()
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
    examples in order, 64 per forward pass.  Each distinct question text is
    tokenized once per call; its bag is kept for later chunks."""
    bag_of = functools.cache(functools.partial(bow_featurize, vocab=vocab))
    examples = iter(examples)
    while chunk := list(itertools.islice(examples, _PREDICT_CHUNK)):
        images = l2_normalize(_image_matrix([ex[0] for ex in chunk], model.dims.d_img))
        items = ((i, q.text, [x.text for x in extras or ()])
                 for i, (_, q, extras) in enumerate(chunk))
        indexed = _index_examples(images, items, bag_of, model.vocab_size)
        for probs in np.exp(_forward(model, _batch(indexed, np.arange(len(chunk))))[0]):
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
