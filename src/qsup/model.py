"""Bag-of-words linear VQA model with a second text block for extra questions.

The representation concatenates three independently L2-normalized blocks:
ingested image features, an embedded bag-of-words of the target question,
and an embedded bag-of-words of the extra questions concatenated together.
A learned affine layer plus softmax predicts the answer class.

``train`` and ``predict_batch`` reach the model by one road: both describe
their examples as ``augment.ExemplarRows`` (an image, a target question and
extra questions per example), and one indexer turns the rows into examples.
It tokenizes each distinct question text once into one bag-of-words row (CSR
arrays of positions, counts and row offsets) and describes each example by
indices: an image row, the target question's bag row and the extra
questions' bag rows.  The extra block's bag is the sum of its rows, since
joining texts with a space never merges tokens.  ``train`` takes the output
of ``augment.exemplar_rows`` as it is, so no object is made per exemplar;
Exemplar objects are first turned into such rows, as is each 64-example
chunk of ``predict_batch``.  A batch's count matrix gathers its examples'
rows over just the words the batch uses, and one batched forward pass over
it serves training, the full-data loss and predict.  Training assembles the
count matrices of a window of consecutive minibatches from one sort of
(batch, word) keys.  It is plain mini-batch SGD with analytic gradients,
including the Jacobian of the L2 normalization applied to the two text
blocks; each step updates only the embedding rows of words in the batch, the
only rows with a gradient.  The one-example API (``FeatureBlock``,
``forward``, ``loss_and_grad``) gives block i of a batch of n bag row i as
its target and bag row n + i as its extras.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import logging
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .augment import Exemplar, ExemplarRows
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
_WINDOW_SLOTS = 1 << 14  # bag entries per window of training batches; bounds its index arrays


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


def _segments(ptr: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The flat indices of the elements of CSR segments ``idx``, and for each
    element its segment's place in ``idx``."""
    starts = ptr[idx]
    sizes = ptr[idx + 1] - starts
    owners = np.repeat(np.arange(len(idx)), sizes)
    return np.arange(len(owners)) + np.repeat(starts - np.cumsum(sizes) + sizes, sizes), owners


def _count_matrices(bags: _Bags, ptr: np.ndarray, rows: np.ndarray, window: np.ndarray,
                    batch_size: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(words, counts) of one text block for each ``batch_size`` slice of
    the examples ``window`` in turn: the sorted positions of the words the
    slice uses and the (examples, words) matrix of the summed counts of each
    example's bag rows.  One sort of (batch, word) keys serves the window."""
    lists, examples = _segments(ptr, window)
    slots, owners = _segments(bags.ptr, rows[lists])
    places = examples[owners]  # non-decreasing, so each batch's slots are contiguous
    batches = places // batch_size
    positions = bags.positions[slots]
    span = int(positions.max()) + 1 if len(positions) else 1
    keys, cols = np.unique(batches * span + positions, return_inverse=True)
    n_batches = -(-len(window) // batch_size)
    starts = np.arange(n_batches + 1)
    key_bounds = np.searchsorted(keys, starts * span)
    slot_bounds = np.searchsorted(batches, starts)
    widths = np.diff(key_bounds)
    # each slot's flat index in its batch's (examples, words) matrix
    cells = (places - batches * batch_size) * widths[batches] + cols - key_bounds[batches]
    weights = bags.counts[slots]
    for b in range(n_batches):
        size = min(batch_size, len(window) - b * batch_size)
        part = slice(slot_bounds[b], slot_bounds[b + 1])
        counts = np.bincount(cells[part], weights[part], minlength=size * widths[b])
        yield keys[key_bounds[b] : key_bounds[b + 1]] - b * span, counts.reshape(size, widths[b])


def _batch(examples: _Examples, idx: np.ndarray):
    """(image rows, (words, counts) per text block) for examples ``idx``."""
    texts = [next(_count_matrices(examples.bags, ptr, rows, idx, len(idx)))
             for ptr, rows in examples.texts]
    return examples.images[examples.image_rows[idx]], texts


def _batches(examples: _Examples, order: np.ndarray, batch_size: int):
    """(idx, ``_batch(examples, idx)``) for each ``batch_size`` slice idx of
    ``order``, assembled a window of batches at a time."""
    sizes = np.diff(examples.bags.ptr)
    slots = sum(int(sizes[rows].sum()) for _, rows in examples.texts)
    per_slot = len(examples.image_rows) / max(slots, 1)
    window = batch_size * max(1, int(_WINDOW_SLOTS * per_slot) // batch_size)
    for lo in range(0, len(order), window):
        part = order[lo : lo + window]
        texts = zip(*(_count_matrices(examples.bags, ptr, rows, part, batch_size)
                      for ptr, rows in examples.texts))
        for start, counts in zip(range(0, len(part), batch_size), texts):
            idx = part[start : start + batch_size]
            yield idx, (examples.images[examples.image_rows[idx]], list(counts))


def _normalize_rows(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows (last axis) divided by their L2 norms, and the norms; near-zero
    rows stay unchanged."""
    norms = np.linalg.norm(raw, axis=-1, keepdims=True)
    return raw / np.where(norms > _NORM_EPS, norms, 1.0), norms


def embed_bow(counts: BowVector, embedding: np.ndarray) -> np.ndarray:
    """Sum of count * embedding row over the bag's entries."""
    bags = _bag_rows([counts], embedding.shape[0])
    return bags.counts @ embedding[bags.positions]


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
    bags = _bag_rows([b.target_bow for b in blocks] + [b.extra_bow for b in blocks],
                     model.vocab_size)
    images = _image_matrix([b.image for b in blocks], model.dims.d_img)
    rows, ptr = np.arange(n), np.arange(n + 1)
    return _batch(_Examples(images, rows, bags, ((ptr, rows), (ptr, rows + n))), rows)


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
    return _top_answers(Counter(answers), size)


def _top_answers(counts: Mapping[str, int], size: int) -> tuple[str, ...]:
    ranked = sorted(counts, key=lambda a: (-counts[a], a))
    return tuple(ranked[:size])


def _rows_of(items: Iterable[tuple[int, Question, Sequence[Question]]]) -> ExemplarRows:
    """(image key, target, extras) items as ExemplarRows over their distinct
    question objects."""
    questions: list[Question] = []
    index: dict[int, int] = {}  # id() of an object in questions -> its place

    def place(question: Question) -> int:
        if id(question) not in index:
            index[id(question)] = len(questions)
            questions.append(question)
        return index[id(question)]

    image_keys, targets, extras, extra_ptr = [], [], [], [0]
    for image_key, target, extra in items:
        image_keys.append(image_key)
        targets.append(place(target))
        extras.extend(map(place, extra))
        extra_ptr.append(len(extras))
    return ExemplarRows(tuple(questions), *(np.array(part, np.intp)
                                            for part in (image_keys, targets, extra_ptr, extras)))


def _index(rows: ExemplarRows, images: np.ndarray, bag_of: Callable[[str], BowVector],
           vocab_size: int) -> _Examples:
    """The examples of ``rows``, whose image ids are rows of ``images``, with
    one bag row (``bag_of`` its text) per distinct text of the questions the
    rows use."""
    used = np.zeros(len(rows.questions), bool)
    used[rows.targets] = used[rows.extras] = True
    text_rows: dict[str, int] = {}
    question_rows = np.zeros(len(rows.questions), np.intp)
    question_rows[used] = [text_rows.setdefault(rows.questions[i].text, len(text_rows))
                           for i in np.flatnonzero(used).tolist()]
    bags = _bag_rows([bag_of(text) for text in text_rows], vocab_size)
    texts = ((np.arange(len(rows.targets) + 1), question_rows[rows.targets]),
             (rows.extra_ptr, question_rows[rows.extras]))
    return _Examples(images, rows.image_ids, bags, texts)


def _index_rows(
    rows: ExemplarRows,
    features: Mapping[int, np.ndarray],
    vocab: Vocabulary,
    answer_vocab_size: int,
    tokens: Mapping[str, Sequence[str]] | None,
) -> tuple[_Examples, np.ndarray, tuple[str, ...]]:
    """(examples, labels, answer vocabulary) of the rows whose answer is in
    the vocabulary of the ``answer_vocab_size`` most frequent row answers."""
    n_rows = len(rows.targets)
    if not n_rows:
        raise NoTrainableExemplars("empty exemplar stream")
    answer_ids: dict[str | None, int] = {}
    question_answer = np.array(
        [answer_ids.setdefault(q.answer, len(answer_ids)) for q in rows.questions], np.intp)
    row_answers = question_answer[rows.targets]
    counts = np.bincount(row_answers, minlength=len(answer_ids)).tolist()
    answer_vocab = _top_answers(
        {a: c for a, c in zip(answer_ids, counts) if c}, answer_vocab_size)
    label_of = {a: i for i, a in enumerate(answer_vocab)}
    labels = np.array([label_of.get(a, -1) for a in answer_ids], np.int64)[row_answers]
    keep = labels >= 0
    n = int(keep.sum())
    logger.info("exemplars: %d generated, %d kept, %d dropped with out-of-vocabulary answers",
                n_rows, n, n_rows - n)
    if not n:
        raise NoTrainableExemplars("no exemplars with in-vocabulary answers")

    image_ids, image_rows = np.unique(rows.image_ids[keep], return_inverse=True)
    for image_id in image_ids.tolist():
        if image_id not in features:
            raise DanglingReference(f"no features for image {image_id}")
    vectors = [features[image_id] for image_id in image_ids.tolist()]
    # normalized twice, as by make_feature_block on a normalized vector, so
    # that results stay bit for bit those of per-example blocks
    images = l2_normalize(l2_normalize(_image_matrix(vectors, np.shape(vectors[0])[0])))
    sizes = np.diff(rows.extra_ptr)
    extra_ptr = np.zeros(n + 1, np.intp)
    np.cumsum(sizes[keep], out=extra_ptr[1:])
    kept = ExemplarRows(rows.questions, image_rows, rows.targets[keep], extra_ptr,
                        rows.extras[np.repeat(keep, sizes)])
    examples = _index(kept, images, lambda text: bow_featurize(
        text, vocab, None if tokens is None else tokens[text]), len(vocab))
    return examples, labels[keep], answer_vocab


def train(
    exemplars: Iterable[Exemplar] | ExemplarRows,
    features: Mapping[int, np.ndarray],
    vocab: Vocabulary,
    config: TrainConfig,
    on_epoch_end: Callable[[int, float], None] | None = None,
    tokens: Mapping[str, Sequence[str]] | None = None,
) -> LinearModel:
    """Mini-batch SGD over the exemplars; deterministic given the seed.

    ``exemplars`` are Exemplar objects or ExemplarRows; both give the same
    model.  The answer vocabulary is the most frequent exemplar answers;
    exemplars whose answer falls outside it are dropped, and the counts
    are logged.  ``tokens``, when given, holds the tokens of every question
    text.  ``on_epoch_end`` receives (epoch, full-dataset loss) after each
    epoch when provided, computed ``batch_size`` examples at a time.
    """
    if not isinstance(exemplars, ExemplarRows):  # each target takes its exemplar's answer
        exemplars = _rows_of(
            (e.image_id, e.target_question if e.target_question.answer == e.answer
             else dataclasses.replace(e.target_question, answer=e.answer), e.extra)
            for e in exemplars)
    examples, labels, answer_vocab = _index_rows(
        exemplars, features, vocab, config.answer_vocab_size, tokens)

    d = config.embed_dim
    n_answers = len(answer_vocab)
    v = len(vocab)
    s = config.weight_init_scale
    rng = np.random.default_rng(config.seed)
    model = LinearModel(
        embed_target=rng.uniform(-s, s, (v, d)),
        embed_extra=rng.uniform(-s, s, (v, d)),
        fc_weights=rng.uniform(-s, s, (n_answers, examples.images.shape[1] + 2 * d)),
        fc_bias=rng.uniform(-s, s, n_answers),
        answer_vocab=answer_vocab,
    )

    n = len(labels)
    lr = config.learning_rate
    for epoch in range(config.epochs):
        for idx, batch in _batches(examples, rng.permutation(n), config.batch_size):
            _, d_weights, d_bias, embeds = _backward(model, batch, labels[idx])
            model.fc_weights -= lr * d_weights
            model.fc_bias -= lr * d_bias
            for embedding, (words, grad) in zip((model.embed_target, model.embed_extra), embeds):
                embedding[words] -= lr * grad
        for param in model.parameters().values():
            if not np.isfinite(param).all():
                raise FloatingPointError(f"non-finite parameters after epoch {epoch}")
        if on_epoch_end is not None:
            nll = 0.0
            for idx, batch in _batches(examples, np.arange(n), config.batch_size):
                log_probs = _forward(model, batch)[0]
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
        rows = _rows_of((i, q, extras or ()) for i, (_, q, extras) in enumerate(chunk))
        indexed = _index(rows, images, bag_of, model.vocab_size)
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
    # max keeps the first of equal keys
    return max(choices, key=lambda c: probs[index[c]] if c in index else -np.inf)
