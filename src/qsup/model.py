"""Bag-of-words linear VQA model with a second text block for extra questions.

The representation concatenates three independently L2-normalized blocks:
ingested image features, an embedded bag-of-words of the target question,
and an embedded bag-of-words of the extra questions concatenated together.
A learned affine layer plus softmax predicts the answer class.

Questions reach the model as indices: one indexer tokenizes each distinct
question text once and sorts (row, position) keys once into one
bag-of-words row per text (CSR arrays of positions, counts and row
offsets).  A block's bag is the sum of its rows, since joining texts with a
space never merges tokens, and a count matrix gathers rows over just the
words they use.  ``train`` decodes examples (an image row, the target's bag
row, the extras' bag rows) a window at a time from an ``augment.ExemplarRows``
table, which Exemplar objects are laid out as first, so memory does not grow
with the number of exemplars the table describes.  One batched forward pass,
``_forward``, serves training, the full-data loss and predict.  Training is
plain mini-batch SGD with analytic gradients, including the Jacobian of the
L2 normalization applied to the two text blocks; each step updates only the
embedding rows of words in the batch, and the input gradient covers the text
columns only.  A model's extra block is 0 wide (d_e = 0) unless an exemplar
it trains on has an extra question: a ``plain`` model has none.  Predict goes a
window of whole images at a time: each question's row is embedded once under
each embedding, a question's raw extra block is its image's total less its own
row (O(k) for k questions), and the image term W_img @ img + b, computed once
per image, is the offset of its questions' forward pass over a zero-width image
block.
``predict`` is one group [target, *extras] of that road, answering its
target.  The one-example API (``FeatureBlock``, ``forward``, ``loss_and_grad``)
gives block i of a batch of n bag row i as its target and row n + i as extras.
"""

from __future__ import annotations

import functools
import itertools
import logging
import sys
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .augment import AugmentMode, Exemplar, ExemplarRows
from .errors import (
    DanglingReference,
    DimMismatch,
    Diverged,
    EmptyBatch,
    NoTrainableExemplars,
)
from .qparse import Question
from .vocab import BowVector, Vocabulary, bow_featurize, token_positions

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
    "predict_images",
    "predict_multiple_choice",
]

logger = logging.getLogger(__name__)

_NORM_EPS = 1e-12
_FLOAT32_MAX = float(np.finfo(np.float32).max)  # the model file stores float32
_SIZE_MAX = 2**31 - 1  # batch_size, embed_dim: clear of numpy's C-long overflow; fits the file's u32
_PREDICT_PASS = 64  # questions per predict forward pass; bounds its memory
_PREDICT_WINDOW = 2 * _PREDICT_PASS  # questions indexed at a time by predict_images
_EMBED_PASS = 16  # questions per count matrix in predict; fewer words, fewer zero products
_WINDOW_SLOTS = 1 << 14  # bag entries per window of batches; bounds its index arrays


class ModelDims(NamedTuple):
    d_img: int
    d_t: int
    d_e: int
    n_answers: int


@dataclass
class LinearModel:
    """Parameters of the two-text-block linear softmax model.

    ``train`` makes float64 parameters; ``dataio.load_model`` gives the
    embedding tables as the float32 the file stores.  Every product widens
    just the embedding rows it gathers to float64, which is exact, so a
    loaded model computes the same doubles as its float64 copy.
    """

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
        if self.embed_target.shape[0] != self.embed_extra.shape[0]:
            raise DimMismatch("embed_target and embed_extra must have the same number of rows")
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

    def storable(self) -> bool:
        """Whether every parameter is within the float32 range the file stores (NaN is not)."""
        return all(-_FLOAT32_MAX <= p.min(initial=0) and p.max(initial=0) <= _FLOAT32_MAX
                   for p in self.parameters().values())


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
        # NaN fails every comparison; Python compares a JSON integer past float range exactly
        if not 0 <= self.learning_rate <= sys.float_info.max:
            raise ValueError("learning_rate must be finite and >= 0")
        if self.epochs < 1 or self.answer_vocab_size < 1:
            raise ValueError("epochs and answer_vocab_size must be >= 1")
        for name in ("batch_size", "embed_dim"):
            if not 1 <= getattr(self, name) <= _SIZE_MAX:
                raise ValueError(f"{name} must be in [1, {_SIZE_MAX}]")
        if not 0 <= self.weight_init_scale <= _FLOAT32_MAX:
            raise ValueError("weight_init_scale must be in [0, float32 max]")
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
    """Examples as the rows of ``table``, decoded a window at a time: a row's
    unit is its table entry k, whose row of ``image_rows`` and of the
    caller's labels it takes; its target's bag row is ``target_rows[k]``
    and extra question q's is ``question_rows[q]``.  A block's bag is the
    sum of its rows, since joining texts with a space never merges tokens."""

    images: np.ndarray
    image_rows: np.ndarray
    bags: _Bags
    table: ExemplarRows
    target_rows: np.ndarray
    question_rows: np.ndarray


def _bags(texts: Sequence[Sequence[int]]) -> _Bags:
    """One bag row per text of word positions: its distinct positions, ascending,
    and how often each occurs, from one sort of (row, position) keys."""
    sizes = np.fromiter(map(len, texts), np.intp, len(texts))
    flat = np.fromiter(itertools.chain.from_iterable(texts), np.intp, int(sizes.sum()))
    span = int(flat.max()) + 1 if len(flat) else 1
    keys, counts = np.unique(np.repeat(np.arange(len(texts)), sizes) * span + flat,
                             return_counts=True)
    ptr = np.searchsorted(keys, np.arange(len(texts) + 1) * span)
    return _Bags(ptr, keys % span, counts)


def _bag_rows(bags: Sequence[BowVector], vocab_size: int) -> _Bags:
    for size in {bag.vocab_size for bag in bags} - {vocab_size}:
        raise DimMismatch(f"bow over {size} words vs {vocab_size} embedding rows")
    return _bags([list(Counter(bag.entries).elements()) for bag in bags])


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


def _count_matrices(bags: _Bags, places: np.ndarray, rows: np.ndarray, n: int,
                    batch_size: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(words, counts) of one text block for each ``batch_size`` slice of
    ``n`` examples in turn, from the bag ``rows`` of the examples at
    ``places`` (non-decreasing): the sorted positions of the words the
    slice uses and the (examples, words) matrix of the summed counts of each
    example's bag rows.  One sort of (batch, word) keys serves all slices."""
    slots, owners = _segments(bags.ptr, rows)
    places = places[owners]  # non-decreasing, so each batch's slots are contiguous
    batches = places // batch_size
    positions = bags.positions[slots]
    span = int(positions.max()) + 1 if len(positions) else 1
    keys, cols = np.unique(batches * span + positions, return_inverse=True)
    n_batches = -(-n // batch_size)
    starts = np.arange(n_batches + 1)
    key_bounds = np.searchsorted(keys, starts * span)
    slot_bounds = np.searchsorted(batches, starts)
    widths = np.diff(key_bounds)
    # each slot's flat index in its batch's (examples, words) matrix
    cells = (places - batches * batch_size) * widths[batches] + cols - key_bounds[batches]
    weights = bags.counts[slots]
    for b in range(n_batches):
        size = min(batch_size, n - b * batch_size)
        part = slice(slot_bounds[b], slot_bounds[b + 1])
        counts = np.bincount(cells[part], weights[part], minlength=size * widths[b])
        yield keys[key_bounds[b] : key_bounds[b + 1]] - b * span, counts.reshape(size, widths[b])


def _batches(examples: _Examples, order: np.ndarray, batch_size: int):
    """(units, batch) for each ``batch_size`` slice of ``order``, decoded and
    assembled a window of batches at a time; a batch is the examples' image
    rows and (words, counts) of each text block.  A first window of one batch
    sizes the next to about _WINDOW_SLOTS bag entries, and so on."""
    sizes = np.diff(examples.bags.ptr)
    lo, window = 0, batch_size
    while lo < len(order):
        part = order[lo : lo + window]
        entries, owners, extras = examples.table.decode(part)
        texts = [(np.arange(len(part)), examples.target_rows[entries]),
                 (owners, examples.question_rows[extras])]
        counts = zip(*(_count_matrices(examples.bags, places, rows, len(part), batch_size)
                       for places, rows in texts))
        for start, batch_counts in zip(range(0, len(part), batch_size), counts):
            idx = entries[start : start + batch_size]
            yield idx, (examples.images[examples.image_rows[idx]], list(batch_counts))
        lo += len(part)
        slots = sum(int(sizes[rows].sum()) for _, rows in texts)
        window = batch_size * max(1, _WINDOW_SLOTS * len(part) // max(slots, 1) // batch_size)


def _normalize_rows(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows (last axis) divided by their L2 norms, and the norms; near-zero
    rows stay unchanged."""
    norms = np.linalg.norm(raw, axis=-1, keepdims=True)
    return raw / np.where(norms > _NORM_EPS, norms, 1.0), norms


def _rows(embedding: np.ndarray, words: np.ndarray) -> np.ndarray:
    """The embedding rows at ``words`` as float64 (a float32 table's widened exactly)."""
    return embedding[words].astype(np.float64, copy=False)


def embed_bow(counts: BowVector, embedding: np.ndarray) -> np.ndarray:
    """Sum of count * embedding row over the bag's entries."""
    bags = _bag_rows([counts], embedding.shape[0])
    return bags.counts @ _rows(embedding, bags.positions)


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


def _forward(model: LinearModel, images: np.ndarray, raws: Sequence[np.ndarray], offset):
    """(log_probs, x, norms) of the one forward pass of training, the full-data
    loss and predict: x is ``images`` then each raw text block of ``raws``
    L2-normalized, norms their raw norms; the logits are x times the fc columns
    of those blocks, from column d_img - images.shape[1], plus ``offset``."""
    normed = [_normalize_rows(raw) for raw in raws]
    x = np.concatenate([images, *(block for block, _ in normed)], axis=1)
    lo = model.dims.d_img - images.shape[1]
    z = x @ model.fc_weights[:, lo : lo + x.shape[1]].T
    z += offset
    z -= z.max(axis=-1, keepdims=True)
    z -= np.log(np.exp(z).sum(axis=-1, keepdims=True))
    return z, x, [norms for _, norms in normed]


def _embed(model: LinearModel, batch):
    """``_forward``'s inputs for a ``_batches`` or ``_block_batch`` batch: its
    normalized image rows, each text block's raw embedding, and fc_bias."""
    images, texts = batch
    embeddings = model.embed_target, model.embed_extra
    return images, [c @ _rows(e, w) for (w, c), e in zip(texts, embeddings)], model.fc_bias


def _block_batch(model: LinearModel, blocks: Sequence[FeatureBlock]):
    """A batch of feature blocks, each indexed as its own two bags."""
    n = len(blocks)
    bags = _bag_rows([b.target_bow for b in blocks] + [b.extra_bow for b in blocks],
                     model.vocab_size)
    rows = np.arange(n)
    texts = [next(_count_matrices(bags, rows, rows + first, n, n)) for first in (0, n)]
    return _image_matrix([b.image for b in blocks], model.dims.d_img), texts


def forward(model: LinearModel, block: FeatureBlock) -> np.ndarray:
    """Probability vector over answers for one feature block."""
    return np.exp(_forward(model, *_embed(model, _block_batch(model, [block])))[0][0])


# ---------------------------------------------------------------------------
# loss and gradients


def _backward(model: LinearModel, batch, labels: np.ndarray):
    """(log_probs, d fc_weights, d fc_bias, text rows) of the batch's mean
    cross-entropy; text rows holds (word positions, gradient rows) for each
    embedding.  dx covers the text columns only."""
    log_probs, x, text_norms = _forward(model, *_embed(model, batch))
    picked = np.arange(len(labels)), labels
    dz = np.exp(log_probs)
    dz[picked] -= 1.0
    dz /= len(labels)

    d_img, d_t, _, _ = model.dims
    dx, x_text = dz @ model.fc_weights[:, d_img:], x[:, d_img:]
    text_rows = []
    for (words, counts), norms, lo, hi in zip(batch[1], text_norms, (0, d_t), (d_t, None)):
        g, normed = dx[:, lo:hi], x_text[:, lo:hi]
        safe = norms > _NORM_EPS
        inner = (g * normed).sum(axis=1, keepdims=True)
        d_raw = np.where(safe, (g - normed * inner) / np.where(safe, norms, 1.0), g)
        text_rows.append((words, counts.T @ d_raw))
    return log_probs, dz.T @ x, dz.sum(axis=0), text_rows


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
    log_probs, d_weights, d_bias, text_rows = _backward(model, _block_batch(model, blocks), labels)
    # float64 whatever the parameters' dtype: a float32 gradient would round
    d_embed = [np.zeros(model.embed_target.shape), np.zeros(model.embed_extra.shape)]
    for grad, (words, rows) in zip(d_embed, text_rows):
        grad[words] = rows
    loss = float(-log_probs[np.arange(len(labels)), labels].mean())
    return loss, Gradients(*d_embed, d_weights, d_bias)


# ---------------------------------------------------------------------------
# training


def build_answer_vocab(answers: Iterable[str], size: int) -> tuple[str, ...]:
    """The ``size`` most frequent answers, most frequent first, ties A-Z."""
    return _top_answers(Counter(answers), size)


def _top_answers(counts: Mapping[str, int], size: int) -> tuple[str, ...]:
    ranked = sorted(counts, key=lambda a: (-counts[a], a))
    return tuple(ranked[:size])


def _text_bags(questions: Iterable[Question],
               positions_of: Callable[[str], Sequence[int]]) -> tuple[np.ndarray, _Bags]:
    """(bag row of each question, bags): one bag row (of the word positions
    ``positions_of`` its text) per distinct text of the questions."""
    text_rows: dict[str, int] = {}
    rows = [text_rows.setdefault(q.text, len(text_rows)) for q in questions]
    return np.array(rows, np.intp), _bags([positions_of(text) for text in text_rows])


def _index_units(
    exemplars: Iterable[Exemplar] | ExemplarRows,
    features: Mapping[int, np.ndarray],
    vocab: Vocabulary,
    answer_vocab_size: int,
) -> tuple[_Examples, int, np.ndarray, tuple[str, ...]]:
    """(examples, their number, labels of their units, answer vocabulary) of
    the exemplars whose answer is among the ``answer_vocab_size`` most frequent:
    a unit is a kept entry of their table, which counts its rows."""
    table = (exemplars if isinstance(exemplars, ExemplarRows)
             else ExemplarRows.from_exemplars(exemplars))
    weights = np.diff(table.ends)
    answers = [table.questions[i].answer for i in (table.starts + table.targets).tolist()]
    if not answers:
        raise NoTrainableExemplars("empty exemplar stream")
    answer_ids: dict[str, int] = {}
    ids = np.array([answer_ids.setdefault(a, len(answer_ids)) for a in answers], np.intp)
    counts = np.bincount(ids, weights, len(answer_ids)).astype(np.int64).tolist()
    answer_vocab = _top_answers(dict(zip(answer_ids, counts)), answer_vocab_size)
    label_of = {a: i for i, a in enumerate(answer_vocab)}
    labels = np.array([label_of.get(a, -1) for a in answer_ids], np.int64)[ids]
    keep = labels >= 0
    n_rows, n = int(weights.sum()), int(weights[keep].sum())
    logger.info("exemplars: %d generated, %d kept, %d dropped with out-of-vocabulary answers",
                n_rows, n, n_rows - n)
    if not n:
        raise NoTrainableExemplars("no exemplars with in-vocabulary answers")

    table = table.select(keep)
    # the questions of any row: a plain row has only its target; the extras
    # of the other modes cover the target's image
    used = ((table.starts + table.targets).tolist() if table.mode is AugmentMode.PLAIN
            else range(len(table.questions)))
    question_rows = np.zeros(len(table.questions), np.intp)
    question_rows[used], bags = _text_bags(
        map(table.questions.__getitem__, used), functools.partial(token_positions, vocab=vocab))
    image_ids, image_rows = np.unique(table.image_ids, return_inverse=True)
    for image_id in image_ids.tolist():
        if image_id not in features:
            raise DanglingReference(f"no features for image {image_id}")
    vectors = [features[image_id] for image_id in image_ids.tolist()]
    images = l2_normalize(_image_matrix(vectors, np.shape(vectors[0])[0]))
    return (_Examples(images, image_rows, bags, table,
                      question_rows[table.starts + table.targets], question_rows),
            n, labels[keep], answer_vocab)


def train(
    exemplars: Iterable[Exemplar] | ExemplarRows,
    features: Mapping[int, np.ndarray],
    vocab: Vocabulary,
    config: TrainConfig,
    on_epoch_end: Callable[[int, float], None] | None = None,
) -> LinearModel:
    """Mini-batch SGD over the exemplars; deterministic given the seed.

    ``exemplars`` are ExemplarRows, or Exemplar objects, which train as
    ``ExemplarRows.from_exemplars`` lays them out: a stream and the table of
    the same exemplars give the same model.  The answer vocabulary is the
    most frequent exemplar answers; exemplars whose answer falls outside it
    are dropped, and the counts are logged.  Each distinct question text
    is tokenized once, by ``token_positions``.  ``on_epoch_end`` receives
    (epoch, full-dataset loss) after each epoch, computed ``batch_size``
    examples at a time.  The extra block is ``embed_dim`` wide if a kept entry
    has extras, read off its size: 2+ questions in ``concat_only``, any in the
    powerset modes (a mask can select the target), never in ``plain``; else 0.
    An epoch that leaves a parameter past float32 range raises Diverged.
    """
    examples, n, labels, answer_vocab = _index_units(
        exemplars, features, vocab, config.answer_vocab_size)

    d = config.embed_dim
    least = {AugmentMode.PLAIN: np.inf, AugmentMode.CONCAT_ONLY: 2}.get(examples.table.mode, 1)
    d_e = d if (examples.table.sizes >= least).any() else 0
    n_answers = len(answer_vocab)
    v = len(vocab)
    s = config.weight_init_scale
    rng = np.random.default_rng(config.seed)
    model = LinearModel(
        embed_target=rng.uniform(-s, s, (v, d)),
        embed_extra=rng.uniform(-s, s, (v, d_e)),
        fc_weights=rng.uniform(-s, s, (n_answers, examples.images.shape[1] + d + d_e)),
        fc_bias=rng.uniform(-s, s, n_answers),
        answer_vocab=answer_vocab,
    )

    lr = config.learning_rate
    for epoch in range(config.epochs):
        with np.errstate(over="ignore", invalid="ignore"):  # storable() below reports divergence
            for idx, batch in _batches(examples, rng.permutation(n), config.batch_size):
                _, d_weights, d_bias, embeds = _backward(model, batch, labels[idx])
                # each gradient is a fresh array, so it is scaled in place
                d_weights *= lr
                model.fc_weights -= d_weights
                d_bias *= lr
                model.fc_bias -= d_bias
                for table, (words, grad) in zip((model.embed_target, model.embed_extra), embeds):
                    grad *= lr
                    table[words] -= grad
                # so that no two steps' fc-sized gradients are alive at once
                del d_weights, d_bias, embeds, batch
        if not model.storable():
            raise Diverged(f"training diverged in epoch {epoch + 1}: parameters past float32 range")
        if on_epoch_end is not None:
            nll = 0.0
            for idx, batch in _batches(examples, np.arange(n), config.batch_size):
                log_probs = _forward(model, *_embed(model, batch))[0]
                nll -= log_probs[np.arange(len(idx)), labels[idx]].sum()
            on_epoch_end(epoch, float(nll / n))
    return model


# ---------------------------------------------------------------------------
# inference


def predict_images(
    model: LinearModel,
    vocab: Vocabulary,
    groups: Iterable[tuple[np.ndarray, Sequence[Question]]],
    use_extras: bool,
) -> Iterator[tuple[str, np.ndarray]]:
    """Generate ``predict`` results for every question of each (image_feat,
    questions) group in turn, in windows of whole groups of about _PREDICT_WINDOW
    questions; with ``use_extras`` a question's raw extra block is its group's
    total less its own row.  Each distinct text is tokenized once per call."""
    if len(vocab) != model.vocab_size:
        raise DimMismatch(f"vocabulary of {len(vocab)} words vs {model.vocab_size} embedding rows")
    d_img = model.dims.d_img
    embeddings = (model.embed_target, model.embed_extra)[: 1 + use_extras]
    positions_of = functools.cache(functools.partial(token_positions, vocab=vocab))
    before = 0  # questions before the group

    def window_of(group) -> int:
        nonlocal before
        before += len(group[1])
        return (before - len(group[1])) // _PREDICT_WINDOW

    for _, window in itertools.groupby((g for g in groups if g[1]), window_of):
        window = list(window)
        images = l2_normalize(_image_matrix([image for image, _ in window], d_img))
        image_terms = images @ model.fc_weights[:, :d_img].T + model.fc_bias  # once per image
        rows, bags = _text_bags((q for _, questions in window for q in questions), positions_of)
        # each question's row embedded once under each embedding, from one count matrix per pass
        passes = list(_count_matrices(bags, np.arange(len(rows)), rows, len(rows), _EMBED_PASS))
        raw = [np.concatenate([counts @ _rows(e, words) for words, counts in passes])
               for e in embeddings]
        sizes = np.array([len(questions) for _, questions in window])
        owners = np.repeat(np.arange(len(window)), sizes)
        totals = np.add.reduceat(raw[-1], np.cumsum(sizes) - sizes) if use_extras else None
        for lo in range(0, len(rows), _PREDICT_PASS):
            own, units = slice(lo, lo + _PREDICT_PASS), owners[lo : lo + _PREDICT_PASS]
            blocks = [raw[0][own], totals[units] - raw[1][own]] if use_extras else [raw[0][own]]
            # a zero-width image block: the image term is the offset
            log_probs = _forward(model, np.empty((len(units), 0)), blocks, image_terms[units])[0]
            probs = np.exp(log_probs, out=log_probs)
            labels = np.argmax(probs, axis=1).tolist()  # ties: lowest index
            yield from zip([model.answer_vocab[k] for k in labels], probs)


def predict(
    model: LinearModel,
    vocab: Vocabulary,
    image_feat: np.ndarray,
    target_q: Question,
    extra_qs: Sequence[Question] | None = None,
) -> tuple[str, np.ndarray]:
    """Most probable answer and the full probability vector of one example,
    the ``predict_images`` group [target_q, *extra_qs]: the extras' bag rows
    are summed into the extra block, which absent or empty ``extra_qs`` leave
    at zero, the standard single-question test protocol."""
    return next(predict_images(model, vocab, [(image_feat, [target_q, *(extra_qs or ())])], True))


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
