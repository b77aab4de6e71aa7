"""Seeded workload generator for the qsup benchmark.

A workload spec plus a seed fixes every generated byte.  One generation
writes, into its own directory:

  train.json          native manifest of the training split (with gt_labels)
  eval.json           native manifest of the held-out split (with gt_labels)
  vqa_questions.json  the held-out split in the official VQA layout
  vqa_annotations.json  its answers, one multiple_choice_answer each
  features.qvft       image features of both splits (QVFT v1)
  meta.json           counts the benchmark checks outputs against

The generator writes the files itself rather than through qsup's writers,
so a change to the program cannot change the inputs it is measured on.

Planted signal: every image belongs to a feature cluster.  In ``hint``
workloads the answer needs the cluster plus a hint word that sits in one
unanswered question of the image, as in ``synth.make_pair_dataset``; a
model only gets past the cluster half when it reads the extra questions.
In ``keyword`` workloads the answer needs the cluster plus a keyword in
the target question itself.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from collections import Counter
from pathlib import Path

import numpy as np

GEN_VERSION = 1

# Object mentions: (surface term, canonical class of the packaged 80-class
# vocabulary).  Synonyms and multi-word terms exercise the extractor's
# phrase and synonym tables.
OBJECTS = (
    ("dog", "dog"), ("puppy", "dog"), ("cat", "cat"), ("kitten", "cat"),
    ("bus", "bus"), ("car", "car"), ("truck", "truck"), ("boat", "boat"),
    ("man", "person"), ("woman", "person"), ("horse", "horse"),
    ("bike", "bicycle"), ("pizza", "pizza"), ("sofa", "couch"),
    ("laptop", "laptop"), ("clock", "clock"), ("umbrella", "umbrella"),
    ("giraffe", "giraffe"), ("zebra", "zebra"), ("elephant", "elephant"),
    ("traffic light", "traffic light"), ("stop sign", "stop sign"),
    ("teddy bear", "teddy bear"), ("hot dog", "hot dog"),
    ("cell phone", "cell phone"), ("fridge", "refrigerator"),
    ("bench", "bench"), ("kite", "kite"), ("cake", "cake"), ("bowl", "bowl"),
)
CONFIRMED = ("what color is the", "how many", "where is the", "what kind of",
             "are there", "does the", "what is on the", "why is the")
UNCONFIRMED = ("is there a", "is this a", "what is the", "is it")
COLORS = ("red", "blue", "green", "yellow", "white", "black", "brown", "gray")
SHAPES = ("circle", "square", "triangle", "star", "oval", "cross")
NUMBERS = ("one", "two", "three", "four", "five")

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"

# Settings every workload shares.
D_IMG = 256            # image feature width
ANSWERED = 2           # answered questions per image
EPOCHS = 1
ANSWER_VOCAB_SIZE = 1000
RESAMPLES = 2000       # bootstrap resamples

# What differs between workloads: sizes, vocabulary, signal and training.
WORKLOADS = {
    "powerset_many_q": {
        "train_images": 200, "eval_images": 500,
        "questions": [5, 7], "filler": [3, 7],
        "vocab_types": 1600, "zipf": 1.0, "clusters": 4, "hints": 4,
        "keywords": 0, "signal": "hint", "augment_mode": "powerset",
        "train": {"learning_rate": 0.25, "batch_size": 32, "embed_dim": 64},
    },
    "plain_wide_vocab": {
        "train_images": 1000, "eval_images": 4000,
        "questions": [3, 3], "filler": [6, 12],
        "vocab_types": 15000, "zipf": 0.9, "clusters": 8, "hints": 0,
        "keywords": 400, "signal": "keyword", "augment_mode": "plain",
        "train": {"learning_rate": 4.0, "batch_size": 16, "embed_dim": 256},
    },
}


def pseudo_words(count: int, offset: int = 0) -> list[str]:
    """``count`` distinct made-up words, the same list for every seed.

    Three consonant-vowel syllables plus a closing consonant ("bakotum")
    never match an object term, a question-type word or an answer.
    """
    syll = [c + v for c in _CONSONANTS for v in _VOWELS]
    n = len(syll)
    words = []
    for k in range(offset, offset + count):
        a, rest = divmod(k, n * n)
        b, c = divmod(rest, n)
        words.append(syll[a % n] + syll[b] + syll[c] + _CONSONANTS[k % len(_CONSONANTS)])
    return words


def spec_digest(spec: dict) -> str:
    raw = json.dumps({"spec": spec, "d_img": D_IMG, "answered": ANSWERED,
                      "version": GEN_VERSION}, sort_keys=True)
    return hashlib.sha256(raw.encode()).hexdigest()[:10]


def _zipf_probs(n: int, s: float) -> np.ndarray:
    p = 1.0 / np.arange(1, n + 1) ** s
    return p / p.sum()


class _Texts:
    """Question texts drawn from the workload's Zipf filler vocabulary."""

    def __init__(self, spec: dict, rng: np.random.Generator):
        self.rng = rng
        self.spec = spec
        self.fillers = pseudo_words(spec["vocab_types"])
        self.filler_cdf = np.cumsum(_zipf_probs(spec["vocab_types"], spec["zipf"]))
        self.hints = pseudo_words(spec["hints"], offset=200_000)
        self.keywords = pseudo_words(spec["keywords"], offset=300_000)
        self.keyword_cdf = np.cumsum(_zipf_probs(max(spec["keywords"], 1), 1.0))

    def _draw(self, cdf: np.ndarray, n: int) -> np.ndarray:
        return np.minimum(np.searchsorted(cdf, self.rng.random(n)), len(cdf) - 1)

    def keyword(self) -> int:
        return int(self._draw(self.keyword_cdf, 1)[0])

    def filler(self) -> str:
        lo, hi = self.spec["filler"]
        n = int(self.rng.integers(lo, hi + 1))
        return " ".join(self.fillers[i] for i in self._draw(self.filler_cdf, n))

    def question(self, obj: str, middle: str = "") -> str:
        confirmed = self.rng.random() < 0.75
        prefixes = CONFIRMED if confirmed else UNCONFIRMED
        prefix = prefixes[int(self.rng.integers(len(prefixes)))]
        parts = [prefix, obj, middle, self.filler()]
        return " ".join(p for p in parts if p) + "?"


def _image(spec, texts: _Texts, rng, image_id: int, cluster: int):
    """Questions (id, text, answer-or-None) and gt classes of one image."""
    n_obj = int(rng.integers(1, 4))
    picks = rng.choice(len(OBJECTS), size=n_obj, replace=False)
    terms = [OBJECTS[i][0] for i in picks]
    gt = sorted({OBJECTS[i][1] for i in picks})
    lo, hi = spec["questions"]
    n_q = int(rng.integers(lo, hi + 1))
    qid = image_id * 10
    questions = []

    def term():
        return terms[int(rng.integers(len(terms)))]

    if spec["signal"] == "hint":
        hint = int(rng.integers(spec["hints"]))
        answers = [f"{COLORS[cluster]} {SHAPES[hint]}", NUMBERS[hint]]
        middles = ["", "many"]
        for j in range(ANSWERED):
            questions.append((qid + j, texts.question(term(), middles[j % 2]),
                              answers[j % 2]))
        questions.append((qid + ANSWERED,
                          texts.question(term(), f"shape {texts.hints[hint]}"), None))
    else:
        for j in range(ANSWERED):
            kw = texts.keyword()
            answer = texts.keywords[kw] + ("" if cluster % 2 else "s")
            questions.append((qid + j, texts.question(term(), texts.keywords[kw]), answer))
    while len(questions) < n_q:
        questions.append((qid + len(questions), texts.question(term()), None))
    return questions, gt


def _manifest(images: list) -> dict:
    return {
        "images": [{"image_id": i, "feature_ref": i, "gt_labels": gt} for i, _, gt in images],
        "questions": [
            {"id": qid, "image_id": i, "text": text, **({"answer": a} if a else {})}
            for i, qs, _ in images for qid, text, a in qs
        ],
    }


def _write_json(path: Path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, separators=(",", ":"))
        fh.write("\n")


def _write_features(path: Path, ids: list[int], feats: np.ndarray) -> None:
    rows = np.zeros(len(ids), dtype=[("id", "<u8"), ("v", "<f4", (feats.shape[1],))])
    rows["id"] = ids
    rows["v"] = feats
    header = b"QVFT" + np.array([1, len(ids), feats.shape[1]], dtype="<u4").tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(rows.tobytes())


def generate(spec: dict, seed: int, out_dir: Path) -> dict:
    """Write one workload's inputs into ``out_dir``; returns its meta."""
    rng = np.random.default_rng([seed, GEN_VERSION])
    texts = _Texts(spec, rng)
    centroids = rng.normal(size=(spec["clusters"], D_IMG))
    n_train, n_eval = spec["train_images"], spec["eval_images"]
    base = 100_000
    images = []
    clusters = rng.integers(spec["clusters"], size=n_train + n_eval)
    for k in range(n_train + n_eval):
        image_id = base + k
        qs, gt = _image(spec, texts, rng, image_id, int(clusters[k]))
        images.append((image_id, qs, gt))
    feats = centroids[clusters] + 0.7 * rng.normal(size=(n_train + n_eval, D_IMG))
    train, held = images[:n_train], images[n_train:]

    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "train.json", _manifest(train))
    _write_json(out_dir / "eval.json", _manifest(held))
    _write_json(out_dir / "vqa_questions.json", {"questions": [
        {"question_id": qid, "image_id": i, "question": text}
        for i, qs, _ in held for qid, text, _ in qs
    ]})
    _write_json(out_dir / "vqa_annotations.json", {"annotations": [
        {"question_id": qid, "multiple_choice_answer": a}
        for _, qs, _ in held for qid, _, a in qs if a
    ]})
    _write_features(out_dir / "features.qvft", [i for i, _, _ in images], feats)

    def exemplars(qs):
        m = sum(1 for q in qs if q[2])
        return m * 2 ** len(qs) if spec["augment_mode"] == "powerset" else m

    eval_answers = [a for _, qs, _ in held for _, _, a in qs if a]
    # Without the hint question a model can know an image's cluster and
    # whether a question asks "how many", nothing more about the answer.
    # Picking the commonest held-out answer per (cluster, kind) is the best
    # it can do on this split.
    by_group: dict[tuple, Counter] = {}
    for (_, qs, _), cluster in zip(held, clusters[n_train:]):
        for j, (_, _, answer) in enumerate(qs[:ANSWERED]):
            by_group.setdefault((int(cluster), j % 2), Counter())[answer] += 1
    hintless = sum(c.most_common(1)[0][1] for c in by_group.values()) / len(eval_answers)
    meta = {
        "seed": seed,
        "train_images": n_train,
        "train_questions": sum(len(qs) for _, qs, _ in train),
        "eval_images": n_eval,
        "eval_questions": sum(len(qs) for _, qs, _ in held),
        "eval_answered": len(eval_answers),
        "exemplars": sum(exemplars(qs) for _, qs, _ in train),
        "majority_baseline": Counter(eval_answers).most_common(1)[0][1] / len(eval_answers),
        "hintless_ceiling": hintless if spec["signal"] == "hint" else None,
    }
    _write_json(out_dir / "meta.json", meta)
    return meta


def cached(name: str, spec: dict, seed: int, cache_root: Path) -> tuple[Path, dict]:
    """Generate once per (workload, spec, seed); later calls reuse the files."""
    out = cache_root / f"{name}-{seed}-{spec_digest(spec)}"
    meta_path = out / "meta.json"
    if not meta_path.exists():
        tmp = cache_root / f".tmp-{out.name}-{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        generate(spec, seed, tmp)
        shutil.rmtree(out, ignore_errors=True)
        os.replace(tmp, out)
    with open(meta_path, encoding="utf-8") as fh:
        return out, json.load(fh)
