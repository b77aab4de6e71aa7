#!/usr/bin/env python3
"""Seconds per question and peak memory of `qsup predict --use-extras` at k
questions per image.

Writes a generated manifest of --questions questions, in images of k
questions each, their features (plus --extra-feature-rows rows of images
the manifest does not name), a random model and its vocabulary to a
temporary directory.  Then it runs `qsup predict --use-extras` on them in a
child process with single-threaded BLAS and prints one JSON object: the
child's wall seconds per question and its peak resident set (from
os.wait4), in MiB:

    PYTHONPATH=src python3 scripts/predict_scale_probe.py --questions-per-image 50 --seed 1

The child's time includes interpreter start-up and reading its inputs.  A
predict whose extras cost O(k) per image keeps seconds per question flat
in k; one that lists each question's k - 1 extras grows with k.  A predict
that keeps only the feature rows its manifest names has the same peak at
any number of extra rows:

    PYTHONPATH=src python3 scripts/predict_scale_probe.py --questions-per-image 5 \
        --questions 500 --extra-feature-rows 20000

Linux or macOS (os.wait4).
"""

import argparse
import json
import multiprocessing
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from qsup.dataio import DatasetManifest, ImageEntry, save_dataset, save_features, save_model
from qsup.model import LinearModel
from qsup.qparse import Question
from qsup.vocab import Vocabulary, save_vocabulary

WORDS = [f"w{i}" for i in range(2000)]
ANSWERS = tuple(f"a{i}" for i in range(500))
D_IMG = D_TEXT = 256
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def write_inputs(out: Path, n_questions: int, per_image: int, seed: int, extra_rows: int) -> None:
    rng = np.random.default_rng(seed)
    n_images = -(-n_questions // per_image)
    words = rng.choice(WORDS, size=(n_questions, 5))
    questions = tuple(Question(f"q{j}", 1 + j // per_image, "what is " + " ".join(row))
                      for j, row in enumerate(words.tolist()))
    images = tuple(ImageEntry(i, i) for i in range(1, n_images + 1))
    save_dataset(DatasetManifest(images, questions), out / "data.json")
    features = dict(enumerate(rng.normal(size=(n_images, D_IMG)), start=1))
    v, n = len(WORDS), len(ANSWERS)
    save_model(LinearModel(rng.normal(size=(v, D_TEXT)), rng.normal(size=(v, D_TEXT)),
                           rng.normal(size=(n, D_IMG + 2 * D_TEXT)), rng.normal(size=n), ANSWERS),
               out / "model.qsmd")
    # drawn last, so the named rows and the model do not depend on their number
    extra = rng.standard_normal((extra_rows, D_IMG), dtype=np.float32)
    features.update(enumerate(extra, start=n_images + 1))
    save_features(features, out / "features.qvft")
    save_vocabulary(Vocabulary(WORDS), out / "vocab.txt")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--questions-per-image", type=int, required=True, help="k")
    parser.add_argument("--questions", type=int, default=12000, help="questions in all")
    parser.add_argument("--extra-feature-rows", type=int, default=0,
                        help="feature rows of images the manifest does not name")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    if args.questions_per_image < 1 or args.questions < 1:
        parser.error("--questions-per-image and --questions must be >= 1")
    if args.extra_feature_rows < 0:
        parser.error("--extra-feature-rows must be >= 0")
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        # a child started by subprocess reports the peak of the process that started
        # it as its own, so this process must not grow with the inputs: a fresh
        # interpreter writes them
        writer = multiprocessing.get_context("spawn").Process(target=write_inputs, args=(
            out, args.questions, args.questions_per_image, args.seed, args.extra_feature_rows))
        writer.start()
        writer.join()
        if writer.exitcode:
            raise SystemExit(f"writing the inputs exited {writer.exitcode}")
        argv = [sys.executable, "-m", "qsup.cli", "predict", "--model", str(out / "model.qsmd"),
                "--vocab", str(out / "vocab.txt"), "--features", str(out / "features.qvft"),
                "--questions", str(out / "data.json"), "--out", str(out / "pred.jsonl"),
                "--use-extras"]
        started = time.perf_counter()
        child = subprocess.Popen(argv, env=dict(os.environ, **THREADS), stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(child.pid, 0)
        seconds = time.perf_counter() - started
        code = os.waitstatus_to_exitcode(status)
        if code:
            raise SystemExit(f"qsup predict exited {code}")
        with open(out / "pred.jsonl", encoding="utf-8") as fh:
            lines = sum(1 for _ in fh)
    if lines != args.questions:
        raise SystemExit(f"qsup predict wrote {lines} lines for {args.questions} questions")
    # ru_maxrss is in KiB on Linux and in bytes on macOS
    peak = usage.ru_maxrss / (1 << 20 if sys.platform == "darwin" else 1 << 10)
    print(json.dumps({"questions_per_image": args.questions_per_image,
                      "questions": args.questions, "seed": args.seed,
                      "extra_feature_rows": args.extra_feature_rows,
                      "seconds": round(seconds, 3),
                      "s_per_question": seconds / args.questions,
                      "peak_mib": round(peak, 1)}))


if __name__ == "__main__":
    main()
