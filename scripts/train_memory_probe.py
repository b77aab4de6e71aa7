#!/usr/bin/env python3
"""Peak memory of `qsup train` on a generated manifest.

Writes k images with n answered questions each (k * n * 2**n powerset
exemplars, k * n concat_only ones), their features and a run config
(augment mode --mode, powerset by default) to a temporary directory,
trains on them once in this process and prints one JSON object with the
peak resident set of the process (VmHWM in /proc/self/status), in MiB:

    PYTHONPATH=src python3 scripts/train_memory_probe.py --questions 12 --images 4 --seed 1
    PYTHONPATH=src python3 scripts/train_memory_probe.py --questions 2000 --images 1 --mode concat_only

Start a fresh process for each measurement: the peak covers the whole
life of the process.  Linux only (it reads /proc).
"""

import argparse
import contextlib
import json
import random
import sys
import tempfile
from pathlib import Path

import numpy as np

from qsup import cli
from qsup.dataio import DatasetManifest, ImageEntry, save_dataset, save_features
from qsup.qparse import Question, write_json

WORDS = [f"w{i}" for i in range(60)]
ANSWERS = ("yes", "no", "red", "blue", "two", "three")


def peak_mib() -> float:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0  # the figure is in kB
    raise RuntimeError("/proc/self/status has no VmHWM line")


def write_inputs(out: Path, n_questions: int, n_images: int, seed: int, mode: str) -> None:
    rng = random.Random(seed)
    images, questions = [], []
    for image_id in range(1, n_images + 1):
        images.append(ImageEntry(image_id, image_id))
        questions += [Question(f"q{image_id}_{j}", image_id,
                               "what is " + " ".join(rng.choices(WORDS, k=4)),
                               rng.choice(ANSWERS))
                      for j in range(n_questions)]
    save_dataset(DatasetManifest(tuple(images), tuple(questions)), out / "data.json")
    vectors = np.random.default_rng(seed).normal(size=(n_images, 16))
    save_features(dict(enumerate(vectors, start=1)), out / "features.qvft")
    write_json(out / "run.json", {
        "dataset": "data.json", "features": "features.qvft", "out_dir": "out", "seed": seed,
        "augment_mode": mode,
        "train": {"epochs": 1, "batch_size": 32, "answer_vocab_size": len(ANSWERS),
                  "embed_dim": 8},
    })


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--questions", type=int, required=True, help="answered questions per image (n)")
    parser.add_argument("--images", type=int, required=True, help="images (k)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--mode", choices=("powerset", "concat_only"), default="powerset")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(Path(tmp), args.questions, args.images, args.seed, args.mode)
        with contextlib.redirect_stdout(sys.stderr):  # stdout holds only the figures
            code = cli.main(["train", "--config", str(Path(tmp) / "run.json")])
    if code:
        raise SystemExit(code)
    per_target = 2**args.questions if args.mode == "powerset" else 1
    print(json.dumps({"questions": args.questions, "images": args.images, "seed": args.seed,
                      "mode": args.mode, "exemplars": args.images * args.questions * per_target,
                      "peak_mib": round(peak_mib(), 1)}))


if __name__ == "__main__":
    main()
