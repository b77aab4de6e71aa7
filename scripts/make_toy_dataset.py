#!/usr/bin/env python3
"""Write a small synthetic dataset plus a ready-to-run train config.

Gives the CLI walkthrough in the README something to chew on:

    python3 scripts/make_toy_dataset.py --out-dir demo
    qsup train --config demo/run.json
"""

import argparse
import random
from pathlib import Path

from qsup.dataio import DatasetManifest, ImageEntry, save_dataset, save_features
from qsup.qparse import Question, default_object_vocabulary, write_json
from qsup.synth import make_pair_dataset

# confirmed question types that a one-word class name can end
PREFIXES = ("what color is the", "where is the", "what kind of", "what type of")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="demo")
    parser.add_argument("--images", type=int, default=120)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    records, features = make_pair_dataset(args.images, seed=args.seed)
    # Each image gains one unanswered question that names a one-word class of
    # the packaged vocabulary, its only ground-truth label, so that
    # `qsup eval --task extraction` scores real matches.
    rng = random.Random(args.seed)
    classes = [name for name in default_object_vocabulary().class_names if " " not in name]
    images, questions = [], []
    for r in records:
        name = rng.choice(classes)
        images.append(ImageEntry(r.image_id, r.image_id, (name,)))
        questions += [*r.all_questions,
                      Question(f"c{r.image_id}", r.image_id, f"{rng.choice(PREFIXES)} {name}?")]
    manifest = DatasetManifest(tuple(images), tuple(questions))
    save_dataset(manifest, out / "data.json")
    save_features(features, out / "features.qvft")

    config = {
        "dataset": "data.json",
        "features": "features.qvft",
        "out_dir": "out",
        "seed": args.seed,
        "augment_mode": "powerset",
        "train": {"learning_rate": 0.5, "epochs": 10, "batch_size": 16,
                  "answer_vocab_size": 8, "weight_init_scale": 0.01, "embed_dim": 16},
    }
    write_json(out / "run.json", config)
    print(f"wrote {out}/data.json, {out}/features.qvft and {out}/run.json")


if __name__ == "__main__":
    main()
