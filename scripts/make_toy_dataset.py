#!/usr/bin/env python3
"""Write a small synthetic dataset plus a ready-to-run train config.

Gives the CLI walkthrough in the README something to chew on:

    python3 scripts/make_toy_dataset.py --out-dir demo
    qsup train --config demo/run.json
"""

import argparse
import json
from pathlib import Path

from qsup.dataio import DatasetManifest, ImageEntry, save_dataset, save_features
from qsup.synth import make_pair_dataset


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="demo")
    parser.add_argument("--images", type=int, default=120)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    records, features = make_pair_dataset(args.images, seed=args.seed)
    manifest = DatasetManifest(
        images=tuple(ImageEntry(r.image_id, r.image_id) for r in records),
        questions=tuple(q for r in records for q in r.all_questions),
    )
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
    with open(out / "run.json", "w") as fh:
        json.dump(config, fh, indent=1)
        fh.write("\n")
    print(f"wrote {out}/data.json, {out}/features.qvft and {out}/run.json")


if __name__ == "__main__":
    main()
