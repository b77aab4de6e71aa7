"""Pipeline steps that the qsup CLI has no subcommand for.

Each runs as its own process, like the CLI steps around it:

    python perfbench/steps.py setup --dataset D.json --features F.qvft
    python perfbench/steps.py convert --questions Q.json --annotations A.json --out D.json
    python perfbench/steps.py map --labels L.jsonl --dataset D.json --seed N

Each prints one JSON object with its counts or result on stdout.

setup    import qsup, load a manifest, its features and the packaged tables
convert  official VQA layout -> native manifest (load_vqa_dataset + save_dataset)
map      mAP of extracted labels max-fused with seeded classifier scores
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

import qsup
from qsup import dataio, evalstats, qparse


def _setup(args) -> dict:
    manifest = dataio.load_dataset(args.dataset)
    features = dataio.load_features(args.features)
    obj_vocab = qparse.default_object_vocabulary()
    qparse.default_question_types()
    return {"images": len(manifest.images), "features": len(features),
            "classes": len(obj_vocab.class_names), "qsup": qsup.__file__}


def _convert(args) -> dict:
    manifest = dataio.load_vqa_dataset(args.questions, args.annotations)
    dataio.save_dataset(manifest, args.out)
    return {"images": len(manifest.images), "questions": len(manifest.questions)}


def _map(args) -> dict:
    classes = qparse.default_object_vocabulary().class_names
    col = {c: j for j, c in enumerate(classes)}
    manifest = dataio.load_dataset(args.dataset)
    extracted = {}
    with open(args.labels, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            extracted[record["image_id"]] = record["labels"]
    ids = [e.image_id for e in manifest.images]
    rng = np.random.default_rng(args.seed)
    truth_rows = np.zeros((len(ids), len(classes)), dtype=np.int8)
    for row, entry in enumerate(manifest.images):
        truth_rows[row, [col[c] for c in entry.gt_labels]] = 1
    # classifier scores: informative but noisy, as from an image model
    classifier = 0.4 * truth_rows + rng.random(truth_rows.shape)
    scores, truth = {}, {}
    for row, image_id in enumerate(ids):
        x_o = np.zeros(len(classes))
        x_o[[col[c] for c in extracted[image_id]]] = 1.0
        scores[image_id] = evalstats.fuse_max(x_o, classifier[row])
        truth[image_id] = truth_rows[row]
    _, mean_ap = evalstats.mean_average_precision(scores, truth, classes)
    return {"map": mean_ap, "images": len(ids)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="step", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--dataset", required=True)
    p.add_argument("--features", required=True)
    p.set_defaults(func=_setup)
    p = sub.add_parser("convert")
    p.add_argument("--questions", required=True)
    p.add_argument("--annotations", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_convert)
    p = sub.add_parser("map")
    p.add_argument("--labels", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=_map)
    args = parser.parse_args(argv)
    print(json.dumps(args.func(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
