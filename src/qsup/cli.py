"""Command-line interface wiring the pipeline together.

Subcommands: extract, augment, train, predict, eval, bootstrap,
word-targets, simulate.  Exit codes: 0 success, 1 usage error, 2 data
error.  Every run writes a `<command>.snapshot.json` with its arguments and
seed next to its outputs so results can be reproduced.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import os
import sys
from collections.abc import Iterable
from pathlib import Path

from . import augment, dataio, evalstats, qparse, vocab as vocabmod
from .errors import DanglingReference, EmptyVector, QsupError
from .model import predict_batch, train
from .qparse import write_json, write_lines

logger = logging.getLogger(__name__)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise _UsageError(message)


def _checked(convert, ok, requirement: str):
    """An argparse type: ``convert`` the flag's text, then require ``ok``."""

    def parse(text: str):
        value = convert(text)  # argparse reports a ValueError as "invalid <__name__> value"
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text}")
        return value

    parse.__name__ = convert.__name__
    return parse


def _write_snapshot(out_dir: Path, command: str, payload: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(out_dir / f"{command}.snapshot.json", payload, sort_keys=True, default=str)


def _args_snapshot(args: argparse.Namespace) -> dict:
    return {k: v for k, v in vars(args).items() if k != "func"}


def _load_tables(args):
    types = (
        qparse.load_question_types(args.types)
        if getattr(args, "types", None)
        else qparse.default_question_types()
    )
    obj_vocab = (
        qparse.load_object_vocabulary(args.vocab)
        if getattr(args, "vocab", None)
        else qparse.default_object_vocabulary()
    )
    return obj_vocab, types


def _image_features(path: str | Path, refs: Iterable[tuple[int, int]]) -> dict:
    """The feature vector of each (image id, feature ref) pair, by image id;
    the file's other rows are not kept."""
    table = dataio.load_features(path)
    features = {}
    for image_id, ref in refs:
        if ref not in table:
            raise DanglingReference(f"image {image_id}: no features under ref {ref}")
        features[image_id] = table[ref]
    return features


# ---------------------------------------------------------------------------
# subcommands


def _cmd_extract(args) -> int:
    obj_vocab, types = _load_tables(args)
    manifest = dataio.load_dataset(args.questions)
    grouped = dataio.questions_by_image(manifest)
    label_sets = (
        qparse.extract_objects_multi(grouped[e.image_id], obj_vocab, types, args.adjective_filter)
        for e in manifest.images
    )
    write_lines(args.out, (
        json.dumps({"image_id": e.image_id, "labels": sorted(labels.present)})
        for e, labels in zip(manifest.images, label_sets)
    ))
    _write_snapshot(Path(args.out).parent, "extract", _args_snapshot(args))
    return 0


def _cmd_augment(args) -> int:
    manifest = dataio.load_dataset(getattr(args, "in"))
    records = dataio.build_image_records(manifest)
    count = write_lines(args.out, (
        json.dumps({"image_id": ex.image_id, "target_id": ex.target_question.id,
                    "extra_ids": [q.id for q in ex.extra], "answer": ex.answer})
        for record in records if record.answered
        for ex in augment.generate_exemplars(record, args.mode)
    ))
    logger.info("wrote %d exemplars", count)
    _write_snapshot(Path(args.out).parent, "augment", _args_snapshot(args))
    return 0


def _cmd_train(args) -> int:
    if not args.config:
        sys.stderr.write("qsup train: error: needs --config or $QSUP_CONFIG\n")
        return 1
    cfg = dataio.load_run_config(args.config)
    manifest = dataio.load_dataset(cfg.dataset)
    records = dataio.build_image_records(manifest)
    features = _image_features(cfg.features, ((r.image_id, r.feature_ref) for r in records))

    # each distinct text tokenized once; interned, texts share each token's string
    tokens = {
        text: tuple(map(sys.intern, qparse.tokenize(text)))
        for text in dict.fromkeys(q.text for q in manifest.questions)
    }
    text_vocab = (
        vocabmod.load_vocabulary(cfg.vocab)
        if cfg.vocab is not None
        else vocabmod.build_vocabulary(manifest.questions, cfg.min_count, tokens)
    )
    rows = augment.exemplar_rows(records, cfg.augment_mode)
    model = train(rows, features, text_vocab, cfg.train, tokens=tokens)

    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    dataio.save_model(model, cfg.out_dir / "model.qsmd")
    vocabmod.save_vocabulary(text_vocab, cfg.out_dir / "vocab.txt")
    _write_snapshot(cfg.out_dir, "train", dataclasses.asdict(cfg))
    print(
        f"trained model over {len(text_vocab)} words and "
        f"{len(model.answer_vocab)} answers -> {cfg.out_dir / 'model.qsmd'}"
    )
    return 0


def _cmd_predict(args) -> int:
    model = dataio.load_model(args.model)
    text_vocab = vocabmod.load_vocabulary(args.vocab)
    manifest = dataio.load_dataset(args.questions)
    grouped = dataio.questions_by_image(manifest)
    refs = ((e.image_id, e.feature_ref) for e in manifest.images if grouped[e.image_id])
    features = _image_features(args.features, refs)
    examples = (
        (features[q.image_id], q,
         [x for x in grouped[q.image_id] if x.id != q.id] if args.use_extras else None)
        for q in manifest.questions
    )
    answers = predict_batch(model, text_vocab, examples)
    write_lines(args.out, (
        json.dumps({"question_id": q.id, "image_id": q.image_id, "answer": answer})
        for q, (answer, _) in zip(manifest.questions, answers)
    ))
    _write_snapshot(Path(args.out).parent, "predict", _args_snapshot(args))
    return 0


def _label_set(labels, classes: tuple[str, ...], context: str) -> qparse.LabelSet:
    try:
        return qparse.LabelSet(frozenset(labels), classes)
    except ValueError as exc:
        raise dataio.ParseError(f"{context}: {exc}") from exc


def _matched_pairs(pred_path: str, dataset_path: str) -> list[tuple[str, str]]:
    predictions = dataio.load_predictions(pred_path)
    manifest = dataio.load_dataset(dataset_path)
    pairs = []
    for q in manifest.questions:
        if q.answer is None:
            continue
        if q.id not in predictions:
            raise DanglingReference(f"no prediction for question {q.id!r}")
        pairs.append((predictions[q.id], q.answer))
    if not pairs:
        raise EmptyVector(f"{dataset_path}: no answered question to score")
    return pairs


def _cmd_eval(args) -> int:
    out_prefix = Path(args.out_prefix)
    out_prefix.parent.mkdir(parents=True, exist_ok=True)
    if args.task == "vqa":
        pairs = _matched_pairs(args.pred, args.dataset)
        report = evalstats.vqa_accuracy(pairs)
        payload = {
            "overall": report.overall,
            "by_type": {t.value: acc for t, acc in report.by_type.items()},
            "n_examples": {t.value: n for t, n in report.n_examples.items()},
        }
        rows = [("answer_type", "accuracy", "n_examples")] + [
            (t.value, f"{report.by_type[t]:.6f}", str(report.n_examples[t]))
            for t in report.by_type
        ]
    else:
        obj_vocab, types = _load_tables(args)
        classes = obj_vocab.class_names
        manifest = dataio.load_dataset(args.dataset)
        truth, predicted = [], []
        labels_by_image = {
            image_id: _label_set(labels, classes, f"{args.labels}: image {image_id}")
            for image_id, labels in dataio.load_labels(args.labels).items()
        }
        for entry in manifest.images:
            if entry.gt_labels is None:
                continue
            if entry.image_id not in labels_by_image:
                raise DanglingReference(f"no extracted labels for image {entry.image_id}")
            predicted.append(labels_by_image[entry.image_id])
            context = f"{args.dataset}: image {entry.image_id}"
            truth.append(_label_set(entry.gt_labels, classes, context))
        report = evalstats.per_class_pr(predicted, truth)
        payload = {
            "mean_precision": report.mean_precision,
            "mean_recall": report.mean_recall,
            "per_class": {
                c: {"precision": pr.precision, "recall": pr.recall, "support": pr.support}
                for c, pr in report.per_class.items()
            },
        }
        rows = [("class", "precision", "recall", "support")] + [
            (c, f"{pr.precision:.6f}", f"{pr.recall:.6f}", str(pr.support))
            for c, pr in report.per_class.items()
        ]

    write_json(f"{out_prefix}.json", payload)
    with open(f"{out_prefix}.csv", "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(rows)
    print(json.dumps(payload if args.task == "vqa" else {
        "mean_precision": payload["mean_precision"],
        "mean_recall": payload["mean_recall"],
    }))
    _write_snapshot(out_prefix.parent, "eval", _args_snapshot(args))
    return 0


def _cmd_bootstrap(args) -> int:
    pairs = _matched_pairs(args.pred, args.dataset)
    correct = evalstats.correct_flags(pairs)
    lower, upper = evalstats.bootstrap_ci(correct, args.confidence, args.resamples, args.seed)
    payload = {
        "accuracy": sum(correct) / len(correct),
        "confidence": args.confidence,
        "lower": lower,
        "upper": upper,
        "n": len(correct),
    }
    print(json.dumps(payload))
    if args.out:
        write_json(args.out, payload)
        _write_snapshot(Path(args.out).parent, "bootstrap", _args_snapshot(args))
    return 0


def _cmd_word_targets(args) -> int:
    manifest = dataio.load_dataset(args.questions)
    grouped = dataio.questions_by_image(manifest)
    corpus = list(manifest.questions)
    mode = vocabmod.WordTargetMode(args.mode)

    obj_vocab = types = text_vocab = None
    if mode is vocabmod.WordTargetMode.CLASSES_80:
        obj_vocab, types = _load_tables(args)
    else:
        text_vocab = (
            vocabmod.load_vocabulary(args.text_vocab)
            if args.text_vocab
            else vocabmod.build_vocabulary(corpus, args.min_count)
        )
    words = vocabmod.word_target_words(mode, text_vocab, corpus, obj_vocab)
    if mode is vocabmod.WordTargetMode.TFIDF_1024:  # full mode over the ranked words: one ranking
        mode, text_vocab = vocabmod.WordTargetMode.FULL, vocabmod.Vocabulary(words)
    targets = vocabmod.word_targets(grouped, mode, text_vocab, obj_vocab, types)
    out_path = Path(args.out)
    write_lines(out_path, (
        json.dumps({"image_id": target.image_id, "indices": target.indices()})
        for target in targets
    ))
    write_lines(out_path.with_suffix(out_path.suffix + ".words"), words)
    _write_snapshot(out_path.parent, "word-targets", _args_snapshot(args))
    return 0


def _records_to_manifest(records, original: dataio.DatasetManifest) -> dataio.DatasetManifest:
    gt = {e.image_id: e for e in original.images}
    images = tuple(gt[r.image_id] for r in records)
    questions = tuple(q for r in records for q in r.all_questions)
    return dataio.DatasetManifest(images, questions)


def _cmd_simulate(args) -> int:
    manifest = dataio.load_dataset(getattr(args, "in"))
    records = dataio.build_image_records(manifest)
    out_path = Path(args.out)
    if args.keep is not None:
        result = augment.simulate_unanswered(records, args.keep, args.seed)
        dataio.save_dataset(_records_to_manifest(result, manifest), out_path)
    else:
        kept, rest = augment.simulate_answered_fraction(records, args.fraction, args.seed)
        dataio.save_dataset(_records_to_manifest(kept, manifest), out_path)
        dataio.save_dataset(_records_to_manifest(rest, manifest), args.out_rest)
    _write_snapshot(out_path.parent, "simulate", _args_snapshot(args))
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> _Parser:
    parser = _Parser(prog="qsup", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="command", parser_class=_Parser)

    p = sub.add_parser("extract", help="extract object labels per image")
    p.add_argument("--questions", required=True, help="dataset manifest (JSON)")
    p.add_argument("--vocab", help="object vocabulary file (default: packaged table)")
    p.add_argument("--types", help="question-type table (default: packaged table)")
    p.add_argument("--out", required=True, help="output JSONL, one record per image")
    p.add_argument("--adjective-filter", action="store_true",
                   help="skip class words that look like adjectives before a noun")
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("augment", help="generate training exemplars")
    p.add_argument("--in", required=True, help="dataset manifest (JSON)")
    p.add_argument("--mode", default="powerset",
                   choices=[m.value for m in augment.AugmentMode])
    p.add_argument("--out", required=True, help="output JSONL of exemplar records")
    p.set_defaults(func=_cmd_augment)

    p = sub.add_parser("train", help="train a model from a run config")
    p.add_argument("--config", default=os.environ.get("QSUP_CONFIG"),
                   help="run configuration (JSON); defaults to $QSUP_CONFIG")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="answer questions with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--vocab", required=True, help="text vocabulary written by train")
    p.add_argument("--features", required=True)
    p.add_argument("--questions", required=True, help="dataset manifest (JSON)")
    p.add_argument("--out", required=True, help="output JSONL of answers")
    p.add_argument("--use-extras", action="store_true",
                   help="feed the image's other questions as the extra block")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("eval", help="accuracy or extraction quality reports")
    p.add_argument("--task", choices=["vqa", "extraction"], default="vqa")
    p.add_argument("--pred", help="predictions JSONL (vqa task)")
    p.add_argument("--labels", help="extracted labels JSONL (extraction task)")
    p.add_argument("--dataset", required=True, help="dataset manifest (JSON)")
    p.add_argument("--vocab", help="object vocabulary file (extraction task)")
    p.add_argument("--types", help="question-type table (extraction task)")
    p.add_argument("--out-prefix", required=True, help="writes <prefix>.json and <prefix>.csv")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("bootstrap", help="bootstrap confidence interval for accuracy")
    p.add_argument("--pred", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--confidence", type=_checked(float, lambda c: 0.0 < c < 1.0, "in (0, 1)"),
                   default=0.999)
    p.add_argument("--resamples", type=_checked(int, lambda n: n >= 1000, ">= 1000"),
                   default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="optional JSON output path")
    p.set_defaults(func=_cmd_bootstrap)

    p = sub.add_parser("word-targets", help="multi-label word targets per image")
    p.add_argument("--questions", required=True, help="dataset manifest (JSON)")
    p.add_argument("--mode", required=True,
                   choices=[m.value for m in vocabmod.WordTargetMode])
    p.add_argument("--out", required=True, help="output JSONL (a .words sidecar is added)")
    p.add_argument("--text-vocab", help="vocabulary file; built from the data if absent")
    p.add_argument("--min-count", type=_checked(int, lambda n: n >= 1, ">= 1"), default=1)
    p.add_argument("--vocab", help="object vocabulary file (classes80 mode)")
    p.add_argument("--types", help="question-type table (classes80 mode)")
    p.set_defaults(func=_cmd_word_targets)

    p = sub.add_parser("simulate", help="strip answers to simulate weak supervision")
    p.add_argument("--in", required=True, help="dataset manifest (JSON)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--keep", type=_checked(int, lambda n: n >= 0, ">= 0"),
                   help="answered questions kept per image")
    p.add_argument("--fraction", type=_checked(float, lambda f: 0.0 <= f <= 1.0, "in [0, 1]"),
                   help="fraction of images keeping their answers")
    p.add_argument("--out", required=True)
    p.add_argument("--out-rest", help="output for the stripped split (fraction mode)")
    p.set_defaults(func=_cmd_simulate)

    return parser


def _flag_combination_error(args: argparse.Namespace) -> str | None:
    """The usage error in flags that are valid one by one but not together."""
    if args.command == "simulate":
        if (args.keep is None) == (args.fraction is None):
            return "simulate: give exactly one of --keep / --fraction"
        if args.fraction is not None and args.out_rest is None:
            return "simulate: --fraction needs --out-rest"
    if args.command == "eval":
        needed = {"vqa": "pred", "extraction": "labels"}[args.task]
        if getattr(args, needed) is None:
            return f"eval: --task {args.task} needs --{needed}"
    return None


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            parser.print_usage(sys.stderr)
            return 1
        problem = _flag_combination_error(args)
        if problem:
            parser.error(problem)
        return args.func(args)
    except _UsageError:
        return 1
    except (QsupError, FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        sys.stderr.write(f"qsup: error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
