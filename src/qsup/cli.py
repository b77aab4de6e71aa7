"""Command-line interface wiring the pipeline together.

Subcommands: extract, augment, train, predict, eval, bootstrap,
word-targets, simulate.  Exit codes: 0 success, 1 usage error, 2 data
error.  Every run writes its arguments and seed to `<output>.snapshot.json`,
named after the output it describes, so results can be reproduced.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import itertools
import json
import logging
import sys
from collections.abc import Iterable
from json.encoder import encode_basestring_ascii as _encode
from pathlib import Path

# augment, model, vocab and evalstats are imported by the commands that run them,
# so that extract, eval and word-targets start without numpy
from . import dataio, qparse
from .errors import DanglingReference, DimMismatch, EmptyVector, QsupError
from .modes import AugmentMode, WordTargetMode
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


def _write_snapshot(output: str | Path, payload: dict) -> None:
    """Write ``<output>.snapshot.json``, so no two runs' outputs share one snapshot."""
    path = Path(f"{output}.snapshot.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    write_json(path, payload, sort_keys=True, default=str)


def _args_snapshot(args: argparse.Namespace) -> dict:
    return {k: v for k, v in vars(args).items() if k != "func"}


def _object_vocabulary(args) -> qparse.ObjectVocabulary:
    if args.vocab:
        return qparse.load_object_vocabulary(args.vocab)
    return qparse.default_object_vocabulary()


def _load_tables(args):
    types = (
        qparse.load_question_types(args.types) if args.types else qparse.default_question_types()
    )
    return _object_vocabulary(args), types


def _image_features(path: str | Path, refs: Iterable[tuple[int, int]]) -> dict:
    """The float32 feature vector of each (image id, feature ref) pair, by
    image id; the file's other rows are checked but not kept."""
    refs = list(refs)
    table = dataio.load_features(path, [ref for _, ref in refs])
    features = {}
    for image_id, ref in refs:
        if ref not in table:
            raise DanglingReference(f"{path}: image {image_id}: no features under ref {ref}")
        features[image_id] = table[ref]
    return features


# ---------------------------------------------------------------------------
# subcommands


def _cmd_extract(args) -> int:
    obj_vocab, types = _load_tables(args)
    manifest = dataio.load_dataset(args.questions)
    grouped = dataio.questions_by_image(manifest)
    labels = (
        (e.image_id, qparse.extract_objects_multi(grouped[e.image_id], obj_vocab, types,
                                                  args.adjective_filter).present)
        for e in manifest.images
    )
    # each line as json.dumps gives {image_id, labels}, from C-encoded strings
    write_lines(args.out, (
        f'{{"image_id": {image_id}, "labels": [{", ".join(map(_encode, sorted(present)))}]}}'
        for image_id, present in labels
    ))
    _write_snapshot(args.out, _args_snapshot(args))
    return 0


def _exemplar_lines(record, mode: str):
    """The JSONL line of each exemplar of ``record``, as ``json.dumps`` of
    {image_id, target_id, extra_ids, answer} gives it, from each question's
    id and answer encoded once."""
    from .augment import generate_exemplars
    ids = [json.dumps(q.id) for q in record.all_questions]
    head = f'{{"image_id": {json.dumps(record.image_id)}, "target_id": '
    tails = [f'], "answer": {json.dumps(q.answer)}}}' for q in record.answered]
    return generate_exemplars(record, mode, lambda target, extras: (
        f'{head}{ids[target]}, "extra_ids": [{", ".join([ids[i] for i in extras])}{tails[target]}'
    ))


def _cmd_augment(args) -> int:
    from .augment import exemplar_rows
    manifest = dataio.load_dataset(getattr(args, "in"))
    records = dataio.build_image_records(manifest)
    exemplar_rows(records, args.mode)  # checks each image's exemplar count before --out is opened
    count = write_lines(args.out, (
        line for record in records if record.answered for line in _exemplar_lines(record, args.mode)
    ))
    logger.info("wrote %d exemplars", count)
    _write_snapshot(args.out, _args_snapshot(args))
    return 0


def _cmd_train(args) -> int:
    from . import augment, vocab as vocabmod
    from .model import train
    cfg = dataio.load_run_config(args.config)
    manifest = dataio.load_dataset(cfg.dataset)
    records = dataio.build_image_records(manifest)
    features = _image_features(cfg.features,
                               ((r.image_id, r.feature_ref) for r in records if r.answered))

    text_vocab = (
        vocabmod.load_vocabulary(cfg.vocab)
        if cfg.vocab is not None
        else vocabmod.build_vocabulary(manifest.questions, cfg.min_count)
    )
    table = augment.exemplar_rows(records, cfg.augment_mode)
    model = train(table, features, text_vocab, cfg.train)

    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    dataio.save_model(model, cfg.out_dir / "model.qsmd")
    vocabmod.save_vocabulary(text_vocab, cfg.out_dir / "vocab.txt")
    _write_snapshot(cfg.out_dir / "train", dataclasses.asdict(cfg))
    print(
        f"trained model over {len(text_vocab)} words and "
        f"{len(model.answer_vocab)} answers -> {cfg.out_dir / 'model.qsmd'}"
    )
    return 0


def _cmd_predict(args) -> int:
    from . import vocab as vocabmod
    from .model import predict_images
    model = dataio.load_model(args.model)
    text_vocab = vocabmod.load_vocabulary(args.vocab)
    if len(text_vocab) != model.vocab_size:
        raise DimMismatch(f"{args.vocab}: {len(text_vocab)} words, but {args.model} "
                          f"has {model.vocab_size} embedding rows")
    manifest = dataio.load_dataset(args.questions)
    places: dict[int, list[int]] = {}  # manifest positions of each image's questions
    for i, q in enumerate(manifest.questions):
        places.setdefault(q.image_id, []).append(i)
    refs = ((e.image_id, e.feature_ref) for e in manifest.images if e.image_id in places)
    features = _image_features(args.features, refs)
    dims = {len(vec) for vec in features.values()} - {model.dims.d_img}
    if dims:
        raise DimMismatch(f"{args.features}: {dims.pop()}-dimensional features, but "
                          f"{args.model} expects {model.dims.d_img}")
    groups = ((features[image_id], [manifest.questions[i] for i in positions])
              for image_id, positions in places.items())
    answers: list = [None] * len(manifest.questions)
    results = predict_images(model, text_vocab, groups, args.use_extras)
    for (answer, _), i in zip(results, itertools.chain.from_iterable(places.values())):
        answers[i] = answer
    # each line as json.dumps gives {question_id, image_id, answer}, from C-encoded strings
    write_lines(args.out, (
        f'{{"question_id": {_encode(q.id) if type(q.id) is str else q.id}, '
        f'"image_id": {q.image_id}, "answer": {_encode(answer)}}}'
        for q, answer in zip(manifest.questions, answers)
    ))
    _write_snapshot(args.out, _args_snapshot(args))
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
            raise DanglingReference(f"{pred_path}: no prediction for question {q.id!r}")
        pairs.append((predictions[q.id], q.answer))
    if not pairs:
        raise EmptyVector(f"{dataset_path}: no answered question to score")
    return pairs


def _cmd_eval(args) -> int:
    from . import evalstats
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
        classes = _object_vocabulary(args).class_names
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
                raise DanglingReference(
                    f"{args.labels}: no extracted labels for image {entry.image_id}")
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
    _write_snapshot(out_prefix, _args_snapshot(args))
    return 0


def _cmd_bootstrap(args) -> int:
    from . import evalstats
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
    _write_snapshot(args.out or f"{args.pred}.bootstrap", _args_snapshot(args))
    return 0


def _cmd_word_targets(args) -> int:
    from . import vocab as vocabmod
    manifest = dataio.load_dataset(args.questions)
    grouped = dataio.questions_by_image(manifest)
    mode = WordTargetMode(args.mode)

    obj_vocab = types = text_vocab = None
    if mode is WordTargetMode.CLASSES_80:
        obj_vocab, types = _load_tables(args)
    else:
        text_vocab = (
            vocabmod.load_vocabulary(args.text_vocab)
            if args.text_vocab
            else vocabmod.build_vocabulary(list(manifest.questions), args.min_count or 1)
        )
    words, targets = vocabmod.word_targets(grouped, mode, text_vocab, obj_vocab, types)
    out_path = Path(args.out)
    write_lines(out_path, (
        json.dumps({"image_id": target.image_id, "indices": target.indices})
        for target in targets
    ))
    write_lines(out_path.with_suffix(out_path.suffix + ".words"), words)
    _write_snapshot(out_path, _args_snapshot(args))
    return 0


def _records_to_manifest(records, original: dataio.DatasetManifest) -> dataio.DatasetManifest:
    gt = {e.image_id: e for e in original.images}
    images = tuple(gt[r.image_id] for r in records)
    questions = tuple(q for r in records for q in r.all_questions)
    return dataio.DatasetManifest(images, questions)


def _cmd_simulate(args) -> int:
    from . import augment
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
    _write_snapshot(out_path, _args_snapshot(args))
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
    p.add_argument("--mode", default="powerset", choices=[m.value for m in AugmentMode])
    p.add_argument("--out", required=True, help="output JSONL of exemplar records")
    p.set_defaults(func=_cmd_augment)

    p = sub.add_parser("train", help="train a model from a run config")
    p.add_argument("--config", required=True, help="run configuration (JSON)")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="answer questions with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--vocab", required=True, help="text vocabulary written by train")
    p.add_argument("--features", required=True)
    p.add_argument("--questions", required=True, help="dataset manifest (JSON)")
    p.add_argument("--out", required=True, help="output JSONL of answers")
    p.add_argument("--use-extras", action="store_true",
                   help="feed the image's other questions as the extra block "
                        "(no effect on a model trained without extras)")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("eval", help="accuracy or extraction quality reports")
    p.add_argument("--task", choices=["vqa", "extraction"], default="vqa")
    p.add_argument("--pred", help="predictions JSONL (vqa task)")
    p.add_argument("--labels", help="extracted labels JSONL (extraction task)")
    p.add_argument("--dataset", required=True, help="dataset manifest (JSON)")
    p.add_argument("--vocab", help="object vocabulary file (extraction task)")
    p.add_argument("--out-prefix", required=True, help="writes <prefix>.json and <prefix>.csv")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("bootstrap", help="bootstrap confidence interval for accuracy")
    p.add_argument("--pred", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--confidence", type=_checked(float, lambda c: 0.0 < c < 1.0, "in (0, 1)"),
                   default=0.999)
    p.add_argument("--resamples", type=_checked(int, lambda n: n >= 1000, ">= 1000"),
                   default=10000)
    p.add_argument("--seed", type=_checked(int, lambda n: n >= 0, ">= 0"), default=0)
    p.add_argument("--out", help="optional JSON output path")
    p.set_defaults(func=_cmd_bootstrap)

    p = sub.add_parser("word-targets", help="multi-label word targets per image")
    p.add_argument("--questions", required=True, help="dataset manifest (JSON)")
    p.add_argument("--mode", required=True, choices=[m.value for m in WordTargetMode])
    p.add_argument("--out", required=True, help="output JSONL (a .words sidecar is added)")
    p.add_argument("--text-vocab", help="vocabulary file; built from the data if absent")
    p.add_argument("--min-count", type=_checked(int, lambda n: n >= 1, ">= 1"))
    p.add_argument("--vocab", help="object vocabulary file (classes80 mode)")
    p.add_argument("--types", help="question-type table (classes80 mode)")
    p.set_defaults(func=_cmd_word_targets)

    p = sub.add_parser("simulate", help="strip answers to simulate weak supervision")
    p.add_argument("--in", required=True, help="dataset manifest (JSON)")
    p.add_argument("--seed", type=_checked(int, lambda n: n >= 0, ">= 0"), required=True)
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
    ignored = ()  # flags that the value of the mode flag --<mode> does not read
    if args.command == "eval":
        needed = {"vqa": "pred", "extraction": "labels"}[args.task]
        if getattr(args, needed) is None:
            return f"eval: --task {args.task} needs --{needed}"
        mode, ignored = "task", {"vqa": ("labels", "vocab"), "extraction": ("pred",)}[args.task]
    if args.command == "word-targets":
        mode = "mode"
        ignored = ("text_vocab", "min_count") if args.mode == "classes80" else ("vocab", "types")
    if args.command == "simulate" and args.keep is not None:
        mode, ignored = "keep", ("out_rest",)
    for name in ignored:
        if getattr(args, name) is not None:
            return (f"{args.command}: --{name.replace('_', '-')} is not read with "
                    f"--{mode} {getattr(args, mode)}")
    if args.command == "word-targets" and None not in (args.text_vocab, args.min_count):
        return "word-targets: --min-count is not read with --text-vocab"
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
    except (QsupError, OSError, MemoryError) as exc:  # a table too large to allocate, say
        sys.stderr.write(f"qsup: error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
