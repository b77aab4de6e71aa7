"""Benchmark of the qsup pipeline, end to end and by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload's inputs are generated from
the seed (and cached under .bench_cache/), then this one process runs the
pipeline one step at a time, each step its own ``python -m qsup.cli ...``
process (or ``perfbench/steps.py`` where the CLI has no subcommand): a
closed loop with one client.  Passes over the pipeline repeat until the
next one would end after S seconds; at least one always runs.  Every pass
is checked for correct outputs, and every figure reported is a median.

--trace 0 prints the end-to-end metrics.  --trace 1 runs untraced and traced
passes in turn and prints per-layer metrics from the spans that
``perfbench/spans.py`` records in the traced children.  The last line of
stdout is one JSON object; the exit code is 0 only when every step and
check passed.  Children run single-threaded (OPENBLAS_NUM_THREADS=1,
OMP_NUM_THREADS=1).  The benchmark's own tests:

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import gen

BENCH = Path(__file__).resolve().parent
HARD_LIMIT_S = 170.0  # a run must end within 180 s
# Set-up (or, traced, CLI start-up) runs before the passes and after each
# round of them, so that their median spans the whole measuring window.
SIDE_REPEATS = 2
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
COMMANDS = ("extract", "augment", "train", "predict", "eval", "bootstrap")
CLI = ["-m", "qsup.cli"]


class Runner:
    """Starts one child at a time and reaps it with os.wait4, which gives
    the child's own peak RSS without touching anything but our children."""

    def __init__(self, root: Path, work: Path, started: float):
        self.root = root
        self.work = work
        self.started = started
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), **THREADS)

    def run(self, label: str, args: list[str], trace_to: Path | None = None) -> dict:
        prefix = [sys.executable]
        if trace_to is not None:
            prefix += [str(BENCH / "spans.py"), "--out", str(trace_to)]
        out = self.work / f"{label}.out"
        timeout = max(1.0, HARD_LIMIT_S - (time.perf_counter() - self.started))
        with open(out, "wb") as stdout, open(self.work / f"{label}.err", "wb") as stderr:
            t0 = time.perf_counter()
            proc = subprocess.Popen(prefix + args, cwd=self.root, env=self.env,
                                    stdout=stdout, stderr=stderr)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {"label": label, "code": proc.returncode, "seconds": seconds,
                "rss_mib": usage.ru_maxrss / 1024.0, "out": out}


def pipeline(spec: dict, seed: int, data: Path, work: Path) -> list[tuple[str, str, list[str]]]:
    """(label, command, argv) of every step of one pass, in order."""
    steps = str(BENCH / "steps.py")
    converted, labels, pred = work / "converted.json", work / "labels.jsonl", work / "pred.jsonl"
    model_dir = work / "out"
    return [
        ("convert", "convert", [steps, "convert", "--questions", f"{data}/vqa_questions.json",
                                "--annotations", f"{data}/vqa_annotations.json",
                                "--out", str(converted)]),
        ("extract", "extract", CLI + ["extract", "--questions", f"{data}/eval.json",
                                      "--out", str(labels)]),
        ("augment", "augment", CLI + ["augment", "--in", f"{data}/train.json",
                                      "--mode", spec["augment_mode"],
                                      "--out", str(work / "exemplars.jsonl")]),
        ("train", "train", CLI + ["train", "--config", str(work / "run.json")]),
        ("predict", "predict", CLI + ["predict", "--model", f"{model_dir}/model.qsmd",
                                      "--vocab", f"{model_dir}/vocab.txt",
                                      "--features", f"{data}/features.qvft",
                                      "--questions", str(converted), "--out", str(pred),
                                      "--use-extras"]),
        ("eval_vqa", "eval", CLI + ["eval", "--pred", str(pred), "--dataset", str(converted),
                                    "--out-prefix", str(work / "vqa")]),
        ("eval_extraction", "eval", CLI + ["eval", "--task", "extraction",
                                           "--labels", str(labels),
                                           "--dataset", f"{data}/eval.json",
                                           "--out-prefix", str(work / "extraction")]),
        ("bootstrap", "bootstrap", CLI + ["bootstrap", "--pred", str(pred),
                                          "--dataset", str(converted), "--seed", str(seed),
                                          "--resamples", str(gen.RESAMPLES),
                                          "--out", str(work / "bootstrap.json")]),
        ("map", "map", [steps, "map", "--labels", str(labels),
                        "--dataset", f"{data}/eval.json", "--seed", str(seed)]),
    ]


def write_run_config(spec: dict, seed: int, root: Path, data: Path, work: Path) -> None:
    tables = root / "src" / "qsup" / "data"
    config = {
        "dataset": str(data / "train.json"), "features": str(data / "features.qvft"),
        "types": str(tables / "question_types.txt"),
        "object_vocab": str(tables / "object_vocab.txt"),
        "out_dir": str(work / "out"), "seed": seed,
        "augment_mode": spec["augment_mode"],
        "train": dict(spec["train"], epochs=gen.EPOCHS, answer_vocab_size=gen.ANSWER_VOCAB_SIZE),
    }
    with open(work / "run.json", "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=1)


class Tally:
    """Attempted and failed steps and checks, with what failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok

    def step(self, result: dict, expect: int = 0) -> bool:
        return self.check(f"step {result['label']}", result["code"] == expect,
                          f"exit code {result['code']}, see {result['out']}")


def _count_lines(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for line in fh if line.strip())


def _read_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def run_pass(spec, seed, data, work, meta, runner, tally, trace_dir: Path | None) -> dict | None:
    """One pass over the pipeline plus its output checks; None if a step failed."""
    results = []
    t0 = time.perf_counter()
    for label, command, argv in pipeline(spec, seed, data, work):
        trace_to = trace_dir / f"{label}.json" if trace_dir is not None else None
        result = runner.run(label, argv, trace_to)
        result["command"] = command
        results.append(result)
        if not tally.step(result):
            return None
    wall = time.perf_counter() - t0
    by_label = {r["label"]: r for r in results}
    try:
        accuracy = check_outputs(meta, work, by_label, tally)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        tally.check("outputs readable", False, repr(exc))
        return None

    def seconds(*labels):
        return sum(by_label[label]["seconds"] for label in labels)

    by_command = {}
    for r in results:
        entry = by_command.setdefault(r["command"], {"seconds": 0.0, "rss_mib": 0.0})
        entry["seconds"] += r["seconds"]
        entry["rss_mib"] = max(entry["rss_mib"], r["rss_mib"])
    return {
        "pipeline_s": wall,
        "train_exemplars_per_s": meta["exemplars"] * gen.EPOCHS / seconds("train"),
        "ingest_questions_per_s": meta["eval_questions"] / seconds("convert"),
        "predict_questions_per_s": meta["eval_questions"] / seconds("predict"),
        "extract_questions_per_s": meta["eval_questions"] / seconds("extract"),
        "report_s": seconds("eval_vqa", "eval_extraction", "bootstrap", "map"),
        "peak_rss_mib": max(r["rss_mib"] for r in results),
        "vqa_accuracy": accuracy,
        "commands": by_command,
    }


def check_outputs(meta, work, by_label, tally) -> float:
    """Check one pass's outputs against the generated counts; returns the
    held-out accuracy that ``qsup eval`` reported."""
    converted = _read_json(work / "converted.json")
    tally.check("convert counts", (len(converted["images"]), len(converted["questions"]))
                == (meta["eval_images"], meta["eval_questions"]),
                f"{len(converted['images'])} images, {len(converted['questions'])} questions")
    lines = _count_lines(work / "exemplars.jsonl")
    tally.check("augment exemplar count", lines == meta["exemplars"],
                f"{lines} lines, expected {meta['exemplars']}")
    lines = _count_lines(work / "pred.jsonl")
    tally.check("predict one line per question", lines == meta["eval_questions"],
                f"{lines} lines, expected {meta['eval_questions']}")
    report = _read_json(work / "vqa.json")
    cells = sum(report["n_examples"].values())
    tally.check("eval n_examples", cells == meta["eval_answered"],
                f"{cells} examples, expected {meta['eval_answered']}")
    mean_ap = json.loads(by_label["map"]["out"].read_text())["map"]
    tally.check("mAP in [0, 1]", 0.0 <= mean_ap <= 1.0, str(mean_ap))
    accuracy = report["overall"]
    if meta["hintless_ceiling"] is not None:  # a hint workload: the extras must help
        tally.check("extras beat the hintless ceiling", accuracy > meta["hintless_ceiling"],
                    f"accuracy {accuracy} vs {meta['hintless_ceiling']} without extras")
    return accuracy


def measure_passes(spec, seed, data, work, meta, runner, tally, seconds, traced: bool, between):
    """Untraced passes (and, with ``traced``, a traced pass after each) until
    the next round would end after ``seconds``; at least one round.
    ``between`` runs after every round."""
    untraced, traced_passes, traces = [], [], []
    t0 = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        result = run_pass(spec, seed, data, work, meta, runner, tally, None)
        if result is None:
            break
        untraced.append(result)
        if traced:
            trace_dir = work / f"trace{len(traced_passes)}"
            trace_dir.mkdir()
            result = run_pass(spec, seed, data, work, meta, runner, tally, trace_dir)
            if result is None:
                break
            traced_passes.append(result)
            traces.append(trace_dir)
        between()
        round_s = time.perf_counter() - r0
        if time.perf_counter() - t0 + round_s > seconds:
            break
    accuracies = {p["vqa_accuracy"] for p in untraced + traced_passes}
    tally.check("accuracy identical across passes", len(accuracies) <= 1, str(sorted(accuracies)))
    return untraced, traced_passes, traces


def end_to_end(passes: list[dict], setup: list[float], tally: Tally) -> dict:
    keys = ("pipeline_s", "train_exemplars_per_s", "predict_questions_per_s",
            "extract_questions_per_s", "ingest_questions_per_s", "report_s", "peak_rss_mib",
            "vqa_accuracy")
    values = {k: statistics.median(p[k] for p in passes) if passes else None for k in keys}
    values["setup_s"] = statistics.median(setup) if setup else None
    values["success_rate"] = 1.0 - len(tally.failures) / max(tally.attempted, 1)
    units = {"pipeline_s": "s", "setup_s": "s", "train_exemplars_per_s": "exemplars/s",
             "predict_questions_per_s": "questions/s", "extract_questions_per_s": "questions/s",
             "ingest_questions_per_s": "questions/s",
             "report_s": "s", "peak_rss_mib": "MiB", "vqa_accuracy": "fraction",
             "success_rate": "fraction"}
    return {k: {"value": values[k], "unit": units[k]} for k in units}


def aggregate_traces(trace_dir: Path) -> dict:
    """Sum the per-function stats of every traced child of one pass."""
    stats: dict[str, dict] = {}
    for path in sorted(trace_dir.glob("*.json")):
        for name, s in _read_json(path)["stats"].items():
            acc = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "items": 0})
            for key in acc:
                acc[key] += s[key]
    return stats


def layer_metrics(trace_dir: Path, meta: dict) -> dict:
    """Per-layer figures of one traced pass, named <module>.<figure>."""
    stats = aggregate_traces(trace_dir)
    # `qsup train` generates the exemplars again inside model.train, so the
    # augment figures come from the augment step alone.
    augment = _read_json(trace_dir / "augment.json")["stats"].get(
        "augment.generate_exemplars", {})

    def get(name, key):
        return stats.get(name, {}).get(key, 0)

    steps = get("model.loss_and_grad", "calls")
    out = {
        ("qparse.tokenize_calls", "count"): get("qparse.tokenize", "calls"),
        ("qparse.tokenize_self_s", "s"): get("qparse.tokenize", "self_s"),
        ("qparse.tokenize_per_question", "calls/question"):
            get("qparse.tokenize", "calls") / (meta["train_questions"] + meta["eval_questions"]),
        ("vocab.bow_featurize_calls", "count"): get("vocab.bow_featurize", "calls"),
        ("vocab.bow_featurize_self_s", "s"): get("vocab.bow_featurize", "self_s"),
        ("model.loss_and_grad_calls", "count"): steps,
        ("model.loss_and_grad_self_s", "s"): get("model.loss_and_grad", "self_s"),
        ("model.train_self_s", "s"): get("model.train", "self_s"),
        ("model.step_ms", "ms"): 1000.0 * (get("model.loss_and_grad", "total_s")
                                           + get("model.train", "self_s")) / max(steps, 1),
        ("model.predict_calls", "count"): get("model.predict", "calls"),
        ("model.predict_self_s", "s"): get("model.predict", "self_s"),
        ("augment.generate_exemplars_s", "s"): augment.get("total_s", 0),
        ("augment.exemplars", "count"): augment.get("items", 0),
        ("qparse.extract_objects_multi_s", "s"): get("qparse.extract_objects_multi", "total_s"),
    }
    for fn in ("load_dataset", "load_vqa_dataset", "load_features", "build_image_records",
               "save_model", "load_model"):
        out[(f"dataio.{fn}_s", "s")] = get(f"dataio.{fn}", "total_s")
    for fn in ("vqa_accuracy", "per_class_pr", "mean_average_precision", "bootstrap_ci"):
        out[(f"evalstats.{fn}_s", "s")] = get(f"evalstats.{fn}", "total_s")
    return out


def per_layer(untraced, traced, traces, startup, meta) -> tuple[dict, list]:
    metrics = {}
    layer_runs = [layer_metrics(d, meta) for d in traces]
    for key in layer_runs[0] if layer_runs else ():
        metrics[key] = statistics.median(run[key] for run in layer_runs)
    metrics[("cli.startup_s", "s")] = statistics.median(startup) if startup else None
    for command in COMMANDS:
        metrics[(f"cli.{command}_s", "s")] = statistics.median(
            p["commands"][command]["seconds"] for p in untraced)
        metrics[(f"cli.{command}_peak_rss_mib", "MiB")] = statistics.median(
            p["commands"][command]["rss_mib"] for p in untraced)
    traced_s = statistics.median(p["pipeline_s"] for p in traced)
    metrics[("trace.overhead_frac", "fraction")] = (
        traced_s / statistics.median(p["pipeline_s"] for p in untraced) - 1.0)
    top = []
    if traces:
        stats = aggregate_traces(traces[0])
        layers: dict[str, float] = {}
        for name, s in stats.items():
            layer = name.partition(".")[0]
            layers[layer] = layers.get(layer, 0.0) + s["self_s"]
        top = sorted(((s, f"layer {n}") for n, s in layers.items()), reverse=True)
        top += sorted(((s["self_s"], n) for n, s in stats.items()), reverse=True)[:10]
    return {name: {"value": value, "unit": unit} for (name, unit), value in metrics.items()}, top


def environment() -> dict:
    return {"nproc": os.cpu_count(), "blas_threads": THREADS["OPENBLAS_NUM_THREADS"],
            "omp_threads": THREADS["OMP_NUM_THREADS"], "python": platform.python_version(),
            "numpy": np.__version__}


def run(name: str, spec: dict, seed: int, seconds: int, trace: bool, root: Path) -> tuple[dict, int]:
    """Generate, measure and check one workload; returns (result, exit code)."""
    started = time.perf_counter()
    data, meta = gen.cached(name, spec, seed, root / ".bench_cache")
    work = root / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tally = Tally()
    try:
        write_run_config(spec, seed, root, data, work)
        runner = Runner(root, work, started)
        setup_argv = [str(BENCH / "steps.py"), "setup", "--dataset", f"{data}/eval.json",
                      "--features", f"{data}/features.qvft"]
        argv, expect = (CLI, 1) if trace else (setup_argv, 0)
        side: list[float] = []
        labels = itertools.count()

        def side_round():
            for _ in range(SIDE_REPEATS):
                result = runner.run(f"side{next(labels)}", argv)
                if tally.step(result, expect=expect):
                    side.append(result["seconds"])
            return result

        result = side_round()
        if not trace and side:
            loaded = json.loads(result["out"].read_text())["qsup"]
            tally.check("qsup imported from the checkout",
                        Path(loaded).resolve().is_relative_to((root / "src").resolve()), loaded)
        untraced, traced, traces = measure_passes(spec, seed, data, work, meta, runner,
                                                  tally, seconds, trace, side_round)
        if traces:
            keep = root / ".bench_out" / f"spans-{name}-{seed}"
            shutil.rmtree(keep, ignore_errors=True)
            shutil.copytree(traces[0], keep)
        top = []
        if not trace:
            metrics = end_to_end(untraced, side, tally)
        elif traces:
            metrics, top = per_layer(untraced, traced, traces, side, meta)
        else:
            metrics = {}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"# env {json.dumps(environment())}")
    print(f"# workload {name} seed {seed}: {len(untraced)} pass(es), {json.dumps(meta)}")
    for kind, group in (("pass", untraced), ("traced pass", traced)):
        for p in group:
            steps = " ".join(f"{c}={v['seconds']:.3f}" for c, v in p["commands"].items())
            print(f"# {kind} pipeline_s={p['pipeline_s']:.3f} {steps}")
    for failure in tally.failures:
        print(f"# FAILED {failure}")
    error_rate = len(tally.failures) / max(tally.attempted, 1)
    print(f"# error_rate {error_rate} fraction ({len(tally.failures)}/{tally.attempted})")
    for name_, m in metrics.items():
        print(f"# {name_} {m['value']} {m['unit']}")
    for self_s, what in top:
        print(f"# self time {what} {self_s:.4f} s")
    result = {"correct": not tally.failures, "attempted": tally.attempted,
              "failed": len(tally.failures), "metrics": metrics}
    return result, 0 if not tally.failures else 1


def main(argv: list[str] | None = None, workloads: dict = gen.WORKLOADS) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd().resolve()
    if not (root / "src" / "qsup" / "cli.py").is_file():
        sys.stderr.write(f"run.py: no qsup sources under {root / 'src'}; "
                         "run from the root of a qsup checkout\n")
        return 2
    result, code = run(args.workload, workloads[args.workload], args.seed, args.seconds,
                       bool(args.trace), root)
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
