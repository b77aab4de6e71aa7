import json
import subprocess
import sys

import pytest

from conftest import BENCH, REPO
from spans import Tracer


def test_self_times_sum_to_root_wall_time():
    tracer = Tracer()

    def leaf(n):
        return sum(range(n))

    def items(n):
        for i in range(n):
            yield leaf(1000 * i)

    def middle():
        return [leaf(5000) for _ in range(3)] + list(gen_fn(4))

    leaf = tracer.wrap(leaf, "m.leaf")
    gen_fn = tracer.wrap(items, "m.items")
    middle = tracer.wrap(middle, "m.middle")
    tracer.enter("root")
    middle()
    middle()
    tracer.exit()

    stats = tracer.stats
    assert stats["m.middle"][0] == 2
    assert stats["m.items"][0] == 2 and stats["m.items"][3] == 8
    assert stats["m.leaf"][0] == 2 * (3 + 4)
    root_wall = stats["root"][1]
    assert sum(s[2] for s in stats.values()) == pytest.approx(root_wall, abs=1e-9)
    parents = {span_id: parent for span_id, parent, *_ in tracer.spans}
    root_id = next(span_id for span_id, _, name, *_ in tracer.spans if name == "root")
    assert parents[root_id] is None
    assert all(parents[s] is not None for s in parents if s != root_id)


def test_span_cap_keeps_totals_exact():
    tracer = Tracer(span_cap=2)
    fn = tracer.wrap(lambda: None, "m.fn")
    for _ in range(5):
        fn()
    assert tracer.stats["m.fn"][0] == 5
    assert len(tracer.spans) == 2 and tracer.dropped == 3


def test_traced_cli_sees_calls_across_modules(tmp_path):
    dataset = tmp_path / "data.json"
    dataset.write_text(json.dumps({
        "images": [{"image_id": 1}],
        "questions": [{"id": "a", "image_id": 1, "text": "what color is the bus?"},
                      {"id": "b", "image_id": 1, "text": "how many dogs are there?"}],
    }))
    out = tmp_path / "spans.json"
    subprocess.run(
        [sys.executable, str(BENCH / "spans.py"), "--out", str(out), "-m", "qsup.cli",
         "word-targets", "--questions", str(dataset), "--mode", "classes80",
         "--out", str(tmp_path / "targets.jsonl")],
        check=True, env={"PYTHONPATH": str(REPO / "src")}, capture_output=True,
    )
    report = json.loads(out.read_text())
    stats = report["stats"]
    assert report["root"] == "cli.word-targets" and report["exit_code"] == 0
    # vocab.word_targets reaches qparse through names it imported itself
    assert stats["vocab.word_targets"]["calls"] == 1
    assert stats["qparse.extract_objects_multi"]["calls"] == 1
    assert stats["qparse.extract_objects"]["calls"] == 2
    root = stats["cli.word-targets"]["total_s"]
    assert sum(s["self_s"] for s in stats.values()) == pytest.approx(root, abs=1e-6)
