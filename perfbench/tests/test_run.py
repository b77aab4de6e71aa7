import json

import run
from conftest import REPO


def _result(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def _declared(kind: str) -> dict:
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def test_end_to_end_run_is_correct_and_complete(checkout, tiny_spec, capsys):
    code = run.main(["--workload", "tiny", "--seed", "1", "--seconds", "1", "--trace", "0"],
                    workloads={"tiny": tiny_spec()})
    result = _result(capsys)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert {k: m["unit"] for k, m in result["metrics"].items()} == _declared("end_to_end")
    assert all(m["value"] is not None for m in result["metrics"].values())
    assert not (checkout / ".bench_work").exists() or not any((checkout / ".bench_work").iterdir())


def test_traced_run_reports_every_layer_metric(checkout, tiny_spec, capsys):
    code = run.main(["--workload", "tiny", "--seed", "2", "--seconds", "1", "--trace", "1"],
                    workloads={"tiny": tiny_spec()})
    out = capsys.readouterr().out
    result = json.loads(out.strip().splitlines()[-1])
    meta = json.loads(out.split("# workload tiny seed 2: ")[1].splitlines()[0].split(" ", 2)[2])
    assert code == 0 and result["correct"]
    metrics = result["metrics"]
    assert {k: m["unit"] for k, m in metrics.items()} == _declared("per_layer")
    assert metrics["qparse.tokenize_per_question"]["value"] > 1
    # counted in the augment step only, not again inside `qsup train`
    assert metrics["augment.exemplars"]["value"] == meta["exemplars"]


def test_failing_step_raises_error_rate_and_exit_code(checkout, tiny_spec, capsys):
    spec = tiny_spec()
    broken = dict(spec, train=dict(spec["train"], learning_rate=-1.0))
    code = run.main(["--workload", "broken", "--seed", "1", "--seconds", "1", "--trace", "0"],
                    workloads={"broken": broken})
    out = capsys.readouterr().out
    result = json.loads(out.strip().splitlines()[-1])
    assert code != 0
    assert not result["correct"] and result["failed"] >= 1
    assert "# FAILED step train" in out
    error_rate = float(out.split("# error_rate ")[1].split()[0])
    assert error_rate == result["failed"] / result["attempted"] > 0


def test_refuses_a_directory_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = run.main(["--workload", "plain_wide_vocab", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""
