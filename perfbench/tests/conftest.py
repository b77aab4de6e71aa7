import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(REPO / "src"))


@pytest.fixture
def tiny_spec():
    """Factory of few-image powerset workloads that run the whole pipeline
    in seconds; keyword arguments override spec fields.  The planted signal
    is a keyword, as a hint cannot be learnt from so few images."""
    import gen

    def make(**changes) -> dict:
        spec = dict(gen.WORKLOADS["powerset_many_q"])
        spec.update(train_images=8, eval_images=6, questions=[3, 4], vocab_types=60,
                    signal="keyword", hints=0, keywords=20)
        spec.update(changes)
        return spec

    return make


@pytest.fixture
def checkout(tmp_path, monkeypatch):
    """An empty directory whose src/ points at this repository's sources."""
    (tmp_path / "src").symlink_to(REPO / "src")
    monkeypatch.chdir(tmp_path)
    return tmp_path
