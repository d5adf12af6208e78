"""The README's library example, run as written on a small graph."""

from pathlib import Path

import numpy as np

from generators import random_graph, save_graph

README = Path(__file__).resolve().parent.parent / "README.md"


def library_block() -> str:
    """The first python code block under the "Library use" heading."""
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_example_runs(tmp_path, monkeypatch, capsys):
    save_graph(random_graph(np.random.default_rng(0)), str(tmp_path))
    monkeypatch.chdir(tmp_path)
    exec(compile(library_block(), str(README), "exec"), {})
    assert "# evaluation" in capsys.readouterr().out
    assert (tmp_path / "domains.bin").exists()
