"""The benchmark's traced runs wrap program functions by module and name
(perfbench/tracing.py). A refactor that moves or renames one of them would
silently drop its layer from traced runs; this test fails instead."""
from pathlib import Path


def test_every_traced_entry_point_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    from tracing import absent_entry_points

    assert absent_entry_points() == []
