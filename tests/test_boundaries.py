"""tools/check_boundaries.py, the guard over the layer boundaries that
perfbench/spans.py wraps."""

import importlib.util
from pathlib import Path

from cake import cas

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("check_boundaries",
                                               ROOT / "tools" / "check_boundaries.py")
check = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check)
BOUNDARIES = check.load_boundaries(ROOT / "perfbench" / "spans.py")


def test_every_wrapped_boundary_resolves_and_none_is_hidden():
    assert any(entry[:2] == ("cas", "BlobStore.get") for entry in BOUNDARIES)
    assert check.problems(BOUNDARIES) == []


def test_a_class_that_redefines_a_wrapped_method_of_its_base_is_named(monkeypatch):
    hiding = type("HidingStore", (cas.MemoryBlobStore,),
                  {"__module__": "cake.cas", "get": cas.MemoryBlobStore._read})
    monkeypatch.setattr(cas, "HidingStore", hiding, raising=False)
    assert check.problems(BOUNDARIES) == ["cake.cas.HidingStore.get hides cas.BlobStore.get"]


def test_an_entry_that_does_not_resolve_is_named():
    entries = [("cas", "BlobStore.fetch"), ("cas", "NoStore.get"), ("nosuch", "run"),
               ("cas", "MemoryBlobStore.get")]  # inherited, so not where a wrap goes
    assert check.problems([entry + (None, None, None) for entry in entries]) == [
        f"{module}.{path} does not resolve in cake" for module, path in sorted(entries)]
