"""The gpdkit callables that the traced benchmark wraps.

perfbench/layers.py names each wrapped callable by module, attribute and,
for a method, owner class; Tracer.install looks them up the same way.  A
public callable renamed or removed fails here rather than in a traced
benchmark run.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _targets() -> list:
    sys.path.insert(0, str(PERFBENCH))
    try:
        layers = importlib.import_module("layers")
    finally:
        sys.path.remove(str(PERFBENCH))
    return layers.TARGETS


def test_every_traced_target_resolves():
    targets = _targets()
    assert len(targets) > 20
    for t in targets:
        module = importlib.import_module(t.module)
        if t.owner:
            holder = getattr(module, t.owner, None)
            assert isinstance(holder, type), f"{t.span}: no class {t.module}.{t.owner}"
            found = holder.__dict__.get(t.attr)
        else:
            found = getattr(module, t.attr, None)
        where = ".".join(filter(None, (t.module, t.owner, t.attr)))
        assert callable(found), f"{t.span}: nothing callable at {where}"
