"""The benchmark's tracer rebinds program names by string. A name it looks for
that the program no longer has would make the traced benchmark fail, so a
rename must fail here first."""

from __future__ import annotations

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_name_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.Instrumented(tracing.Tracer()).missing == []
