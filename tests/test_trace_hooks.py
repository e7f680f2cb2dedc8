"""Every entry point the layered benchmark's tracer wraps must still exist.

``perfbench/tracer.py`` patches a fixed list of ``(class, attribute)``
pairs. A refactor that renames or deletes one of those methods would
only surface when someone runs ``perfbench/run.py --trace 1``; this test
makes it fail tier-1 instead. The tracer module is loaded from its file
(``perfbench/`` is not a package) and only its ``HOOKS`` table is read.
"""
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_hook_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert len(tracer.HOOKS) >= 20
    missing = [
        f"{cls.__name__}.{attr}"
        for cls, attr, *_ in tracer.HOOKS
        if not callable(getattr(cls, attr, None))
    ]
    assert not missing, f"tracer hooks no longer resolve: {missing}"
