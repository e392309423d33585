"""Every entry point that the benchmark's tracer wraps exists where it looks.

``bench/tracing.py`` replaces ``vars(owner)[attr]`` for each of its
``TARGETS``, and ``bench/passes.py`` patches ``verify._timed`` and
``verify._from_identity``.  An entry point that is renamed, or that moves
into a base class, breaks ``bench/run.py --trace 1``; this test catches
that in the ordinary test run.  The tracing module is loaded from its file
and only read.
"""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()
ENTRY_POINTS = [(name, module, path) for name, module, path, _ in tracing.TARGETS] + [
    ("verify._timed", "verify", "_timed"),
    ("verify._from_identity", "verify", "_from_identity"),
]


@pytest.mark.parametrize(
    "module, path", [e[1:] for e in ENTRY_POINTS], ids=[e[0] for e in ENTRY_POINTS]
)
def test_entry_point_in_its_owner(module, path):
    owner, attr = tracing.resolve(module, path)
    assert callable(vars(owner).get(attr))
