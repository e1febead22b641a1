"""Replay the behaviour corpus in a fresh interpreter: ``python tests/corpus/replay.py``.

Prints one JSON object: ``compared`` and ``differing``, as
:func:`test_corpus.replay` returns them, and ``reached``, each function of
``src/icosym`` that a run entered, as ``[file name, first line]``.  The
probe is set before ``import icosym``, so a function that runs at import
counts as reached.  Where ``sys.monitoring`` exists (Python 3.12 on), the
probe is a ``PY_START`` callback that disables itself for each code object
once it has seen it, so a function costs nothing after its first call, and
it watches every run.  Before 3.12 it is a ``sys.setprofile`` hook, which
sees every call, so past the imports it watches only the runs that the
manifest marks ``probe``, which together enter every function that any run
enters.
``tests/test_corpus.py`` runs this script once.
"""

from __future__ import annotations

import contextlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
SRC = ROOT / "src" / "icosym"

entered = set()


def _enter(frame, event, arg) -> None:
    if event == "call":
        entered.add(frame.f_code)


def _start(code, offset):
    entered.add(code)
    return sys.monitoring.DISABLE


def _probe(on: bool) -> None:
    """Start or stop recording each code object entered."""
    if not hasattr(sys, "monitoring"):
        sys.setprofile(_enter if on else None)
    elif on:
        tool, start = sys.monitoring.PROFILER_ID, sys.monitoring.events.PY_START
        sys.monitoring.use_tool_id(tool, "corpus replay")
        sys.monitoring.register_callback(tool, start, _start)
        sys.monitoring.set_events(tool, start)
    else:
        sys.monitoring.set_events(sys.monitoring.PROFILER_ID, 0)
        sys.monitoring.free_tool_id(sys.monitoring.PROFILER_ID)


@contextlib.contextmanager
def _watched():
    _probe(True)
    try:
        yield
    finally:
        _probe(False)


if __name__ == "__main__":
    _probe(True)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from test_corpus import replay  # noqa: E402

    every_call = not hasattr(sys, "monitoring")  # then watch only the marked runs
    if every_call:
        _probe(False)
    with tempfile.TemporaryDirectory() as scratch:
        result = replay(Path(scratch) / "facts.json", _watched if every_call else None)
    _probe(False)
    result["reached"] = sorted({(Path(code.co_filename).name, code.co_firstlineno)
                                for code in entered if Path(code.co_filename).parent == SRC})
    json.dump(result, sys.stdout)
