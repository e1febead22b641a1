"""Replay the behaviour corpus in a fresh interpreter: ``python tests/corpus/replay.py``.

Prints one JSON object: ``compared`` and ``differing``, as
:func:`test_corpus.replay` returns them, and ``reached``, each function of
``src/icosym`` that a run entered, as ``[file name, first line]``.  The
profiler hook is set before ``import icosym``, so a function that runs at
import counts as reached.  ``tests/test_corpus.py`` runs this script once.
"""

from __future__ import annotations

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


if __name__ == "__main__":
    sys.setprofile(_enter)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from test_corpus import replay  # noqa: E402

    with tempfile.TemporaryDirectory() as scratch:
        result = replay(Path(scratch) / "facts.json")
    sys.setprofile(None)
    result["reached"] = sorted({(Path(code.co_filename).name, code.co_firstlineno)
                                for code in entered if Path(code.co_filename).parent == SRC})
    json.dump(result, sys.stdout)
