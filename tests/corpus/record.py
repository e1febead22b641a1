"""Re-record the behaviour corpus: ``python tests/corpus/record.py``.

Runs every command of ``tests/test_corpus.py`` on this checkout and writes
``tests/corpus/manifest.json``, each run watched by ``sys.setprofile`` so
that the runs to watch in a replay can be marked (see ``record``).  Record
only after a change of output that is meant, and say in CHANGES.md which
classes of run changed.
"""

from __future__ import annotations

import contextlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from test_corpus import MANIFEST, record  # noqa: E402


@contextlib.contextmanager
def entered():
    """The set of code objects entered inside the block, by ``sys.setprofile``."""
    codes = set()
    sys.setprofile(lambda frame, event, arg: event == "call" and codes.add(frame.f_code))
    try:
        yield codes
    finally:
        sys.setprofile(None)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        manifest = record(Path(scratch) / "facts.json", entered)
    # one run a line, so that a diff of a re-record shows each changed run
    runs = ",\n".join(json.dumps(run) for run in manifest["runs"])
    documents = json.dumps(manifest["documents"], indent=1)
    MANIFEST.write_text(f'{{"documents": {documents},\n"runs": [\n{runs}\n]}}\n')
    print(f"{len(manifest['runs'])} runs over {len(manifest['documents'])} documents -> {MANIFEST}")
