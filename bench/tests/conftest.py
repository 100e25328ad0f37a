"""Harness unit tests: ``python -m pytest bench/tests -q``.

Not part of the repository's tier-1 ``testpaths``; they test the
benchmark, not the program.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)
