"""Entry point: ``python3 bench/run.py --workload W --seed N ...``.

Puts the repository root and ``src/`` on ``sys.path`` itself, and
re-executes once under ``PYTHONHASHSEED=0`` so that both processes of a
run hash strings the same way every time.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

if __name__ == "__main__":
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"bench/run.py: the program to measure is not at "
                 f"{ROOT / 'src' / 'repro'}")
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, str(Path(__file__)),
                                  *sys.argv[1:]])
    for entry in (str(ROOT / "src"), str(ROOT)):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    from bench.harness import main
    sys.exit(main())
