"""Entry point: ``python3 benchmarks/suite/run.py --workload NAME --seed N --seconds S --trace 0|1``.

Puts the checkout's ``src`` and root on the import path, then hands over
to :func:`benchmarks.suite.cli.main` (which also takes the ``run``,
``spread`` and ``compare`` commands).
"""

import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[2]
# drop this script's own directory so suite modules import as a package
sys.path[0:1] = [str(_ROOT / "src"), str(_ROOT)]

from benchmarks.suite.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
