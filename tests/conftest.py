"""Make ``src/`` importable by the CLI subprocesses that tests start.

``pythonpath = ["src"]`` in pyproject.toml covers the test process itself;
a child Python only sees the environment, so ``src/`` goes on PYTHONPATH.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)
