"""Let the ``python -m lieshift.cli`` subprocesses import this checkout.

``pythonpath`` in pyproject.toml only reaches the test process itself, so
the source directory is also put on PYTHONPATH for the children.
"""

import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p
)
