"""The environment of a child Python process started by a test: this
checkout's ``src`` first on ``PYTHONPATH``, so that ``python -m weylpi.cli``
runs the code under test without an install."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")


def child_env(extra=None):
    env = {**os.environ, **(extra or {})}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    return env
