"""The checkout's src/ for every process a test starts.

pytest itself imports isoplab from src/ (``pythonpath`` in pyproject.toml);
the CLI, demo and benchmark-hook tests start fresh interpreters, which see
src/ only through PYTHONPATH, so it is put first there too.
"""

import os
import pathlib

SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
             if p and p != SRC])
