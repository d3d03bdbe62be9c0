"""Locate the package source in this checkout and prepare the interpreter.

The benchmark always measures the tree it sits in: ``src/`` next to
``bench/``.  An installed copy of ``mathieu_kit`` elsewhere is never used.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "mathieu_kit"

#: Library thread pools the benchmark caps at the machine's core count.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class MissingSource(RuntimeError):
    """The checkout has no ``src/mathieu_kit`` to measure."""


def use_source_tree() -> None:
    """Cap library thread pools at ``nproc`` and put this checkout's ``src``
    first on the import path.

    Must run before anything imports numpy or ``mathieu_kit``.  Raises
    :class:`MissingSource` when the checkout holds no package source, and
    also when a ``mathieu_kit`` from elsewhere was already imported.
    """
    if not (PACKAGE / "__init__.py").is_file():
        raise MissingSource(f"no package source at {PACKAGE}")
    nproc = os.cpu_count() or 1
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or not 1 <= int(current) <= nproc:
            os.environ[var] = str(nproc)
    sys.path.insert(0, str(SRC))
    import mathieu_kit

    if Path(mathieu_kit.__file__).resolve().parent != PACKAGE:
        raise MissingSource(f"mathieu_kit was imported from {mathieu_kit.__file__}")
