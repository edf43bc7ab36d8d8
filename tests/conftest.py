"""Child interpreters started by the CLI tests import the qcmap under test.

pytest finds the package through ``pythonpath`` in pyproject.toml; the
``python -m qcmap.cli`` subprocesses get the same directory through
PYTHONPATH.
"""

import os
from pathlib import Path

import qcmap

_SRC = str(Path(qcmap.__file__).resolve().parent.parent)
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
