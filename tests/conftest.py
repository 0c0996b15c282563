"""Shared helpers for the tests that run ``python -m taan`` in a subprocess."""

import os
from pathlib import Path

import taan

# The directory holding the ``taan`` package these tests imported, as an
# absolute path: subprocesses run with a temporary working directory, where a
# relative PYTHONPATH entry such as ``src`` would not resolve.
PACKAGE_ROOT = str(Path(taan.__file__).resolve().parent.parent)


def child_env():
    """os.environ with the tested package's root first on PYTHONPATH."""
    inherited = os.environ.get("PYTHONPATH")
    path = PACKAGE_ROOT if not inherited else PACKAGE_ROOT + os.pathsep + inherited
    return dict(os.environ, PYTHONPATH=path)
