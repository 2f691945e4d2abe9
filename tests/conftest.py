import os
from pathlib import Path

import pytest

import lazy_newton


@pytest.fixture
def src_env():
    """Environment for a fresh interpreter that imports this checkout's lazy_newton."""
    src = str(Path(lazy_newton.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}
