import shutil
import sys
import tempfile
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import worker  # noqa: E402

worker.load_hornfill()


@pytest.fixture
def work():
    """A scratch directory inside the checkout, removed afterwards."""
    worker.WORK.mkdir(parents=True, exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="test-", dir=worker.WORK))
    yield path
    shutil.rmtree(path, ignore_errors=True)
