"""Every warning raised while a test of this directory runs fails it."""

from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent


def pytest_collection_modifyitems(items):
    # the hook sees every collected item, so the mark goes only on ours; it
    # goes first, so that a test's own filterwarnings marks still win
    for item in items:
        if HERE in Path(item.path).resolve().parents:
            item.add_marker(pytest.mark.filterwarnings("error"), append=False)
