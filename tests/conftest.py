"""Session-wide guards of the test suite."""

from pathlib import Path

import pytest

DATA = Path(__file__).resolve().parent / "data"


def _data_files():
    return {p.relative_to(DATA).as_posix() for p in DATA.rglob("*")}


@pytest.fixture(scope="session", autouse=True)
def data_files_left_as_they_were():
    """The session fails when a test leaves tests/data/ with other files
    than it found, such as a table recorded beside one of its annotation
    files."""
    before = _data_files()
    yield
    after = _data_files()
    assert after == before, (
        f"tests/data/ gained {sorted(after - before)} and lost {sorted(before - after)}"
    )
