import pytest

from matroidkit import minors


@pytest.fixture(autouse=True)
def cold_minor_memo():
    """Start every test with an empty minor memo, so that no test's result
    or time depends on the tests that ran before it."""
    minors._minor_memo.clear()
