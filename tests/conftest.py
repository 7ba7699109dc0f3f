import pytest
from hypothesis import settings

from matroidkit import minors

# Every property test replays the same examples on every run: no deadline,
# no example database, derandomised.  A test sets only its own max_examples.
settings.register_profile("matroidkit", deadline=None, database=None,
                          derandomize=True)
settings.load_profile("matroidkit")


@pytest.fixture(autouse=True)
def cold_minor_memo():
    """Start every test with an empty minor memo, so that no test's result
    or time depends on the tests that ran before it."""
    minors._minor_memo.clear()
