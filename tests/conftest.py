import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# every property test draws the same examples on every run
settings.register_profile("lastfall", derandomize=True, deadline=None)
settings.load_profile("lastfall")

from lastfall import make_field


@pytest.fixture(scope="session")
def gf2():
    return make_field(2, 1, 1)


@pytest.fixture(scope="session")
def gf4():
    return make_field(2, 1, 2)


@pytest.fixture(scope="session")
def gf8():
    return make_field(2, 1, 3)


@pytest.fixture(scope="session")
def gf9():
    return make_field(3, 1, 2)


@pytest.fixture(scope="session")
def gf16():
    return make_field(2, 1, 4)


@pytest.fixture(scope="session")
def gf64_tower():
    # q = 4, n = 3: exercises a genuine three-level tower
    return make_field(2, 2, 3)
