from fractions import Fraction

import pytest

from radialtyz.scalars import as_scalar


@pytest.fixture
def rat():
    return lambda p, q=1: as_scalar(Fraction(p, q))
