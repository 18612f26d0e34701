from fractions import Fraction

from radialtyz.scalars import Scalar, Sign, abs_le, as_scalar


def assert_exact_zero(value: Scalar, what: str = "value"):
    assert value.sign() == Sign.ZERO, f"{what} is not exactly zero: {value!r}"


def assert_within(value: Scalar, target, tol: Fraction, what: str = "value"):
    diff = value - as_scalar(target)
    assert abs_le(diff, tol), f"{what} = {value!r} not within {tol} of {target}"
