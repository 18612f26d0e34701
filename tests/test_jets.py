from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radialtyz.jets import (
    HermitianBiJet,
    Jet,
    bijet_compose_univariate,
    bijet_exp,
)
from radialtyz.scalars import Sign, SignUndeterminedError, as_scalar

coeff = st.fractions(min_value=F(-20), max_value=F(20), max_denominator=12)
coeff_lists = st.lists(coeff, min_size=1, max_size=7)


def exact_eq(a: Jet, b: Jet) -> bool:
    return a.order == b.order and all(
        (x - y).sign() == Sign.ZERO for x, y in zip(a.coeffs, b.coeffs)
    )


def test_polynomial_identity():
    a = Jet.make(0, [1, 1, 0])
    b = Jet.make(0, [1, -1, 0])
    assert [c.text() for c in (a * b).coeffs] == ["1", "0", "-1"]


def test_geometric_series():
    one = Jet.constant(0, 1, 3)
    g = one / Jet.make(0, [1, -1, 0, 0])
    assert [c.text() for c in g.coeffs] == ["1", "1", "1", "1"]


def test_mul_div_roundtrip():
    q = Jet.make(F(1, 2), [F(2), F(3), F(-5), F(7)])
    r = Jet.make(F(1, 2), [F(1), F(-4), F(2), F(1)])
    assert exact_eq((q * r) / r, q)


def test_exp_series():
    t = Jet.make(0, [0, 1, 0, 0])
    assert [c.text() for c in t.exp().coeffs] == ["1", "1", "1/2", "1/6"]


def test_binomial_series():
    h = Jet.make(0, [1, 1, 0]).pow(F(1, 2))
    assert [c.text() for c in h.coeffs] == ["1", "1/2", "-1/8"]


def test_pow_constant_exact_case():
    c = Jet.constant(0, F(27, 8), 2).pow(F(1, 3))
    assert c.coeffs[0].text() == "3/2"
    assert all(v.sign() == Sign.ZERO for v in c.coeffs[1:])


def test_power_rule_and_antiderive():
    d = Jet.make(0, [1, 2, 3]).derive()
    assert [c.text() for c in d.coeffs] == ["2", "6"]
    a = Jet.make(2, [5, 1, -2, 7])
    restored = a.derive().antiderive(a.coeffs[0])
    assert exact_eq(restored, a)
    t = Jet.constant(0, 1, 0).antiderive(0)
    assert [c.text() for c in t.coeffs] == ["0", "1"]


def test_base_point_mismatch():
    with pytest.raises(ValueError, match="base points differ"):
        Jet.make(0, [1, 2]) + Jet.make(1, [1, 2])


def test_division_needs_certified_constant():
    with pytest.raises(ZeroDivisionError):
        Jet.make(0, [1, 1]) / Jet.make(0, [0, 1])
    straddle = as_scalar(F(1, 3)).to_ball(64)
    straddle = straddle - straddle
    with pytest.raises(SignUndeterminedError):
        Jet.make(0, [1, 1]) / Jet.make(0, [straddle, as_scalar(1)])


def test_derive_order_zero_rejected():
    with pytest.raises(ValueError):
        Jet.constant(0, 1, 0).derive()


def test_log_requires_positive_constant():
    with pytest.raises(ValueError):
        Jet.make(0, [-1, 1]).pow(F(1, 2))


@given(coeff_lists, coeff_lists)
@settings(max_examples=300, deadline=None)
def test_add_mul_match_naive_convolution(a, b):
    ja, jb = Jet.make(0, a), Jet.make(0, b)
    n = min(len(a), len(b))
    add = (ja + jb).coeffs
    mul = (ja * jb).coeffs
    assert len(add) == n and len(mul) == n
    for k in range(n):
        assert F(add[k].text()) == a[k] + b[k]
        assert F(mul[k].text()) == sum(a[i] * b[k - i] for i in range(k + 1))


@given(coeff_lists, st.integers(min_value=-3, max_value=3))
@settings(max_examples=150, deadline=None)
def test_pow_routes_agree(coeffs, num):
    """pow(r) via the binomial recurrence vs via exp(r log a)."""
    coeffs = [abs(coeffs[0]) + 1] + coeffs[1:]  # certified-positive constant
    r = F(num, 2)
    j = Jet.make(0, coeffs)
    assert exact_eq(j.pow(r), j.pow_via_exp_log(r))


@given(coeff_lists)
@settings(max_examples=150, deadline=None)
def test_exp_log_inverse(coeffs):
    coeffs = [F(1)] + coeffs[1:]  # log exact at constant 1
    j = Jet.make(0, coeffs)
    assert exact_eq(j.log().exp(), j)


def test_bijet_compose_identity():
    inner = HermitianBiJet.make(F(9, 16), [
        [F(9, 16), F(3, 4)],
        [F(3, 4), F(1)],
    ])  # x = (3/4 + u)(3/4 + v)
    ident = Jet.variable(F(9, 16), 2)
    out = bijet_compose_univariate(ident, inner)
    assert all(
        (out.coeff(i, j) - inner.coeff(i, j)).sign() == Sign.ZERO
        for i in range(2) for j in range(2)
    )


def test_bijet_exp_of_zero():
    z = HermitianBiJet.constant(1, 0, 2)
    e = bijet_exp(z)
    assert e.coeff(0, 0).text() == "1"
    assert all(
        e.coeff(i, j).sign() == Sign.ZERO for i in range(3) for j in range(3) if i + j
    )


def test_bijet_compose_square_against_brute_force():
    # g(x) = x^2 with x = (1+u)(1+v): ((1+u)(1+v))^2 truncated to L = 1
    inner = HermitianBiJet.make(1, [[1, 1], [1, 1]])
    comp = bijet_compose_univariate(Jet.variable(1, 2) ** 2, inner)
    expect = {(0, 0): "1", (0, 1): "2", (1, 0): "2", (1, 1): "4"}
    for (i, j), want in expect.items():
        assert comp.coeff(i, j).text() == want
    assert comp.is_symmetric()


def test_bijet_order_shortfall():
    inner = HermitianBiJet.make(1, [[1, 1], [1, 1]])
    with pytest.raises(ValueError, match="short of 2\\*L"):
        bijet_compose_univariate(Jet.variable(1, 1), inner)


def test_bijet_products_and_symmetry():
    a = HermitianBiJet.make(2, [[F(1), F(2)], [F(2), F(3)]])
    b = HermitianBiJet.make(2, [[F(4), F(-1)], [F(-1), F(5)]])
    p = a * b * a
    assert p.is_symmetric()
    e = bijet_exp(a - a)  # zero
    assert e.coeff(0, 0).text() == "1"


def test_bijet_mixed_partial_convention():
    b = HermitianBiJet.make(0, [[F(0), F(1), F(5)], [F(1), F(3), F(0)], [F(5), F(0), F(7)]])
    assert b.mixed_partial(1, 1).text() == "3"
    assert b.mixed_partial(2, 2).text() == "28"  # 2! 2! * 7
    assert b.mixed_partial(0, 2).text() == "10"  # 2! * 5
