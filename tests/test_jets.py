import math
import random
from fractions import Fraction as F

import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from radialtyz import jets
from radialtyz.jets import (
    HermitianBiJet,
    Jet,
    bijet_compose_univariate,
    bijet_exp,
)
from radialtyz.scalars import (
    ONE,
    ZERO,
    BallScalar,
    ExactnessError,
    Scalar,
    Sign,
    SignUndeterminedError,
    as_scalar,
    nth_root,
    scalar_exp,
    scalar_log,
    scalar_pow,
)

from helpers import compose_through_inner, is_hermitian_symmetric

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


@pytest.mark.parametrize("e, products", [
    (0, 0), (1, 1), (2, 2), (3, 3), (4, 3), (5, 4), (7, 5), (8, 4), (9, 5), (-3, 3),
])
def test_int_power_makes_one_product_per_bit_used(monkeypatch, e, products):
    # one product per set bit (the first, 1 * base, included) and one square
    # per bit after the first: no square once the base's last bit is used
    j = Jet.make(F(1, 2), [F(3, 2), 1, F(-1, 3), 2])
    want = Jet.constant(j.x0, 1, j.order)
    for _ in range(abs(e)):
        want = want * j
    if e < 0:
        want = Jet.constant(j.x0, 1, j.order) / want
    count = [0]
    mul = Jet.__mul__

    def counted(self, other):
        count[0] += isinstance(other, Jet)
        return mul(self, other)

    monkeypatch.setattr(Jet, "__mul__", counted)
    assert exact_eq(j ** e, want)
    assert count[0] == products


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
    # g(x) = x as a jet in t = x/x0 - 1 is x0 (1 + t): x0 (1 + u)(1 + v)
    x0 = F(9, 16)
    out = bijet_compose_univariate(Jet.variable(x0, 2).scale_var(x0), 1)
    assert all(out.coeff(i, j).text() == "9/16" for i in range(2) for j in range(2))


def test_bijet_exp_of_zero():
    z = HermitianBiJet.make(1, [[0] * 3 for _ in range(3)])
    e = bijet_exp(z)
    assert e.coeff(0, 0).text() == "1"
    assert all(
        e.coeff(i, j).sign() == Sign.ZERO for i in range(3) for j in range(3) if i + j
    )


def test_bijet_compose_square_against_brute_force():
    # g(x) = x^2 with x = (1+u)(1+v): ((1+u)(1+v))^2 truncated to L = 1
    comp = bijet_compose_univariate(Jet.variable(1, 2) ** 2, 1)
    expect = {(0, 0): "1", (0, 1): "2", (1, 0): "2", (1, 1): "4"}
    for (i, j), want in expect.items():
        assert comp.coeff(i, j).text() == want
    assert is_hermitian_symmetric(comp)


def test_bijet_make_rejects_a_matrix_that_is_not_hermitian():
    # the product and both series read only c_ij with i <= j
    with pytest.raises(ValueError, match="Hermitian"):
        HermitianBiJet.make(1, [[1, 2], [3, 4]])
    b = HermitianBiJet.make(1, [[1, F(2)], ["2", 4]])  # one value in three forms
    assert b.coeff(1, 0) == b.coeff(0, 1) == as_scalar(2)


@pytest.mark.parametrize("order", range(4))
def test_bijet_compose_forms_each_upper_coefficient_in_one_kernel_dot(order, monkeypatch):
    x0 = F(3, 4)
    g = (Jet.variable(x0, 2 * order) ** 3).scale_var(x0)
    calls = []
    dot = jets._raw_dot
    monkeypatch.setattr(jets, "_raw_dot", lambda *args: calls.append(args) or dot(*args))
    out = bijet_compose_univariate(g, order)
    assert len(calls) == (order + 1) * (order + 2) // 2
    assert is_hermitian_symmetric(out)


@pytest.mark.parametrize("order", range(5))
def test_trinomial_weights_are_the_powers_of_u_plus_v_plus_uv(order):
    # T(k, i, j) against the (i, j) entries of (u + v + uv)**k by products
    n = HermitianBiJet.make(1, [[1 if 0 < i + j and i < 2 and j < 2 else 0
                                 for j in range(order + 1)] for i in range(order + 1)])
    power = HermitianBiJet.make(1, [[int(i == j == 0) for j in range(order + 1)]
                                    for i in range(order + 1)])
    for k in range(2 * order + 1):
        assert [[jets._trinomial(k, i, j) for j in range(order + 1)] for i in range(order + 1)] == [
            [int(power.coeff(i, j).text()) for j in range(order + 1)] for i in range(order + 1)], k
        power = power * n


SQRT5 = nth_root(as_scalar(5), 2)


@pytest.mark.parametrize("x0", [as_scalar(F(3, 4)), (1 + SQRT5) / 2], ids=["Q", "Q(sqrt5)"])
@pytest.mark.parametrize("order", range(5))
def test_bijet_compose_is_the_inner_series_route_bit_for_bit(x0, order):
    # g.scale_var(x0) with integer weights against the composition with the
    # inner series x0 (1 + u + v + uv) and its powers, on exact jets
    rng = random.Random(order)
    coeffs = [as_scalar(F(rng.randint(-9, 9), rng.randint(1, 5))) + SQRT5 * rng.randint(-3, 3)
              if x0.backend == "root" else F(rng.randint(-9, 9), rng.randint(1, 5))
              for _ in range(2 * order + 1)]
    g = Jet.make(x0, coeffs)
    assert bijet_compose_univariate(g.scale_var(x0), order).raws == compose_through_inner(g, order).raws


def test_bijet_order_shortfall():
    with pytest.raises(ValueError, match="short of 2\\*L"):
        bijet_compose_univariate(Jet.variable(1, 1), 1)


def test_bijet_products_and_symmetry():
    a = HermitianBiJet.make(2, [[F(1), F(2)], [F(2), F(3)]])
    b = HermitianBiJet.make(2, [[F(4), F(-1)], [F(-1), F(5)]])
    p = a * b * a
    assert is_hermitian_symmetric(p)
    # exp(2u + 2v + 3uv) = 1 + 2u + 2v + (3 + 2*2)uv + ...
    e = bijet_exp(HermitianBiJet.make(2, [[F(0), F(2)], [F(2), F(3)]]))
    assert [[e.coeff(i, j).text() for j in range(2)] for i in range(2)] == [["1", "2"], ["2", "7"]]


def test_bijet_mixed_partial_convention():
    # mixed partials at the base point are i! j! c_ij: x^3 composed with
    # x = (1+u)(1+v), against sympy's derivatives of ((1+u)(1+v))^3 at 0
    u, v = sp.symbols("u v")
    comp = bijet_compose_univariate(Jet.variable(1, 4) ** 3, 2)
    for i in range(3):
        for j in range(3):
            want = sp.diff(((1 + u) * (1 + v)) ** 3, u, i, v, j).subs({u: 0, v: 0})
            assert F(comp.coeff(i, j).text()) * sp.factorial(i) * sp.factorial(j) == want


def test_ball_jet_recurrences_multiply_scalars_a_fixed_number_of_times(monkeypatch):
    # coefficients stay kernel raws, so a recurrence builds its Scalars only
    # for the constant term (an inverse, exp or root of c_0): the same number
    # of Scalar.__mul__ calls and BallScalar constructions at every order
    muls, balls = [], []
    mul, init = Scalar.__mul__, BallScalar.__init__
    monkeypatch.setattr(Scalar, "__mul__", lambda self, other: muls.append(1) or mul(self, other))
    monkeypatch.setattr(BallScalar, "__init__", lambda self, *a: balls.append(1) or init(self, *a))
    counts = {}
    for order in (8, 24):
        x0 = as_scalar(F(3, 4)).to_ball(256)
        a = Jet.make(x0, [as_scalar(F(k + 2, k + 1)).to_ball(256) for k in range(order + 1)])
        b = Jet.make(x0, [as_scalar(F(-1, k + 3)).to_ball(256) for k in range(order + 1)])
        ops = {
            "mul": lambda: a * b, "div": lambda: b / a, "pow": lambda: a.pow(F(1, 3)),
            "exp": lambda: b.exp(), "log": lambda: a.log(), "scale": lambda: a * F(2, 3),
            "derive": lambda: a.derive().antiderive(1), "scale_var": lambda: a.scale_var(x0),
        }
        for name, op in ops.items():
            muls.clear()
            balls.clear()
            assert op().order >= order - 1
            counts[order, name] = len(muls), len(balls)
            assert len(muls) <= 1, name
    assert all(counts[8, name] == counts[24, name] for name in ops)


# -- bit-identity oracle -------------------------------------------------------
#
# The Jet arithmetic as it was when coefficients were Scalars, kept here as a
# reference: per-coefficient Scalar operators, and each convolution the left
# fold of Scalar operations that the dot kernel stands for. Jets on raws must
# match it bit for bit, exceptions included, for rational, root and ball
# coefficients.


def _fold(acc, xs, ys, ws=None, neg=False):
    for i, (x, y) in enumerate(zip(xs, ys)):
        t = x * y if ws is None else x * y * ws[i]
        acc = acc - t if neg else acc + t
    return acc


def _ref_mul(a, b):
    return [_fold(ZERO, a[: k + 1], b[k::-1]) for k in range(min(len(a), len(b)))]


def _ref_div(a, b):
    s = b[0].sign()
    if s == Sign.ZERO:
        raise ZeroDivisionError("division by a jet with zero constant term")
    if s == Sign.UNDETERMINED:
        raise SignUndeterminedError("undetermined constant term")
    inv0 = ONE / b[0]
    out = []
    for k in range(min(len(a), len(b))):
        out.append(_fold(a[k], b[1 : k + 1], out[::-1], neg=True) * inv0)
    return out


def _ref_constant(value, order):
    return [as_scalar(value)] + [ZERO] * order


def _ref_int_pow(a, e):
    if e < 0:
        return _ref_div(_ref_constant(1, len(a) - 1), _ref_int_pow(a, -e))
    result, base = _ref_constant(1, len(a) - 1), a
    while e:
        if e & 1:
            result = _ref_mul(result, base)
        base = _ref_mul(base, base)
        e >>= 1
    return result


def _ref_derive(a):
    if len(a) < 2:
        raise ValueError("cannot differentiate an order-0 jet")
    return [a[k] * k for k in range(1, len(a))]


def _ref_antiderive(a, c0):
    return [as_scalar(c0)] + [c * F(1, k + 1) for k, c in enumerate(a)]


def _ref_exp(a):
    out = [scalar_exp(a[0])]
    for k in range(1, len(a)):
        out.append(_fold(ZERO, a[1 : k + 1], out[::-1], range(1, k + 1)) * F(1, k))
    return out


def _ref_log(a):
    l0 = scalar_log(a[0])
    if len(a) == 1:
        return [l0]
    return _ref_antiderive(_ref_div(_ref_derive(a), a[:-1]), l0)


def _ref_pow(a, r):
    if r.denominator == 1:
        return _ref_int_pow(a, r.numerator)
    if a[0].require_sign("pow base constant term") != Sign.POSITIVE:
        raise ValueError("fractional jet power needs a certified-positive constant term")
    inv0 = ONE / a[0]
    out = [scalar_pow(a[0], r)]
    for k in range(1, len(a)):
        ws = [(r + 1) * j - k for j in range(1, k + 1)]
        out.append(_fold(ZERO, a[1 : k + 1], out[::-1], ws) * inv0 * F(1, k))
    return out


def _ref_scale_var(a, factor):
    out, acc = [], ONE
    for c in a:
        out.append(c * acc)
        acc = acc * factor
    return out


def _ref_bi_add(a, b):
    n = min(len(a), len(b))
    return [[a[i][j] + b[i][j] for j in range(n)] for i in range(n)]


def _ref_bi_mul(a, b):
    n = min(len(a), len(b))
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            pairs = [(p, q) for p in range(i + 1) for q in range(j + 1)]
            acc = _fold(ZERO, [a[p][q] for p, q in pairs], [b[i - p][j - q] for p, q in pairs])
            rows[i][j] = rows[j][i] = acc
    return rows


def _ref_bi_scale(a, c):
    c = as_scalar(c)
    return [[v * c for v in r] for r in a]


def _ref_bi_constant(value, n):
    return [[as_scalar(value) if i == j == 0 else ZERO for j in range(n)] for i in range(n)]


def _ref_bi_series(a, first, scales):
    """first + sum_k scales[k-1] * N**k, N the nilpotent part of a and
    N**k = N**(k-1) * N from N**1 = N itself."""
    nil = [list(r) for r in a]
    nil[0][0] = ZERO
    acc, power = _ref_bi_constant(first, len(a)), nil
    for k, c in enumerate(scales):
        if k:
            power = _ref_bi_mul(power, nil)
        acc = _ref_bi_add(acc, _ref_bi_scale(power, c))
    return acc


def _ref_bi_compose(g, n):
    """c_ij = g_0 [i = j = 0] + sum_k g_k T(k, i, j), zero weights included,
    T(k, i, j) the coefficient of u**i v**j in (u + v + uv)**k."""
    def t(k, i, j):
        return sum(math.comb(k, m) * (-1) ** (k - m) * math.comb(m, i) * math.comb(m, j)
                   for m in range(k + 1))
    return [[_fold(g[0] if i == j == 0 else ZERO, g[1:], [F(t(k, i, j)) for k in range(1, len(g))])
             for j in range(n)] for i in range(n)]


def _ref_bi_exp(a):
    scale = scalar_exp(a[0][0])
    facts = [F(1, math.factorial(k)) for k in range(1, 2 * len(a) - 1)]
    return _ref_bi_scale(_ref_bi_series(a, 1, facts), scale)


def _bits(value) -> tuple:
    if isinstance(value, BallScalar):
        return "ball", value.mpi, value.precision_bits
    return type(value).__name__, value


def _outcome(f):
    """Every coefficient bit for bit, or the type of the exception raised."""
    try:
        v = f()
    except (ArithmeticError, ValueError) as exc:
        return type(exc).__name__
    if isinstance(v, Jet):
        v = v.coeffs
    elif isinstance(v, HermitianBiJet):
        v = [[v.coeff(i, j) for j in range(v.order + 1)] for i in range(v.order + 1)]
    return [[_bits(c) for c in r] if isinstance(r, (list, tuple)) else _bits(r) for r in v]


SQRT2, CBRT2 = nth_root(as_scalar(2), 2), nth_root(as_scalar(2), 3)
small = st.fractions(min_value=F(-9), max_value=F(9), max_denominator=7)
KINDS = ["rational", "sqrt2", "cbrt2", "ball16", "ball53", "ball256"]


def _kind_values(kind: str):
    if kind == "sqrt2":
        return st.builds(lambda p, q: as_scalar(p) + SQRT2 * q, small, small)
    if kind == "cbrt2":
        return st.builds(lambda p, q, r: as_scalar(p) + CBRT2 * q + CBRT2 * CBRT2 * r,
                         small, small, small)
    if kind.startswith("ball"):
        prec = int(kind[4:])
        return st.builds(lambda v: as_scalar(v).to_ball(prec), small)
    return small.map(as_scalar)


@st.composite
def coeff_values(draw, kind: str, size: int):
    """size coefficients of one kind, with exact zeros and rationals mixed in."""
    values = st.just(ZERO) | small.map(as_scalar) | _kind_values(kind)
    return [draw(values) for _ in range(size)]


@st.composite
def jet_pairs(draw):
    size = draw(st.integers(1, 5))
    kinds = draw(st.sampled_from(KINDS)), draw(st.sampled_from(KINDS))
    return [draw(coeff_values(k, size + draw(st.integers(0, 1)))) for k in kinds]


STRADDLE = as_scalar(F(1, 3)).to_ball(53) - as_scalar(F(1, 3)).to_ball(53)


BALL16, BALL256 = as_scalar(F(1, 3)).to_ball(16), as_scalar(F(2**300 + 1, 3)).to_ball(256)


@given(jet_pairs(), st.integers(-2, 3), st.sampled_from([ZERO, STRADDLE, as_scalar(F(5, 3))]))
@example(([BALL16, BALL256, ZERO], [BALL256, BALL16, BALL256]), 0, ZERO)  # balls of two precisions
@settings(max_examples=200, deadline=None)
def test_jet_ring_operations_match_the_scalar_reference(pair, e, c):
    a, b = pair
    ja, jb = Jet.make(0, a), Jet.make(0, b)
    cases = [
        (lambda: ja + jb, lambda: [x + y for x, y in zip(a, b)]),
        (lambda: ja - jb, lambda: [x - y for x, y in zip(a, b)]),
        (lambda: -ja, lambda: [-x for x in a]),
        (lambda: ja * jb, lambda: _ref_mul(a, b)),
        (lambda: ja / jb, lambda: _ref_div(a, b)),
        (lambda: ja ** e, lambda: _ref_int_pow(a, e)),
        (lambda: ja * b[0], lambda: [x * b[0] for x in a]),
        (lambda: ja / b[0], lambda: [x * (ONE / b[0]) for x in a]),
        (lambda: ja + c, lambda: [x + y for x, y in zip(a, _ref_constant(c, len(a) - 1))]),
        (lambda: ja.derive(), lambda: _ref_derive(a)),
        (lambda: ja.antiderive(b[0]), lambda: _ref_antiderive(a, b[0])),
        (lambda: ja.scale_var(b[0]), lambda: _ref_scale_var(a, b[0])),
    ]
    for i, (got, want) in enumerate(cases):
        assert _outcome(got) == _outcome(want), i


@given(jet_pairs(), st.sampled_from([F(1, 2), F(-3, 2), F(5, 2), F(1, 3), F(2)]),
       st.fractions(min_value=F(1, 3), max_value=F(3), max_denominator=4))
@settings(max_examples=150, deadline=None)
def test_jet_functions_match_the_scalar_reference(pair, r, q):
    a, b = pair
    # constant terms the exact backends can take: exp(0), log(1) and a square base
    for c0, op, ref in (
        (ZERO, Jet.exp, _ref_exp),
        (ONE, Jet.log, _ref_log),
        (as_scalar(q * q), lambda j: j.pow(r), lambda v: _ref_pow(v, r)),
    ):
        for coeffs in (a, [c0] + b[1:], [a[0] * a[0] + 1] + b[1:]):
            j = Jet.make(0, coeffs)
            assert _outcome(lambda: op(j)) == _outcome(lambda: ref(coeffs)), op


@st.composite
def hermitian_rows(draw, kind: str, n: int, c00=None):
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = draw(coeff_values(kind, 1))[0]
    if c00 is not None:
        rows[0][0] = c00
    return rows


@st.composite
def bijet_cases(draw):
    n = draw(st.integers(1, 3))
    kinds = [draw(st.sampled_from(KINDS)) for _ in range(3)]
    a = draw(hermitian_rows(kinds[0], n))
    b = draw(hermitian_rows(kinds[1], n))
    g = draw(coeff_values(kinds[2], 2 * n - 1))
    return a, b, g


MIXED = [[ZERO, BALL16], [BALL16, as_scalar(F(1, 3))]]


@given(bijet_cases(), st.booleans())
# an exact entry of N beside balls: N**1 is N, not 1 * N (which makes it a ball)
@example((MIXED, MIXED, [as_scalar(F(1, k)) for k in (5, 6, 7)]), False)
@settings(max_examples=150, deadline=None)
def test_bijet_operations_match_the_scalar_reference(case, zero_c00):
    a, b, g = case
    if zero_c00:
        a[0][0] = ZERO  # exp(0) is exact
    ba, bb = HermitianBiJet.make(1, a), HermitianBiJet.make(1, b)
    gj = Jet.make(1, g)
    cases = [
        (lambda: ba * bb, lambda: _ref_bi_mul(a, b)),
        (lambda: bijet_exp(ba), lambda: _ref_bi_exp(a)),
        (lambda: bijet_compose_univariate(gj, len(a) - 1), lambda: _ref_bi_compose(g, len(a))),
    ]
    for i, (got, want) in enumerate(cases):
        assert _outcome(got) == _outcome(want), i


# -- exact products by integer convolution ---------------------------------------


def _fold_raws(a: Jet, b: Jet) -> tuple:
    """The product's raws as the kernel dot forms them, one per coefficient."""
    n = min(a.order, b.order) + 1
    return tuple(jets._raw_dot(jets._ZERO, a.raws[: k + 1], b.raws[k::-1]) for k in range(n))


def _exact_coeffs(rng, size: int, root) -> list:
    out = []
    for _ in range(size):
        v = as_scalar(F(rng.randint(-30, 30), rng.randint(1, 9)))
        if rng.random() < 0.2:
            v = ZERO
        elif root is not None and rng.random() < 0.7:
            v = v + root * F(rng.randint(-9, 9), rng.randint(1, 5))
        out.append(v)
    return out


ROOTS = {"Q": None, "sqrt5": nth_root(as_scalar(5), 2), "cbrt7": nth_root(as_scalar(7), 3)}


@pytest.mark.parametrize("kind_a, kind_b", [("Q", "Q"), ("sqrt5", "sqrt5"), ("cbrt7", "cbrt7"),
                                            ("Q", "sqrt5"), ("cbrt7", "Q")])
def test_exact_products_equal_the_kernel_fold(kind_a, kind_b, monkeypatch):
    convolve, lengths = jets._convolve, []
    monkeypatch.setattr(jets, "_convolve",
                        lambda a, b, ext: lengths.append(len(a)) or convolve(a, b, ext))
    rng = random.Random(6)
    for size in range(1, 13):
        for extra in (0, 2):
            a = Jet.make(F(1, 2), _exact_coeffs(rng, size, ROOTS[kind_a]))
            b = Jet.make(F(1, 2), _exact_coeffs(rng, size + extra, ROOTS[kind_b]))
            assert (a * b).raws == _fold_raws(a, b) == (b * a).raws[: size]
    zeros = Jet.make(F(1, 2), [ZERO] * 8)
    assert (zeros * a).raws == _fold_raws(zeros, a) == (jets._ZERO,) * 8
    assert min(lengths) == jets._CONVOLVE_FROM and max(lengths) == 12


def test_a_product_with_a_ball_or_two_roots_keeps_the_fold(monkeypatch):
    calls = []
    monkeypatch.setattr(jets, "_convolve", lambda *args: calls.append(args))
    exact = Jet.make(F(1, 2), [F(k + 1, 3) for k in range(8)])
    ball = Jet.make(F(1, 2), [as_scalar(F(1, k + 2)).to_ball(64) for k in range(8)])
    assert (ball * exact).raws == _fold_raws(ball, exact)
    assert (exact * ball).raws == _fold_raws(exact, ball)
    mixed = Jet.make(F(1, 2), [ROOTS["sqrt5"]] * 4 + [ROOTS["cbrt7"]] * 4)
    with pytest.raises(ExactnessError):
        mixed * exact
    assert calls == []
    monkeypatch.undo()
    assert (exact * exact).raws == _fold_raws(exact, exact)


@pytest.mark.parametrize("x, y", [(F(2, 3), F(-3, 4)), (ZERO, as_scalar(F(1, 3)).to_ball(16)),
                                  (as_scalar(F(1, 3)).to_ball(16), as_scalar(F(1, 7)).to_ball(64)),
                                  (ROOTS["sqrt5"], ZERO), (ROOTS["cbrt7"], F(5))])
def test_a_one_coefficient_product_is_the_dot_of_one_term(x, y):
    a, b = Jet.make(0, [x]), Jet.make(0, [y, 1])
    assert (a * b).raws == (b * a).raws == _fold_raws(a, b)
